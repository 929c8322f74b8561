/**
 * @file
 * Dynamic assertion for superposition states (paper Sec. 3.3, Fig. 5).
 *
 * Paper circuit: CNOT(target -> ancilla), H on both, CNOT(target ->
 * ancilla), measure the ancilla. For target |+> the ancilla is
 * deterministically |0>; for |-> it is deterministically |1>; for a
 * classical-state target it reads |1> with probability 1/2 and the
 * passing branch *forces* the target into an equal superposition.
 *
 * Normalisation: when asserting |->, an X is appended to the ancilla
 * before readout so that |1> uniformly signals an error, and a Z on
 * the target turns the |+> the circuit leaves behind back into |->,
 * so a passing check leaves its qubit as it found it.
 *
 * Extension (Basis mode): asserting an arbitrary pure single-qubit
 * state cos(t/2)|0> + e^{ip} sin(t/2)|1> by conjugating the classical
 * check with the basis rotation U(t, p, 0): U' target, CNOT into the
 * ancilla, U target. Deterministic pass on match; error probability
 * equals the overlap with the orthogonal state on mismatch. Unlike
 * the paper circuit this briefly rotates the qubit under test, but it
 * restores it exactly on the pass path.
 */

#ifndef QRA_ASSERTIONS_SUPERPOSITION_ASSERTION_HH
#define QRA_ASSERTIONS_SUPERPOSITION_ASSERTION_HH

#include "assertions/assertion.hh"

namespace qra {

/** Assert that one qubit is in a specific superposition state. */
class SuperpositionAssertion : public Assertion
{
  public:
    /** Which state is asserted. */
    enum class Target
    {
        Plus,  ///< (|0> + |1>)/sqrt(2), paper circuit
        Minus, ///< (|0> - |1>)/sqrt(2), paper circuit + ancilla X
        Basis, ///< arbitrary (theta, phi), rotation-conjugated check
    };

    /** Assert |+> or |->. */
    explicit SuperpositionAssertion(Target target = Target::Plus);

    /** Assert the arbitrary state U(theta, phi, 0)|0> (Basis mode). */
    SuperpositionAssertion(double theta, double phi);

    AssertionKind kind() const override
    {
        return AssertionKind::Superposition;
    }

    std::size_t numTargets() const override { return 1; }
    std::size_t numAncillas() const override { return 1; }

    void emit(Circuit &circuit, const std::vector<Qubit> &targets,
              const std::vector<Qubit> &ancillas,
              const std::vector<Clbit> &clbits) const override;

    std::string describe() const override;

    Target target() const { return target_; }
    double theta() const { return theta_; }
    double phi() const { return phi_; }

  private:
    Target target_;
    double theta_ = 0.0;
    double phi_ = 0.0;
};

} // namespace qra

#endif // QRA_ASSERTIONS_SUPERPOSITION_ASSERTION_HH
