/**
 * @file
 * n-qubit density matrix with unitary evolution, Kraus channels, and
 * computational-basis measurement primitives.
 *
 * rho is stored as a dense row-major 2^n x 2^n matrix, so its storage
 * is also a 2n-qubit amplitude vector: entry (r, c) sits at index
 * r * 2^n + c, the low n bits index the column and the high n bits
 * the row. Circuit qubit q is bit q (column side) and bit q + n (row
 * side) of that vector. Every update is an in-place pass over that
 * whole buffer, with no copies of rho:
 *  - U rho U^dagger is U on the row bits q + n, then conj(U) on the
 *    column bits q (two shared-kernel calls, sim/kernels);
 *  - a k-qubit channel is one pass of its superoperator
 *    S = sum_j K_j (x) conj(K_j) (4^k x 4^k) on the 2k operand bits,
 *    column bits first. For k = 1 that is the shared two-qubit
 *    kernel; wider ones run a sparse pass over S's nonzero entries;
 *  - reset, dephase and post-selection are one-qubit superoperators
 *    of the same form.
 *
 * Supports 1..12 qubits; the 2n-qubit vector holds 4^n complex
 * entries (16 KiB at 5 qubits, 256 MiB at 12). From 8 qubits on the
 * passes exceed twice the kernels' parallel grain and split across
 * the scoped pool; splits touch disjoint entries, so results are
 * bit-identical at any lane count.
 */

#ifndef QRA_SIM_DENSITY_MATRIX_HH
#define QRA_SIM_DENSITY_MATRIX_HH

#include <vector>

#include "circuit/gate.hh"
#include "math/matrix.hh"
#include "math/types.hh"

namespace qra {

class DensityMatrixSimulator;
class KrausChannel;

/** Mixed quantum state over a register of qubits. */
class DensityMatrix
{
  public:
    /** Initialise to the pure state |0...0><0...0|. */
    explicit DensityMatrix(std::size_t num_qubits);

    /** Initialise from a pure state's amplitudes. */
    static DensityMatrix fromPureState(const std::vector<Complex> &amps);

    std::size_t numQubits() const { return numQubits_; }
    std::size_t dim() const { return rho_.rows(); }

    const Matrix &matrix() const { return rho_; }

    /** rho <- U rho U^dagger with U acting on @p qubits. */
    void applyMatrix(const Matrix &u, const std::vector<Qubit> &qubits);

    /** Apply one unitary circuit operation. */
    void applyUnitary(const Operation &op);

    /** rho <- sum_k K_k rho K_k^dagger over @p qubits. */
    void applyKraus(const KrausChannel &channel,
                    const std::vector<Qubit> &qubits);

    /** Non-destructive P(qubit q == 1). */
    double probabilityOfOne(Qubit q) const;

    /**
     * Destroy coherence between the |0> and |1> subspaces of @p q
     * (the back-action of an unread computational-basis measurement).
     */
    void dephase(Qubit q);

    /**
     * Project qubit @p q onto @p outcome and renormalise.
     * @return Probability of the selected branch.
     * @throws SimulationError if the branch has (near-)zero weight.
     */
    double postSelect(Qubit q, int outcome);

    /** Reset channel on one qubit: rho -> |0><0| (x) tr_q contents. */
    void resetQubit(Qubit q);

    /** Diagonal of rho: probability of each basis state. */
    std::vector<double> probabilities() const;

    /** Tr(rho^2). */
    double purity() const;

    /** <psi| rho |psi>. */
    double fidelityWithPure(const std::vector<Complex> &psi) const;

    /** 2x2 reduced state of one qubit. */
    Matrix reducedQubitDensity(Qubit q) const;

    /** Tr(rho); should be 1 up to numerical error. */
    double trace() const;

  private:
    /** Builds fused gate-plus-noise superoperators per run. */
    friend class DensityMatrixSimulator;

    void checkQubit(Qubit q) const;

    /**
     * Superoperator sum_j K_j (x) conj(K_j) of the Kraus operators
     * @p kraus ({U} gives the unitary's U (x) conj(U)).
     */
    static Matrix superoperator(const std::vector<Matrix> &kraus);

    /**
     * rho <- S(rho) for a superoperator @p s of the channel on circuit
     * @p qubits (matrix bit j: column bit of qubits[j] for j < k, row
     * bit of qubits[j - k] for j >= k).
     */
    void applySuperoperator(const Matrix &s,
                            const std::vector<Qubit> &qubits);

    std::size_t numQubits_;
    Matrix rho_;
};

} // namespace qra

#endif // QRA_SIM_DENSITY_MATRIX_HH
