#include "assertions/superposition_assertion.hh"

#include "common/error.hh"
#include "common/strings.hh"

namespace qra {

SuperpositionAssertion::SuperpositionAssertion(Target target)
    : target_(target)
{
    if (target == Target::Basis)
        throw AssertionError("Basis mode requires explicit (theta, "
                             "phi); use the two-argument constructor");
}

SuperpositionAssertion::SuperpositionAssertion(double theta, double phi)
    : target_(Target::Basis), theta_(theta), phi_(phi)
{
}

void
SuperpositionAssertion::emit(Circuit &circuit,
                             const std::vector<Qubit> &targets,
                             const std::vector<Qubit> &ancillas,
                             const std::vector<Clbit> &clbits) const
{
    checkOperands(targets, ancillas, clbits);
    const Qubit t = targets[0];
    const Qubit anc = ancillas[0];

    switch (target_) {
      case Target::Plus:
      case Target::Minus:
        // Paper Fig. 5: CNOT, H (x) H, CNOT.
        circuit.cx(t, anc);
        circuit.h(t);
        circuit.h(anc);
        circuit.cx(t, anc);
        if (target_ == Target::Minus) {
            // |-> leaves |+> (x) |1>: flip the ancilla so 0 = pass,
            // and turn the target back into |->.
            circuit.x(anc);
            circuit.z(t);
        }
        circuit.measure(anc, clbits[0]);
        return;
      case Target::Basis:
        // Rotate the asserted state down to |0>, run the classical
        // ==|0> check, rotate back. U(t,p,0)^-1 = U(-t, 0, -p).
        circuit.u(-theta_, 0.0, -phi_, t);
        circuit.cx(t, anc);
        circuit.u(theta_, phi_, 0.0, t);
        circuit.measure(anc, clbits[0]);
        return;
    }
    QRA_PANIC("unhandled superposition target");
}

std::string
SuperpositionAssertion::describe() const
{
    switch (target_) {
      case Target::Plus:
        return "assert qubit == |+>";
      case Target::Minus:
        return "assert qubit == |->";
      case Target::Basis:
        return "assert qubit == U(" + formatDouble(theta_, 3) + ", " +
               formatDouble(phi_, 3) + ", 0)|0>";
    }
    QRA_PANIC("unhandled superposition target");
}

} // namespace qra
