/** @file Tests for the superposition assertion (paper Sec. 3.3). */

#include <cmath>

#include <gtest/gtest.h>

#include "assertions/injector.hh"
#include "assertions/superposition_assertion.hh"
#include "common/error.hh"
#include "sim/statevector_simulator.hh"
#include "testutil.hh"

namespace qra {
namespace {

using Target = SuperpositionAssertion::Target;

InstrumentedCircuit
withCheck(const Circuit &payload,
          std::shared_ptr<const Assertion> assertion, Qubit target)
{
    AssertionSpec spec;
    spec.assertion = std::move(assertion);
    spec.targets = {target};
    spec.insertAt = payload.size();
    return instrument(payload, {spec});
}

double
errorRate(const InstrumentedCircuit &inst, const Result &r)
{
    double error = 0.0;
    for (const auto &[reg, n] : r.rawCounts())
        if (!inst.passed(reg))
            error += double(n) / double(r.shots());
    return error;
}

TEST(SuperpositionAssertionTest, ArityAndValidation)
{
    SuperpositionAssertion a(Target::Plus);
    EXPECT_EQ(a.kind(), AssertionKind::Superposition);
    EXPECT_EQ(a.numTargets(), 1u);
    EXPECT_EQ(a.numAncillas(), 1u);
    EXPECT_THROW(SuperpositionAssertion(Target::Basis),
                 AssertionError);
}

TEST(SuperpositionAssertionTest, PlusStateNeverErrors)
{
    Circuit payload(1, 0);
    payload.h(0);
    const InstrumentedCircuit inst = withCheck(
        payload, std::make_shared<SuperpositionAssertion>(), 0);
    StatevectorSimulator sim(1);
    const Result r = sim.run(inst.circuit(), 2000);
    EXPECT_DOUBLE_EQ(errorRate(inst, r), 0.0);
}

TEST(SuperpositionAssertionTest, MinusStateAlwaysErrorsPlusCheck)
{
    Circuit payload(1, 0);
    payload.x(0).h(0); // |->
    const InstrumentedCircuit inst = withCheck(
        payload, std::make_shared<SuperpositionAssertion>(), 0);
    StatevectorSimulator sim(2);
    const Result r = sim.run(inst.circuit(), 2000);
    EXPECT_DOUBLE_EQ(errorRate(inst, r), 1.0);
}

TEST(SuperpositionAssertionTest, MinusVariantAcceptsMinus)
{
    Circuit payload(1, 0);
    payload.x(0).h(0); // |->
    const InstrumentedCircuit inst = withCheck(
        payload,
        std::make_shared<SuperpositionAssertion>(Target::Minus), 0);
    StatevectorSimulator sim(3);
    const Result r = sim.run(inst.circuit(), 2000);
    EXPECT_DOUBLE_EQ(errorRate(inst, r), 0.0);

    // And rejects |+> deterministically.
    Circuit plus(1, 0);
    plus.h(0);
    const InstrumentedCircuit inst2 = withCheck(
        plus, std::make_shared<SuperpositionAssertion>(Target::Minus),
        0);
    const Result r2 = sim.run(inst2.circuit(), 2000);
    EXPECT_DOUBLE_EQ(errorRate(inst2, r2), 1.0);
}

TEST(SuperpositionAssertionTest, MinusVariantRestoresMinusOnPass)
{
    // A passing |-> check leaves the target in |->, not |+>: the
    // state after the check is |->(x)|0>_anc, and H then measure
    // reads 1 on every shot.
    Circuit payload(1, 1);
    payload.x(0).h(0); // |->
    const InstrumentedCircuit inst = withCheck(
        payload,
        std::make_shared<SuperpositionAssertion>(Target::Minus), 0);
    ASSERT_EQ(inst.circuit().numQubits(), 2u);

    StatevectorSimulator sim(12);
    const StateVector after =
        sim.evolveWithMeasurements(inst.circuit());
    const double r = 1.0 / std::sqrt(2.0);
    test::expectAmplitudesNear(after.amplitudes(),
                               {Complex(r, 0.0), Complex(-r, 0.0),
                                Complex(0.0, 0.0), Complex(0.0, 0.0)},
                               1e-12);

    Circuit then_h = payload;
    then_h.h(0).measure(0, 0);
    AssertionSpec spec;
    spec.assertion =
        std::make_shared<SuperpositionAssertion>(Target::Minus);
    spec.targets = {0};
    spec.insertAt = payload.size();
    const InstrumentedCircuit checked = instrument(then_h, {spec});
    const Result shots = sim.run(checked.circuit(), 2000);
    EXPECT_DOUBLE_EQ(errorRate(checked, shots), 0.0);
    for (const auto &[reg, n] : shots.rawCounts())
        EXPECT_EQ(checked.payloadBits(reg), 1u) << n << " shots";
}

TEST(SuperpositionAssertionTest, ClassicalInputErrorsHalfTheTime)
{
    // Paper Sec. 3.3: classical |0> or |1> input gives a 50% error
    // rate on the |+> check.
    for (int bit : {0, 1}) {
        Circuit payload(1, 0);
        if (bit)
            payload.x(0);
        const InstrumentedCircuit inst = withCheck(
            payload, std::make_shared<SuperpositionAssertion>(), 0);
        StatevectorSimulator sim(4 + bit);
        const Result r = sim.run(inst.circuit(), 40000);
        EXPECT_NEAR(errorRate(inst, r), 0.5, 0.02) << bit;
    }
}

TEST(SuperpositionAssertionTest, ErrorProbabilityClosedForm)
{
    // For real a, b: P(error) = (1 - 2ab)/2 (paper derivation).
    for (double theta : {0.4, 1.0, M_PI / 2, 2.0, 2.8}) {
        const double a = std::cos(theta / 2.0);
        const double b = std::sin(theta / 2.0);
        Circuit payload(1, 0);
        payload.ry(theta, 0);
        const InstrumentedCircuit inst = withCheck(
            payload, std::make_shared<SuperpositionAssertion>(), 0);
        StatevectorSimulator sim(6);
        const Result r = sim.run(inst.circuit(), 40000);
        EXPECT_NEAR(errorRate(inst, r), (1.0 - 2.0 * a * b) / 2.0,
                    0.02)
            << theta;
    }
}

TEST(SuperpositionAssertionTest, AncillaUnentangledOnPlusInput)
{
    Circuit payload(1, 0);
    payload.h(0);
    AssertionSpec spec;
    spec.assertion = std::make_shared<SuperpositionAssertion>();
    spec.targets = {0};
    spec.insertAt = payload.size();
    const InstrumentedCircuit inst = instrument(payload, {spec});

    Circuit no_measure(inst.circuit().numQubits(), 0);
    for (const Operation &op : inst.circuit().ops())
        if (op.kind != OpKind::Measure && op.kind != OpKind::Barrier)
            no_measure.append(op);

    StatevectorSimulator sim(7);
    const StateVector sv = sim.finalState(no_measure);
    const Qubit anc = inst.checks()[0].ancillas[0];
    EXPECT_NEAR(sv.probabilityOfOne(anc), 0.0, 1e-9);
    EXPECT_NEAR(sv.qubitPurity(anc), 1.0, 1e-9);
    // The target is still |+>.
    EXPECT_NEAR(sv.probabilityOfOne(0), 0.5, 1e-9);
}

TEST(SuperpositionAssertionTest, ClassicalInputForcedIntoSuperposition)
{
    // Paper Fig. 7 effect: classical input + measured ancilla leaves
    // the target in an equal superposition either way.
    for (int outcome : {0, 1}) {
        Circuit payload(1, 0);
        payload.x(0);
        AssertionSpec spec;
        spec.assertion = std::make_shared<SuperpositionAssertion>();
        spec.targets = {0};
        spec.insertAt = payload.size();
        const InstrumentedCircuit inst = instrument(payload, {spec});

        Circuit conditioned = inst.circuit();
        conditioned.postSelect(inst.checks()[0].ancillas[0], outcome);
        StatevectorSimulator sim(8);
        const StateVector sv = sim.finalState(conditioned);
        EXPECT_NEAR(sv.probabilityOfOne(0), 0.5, 1e-9)
            << "ancilla outcome " << outcome;
    }
}

TEST(SuperpositionAssertionTest, BasisModeAcceptsMatchingState)
{
    const double theta = 1.1, phi = 0.6;
    Circuit payload(1, 0);
    payload.u(theta, phi, 0.0, 0);
    const InstrumentedCircuit inst = withCheck(
        payload,
        std::make_shared<SuperpositionAssertion>(theta, phi), 0);
    StatevectorSimulator sim(9);
    const Result r = sim.run(inst.circuit(), 2000);
    EXPECT_NEAR(errorRate(inst, r), 0.0, 1e-12);
}

TEST(SuperpositionAssertionTest, BasisModeRestoresTargetState)
{
    const double theta = 0.8, phi = -0.4;
    Circuit payload(1, 0);
    payload.u(theta, phi, 0.0, 0);

    AssertionSpec spec;
    spec.assertion =
        std::make_shared<SuperpositionAssertion>(theta, phi);
    spec.targets = {0};
    spec.insertAt = payload.size();
    const InstrumentedCircuit inst = instrument(payload, {spec});

    StatevectorSimulator sim(10);
    const StateVector after =
        sim.evolveWithMeasurements(inst.circuit());

    StateVector expected = test::makeSingleQubitState(
        theta, phi, inst.circuit().numQubits());
    EXPECT_NEAR(after.probabilityOfOne(0),
                expected.probabilityOfOne(0), 1e-9);
    EXPECT_NEAR(after.qubitPurity(0), 1.0, 1e-9);
}

TEST(SuperpositionAssertionTest, BasisModeErrorIsOrthogonalOverlap)
{
    // Prepared RY(t1), asserted RY(t2): P(error) = sin^2((t1-t2)/2).
    const double t1 = 2.0, t2 = 0.7;
    Circuit payload(1, 0);
    payload.ry(t1, 0);
    const InstrumentedCircuit inst = withCheck(
        payload, std::make_shared<SuperpositionAssertion>(t2, 0.0),
        0);
    StatevectorSimulator sim(11);
    const Result r = sim.run(inst.circuit(), 40000);
    const double expected = std::pow(std::sin((t1 - t2) / 2.0), 2);
    EXPECT_NEAR(errorRate(inst, r), expected, 0.02);
}

TEST(SuperpositionAssertionTest, Describe)
{
    EXPECT_EQ(SuperpositionAssertion().describe(),
              "assert qubit == |+>");
    EXPECT_EQ(SuperpositionAssertion(Target::Minus).describe(),
              "assert qubit == |->");
    EXPECT_NE(SuperpositionAssertion(0.5, 0.25).describe().find("U("),
              std::string::npos);
}

} // namespace
} // namespace qra
