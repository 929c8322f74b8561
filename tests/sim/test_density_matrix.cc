/** @file Tests for the DensityMatrix backend. */

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "circuit/schedule.hh"
#include "common/error.hh"
#include "math/gates.hh"
#include "noise/channels.hh"
#include "noise/device_model.hh"
#include "sim/density_matrix.hh"
#include "sim/density_simulator.hh"
#include "sim/state_vector.hh"

namespace qra {
namespace {

/** Evolve the same ops on a StateVector for cross-checking. */
StateVector
statevectorReference(std::size_t nq, const std::vector<Operation> &ops)
{
    StateVector sv(nq);
    for (const Operation &op : ops)
        sv.applyUnitary(op);
    return sv;
}

TEST(DensityMatrixTest, InitialStateIsPureZero)
{
    DensityMatrix dm(2);
    EXPECT_NEAR(dm.matrix()(0, 0).real(), 1.0, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, SizeLimits)
{
    EXPECT_THROW(DensityMatrix(0), SimulationError);
    EXPECT_THROW(DensityMatrix(13), SimulationError);
}

TEST(DensityMatrixTest, UnitaryEvolutionMatchesStateVector)
{
    const std::vector<Operation> ops{
        {.kind = OpKind::H, .qubits = {0}},
        {.kind = OpKind::CX, .qubits = {0, 1}},
        {.kind = OpKind::T, .qubits = {1}},
        {.kind = OpKind::RY, .qubits = {2}, .params = {0.7}},
        {.kind = OpKind::CZ, .qubits = {1, 2}},
    };
    DensityMatrix dm(3);
    for (const Operation &op : ops)
        dm.applyUnitary(op);

    const StateVector sv = statevectorReference(3, ops);
    EXPECT_NEAR(dm.fidelityWithPure(sv.amplitudes()), 1.0, 1e-10);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-10);
}

TEST(DensityMatrixTest, ProbabilitiesMatchStateVector)
{
    const std::vector<Operation> ops{
        {.kind = OpKind::H, .qubits = {0}},
        {.kind = OpKind::CX, .qubits = {0, 1}},
    };
    DensityMatrix dm(2);
    for (const Operation &op : ops)
        dm.applyUnitary(op);
    const StateVector sv = statevectorReference(2, ops);

    const auto dm_probs = dm.probabilities();
    const auto sv_probs = sv.probabilities();
    for (std::size_t i = 0; i < dm_probs.size(); ++i)
        EXPECT_NEAR(dm_probs[i], sv_probs[i], 1e-12) << i;
}

TEST(DensityMatrixTest, FromPureState)
{
    DensityMatrix dm = DensityMatrix::fromPureState(
        {kInvSqrt2, 0.0, 0.0, kInvSqrt2});
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.5, 1e-12);
    EXPECT_NEAR(dm.probabilityOfOne(1), 0.5, 1e-12);
}

TEST(DensityMatrixTest, DephaseKillsCoherence)
{
    DensityMatrix dm(1);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    EXPECT_NEAR(std::abs(dm.matrix()(0, 1)), 0.5, 1e-12);
    dm.dephase(0);
    EXPECT_NEAR(std::abs(dm.matrix()(0, 1)), 0.0, 1e-12);
    // Populations survive.
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.5, 1e-12);
    EXPECT_NEAR(dm.purity(), 0.5, 1e-12);
}

TEST(DensityMatrixTest, DephaseOnlyTargetsQubit)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::H, .qubits = {1}});
    dm.dephase(0);
    // Qubit 1 keeps its coherence: rho(0,2) couples q1's 0 and 1
    // with q0 fixed at 0.
    EXPECT_NEAR(std::abs(dm.matrix()(0, 2)), 0.25, 1e-12);
}

TEST(DensityMatrixTest, PostSelectProjects)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    const double p = dm.postSelect(0, 1);
    EXPECT_NEAR(p, 0.5, 1e-12);
    // Bell pair projected on q0=1 leaves |11>.
    EXPECT_NEAR(dm.probabilityOfOne(1), 1.0, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, PostSelectImpossibleThrows)
{
    DensityMatrix dm(1);
    EXPECT_THROW(dm.postSelect(0, 1), SimulationError);
}

TEST(DensityMatrixTest, ResetChannel)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::X, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::H, .qubits = {1}});
    dm.resetQubit(0);
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.0, 1e-12);
    // Qubit 1 untouched.
    EXPECT_NEAR(dm.probabilityOfOne(1), 0.5, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, ResetOfSuperposedQubit)
{
    DensityMatrix dm(1);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.resetQubit(0);
    EXPECT_NEAR(dm.matrix()(0, 0).real(), 1.0, 1e-12);
    EXPECT_NEAR(dm.purity(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, DepolarizingDrivesToMaximallyMixed)
{
    DensityMatrix dm(1);
    dm.applyKraus(channels::depolarizing1(1.0), {0});
    // p=1 depolarising leaves I/2... with our parameterisation
    // p=1 means uniform Paulis: (rho + X rho X + Y rho Y + Z rho Z)/3
    // applied to |0><0| = (|0><0| + 2|1><1| + ... ) — compute:
    // result diag = (1/3)(0,?) -> direct check: trace stays 1.
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
    EXPECT_NEAR(dm.matrix()(0, 0).real() + dm.matrix()(1, 1).real(),
                1.0, 1e-12);
    // With p = 3/4 the channel is exactly the replace-by-I/2 map.
    DensityMatrix dm2(1);
    dm2.applyKraus(channels::depolarizing1(0.75), {0});
    EXPECT_NEAR(dm2.matrix()(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(dm2.matrix()(1, 1).real(), 0.5, 1e-12);
}

TEST(DensityMatrixTest, AmplitudeDampingDecaysExcitedState)
{
    DensityMatrix dm(1);
    dm.applyUnitary({.kind = OpKind::X, .qubits = {0}});
    dm.applyKraus(channels::amplitudeDamping(0.3), {0});
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.7, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, KrausOnSpecificQubitOfRegister)
{
    DensityMatrix dm(3);
    dm.applyUnitary({.kind = OpKind::X, .qubits = {1}});
    dm.applyKraus(channels::amplitudeDamping(1.0), {1});
    EXPECT_NEAR(dm.probabilityOfOne(1), 0.0, 1e-12);
    EXPECT_NEAR(dm.probabilityOfOne(0), 0.0, 1e-12);
    EXPECT_NEAR(dm.trace(), 1.0, 1e-12);
}

TEST(DensityMatrixTest, ReducedQubitDensity)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    const Matrix reduced = dm.reducedQubitDensity(0);
    EXPECT_NEAR(reduced(0, 0).real(), 0.5, 1e-12);
    EXPECT_NEAR(std::abs(reduced(0, 1)), 0.0, 1e-12);
}

TEST(DensityMatrixTest, KrausArityMismatchThrows)
{
    DensityMatrix dm(3);
    EXPECT_THROW(dm.applyKraus(channels::depolarizing1(0.1), {0, 2}),
                 SimulationError);
    EXPECT_THROW(dm.applyKraus(channels::depolarizing2(0.1), {1}),
                 SimulationError);
}

TEST(DensityMatrixTest, TwoQubitKrausChannel)
{
    DensityMatrix dm(2);
    dm.applyUnitary({.kind = OpKind::H, .qubits = {0}});
    dm.applyUnitary({.kind = OpKind::CX, .qubits = {0, 1}});
    dm.applyKraus(channels::depolarizing2(0.1), {0, 1});
    EXPECT_NEAR(dm.trace(), 1.0, 1e-10);
    EXPECT_LT(dm.purity(), 1.0);
    EXPECT_GT(dm.purity(), 0.8);
}


// ---- Kronecker-product reference ------------------------------------
//
// The reference never touches the kernels: each local operator is
// widened to the full 2^n space as I (x) u with Matrix::kron, its
// bits permuted onto the operand qubits, and rho updated with dense
// products (U rho U^dagger, sum_k K rho K^dagger).

constexpr double kRefTol = 1e-12;

/** Full 2^n operator of @p u acting on @p qubits (bit j = qubits[j]). */
Matrix
embed(const Matrix &u, const std::vector<Qubit> &qubits, std::size_t n)
{
    const std::size_t k = qubits.size();
    const Matrix wide = Matrix::identity(std::size_t{1} << (n - k)).kron(u);
    // Bit j of a `wide` index is circuit qubit order[j]: the operands
    // first (u's bits), then the untouched qubits ascending.
    std::vector<Qubit> order(qubits);
    for (Qubit q = 0; q < n; ++q)
        if (std::find(qubits.begin(), qubits.end(), q) == qubits.end())
            order.push_back(q);
    auto layout = [&](std::uint64_t x) {
        std::uint64_t y = 0;
        for (std::size_t j = 0; j < n; ++j)
            y |= ((x >> order[j]) & 1) << j;
        return y;
    };
    const std::size_t d = std::size_t{1} << n;
    Matrix full(d, d);
    for (std::uint64_t r = 0; r < d; ++r)
        for (std::uint64_t c = 0; c < d; ++c)
            full(r, c) = wide(layout(r), layout(c));
    return full;
}

Matrix
projector(int outcome)
{
    Matrix p(2, 2);
    p(outcome, outcome) = 1.0;
    return p;
}

/** Dense-product density matrix: the oracle for DensityMatrix. */
struct ReferenceState
{
    std::size_t n;
    Matrix rho;

    explicit ReferenceState(std::size_t num_qubits)
        : n(num_qubits),
          rho(std::size_t{1} << num_qubits, std::size_t{1} << num_qubits)
    {
        rho(0, 0) = 1.0;
    }

    void unitary(const Matrix &u, const std::vector<Qubit> &qubits)
    {
        const Matrix f = embed(u, qubits, n);
        rho = f * rho * f.adjoint();
    }

    void kraus(const std::vector<Matrix> &ops,
               const std::vector<Qubit> &qubits)
    {
        Matrix sum(rho.rows(), rho.cols());
        for (const Matrix &k : ops) {
            const Matrix f = embed(k, qubits, n);
            sum += f * rho * f.adjoint();
        }
        rho = std::move(sum);
    }

    void reset(Qubit q)
    {
        Matrix lower(2, 2);
        lower(0, 1) = 1.0;
        kraus({projector(0), lower}, {q});
    }

    void dephase(Qubit q) { kraus({projector(0), projector(1)}, {q}); }

    double probability(Qubit q, int outcome) const
    {
        const Matrix f = embed(projector(outcome), {q}, n);
        return (f * rho * f.adjoint()).trace().real();
    }

    double postSelect(Qubit q, int outcome)
    {
        const double p = probability(q, outcome);
        const Matrix f = embed(projector(outcome), {q}, n);
        rho = f * rho * f.adjoint() * Complex{1.0 / p, 0.0};
        return p;
    }
};

/** Kraus operators of @p hi (x) @p lo: lo acts on qubits[0]. */
KrausChannel
tensorChannel(const KrausChannel &hi, const KrausChannel &lo)
{
    std::vector<Matrix> ops;
    for (const Matrix &a : hi.operators())
        for (const Matrix &b : lo.operators())
            ops.push_back(a.kron(b));
    return KrausChannel(std::move(ops), "tensor");
}

std::vector<OpKind>
unitaryKinds(std::size_t max_arity)
{
    std::vector<OpKind> kinds;
    for (int k = static_cast<int>(OpKind::I);
         k <= static_cast<int>(OpKind::CCX); ++k) {
        const auto kind = static_cast<OpKind>(k);
        if (opIsUnitary(kind) && opNumQubits(kind) <= max_arity)
            kinds.push_back(kind);
    }
    return kinds;
}

std::vector<Qubit>
randomOperands(std::size_t count, std::size_t n, std::mt19937_64 &rng)
{
    std::vector<Qubit> all(n);
    std::iota(all.begin(), all.end(), Qubit{0});
    std::shuffle(all.begin(), all.end(), rng);
    all.resize(count);
    return all;
}

TEST(DensityMatrixReferenceTest, RandomCircuitsMatchKroneckerReference)
{
    const std::vector<KrausChannel> one_qubit{
        channels::depolarizing1(0.07), channels::amplitudeDamping(0.3),
        channels::thermalRelaxation(46000.0, 22000.0, 350.0),
        channels::phaseDamping(0.2)};
    const std::vector<KrausChannel> two_qubit{
        channels::depolarizing2(0.05),
        tensorChannel(channels::amplitudeDamping(0.3),
                      channels::phaseDamping(0.2)),
        tensorChannel(channels::bitFlip(0.1),
                      channels::amplitudeDamping(0.6)),
        // Complex superoperator entries: a CY / (S (x) T) mixture.
        KrausChannel(
            {Operation{.kind = OpKind::CY, .qubits = {0, 1}}.matrix() *
                 Complex{std::sqrt(0.3), 0.0},
             Operation{.kind = OpKind::S, .qubits = {0}}
                     .matrix()
                     .kron(Operation{.kind = OpKind::T, .qubits = {0}}
                               .matrix()) *
                 Complex{std::sqrt(0.7), 0.0}},
            "mixed-unitary")};

    for (std::size_t n = 1; n <= 6; ++n) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            std::mt19937_64 rng(seed * 1000 + n);
            std::uniform_real_distribution<double> angle(-M_PI, M_PI);
            std::vector<OpKind> kinds = unitaryKinds(n);
            std::shuffle(kinds.begin(), kinds.end(), rng);

            DensityMatrix dm(n);
            ReferenceState ref(n);
            std::size_t step = 0;
            for (OpKind kind : kinds) {
                Operation op{.kind = kind,
                             .qubits = randomOperands(opNumQubits(kind),
                                                      n, rng)};
                for (std::size_t p = 0; p < opNumParams(kind); ++p)
                    op.params.push_back(angle(rng));
                dm.applyUnitary(op);
                ref.unitary(op.matrix(), op.qubits);

                // Cycle the non-unitary steps so every register size
                // sees each of them.
                const Qubit q = randomOperands(1, n, rng)[0];
                switch (step++ % 6) {
                  case 1: {
                    const KrausChannel &ch =
                        one_qubit[step % one_qubit.size()];
                    dm.applyKraus(ch, {q});
                    ref.kraus(ch.operators(), {q});
                    break;
                  }
                  case 2:
                    if (n >= 2) {
                        // Random pair: reversed and non-adjacent
                        // operand orders both occur.
                        const auto pair = randomOperands(2, n, rng);
                        const KrausChannel &ch =
                            two_qubit[step % two_qubit.size()];
                        dm.applyKraus(ch, pair);
                        ref.kraus(ch.operators(), pair);
                    }
                    break;
                  case 3:
                    dm.resetQubit(q);
                    ref.reset(q);
                    break;
                  case 4:
                    dm.dephase(q);
                    ref.dephase(q);
                    break;
                  case 5: {
                    const int outcome =
                        ref.probability(q, 1) >= 0.5 ? 1 : 0;
                    EXPECT_NEAR(dm.postSelect(q, outcome),
                                ref.postSelect(q, outcome), kRefTol);
                    break;
                  }
                  default:
                    break;
                }
                ASSERT_LE(dm.matrix().maxAbsDiff(ref.rho), kRefTol)
                    << "n=" << n << " seed=" << seed << " after "
                    << op.str() << " (step " << step << ")";
            }
            EXPECT_NEAR(dm.trace(), 1.0, 1e-10);
        }
    }
}

TEST(DensityMatrixReferenceTest, ThreeQubitChannelOnScatteredOperands)
{
    // A 3-qubit channel is a 64x64 superoperator on six vectorised
    // operands; operands out of order and spread over the register.
    const KrausChannel ch =
        tensorChannel(channels::amplitudeDamping(0.4),
                      tensorChannel(channels::depolarizing1(0.2),
                                    channels::phaseDamping(0.3)));
    DensityMatrix dm(5);
    ReferenceState ref(5);
    for (Qubit q = 0; q < 5; ++q) {
        const Operation op{.kind = OpKind::U,
                           .qubits = {q},
                           .params = {0.3 + q, 1.1 * q, -0.4 * q}};
        dm.applyUnitary(op);
        ref.unitary(op.matrix(), op.qubits);
    }
    dm.applyKraus(ch, {4, 0, 2});
    ref.kraus(ch.operators(), {4, 0, 2});
    EXPECT_LE(dm.matrix().maxAbsDiff(ref.rho), kRefTol);
}

/**
 * The density simulator's noise semantics evolved on the reference:
 * per-op gate noise, relaxation of every unmeasured qubit per timed
 * moment, measurement as dephasing, readout confusion folded last.
 */
std::map<std::uint64_t, double>
referenceDistribution(const Circuit &circuit, const NoiseModel &noise)
{
    ReferenceState ref(circuit.numQubits());
    std::set<Qubit> measured;
    std::vector<std::pair<Qubit, Clbit>> wiring;
    const auto moments = computeTimedMoments(
        circuit, [&](const Operation &op) { return noise.opDuration(op); });
    for (const TimedMoment &moment : moments) {
        for (std::size_t idx : moment.opIndices) {
            const Operation &op = circuit.ops()[idx];
            switch (op.kind) {
              case OpKind::Measure:
                ref.dephase(op.qubits[0]);
                wiring.emplace_back(op.qubits[0], *op.clbit);
                measured.insert(op.qubits[0]);
                continue;
              case OpKind::Barrier:
                continue;
              case OpKind::PostSelect:
                ref.postSelect(op.qubits[0], op.postselectValue);
                continue;
              case OpKind::Reset:
                ref.reset(op.qubits[0]);
                break;
              default:
                ref.unitary(op.matrix(), op.qubits);
                break;
            }
            for (const auto &applied : noise.channelsFor(op))
                ref.kraus(applied.channel.operators(), applied.qubits);
        }
        if (moment.durationNs <= 0.0)
            continue;
        for (Qubit q = 0; q < circuit.numQubits(); ++q)
            if (!measured.count(q))
                if (auto relax = noise.relaxationFor(q, moment.durationNs))
                    ref.kraus(relax->operators(), {q});
    }

    std::map<std::uint64_t, double> dist;
    for (std::uint64_t basis = 0; basis < ref.rho.rows(); ++basis) {
        std::uint64_t reg = 0;
        for (const auto &[q, c] : wiring) {
            if ((basis >> q) & 1)
                reg |= std::uint64_t{1} << c;
            else
                reg &= ~(std::uint64_t{1} << c);
        }
        dist[reg] += ref.rho(basis, basis).real();
    }
    for (const auto &[q, c] : wiring) {
        const ReadoutError *ro = noise.readoutFor(q);
        if (ro == nullptr)
            continue;
        std::map<std::uint64_t, double> flipped;
        const std::uint64_t bit = std::uint64_t{1} << c;
        for (const auto &[reg, p] : dist)
            for (int read = 0; read < 2; ++read)
                flipped[read ? (reg | bit) : (reg & ~bit)] +=
                    p * ro->confusion((reg & bit) ? 1 : 0, read);
        dist = std::move(flipped);
    }
    return dist;
}

double
maxDistributionDiff(const std::map<std::uint64_t, double> &a,
                    const std::map<std::uint64_t, double> &b)
{
    std::set<std::uint64_t> keys;
    for (const auto &[k, p] : a)
        keys.insert(k);
    for (const auto &[k, p] : b)
        keys.insert(k);
    double worst = 0.0;
    for (std::uint64_t k : keys) {
        const double pa = a.count(k) ? a.at(k) : 0.0;
        const double pb = b.count(k) ? b.at(k) : 0.0;
        worst = std::max(worst, std::abs(pa - pb));
    }
    return worst;
}

TEST(DensityMatrixReferenceTest, Ibmqx4ExactDistributionMatchesReference)
{
    // ibmqx4 plus a CCX error, so the three-qubit gate's pairwise
    // noise (the unfused path) is covered next to the fused 1q/2q one,
    // and a CY error, whose fused superoperator is complex.
    NoiseModel noise = DeviceModel::ibmqx4().noiseModel();
    noise.setGateError(OpKind::CCX, 0.03);
    noise.setGateError(OpKind::CY, 0.02);

    std::vector<Circuit> circuits;
    {
        // Table 2 style: Bell pair checked through an ancilla parity.
        Circuit c(5, 3);
        c.h(1).cx(1, 0).cx(1, 2).cx(0, 2).measure(2, 2).measure(1, 0)
            .measure(0, 1);
        circuits.push_back(c);
    }
    {
        // GHZ on reversed CX operands, idle qubits, and a reset.
        Circuit c(5, 4);
        c.x(4).reset(4).h(2).cx(2, 1).cx(2, 0).cx(3, 4).t(0).sx(3)
            .rz(0.4, 1).measure(0, 0).measure(1, 1).measure(2, 2)
            .measure(4, 3);
        circuits.push_back(c);
    }
    {
        // Every remaining gate kind, CCX and a post-selection.
        Circuit c(4, 3);
        c.h(0).h(1).ccx(0, 1, 3).y(2).s(2).sdg(1).tdg(3).rx(0.3, 0)
            .ry(1.1, 2).p(0.7, 1).u(0.2, 0.5, -0.9, 3).cy(3, 0)
            .cz(1, 2).swap(0, 2).z(1).i(3).postSelect(2, 0)
            .measure(3, 0).measure(1, 1).measure(0, 2);
        circuits.push_back(c);
    }

    for (std::size_t i = 0; i < circuits.size(); ++i) {
        DensityMatrixSimulator sim;
        sim.setNoiseModel(&noise);
        const auto dist = sim.exactDistribution(circuits[i]);
        EXPECT_LE(maxDistributionDiff(
                      dist, referenceDistribution(circuits[i], noise)),
                  kRefTol)
            << "circuit " << i;
    }
}

} // namespace
} // namespace qra
