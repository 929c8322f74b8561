/** @file Tests for the density-matrix and trajectory noisy engines. */

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/rng.hh"
#include "noise/device_model.hh"
#include "sim/density_simulator.hh"
#include "sim/trajectory_simulator.hh"
#include "stats/distance.hh"

namespace qra {
namespace {

NoiseModel
simpleNoise()
{
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.05);
    noise.setGateError(OpKind::H, 0.002);
    noise.setReadoutError(0, ReadoutError(0.02, 0.04));
    noise.setReadoutError(1, ReadoutError(0.02, 0.04));
    return noise;
}

TEST(DensitySimulatorTest, IdealBellDistribution)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    DensityMatrixSimulator sim(3);
    const auto dist = sim.exactDistribution(c);
    EXPECT_NEAR(dist.at(0b00), 0.5, 1e-10);
    EXPECT_NEAR(dist.at(0b11), 0.5, 1e-10);
    EXPECT_EQ(dist.count(0b01), 0u);
}

TEST(DensitySimulatorTest, RunCarriesExactDistribution)
{
    Circuit c(1, 1);
    c.h(0).measure(0, 0);
    DensityMatrixSimulator sim(5);
    const Result r = sim.run(c, 1000);
    ASSERT_TRUE(r.exactDistribution().has_value());
    EXPECT_NEAR(r.exactDistribution()->at(0), 0.5, 1e-10);
    EXPECT_EQ(r.shots(), 1000u);
}

TEST(DensitySimulatorTest, UnmeasuredQubitsAreMarginalised)
{
    Circuit c(2, 1);
    c.h(0).cx(0, 1).measure(1, 0);
    DensityMatrixSimulator sim(7);
    const auto dist = sim.exactDistribution(c);
    EXPECT_NEAR(dist.at(0), 0.5, 1e-10);
    EXPECT_NEAR(dist.at(1), 0.5, 1e-10);
}

TEST(DensitySimulatorTest, GateNoiseShowsInDistribution)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    NoiseModel noise;
    noise.setGateError(OpKind::CX, 0.1);
    DensityMatrixSimulator sim(9);
    sim.setNoiseModel(&noise);
    const auto dist = sim.exactDistribution(c);
    // Error outcomes 01/10 appear with noticeable probability.
    EXPECT_GT(dist.at(0b01), 0.005);
    EXPECT_GT(dist.at(0b10), 0.005);
    double total = 0.0;
    for (const auto &[k, p] : dist)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(DensitySimulatorTest, ReadoutErrorOnDeterministicState)
{
    Circuit c(1, 1);
    c.x(0).measure(0, 0);
    NoiseModel noise;
    noise.setReadoutError(0, ReadoutError(0.0, 0.1));
    DensityMatrixSimulator sim(11);
    sim.setNoiseModel(&noise);
    const auto dist = sim.exactDistribution(c);
    EXPECT_NEAR(dist.at(0), 0.1, 1e-10);
    EXPECT_NEAR(dist.at(1), 0.9, 1e-10);
}

TEST(DensitySimulatorTest, RelaxationDuringIdle)
{
    // Qubit 1 idles while qubit 0 runs many gates; with T1 noise its
    // excited state decays even though nothing touches it.
    Circuit c(2, 1);
    c.x(1);
    for (int i = 0; i < 50; ++i)
        c.x(0).x(0);
    // Fence so the measurement happens after the idle window rather
    // than being scheduled ASAP into the first moments.
    c.barrier();
    c.measure(1, 0);

    NoiseModel noise;
    noise.setGateDuration(OpKind::X, 1000.0);
    noise.setQubitRelaxation(1, 20000.0, 20000.0);
    DensityMatrixSimulator sim(13);
    sim.setNoiseModel(&noise);
    const auto dist = sim.exactDistribution(c);
    // ~101 us of idling at T1 = 20 us: survival well below 1.
    EXPECT_LT(dist.at(1), 0.05);
}

TEST(DensitySimulatorTest, MeasuredQubitReuseRejected)
{
    Circuit c(1, 1);
    c.measure(0, 0).x(0);
    DensityMatrixSimulator sim(15);
    EXPECT_THROW(sim.exactDistribution(c), SimulationError);
}

TEST(DensitySimulatorTest, MidCircuitMeasureOfAncillaWorks)
{
    // Ancilla measured mid-circuit, then only OTHER qubits evolve:
    // exactly the paper's assertion pattern.
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measure(1, 1).h(0).measure(0, 0);
    DensityMatrixSimulator sim(17);
    const auto dist = sim.exactDistribution(c);
    double total = 0.0;
    for (const auto &[k, p] : dist)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
    // After measuring q1, q0 collapses to a classical state; H gives
    // 50/50 on q0 independent of q1's bit.
    EXPECT_NEAR(dist.at(0b00) + dist.at(0b01), 0.5, 1e-9);
}

TEST(DensitySimulatorTest, PostSelectTracksRetainedFraction)
{
    Circuit c(1, 1);
    c.h(0).postSelect(0, 0).measure(0, 0);
    DensityMatrixSimulator sim(19);
    const auto dist = sim.exactDistribution(c);
    EXPECT_NEAR(dist.at(0), 1.0, 1e-10);
}

/** Per-shot sampleDiscrete loop: the reference sampleHistogram batches. */
std::vector<std::size_t>
perShotHistogram(const std::vector<double> &probs, std::size_t shots,
                 std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::size_t> hits(probs.size(), 0);
    for (std::size_t s = 0; s < shots; ++s)
        ++hits[sampleDiscrete(probs, rng)];
    return hits;
}

TEST(DensitySamplerTest, BatchedHistogramEqualsPerShotDraws)
{
    const std::vector<std::vector<double>> dists{
        // Zero-probability entries, leading, inner and trailing.
        {0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0},
        // Total drifted below 1: draws past it take the fallback.
        {0.3, 0.2, 0.1, 0.0, 0.35},
        // Drift with a zero last entry: the fallback lands on it.
        {0.6, 0.3, 0.0},
        // A single outcome.
        {1.0},
        {0.999},
    };
    for (std::size_t i = 0; i < dists.size(); ++i) {
        for (std::uint64_t seed : {1u, 7u, 1234u}) {
            Rng rng(seed);
            EXPECT_EQ(sampleHistogram(dists[i], 20000, rng),
                      perShotHistogram(dists[i], 20000, seed))
                << "distribution " << i << " seed " << seed;
        }
    }
    // The drifted cases really exercise the fallback.
    Rng rng(1);
    EXPECT_GT(sampleHistogram({0.6, 0.3, 0.0}, 20000, rng)[2], 0u);
    EXPECT_THROW(sampleHistogram({}, 1, rng), SimulationError);
}

TEST(DensitySamplerTest, RunCountsEqualPerShotDrawsOnIbmqx4)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    Circuit c(5, 3);
    c.h(1).cx(1, 0).cx(1, 2).cx(0, 2).measure(2, 2).measure(1, 0)
        .measure(0, 1);
    DensityMatrixSimulator sim(99);
    sim.setNoiseModel(&device.noiseModel());
    const Result r = sim.run(c, 8192);

    const auto dist = r.exactDistribution();
    ASSERT_TRUE(dist.has_value());
    std::vector<std::uint64_t> keys;
    std::vector<double> probs;
    for (const auto &[reg, p] : *dist) {
        keys.push_back(reg);
        probs.push_back(p);
    }
    const auto hits = perShotHistogram(probs, 8192, 99);
    std::map<std::uint64_t, std::size_t> expected;
    for (std::size_t i = 0; i < keys.size(); ++i)
        if (hits[i] > 0)
            expected[keys[i]] = hits[i];
    EXPECT_EQ(r.rawCounts(), expected);
}

TEST(TrajectorySimulatorTest, IdealMatchesStatevector)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    TrajectorySimulator sim(21);
    const Result r = sim.run(c, 5000);
    EXPECT_NEAR(r.probability(std::uint64_t{0b00}), 0.5, 0.03);
    EXPECT_NEAR(r.probability(std::uint64_t{0b11}), 0.5, 0.03);
    EXPECT_EQ(r.count(0b01) + r.count(0b10), 0u);
}

TEST(TrajectorySimulatorTest, AgreesWithDensityUnderNoise)
{
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measureAll();
    const NoiseModel noise = simpleNoise();

    DensityMatrixSimulator exact(23);
    exact.setNoiseModel(&noise);
    const auto dist = exact.exactDistribution(c);

    TrajectorySimulator mc(25);
    mc.setNoiseModel(&noise);
    const Result r = mc.run(c, 20000);

    stats::Distribution empirical;
    for (const auto &[k, n] : r.rawCounts())
        empirical[k] = double(n) / double(r.shots());
    stats::Distribution exact_dist(dist.begin(), dist.end());

    EXPECT_LT(stats::totalVariation(empirical, exact_dist), 0.02);
}

TEST(TrajectorySimulatorTest, HandlesAncillaReuse)
{
    // Measure, reset, reuse: rejected by the density backend but
    // fine here.
    Circuit c(2, 2);
    c.h(0).cx(0, 1).measure(1, 0).reset(1).cx(0, 1).measure(1, 1);
    TrajectorySimulator sim(27);
    const Result r = sim.run(c, 3000);
    // Bits 0 and 1 must agree (same Bell branch measured twice).
    for (const auto &[key, n] : r.rawCounts()) {
        EXPECT_EQ(key & 1, (key >> 1) & 1) << key;
    }
}

TEST(TrajectorySimulatorTest, ReadoutFlipsApplied)
{
    Circuit c(1, 1);
    c.x(0).measure(0, 0);
    NoiseModel noise;
    noise.setReadoutError(0, ReadoutError(0.0, 0.25));
    TrajectorySimulator sim(29);
    sim.setNoiseModel(&noise);
    const Result r = sim.run(c, 20000);
    EXPECT_NEAR(r.probability(std::uint64_t{0}), 0.25, 0.02);
}

TEST(TrajectorySimulatorTest, PostSelectDiscardsAndReports)
{
    Circuit c(1, 1);
    c.h(0).postSelect(0, 1).measure(0, 0);
    TrajectorySimulator sim(31);
    const Result r = sim.run(c, 1000);
    EXPECT_EQ(r.count(std::uint64_t{1}), 1000u);
    EXPECT_NEAR(r.retainedFraction(), 0.5, 0.06);
}

TEST(TrajectorySimulatorTest, ImpossiblePostSelectThrows)
{
    Circuit c(1, 1);
    c.postSelect(0, 1).measure(0, 0); // |0> post-selected on 1
    TrajectorySimulator sim(33);
    EXPECT_THROW(sim.run(c, 10), SimulationError);
}

TEST(TrajectorySimulatorTest, RelaxationDecaysExcitedState)
{
    Circuit c(1, 1);
    c.x(0);
    for (int i = 0; i < 20; ++i)
        c.i(0);
    c.measure(0, 0);
    NoiseModel noise;
    noise.setGateDuration(OpKind::I, 5000.0);
    noise.setGateDuration(OpKind::X, 100.0);
    noise.setQubitRelaxation(0, 50000.0, 50000.0);
    TrajectorySimulator sim(35);
    sim.setNoiseModel(&noise);
    const Result r = sim.run(c, 5000);
    // 100 us at T1 = 50 us: survival ~ exp(-2) ~ 0.135.
    EXPECT_NEAR(r.probability(std::uint64_t{1}), std::exp(-2.0), 0.05);
}

TEST(IbmqxDeviceSmokeTest, BellOnIbmqx4HasErrorsButMostlyCorrect)
{
    const DeviceModel device = DeviceModel::ibmqx4();
    Circuit c(5, 2);
    c.h(1).cx(1, 0).measure(1, 0).measure(0, 1);
    DensityMatrixSimulator sim(37);
    sim.setNoiseModel(&device.noiseModel());
    const auto dist = sim.exactDistribution(c);
    const double correct = dist.at(0b00) + dist.at(0b11);
    EXPECT_GT(correct, 0.85);
    EXPECT_LT(correct, 0.999);
}

} // namespace
} // namespace qra
