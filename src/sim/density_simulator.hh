/**
 * @file
 * Exact noisy simulator on the density-matrix backend.
 *
 * Noise is applied per the NoiseModel: a gate-error channel after each
 * instruction, thermal relaxation to every qubit for the duration of
 * each scheduled moment, and classical readout confusion folded into
 * the final outcome distribution. A gate whose error channel acts on
 * its own operands runs as one superoperator pass (Kraus operators
 * K_j U); relaxation superoperators are built once per (qubit,
 * duration) and run, composed, once per idle stretch of a qubit.
 *
 * Measurements must be terminal per qubit (a measured qubit may not
 * be operated on again): the backend models measurement as dephasing
 * and reads the joint outcome distribution off the final diagonal,
 * which is exact under that restriction. Use TrajectorySimulator for
 * ancilla-reuse circuits.
 */

#ifndef QRA_SIM_DENSITY_SIMULATOR_HH
#define QRA_SIM_DENSITY_SIMULATOR_HH

#include <cstdint>
#include <map>
#include <vector>

#include "circuit/circuit.hh"
#include "common/rng.hh"
#include "noise/noise_model.hh"
#include "sim/density_matrix.hh"
#include "sim/result.hh"

namespace qra {

/**
 * Histogram of @p shots draws from @p probs: entry i counts the draws
 * that a per-shot sampleDiscrete(probs, rng) loop returns as i,
 * consuming the same uniforms in the same order, including its
 * fall-back to the last index when the total drifted below 1. One
 * prefix sum and a binary search per draw instead of a linear scan;
 * the search needs a non-decreasing prefix, so @p probs must be
 * non-negative.
 * @throws SimulationError if @p probs is empty.
 */
std::vector<std::size_t> sampleHistogram(const std::vector<double> &probs,
                                         std::size_t shots, Rng &rng);

/** Exact (all-branches) noisy execution engine. */
class DensityMatrixSimulator
{
  public:
    explicit DensityMatrixSimulator(std::uint64_t seed = 7);

    /** Attach a noise model (nullptr or unset = ideal). */
    void setNoiseModel(const NoiseModel *noise) { noise_ = noise; }

    /**
     * Execute and sample @p shots outcomes from the exact final
     * distribution. The Result also carries the exact distribution.
     */
    Result run(const Circuit &circuit, std::size_t shots);

    /**
     * Exact outcome distribution over the classical register,
     * including readout error. Keys are register values.
     */
    std::map<std::uint64_t, double>
    exactDistribution(const Circuit &circuit);

    /** Evolve and return the final mixed state (measures dephase). */
    DensityMatrix finalState(const Circuit &circuit);

    void seed(std::uint64_t seed) { rng_.seed(seed); }

  private:
    struct Execution
    {
        DensityMatrix state;
        /** measured qubit -> clbit wiring, in program order. */
        std::vector<std::pair<Qubit, Clbit>> wiring;
        double retained = 1.0;

        explicit Execution(std::size_t nq) : state(nq) {}
    };

    Execution execute(const Circuit &circuit);

    const NoiseModel *noise_ = nullptr;
    Rng rng_;
};

} // namespace qra

#endif // QRA_SIM_DENSITY_SIMULATOR_HH
