#include "sim/density_simulator.hh"

#include <algorithm>
#include <optional>
#include <set>

#include "circuit/schedule.hh"
#include "common/error.hh"

namespace qra {

DensityMatrixSimulator::DensityMatrixSimulator(std::uint64_t seed)
    : rng_(seed)
{
}

std::vector<std::size_t>
sampleHistogram(const std::vector<double> &probs, std::size_t shots,
                Rng &rng)
{
    if (probs.empty())
        throw SimulationError("cannot sample from an empty distribution");
    // sampleDiscrete returns the first i with u < acc_i, acc_i summed
    // in index order: the first prefix strictly above u.
    std::vector<double> prefix(probs.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i)
        prefix[i] = acc += probs[i];
    std::vector<std::size_t> hits(probs.size(), 0);
    for (std::size_t s = 0; s < shots; ++s) {
        const double u = rng.uniform();
        // Branch-free upper_bound: the answer stays in [lo, lo + len].
        std::size_t lo = 0;
        for (std::size_t len = prefix.size(); len > 1;) {
            const std::size_t half = len / 2;
            lo = prefix[lo + half - 1] <= u ? lo + half : lo;
            len -= half;
        }
        lo += prefix[lo] <= u;
        // Past the end: the total drifted below u (same fallback).
        ++hits[std::min(lo, probs.size() - 1)];
    }
    return hits;
}

DensityMatrixSimulator::Execution
DensityMatrixSimulator::execute(const Circuit &circuit)
{
    Execution exec(circuit.numQubits());
    std::set<Qubit> measured;

    const bool noisy = noise_ != nullptr && noise_->enabled();

    auto duration = [&](const Operation &op) {
        return noisy ? noise_->opDuration(op) : 0.0;
    };
    const std::vector<TimedMoment> moments =
        computeTimedMoments(circuit, duration);

    // Thermal relaxation depends only on (qubit, moment duration), and
    // a circuit has few distinct durations: build each superoperator
    // once per run (nullopt = no T1/T2 on that qubit).
    std::map<std::pair<Qubit, double>, std::optional<Matrix>> relaxation;
    auto relaxation_for = [&](Qubit q, double ns)
        -> const std::optional<Matrix> & {
        auto [it, fresh] = relaxation.try_emplace({q, ns});
        if (fresh)
            if (auto relax = noise_->relaxationFor(q, ns))
                it->second =
                    DensityMatrix::superoperator(relax->operators());
        return it->second;
    };

    // Relaxation is a one-qubit channel, so it commutes with every
    // instruction on other qubits: a qubit's relaxation over the
    // moments since its last instruction is composed (4x4 products)
    // and applied in one pass right before its next instruction, or
    // at the end, instead of one pass per qubit per moment.
    std::vector<std::optional<Matrix>> owed(circuit.numQubits());
    auto settle = [&](Qubit q) {
        if (owed[q]) {
            exec.state.applySuperoperator(*owed[q], {q});
            owed[q].reset();
        }
    };

    auto apply_op = [&](const Operation &op) {
        for (Qubit q : op.qubits) {
            if (measured.count(q))
                throw SimulationError(
                    "density backend: qubit " + std::to_string(q) +
                    " is used after measurement; use the trajectory "
                    "backend for ancilla reuse");
        }

        if (op.kind == OpKind::Barrier)
            return;
        for (Qubit q : op.qubits)
            settle(q);

        switch (op.kind) {
          case OpKind::Measure:
            exec.state.dephase(op.qubits[0]);
            exec.wiring.emplace_back(op.qubits[0], *op.clbit);
            measured.insert(op.qubits[0]);
            return;
          case OpKind::PostSelect:
            exec.retained *= exec.state.postSelect(op.qubits[0],
                                                   op.postselectValue);
            return;
          default:
            break;
        }

        std::vector<NoiseModel::AppliedChannel> channels;
        if (noisy)
            channels = noise_->channelsFor(op);
        if (channels.size() == 1 && channels[0].qubits == op.qubits) {
            // Gate and its gate-noise channel as one superoperator
            // pass: the channel with Kraus operators K_j U.
            const Matrix u = op.matrix();
            std::vector<Matrix> fused;
            for (const Matrix &k : channels[0].channel.operators())
                fused.push_back(k * u);
            exec.state.applySuperoperator(
                DensityMatrix::superoperator(fused), op.qubits);
            return;
        }
        if (op.kind == OpKind::Reset)
            exec.state.resetQubit(op.qubits[0]);
        else
            exec.state.applyUnitary(op);
        for (const auto &applied : channels)
            exec.state.applyKraus(applied.channel, applied.qubits);
    };

    for (const TimedMoment &moment : moments) {
        for (std::size_t idx : moment.opIndices)
            apply_op(circuit.ops()[idx]);

        if (noisy && moment.durationNs > 0.0) {
            for (Qubit q = 0; q < circuit.numQubits(); ++q) {
                // Measured qubits are classical records; freezing them
                // preserves the recorded outcome statistics.
                if (measured.count(q))
                    continue;
                if (const auto &relax =
                        relaxation_for(q, moment.durationNs))
                    owed[q] = owed[q] ? *relax * *owed[q] : *relax;
            }
        }
    }
    for (Qubit q = 0; q < circuit.numQubits(); ++q)
        settle(q);
    return exec;
}

std::map<std::uint64_t, double>
DensityMatrixSimulator::exactDistribution(const Circuit &circuit)
{
    Execution exec = execute(circuit);

    // Joint distribution over the classical register from the final
    // diagonal: unmeasured qubits are marginalised away.
    const std::vector<double> probs = exec.state.probabilities();
    std::map<std::uint64_t, double> dist;
    for (std::uint64_t basis = 0; basis < probs.size(); ++basis) {
        if (probs[basis] <= 0.0)
            continue;
        std::uint64_t reg = 0;
        for (const auto &[q, c] : exec.wiring) {
            if ((basis >> q) & 1)
                reg |= std::uint64_t{1} << c;
            else
                reg &= ~(std::uint64_t{1} << c);
        }
        dist[reg] += probs[basis];
    }

    // Fold per-qubit readout confusion into the register distribution.
    if (noise_ != nullptr && noise_->enabled()) {
        for (const auto &[q, c] : exec.wiring) {
            const ReadoutError *ro = noise_->readoutFor(q);
            if (ro == nullptr)
                continue;
            std::map<std::uint64_t, double> flipped;
            const std::uint64_t bit = std::uint64_t{1} << c;
            for (const auto &[reg, p] : dist) {
                const int true_bit = (reg & bit) ? 1 : 0;
                for (int read = 0; read < 2; ++read) {
                    const double weight = ro->confusion(true_bit, read);
                    if (weight <= 0.0)
                        continue;
                    const std::uint64_t out =
                        read ? (reg | bit) : (reg & ~bit);
                    flipped[out] += p * weight;
                }
            }
            dist = std::move(flipped);
        }
    }
    return dist;
}

Result
DensityMatrixSimulator::run(const Circuit &circuit, std::size_t shots)
{
    const std::map<std::uint64_t, double> dist =
        exactDistribution(circuit);

    Result result(circuit.numClbits());
    result.setExactDistribution(dist);

    // Sample counts from the exact distribution in one batch.
    std::vector<std::uint64_t> keys;
    std::vector<double> probs;
    keys.reserve(dist.size());
    probs.reserve(dist.size());
    for (const auto &[reg, p] : dist) {
        keys.push_back(reg);
        probs.push_back(p);
    }
    if (shots == 0)
        return result;
    const std::vector<std::size_t> hits =
        sampleHistogram(probs, shots, rng_);
    for (std::size_t i = 0; i < keys.size(); ++i)
        if (hits[i] > 0)
            result.record(keys[i], hits[i]);
    return result;
}

DensityMatrix
DensityMatrixSimulator::finalState(const Circuit &circuit)
{
    return execute(circuit).state;
}

} // namespace qra
