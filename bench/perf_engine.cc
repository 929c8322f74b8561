/**
 * @file
 * P2: engine-parallel vs direct single-threaded execution throughput.
 *
 * Two sections:
 *  - per-shot: the same trajectory workload (mid-circuit measurement
 *    + reset, so every shot is a full state evolution) directly on
 *    StatevectorSimulator::run and through the ExecutionEngine with
 *    one shard per pool thread, at 4-16 qubits;
 *  - sampled: a terminal-measurement workload where the engine cost
 *    is one evolution + alias-table draws per shard, engine vs
 *    direct.
 *
 * A third section measures the JobQueue's cross-job sampling cache:
 * the same sampled job resubmitted through the queue reuses the
 * lowered plan and alias table, so warm jobs skip the evolution
 * entirely.
 *
 * Compile-pipeline sections (deterministic, not timing-sensitive):
 *  - assertion_placement: inserted SWAPs for the legacy
 *    inject-then-transpile order vs the post-layout injection pass
 *    (ancillas bound next to their targets' live routed positions)
 *    over a batch of random assertion workloads on a 4x4 grid
 *    device;
 *  - compile_passes: per-pass compile timings of the prepare
 *    pipeline (compiles_per_sec per pass, so the perf-regression
 *    check can watch compile-time drift);
 *  - async_callbacks: JobQueue callback-based submission throughput
 *    vs future-join runAll on a batch of sampled jobs.
 *
 * A telemetry_overhead section runs the per-shot workload with
 * telemetry off vs fully on (metrics + tracing): the enabled path
 * must cost < 3% (min ratio over alternating off/on pairs) and the
 * counts must stay bit-identical, both part of the exit verdict.
 *
 * A robustness section exercises the hardened job lifecycle: a retry
 * policy on the fault-free path must be ~free (retry_overhead_frac,
 * min ratio over alternating pairs), a run that retries through
 * injected transient faults must reproduce the clean counts exactly,
 * and a job cancelled at a wave boundary then resumed from its
 * checkpoint must finish bit-identical to the uninterrupted run
 * without executing more total shots. Cancel latency (cancel() to
 * partial-result delivery, one in-flight wave) is informational.
 *
 * An auto_assert section compares statically derived assertions
 * (--auto-assert / InjectionStrategy::AutoGenerate) against the
 * paper's hand annotations on Bell, GHZ(3), GHZ(4) and W(3) under
 * ibmqx4 noise: the auto checks must detect at least the
 * hand-annotated error rate at <= 1.25x the inserted-gate overhead,
 * per circuit, as a deterministic part of the exit verdict.
 *
 * Emits one JSON line per measurement for the bench trajectory, then
 * a human-readable table and a verdict: on hosts with >= 4 cores the
 * engine must deliver >= 2x shots/sec at 16 qubits on the per-shot
 * workload, read as the median of 5 interleaved direct/engine trials
 * (each trial and the IQR printed; the JSON line carries them too).
 *
 * Usage: perf_engine [SHOTS] [--json]   (default 96 per-shot shots;
 * --json emits only the JSON lines)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.hh"
#include "qra.hh"

using namespace qra;
using namespace qra::runtime;

namespace {

/**
 * A dense per-shot workload: random layers with one mid-circuit
 * measurement and reset of qubit 0, which disables the sample-at-end
 * fast path and makes every shot an independent trajectory — the
 * execution pattern assertion circuits with ancilla reuse produce.
 */
Circuit
trajectoryWorkload(std::size_t num_qubits, std::size_t num_gates,
                   std::uint64_t seed)
{
    Circuit c(num_qubits, num_qubits, "perf_engine");
    Rng rng(seed);
    auto random_layer = [&](std::size_t gates) {
        for (std::size_t i = 0; i < gates; ++i) {
            const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
            switch (rng.below(4)) {
              case 0:
                c.h(q);
                break;
              case 1:
                c.t(q);
                break;
              case 2:
                c.ry(rng.uniform() * M_PI, q);
                break;
              default:
              {
                const Qubit r = static_cast<Qubit>(
                    (q + 1 + rng.below(num_qubits - 1)) % num_qubits);
                c.cx(q, r);
              }
            }
        }
    };
    random_layer(num_gates / 2);
    c.measure(0, 0);
    c.reset(0);
    random_layer(num_gates - num_gates / 2);
    c.measureAll();
    return c;
}

using bench::secondsSince;

struct Quartiles
{
    double q1;
    double median;
    double q3;
};

/** Quartiles of @p v by linear interpolation between order stats. */
Quartiles
quartiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto at = [&](double frac) {
        const double pos = frac * static_cast<double>(v.size() - 1);
        const std::size_t lo = static_cast<std::size_t>(pos);
        const std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
    };
    return {at(0.25), at(0.5), at(0.75)};
}

/** Rows x cols grid device (undirected edges both ways). */
CouplingMap
gridMap(std::size_t rows, std::size_t cols)
{
    CouplingMap map(rows * cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            const Qubit q = static_cast<Qubit>(r * cols + c);
            if (c + 1 < cols)
                map.addEdge(q, q + 1);
            if (r + 1 < rows)
                map.addEdge(q, static_cast<Qubit>(q + cols));
        }
    }
    return map;
}

/**
 * A random assertion workload: a 10-qubit random payload with five
 * entanglement checks in its latter half — by then routing has
 * dragged the targets away from their initial slots, which is
 * exactly where check-time ancilla binding beats the legacy order.
 */
void
assertionWorkload(std::uint64_t seed, Circuit &payload,
                  std::vector<AssertionSpec> &specs)
{
    const std::size_t num_qubits = 10;
    const std::size_t num_gates = 48;
    Rng rng(seed);
    payload = Circuit(num_qubits, num_qubits, "placement");
    for (std::size_t i = 0; i < num_gates; ++i) {
        const Qubit q = static_cast<Qubit>(rng.below(num_qubits));
        switch (rng.below(3)) {
          case 0:
            payload.h(q);
            break;
          case 1:
            payload.t(q);
            break;
          default:
          {
            const Qubit r = static_cast<Qubit>(
                (q + 1 + rng.below(num_qubits - 1)) % num_qubits);
            payload.cx(q, r);
          }
        }
    }
    payload.measureAll();

    specs.clear();
    for (std::size_t c = 0; c < 5; ++c) {
        AssertionSpec spec;
        spec.assertion = std::make_shared<EntanglementAssertion>(2);
        const Qubit a = static_cast<Qubit>(rng.below(num_qubits));
        spec.targets = {a, static_cast<Qubit>(
                               (a + 1 + rng.below(num_qubits - 1)) %
                               num_qubits)};
        spec.insertAt = num_gates / 2 + rng.below(num_gates / 2 + 1);
        specs.push_back(std::move(spec));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t shots = 96;
    bool json_only = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_only = true;
            continue;
        }
        char *end = nullptr;
        shots = std::strtoull(argv[i], &end, 10);
        if (end == argv[i] || *end != '\0' || shots == 0) {
            std::fprintf(stderr,
                         "usage: perf_engine [SHOTS] [--json]\n");
            return 2;
        }
    }
    const std::size_t threads = ThreadPool::defaultThreads();

    if (!json_only) {
        bench::banner("P2",
                      "engine-parallel vs direct single-threaded "
                      "state-vector execution");
        bench::note("host threads: " + std::to_string(threads) +
                    ", shots/size: " + std::to_string(shots));
        std::printf("  %-8s %14s %14s %10s\n", "qubits",
                    "direct sh/s", "engine sh/s", "speedup");
    }

    // One shard per pool thread keeps every worker busy exactly once.
    ExecutionEngine engine(EngineOptions{
        .threads = threads,
        .shardShots =
            std::max<std::size_t>(1, shots / std::max<std::size_t>(
                                              1, threads)),
        .maxShards = threads});

    // The 16-qubit point gates the verdict. One timed run of each side
    // read 0.86x and then 4.02x on the same build of a loaded 4-vCPU
    // host, so that point is the median of kGateTrials interleaved
    // direct/engine pairs, each printed with the spread.
    constexpr std::size_t kGateTrials = 5;
    double speedup_at_16 = 0.0;
    for (const std::size_t num_qubits : {4u, 8u, 12u, 16u}) {
        const Circuit circuit =
            trajectoryWorkload(num_qubits, 64, 17);
        const std::size_t trials = num_qubits == 16 ? kGateTrials : 1;

        std::vector<double> direct_rates, engine_rates, speedups;
        for (std::size_t t = 0; t < trials; ++t) {
            const auto direct_start = std::chrono::steady_clock::now();
            StatevectorSimulator direct(23);
            const Result direct_result = direct.run(circuit, shots);
            const double direct_seconds = secondsSince(direct_start);

            const auto engine_start = std::chrono::steady_clock::now();
            const Result engine_result =
                engine.run(circuit, shots, "statevector", 23);
            const double engine_seconds = secondsSince(engine_start);

            direct_rates.push_back(
                static_cast<double>(direct_result.shots()) /
                direct_seconds);
            engine_rates.push_back(
                static_cast<double>(engine_result.shots()) /
                engine_seconds);
            speedups.push_back(engine_rates.back() /
                               direct_rates.back());
            if (trials > 1 && !json_only)
                std::printf("    trial %zu/%zu: direct %.1f, engine "
                            "%.1f sh/s, %.2fx\n",
                            t + 1, trials, direct_rates.back(),
                            engine_rates.back(), speedups.back());
        }
        const Quartiles spread = quartiles(speedups);
        const double direct_sps = quartiles(direct_rates).median;
        const double engine_sps = quartiles(engine_rates).median;
        const double speedup = spread.median;
        if (num_qubits == 16)
            speedup_at_16 = speedup;

        if (!json_only)
            std::printf("  %-8zu %14.1f %14.1f %9.2fx%s\n", num_qubits,
                        direct_sps, engine_sps, speedup,
                        trials > 1 ? "  (median)" : "");
        if (trials > 1 && !json_only)
            std::printf("    speedup IQR %.2fx (q1 %.2fx, q3 %.2fx) "
                        "over %zu trials\n",
                        spread.q3 - spread.q1, spread.q1, spread.q3,
                        trials);
        // Machine-readable trajectory line (medians over the trials).
        std::printf("{\"bench\":\"perf_engine\","
                    "\"section\":\"per_shot\",\"qubits\":%zu,"
                    "\"shots\":%zu,\"threads\":%zu,"
                    "\"direct_shots_per_sec\":%.1f,"
                    "\"engine_shots_per_sec\":%.1f,"
                    "\"speedup\":%.3f,\"trials\":%zu,"
                    "\"iqr\":%.3f,\"trial_speedups\":[",
                    num_qubits, shots, threads, direct_sps,
                    engine_sps, speedup, trials,
                    spread.q3 - spread.q1);
        for (std::size_t t = 0; t < trials; ++t)
            std::printf("%s%.3f", t ? "," : "", speedups[t]);
        std::printf("]}\n");
    }

    // Sampled workload: terminal measurements only, so each shard is
    // one evolution plus O(1) alias-table draws per shot.
    {
        const std::size_t sampled_shots = shots * 40;
        // Same layer mix as the trajectory workload but without the
        // mid-circuit measure/reset, so sampled execution is legal.
        Circuit sampled(16, 16, "perf_engine_sampled");
        {
            Rng rng(19);
            for (std::size_t i = 0; i < 64; ++i) {
                const Qubit q = static_cast<Qubit>(rng.below(16));
                switch (rng.below(4)) {
                  case 0:
                    sampled.h(q);
                    break;
                  case 1:
                    sampled.t(q);
                    break;
                  case 2:
                    sampled.ry(rng.uniform() * M_PI, q);
                    break;
                  default:
                  {
                    const Qubit r = static_cast<Qubit>(
                        (q + 1 + rng.below(15)) % 16);
                    sampled.cx(q, r);
                  }
                }
            }
            sampled.measureAll();
        }

        const auto direct_start = std::chrono::steady_clock::now();
        StatevectorSimulator direct(23);
        const Result direct_result =
            direct.run(sampled, sampled_shots);
        const double direct_s = secondsSince(direct_start);

        const auto engine_start = std::chrono::steady_clock::now();
        const Result engine_result =
            engine.run(sampled, sampled_shots, "statevector", 23);
        const double engine_s = secondsSince(engine_start);

        const double direct_sps =
            static_cast<double>(direct_result.shots()) / direct_s;
        const double engine_sps =
            static_cast<double>(engine_result.shots()) / engine_s;
        if (!json_only)
            std::printf("  sampled (16 qubits, %zu shots): direct "
                        "%.1f sh/s, engine %.1f sh/s (%.2fx)\n",
                        sampled_shots, direct_sps, engine_sps,
                        engine_sps / direct_sps);
        std::printf("{\"bench\":\"perf_engine\","
                    "\"section\":\"sampled\",\"qubits\":16,"
                    "\"shots\":%zu,\"threads\":%zu,"
                    "\"direct_shots_per_sec\":%.1f,"
                    "\"engine_shots_per_sec\":%.1f,"
                    "\"speedup\":%.3f}\n",
                    sampled_shots, threads, direct_sps, engine_sps,
                    engine_sps / direct_sps);
    }

    // Sampling cache: one batch of identical sampled jobs cold (first
    // job builds plan + alias table), then the same batch warm (every
    // job hits). The ablation_noise_sweep pattern.
    {
        const std::size_t jobs = 8;
        Circuit sampled(16, 16, "perf_engine_cached");
        {
            Rng rng(29);
            for (std::size_t i = 0; i < 64; ++i) {
                const Qubit q = static_cast<Qubit>(rng.below(16));
                switch (rng.below(4)) {
                  case 0:
                    sampled.h(q);
                    break;
                  case 1:
                    sampled.t(q);
                    break;
                  case 2:
                    sampled.ry(rng.uniform() * M_PI, q);
                    break;
                  default:
                  {
                    const Qubit r = static_cast<Qubit>(
                        (q + 1 + rng.below(15)) % 16);
                    sampled.cx(q, r);
                  }
                }
            }
            sampled.measureAll();
        }

        JobQueue queue(engine);
        std::vector<JobSpec> batch;
        for (std::size_t j = 0; j < jobs; ++j) {
            JobSpec spec;
            spec.circuit = sampled;
            spec.shots = shots;
            spec.backend = "statevector";
            spec.seed = 100 + j;
            batch.push_back(spec);
        }

        const auto cold_start = std::chrono::steady_clock::now();
        queue.runAll(batch);
        const double cold_s = secondsSince(cold_start);
        const std::size_t cold_hits = queue.samplingCacheHits();

        const auto warm_start = std::chrono::steady_clock::now();
        queue.runAll(batch);
        const double warm_s = secondsSince(warm_start);

        if (!json_only)
            std::printf("  sampling cache (%zu jobs x %zu shots): "
                        "cold %.4fs, warm %.4fs (%.2fx), "
                        "%zu hits / %zu misses\n",
                        jobs, shots, cold_s, warm_s, cold_s / warm_s,
                        queue.samplingCacheHits(),
                        queue.samplingCacheMisses());
        std::printf("{\"bench\":\"perf_engine\","
                    "\"section\":\"sampling_cache\",\"qubits\":16,"
                    "\"jobs\":%zu,\"shots\":%zu,"
                    "\"cold_seconds\":%.5f,\"warm_seconds\":%.5f,"
                    "\"speedup\":%.3f,\"cold_hits\":%zu,"
                    "\"hits\":%zu,\"misses\":%zu}\n",
                    jobs, shots, cold_s, warm_s, cold_s / warm_s,
                    cold_hits, queue.samplingCacheHits(),
                    queue.samplingCacheMisses());
    }

    // Assertion placement: legacy inject-then-transpile vs the
    // post-layout injection pass, inserted SWAPs summed over a batch
    // of random workloads on a 4x4 grid device. Deterministic (fixed
    // seeds), so the reduction verdict is safe for CI.
    double swap_reduction = 0.0;
    {
        const CouplingMap map = gridMap(4, 4);
        const std::size_t instances = 20;
        std::size_t swaps_legacy = 0;
        std::size_t swaps_post = 0;
        std::size_t twoq_legacy = 0;
        std::size_t twoq_post = 0;
        double seconds_legacy = 0.0;
        double seconds_post = 0.0;
        // Per-pass compile-time aggregation across every prepare.
        struct PassTime
        {
            double seconds = 0.0;
            std::size_t runs = 0;
        };
        std::vector<std::pair<std::string, PassTime>> pass_times;
        auto record = [&](const compile::CompileContext &ctx) {
            for (const compile::PassStats &stats : ctx.passStats) {
                auto it = std::find_if(
                    pass_times.begin(), pass_times.end(),
                    [&](const auto &entry) {
                        return entry.first == stats.name;
                    });
                if (it == pass_times.end()) {
                    pass_times.push_back({stats.name, {}});
                    it = std::prev(pass_times.end());
                }
                it->second.seconds += stats.seconds;
                ++it->second.runs;
            }
        };

        Circuit payload(1);
        std::vector<AssertionSpec> specs;
        for (std::uint64_t seed = 1; seed <= instances; ++seed) {
            assertionWorkload(seed, payload, specs);
            compile::PrepareSpec prep;
            prep.assertions = specs;
            prep.coupling = &map;

            prep.injection = compile::InjectionStrategy::PreLayout;
            const auto legacy_start = std::chrono::steady_clock::now();
            const compile::CompileContext legacy =
                compile::prepare(payload, prep);
            seconds_legacy += secondsSince(legacy_start);
            record(legacy);
            swaps_legacy += legacy.insertedSwaps;
            twoq_legacy += legacy.circuit.twoQubitGateCount();

            prep.injection = compile::InjectionStrategy::PostLayout;
            const auto post_start = std::chrono::steady_clock::now();
            const compile::CompileContext post =
                compile::prepare(payload, prep);
            seconds_post += secondsSince(post_start);
            record(post);
            swaps_post += post.insertedSwaps;
            twoq_post += post.circuit.twoQubitGateCount();
        }
        swap_reduction =
            1.0 - static_cast<double>(swaps_post) /
                      static_cast<double>(swaps_legacy);

        if (!json_only)
            std::printf("  assertion placement (%zu workloads, 4x4 "
                        "grid): legacy %zu swaps, postlayout %zu "
                        "(%.1f%% fewer), 2q gates %zu -> %zu\n",
                        instances, swaps_legacy, swaps_post,
                        100.0 * swap_reduction, twoq_legacy,
                        twoq_post);
        std::printf("{\"bench\":\"perf_engine\","
                    "\"section\":\"assertion_placement\","
                    "\"qubits\":16,\"jobs\":%zu,"
                    "\"swaps_legacy\":%zu,\"swaps_postlayout\":%zu,"
                    "\"swap_reduction\":%.4f,"
                    "\"twoq_legacy\":%zu,\"twoq_postlayout\":%zu,"
                    "\"legacy_compiles_per_sec\":%.1f,"
                    "\"postlayout_compiles_per_sec\":%.1f}\n",
                    instances, swaps_legacy, swaps_post,
                    swap_reduction, twoq_legacy, twoq_post,
                    instances / seconds_legacy,
                    instances / seconds_post);

        // One record per pass so check_perf_regression.py can watch
        // compile-time drift at pass granularity.
        for (const auto &[name, time] : pass_times) {
            if (!json_only)
                std::printf("    pass %-18s %8.1f runs/sec "
                            "(%zu runs)\n",
                            name.c_str(), time.runs / time.seconds,
                            time.runs);
            std::printf("{\"bench\":\"perf_engine\","
                        "\"section\":\"compile_passes\","
                        "\"pass\":\"%s\",\"runs\":%zu,"
                        "\"seconds_total\":%.6f,"
                        "\"runs_per_sec\":%.1f}\n",
                        name.c_str(), time.runs, time.seconds,
                        time.runs / time.seconds);
        }
    }

    // Async callbacks: the same warm sampled batch delivered through
    // completion callbacks (no future-joins) vs runAll.
    {
        const std::size_t jobs = 16;
        Circuit sampled(12, 12, "perf_engine_async");
        {
            Rng rng(31);
            for (std::size_t i = 0; i < 48; ++i) {
                const Qubit q = static_cast<Qubit>(rng.below(12));
                switch (rng.below(4)) {
                  case 0:
                    sampled.h(q);
                    break;
                  case 1:
                    sampled.t(q);
                    break;
                  case 2:
                    sampled.ry(rng.uniform() * M_PI, q);
                    break;
                  default:
                  {
                    const Qubit r = static_cast<Qubit>(
                        (q + 1 + rng.below(11)) % 12);
                    sampled.cx(q, r);
                  }
                }
            }
            sampled.measureAll();
        }

        JobQueue queue(engine);
        std::vector<JobSpec> batch;
        for (std::size_t j = 0; j < jobs; ++j) {
            JobSpec spec;
            spec.circuit = sampled;
            spec.shots = shots;
            spec.backend = "statevector";
            spec.seed = 300 + j;
            batch.push_back(spec);
        }

        // Warm the prepare and sampling caches once, untimed, so
        // both timed paths measure submission mechanics rather than
        // first-run plan/alias-table builds.
        queue.runAll(batch);

        const auto future_start = std::chrono::steady_clock::now();
        queue.runAll(batch);
        const double future_s = secondsSince(future_start);

        std::atomic<std::size_t> delivered{0};
        const auto callback_start = std::chrono::steady_clock::now();
        for (const JobSpec &spec : batch)
            queue.submit(spec, [&delivered](Result result,
                                            std::exception_ptr) {
                delivered += result.shots() > 0 ? 1 : 0;
            });
        queue.waitIdle();
        const double callback_s = secondsSince(callback_start);

        if (!json_only)
            std::printf("  async callbacks (%zu jobs x %zu shots): "
                        "futures %.1f jobs/s, callbacks %.1f jobs/s "
                        "(%zu delivered)\n",
                        jobs, shots, jobs / future_s,
                        jobs / callback_s, delivered.load());
        std::printf("{\"bench\":\"perf_engine\","
                    "\"section\":\"async_callbacks\",\"qubits\":12,"
                    "\"jobs\":%zu,\"shots\":%zu,"
                    "\"future_jobs_per_sec\":%.1f,"
                    "\"callback_jobs_per_sec\":%.1f}\n",
                    jobs, shots, jobs / future_s, jobs / callback_s);
    }

    // Early stopping: the ablation-noise-sweep workload (Bell +
    // entanglement assertion on scaled ibmqx4 noise) run adaptively —
    // shot waves stop once the any-error rate's Wilson 95% half-width
    // reaches the target — vs the fixed 8192-shot budget. Counts are
    // bit-deterministic at any thread count, so shots_used and the
    // shots-saved verdict are CI-safe. Low noise converges fastest:
    // the interval tightens as sqrt(p(1-p)), so clean devices pay a
    // small fraction of the fixed budget.
    double best_saved_factor = 0.0;
    {
        const std::size_t budget = 8192;
        StoppingRule rule;
        rule.statistic = StoppingRule::Statistic::AnyError;
        rule.targetHalfWidth = 0.02;
        rule.minShots = 512;
        rule.waveShots = 256;

        Circuit payload(2, 2, "bell");
        payload.h(0).cx(0, 1);
        payload.measure(0, 0).measure(1, 1);
        AssertionSpec check;
        check.assertion = std::make_shared<EntanglementAssertion>(2);
        check.targets = {0, 1};
        check.insertAt = 2;

        // Shard = wave granularity: 256-shot shards so stopping can
        // trigger every 256 shots (the shared `engine` sizes shards
        // for the per-shot sections and may put the whole budget in
        // one shard).
        ExecutionEngine wave_engine(EngineOptions{
            .threads = threads, .shardShots = 256, .maxShards = 64});
        JobQueue queue(wave_engine);

        for (const double scale : {0.25, 1.0, 4.0}) {
            const DeviceModel device =
                DeviceModel::ibmqx4().scaledNoise(scale);
            JobSpec spec;
            spec.circuit = payload;
            spec.shots = budget;
            spec.backend = "trajectory";
            spec.seed = 41;
            spec.noise = &device.noiseModel();
            spec.assertions = {check};
            spec.stopping = rule;

            std::size_t waves = 0;
            double final_halfwidth = 1.0;
            double estimate = 0.0;
            const auto start = std::chrono::steady_clock::now();
            const Result result = queue
                                      .submit(spec)
                                      .get();
            const double seconds = secondsSince(start);
            // Waves/half-width from a pooled re-evaluation (identical
            // to the engine's last in-flight evaluation by counts
            // determinism).
            const auto inst = queue.instrumented(spec);
            const StoppingStatus status =
                evaluateStopping(rule, result, inst.get());
            estimate = status.estimate;
            final_halfwidth = status.halfWidth;
            waves = (result.shots() + rule.waveShots - 1) /
                    rule.waveShots;

            const double saved_frac =
                1.0 - static_cast<double>(result.shots()) /
                          static_cast<double>(result.shotsRequested());
            const double saved_factor =
                static_cast<double>(result.shotsRequested()) /
                static_cast<double>(result.shots());
            best_saved_factor =
                std::max(best_saved_factor, saved_factor);

            if (!json_only)
                std::printf("  early stopping (noise %gx): %zu of "
                            "%zu shots (%zu waves, %.2fx saved), "
                            "error %.3f +/- %.4f, %.3fs\n",
                            scale, result.shots(),
                            result.shotsRequested(), waves,
                            saved_factor, estimate, final_halfwidth,
                            seconds);
            std::printf("{\"bench\":\"perf_engine\","
                        "\"section\":\"early_stopping\","
                        "\"scale\":%g,\"shots\":%zu,"
                        "\"shots_used\":%zu,\"waves\":%zu,"
                        "\"target_halfwidth\":%g,"
                        "\"final_halfwidth\":%.5f,"
                        "\"estimate\":%.5f,"
                        "\"shots_saved_frac\":%.5f,"
                        "\"speedup\":%.3f}\n",
                        scale, budget, result.shots(), waves,
                        rule.targetHalfWidth, final_halfwidth,
                        estimate, saved_frac, saved_factor);
        }
    }

    // Telemetry overhead: the identical engine workload with
    // telemetry off vs fully on (metrics + tracing). Spans are
    // shard-granular, so the enabled path must stay within 3% and
    // counts must be bit-identical. 4x shots stretches each run to
    // tens of milliseconds; the overhead estimate is the minimum
    // ratio over alternating off/on pairs, so slow drift (thermal,
    // noisy neighbours) that best-of-N minima cannot cancel drops
    // out — each pair runs back to back on the same host state.
    double overhead_frac = 0.0;
    bool counts_identical = true;
    {
        const Circuit circuit = trajectoryWorkload(12, 64, 29);
        const std::size_t telemetry_shots = shots * 4;
        auto run_once = [&]() {
            const auto start = std::chrono::steady_clock::now();
            Result result = engine.run(circuit, telemetry_shots,
                                       "statevector", 31);
            return std::make_pair(secondsSince(start),
                                  std::move(result));
        };
        run_once(); // warm the pool and plan caches
        double best_off = 1e100;
        double best_on = 1e100;
        double best_ratio = 1e100;
        Result off_result;
        Result on_result;
        for (int rep = 0; rep < 7; ++rep) {
            obs::setMetricsEnabled(false);
            obs::setTracingEnabled(false);
            auto [off_seconds, off_r] = run_once();
            obs::setMetricsEnabled(true);
            obs::setTracingEnabled(true);
            auto [on_seconds, on_r] = run_once();
            best_off = std::min(best_off, off_seconds);
            best_on = std::min(best_on, on_seconds);
            best_ratio =
                std::min(best_ratio, on_seconds / off_seconds);
            off_result = std::move(off_r);
            on_result = std::move(on_r);
        }
        obs::setMetricsEnabled(false);
        obs::setTracingEnabled(false);
        obs::Tracer::global().clear();
        counts_identical =
            off_result.rawCounts() == on_result.rawCounts();
        overhead_frac = std::max(0.0, best_ratio - 1.0);

        if (!json_only)
            std::printf("  telemetry overhead (12 qubits, %zu "
                        "shots): off %.4fs, on %.4fs -> %.2f%% "
                        "(counts %s)\n",
                        telemetry_shots, best_off, best_on,
                        overhead_frac * 100.0,
                        counts_identical ? "identical" : "DIFFER");
        std::printf("{\"bench\":\"perf_engine\","
                    "\"section\":\"telemetry_overhead\","
                    "\"qubits\":12,\"shots\":%zu,"
                    "\"disabled_seconds\":%.6f,"
                    "\"enabled_seconds\":%.6f,"
                    "\"overhead_frac\":%.5f,"
                    "\"counts_identical\":%d}\n",
                    telemetry_shots, best_off, best_on, overhead_frac,
                    counts_identical ? 1 : 0);
    }

    // Robustness: the hardened job lifecycle's costs and contracts
    // on the per-shot workload. The count comparisons and the
    // resume-shot accounting are deterministic (fixed seeds, fixed
    // shard plans), so they fold into the exit verdict; the retry
    // overhead and cancel latency are timing-sensitive and left to
    // the warn-only regression check.
    double cancel_latency_ms = 0.0;
    double retry_overhead_frac = 0.0;
    bool retry_counts_identical = false;
    bool resume_counts_identical = false;
    std::size_t resume_total_shots = 0;
    std::size_t uninterrupted_shots = 0;
    {
        const Circuit circuit = trajectoryWorkload(12, 64, 37);
        const std::size_t robust_shots = shots * 4;
        // Eight shards = eight single-shard waves, so cancellation
        // and resume have real boundaries to work with.
        const std::size_t wave_shots =
            std::max<std::size_t>(1, robust_shots / 8);
        ExecutionEngine robust_engine(EngineOptions{
            .threads = threads,
            .shardShots = wave_shots,
            .maxShards = 64});

        auto clean_job = [&]() {
            return Job(circuit, robust_shots, "statevector", 43);
        };
        auto timed = [&](Job job) {
            const auto start = std::chrono::steady_clock::now();
            Result result = robust_engine.run(std::move(job));
            return std::make_pair(secondsSince(start),
                                  std::move(result));
        };
        robust_engine.run(clean_job()); // warm pool + plan caches

        // A retry policy on the fault-free path must be ~free: min
        // ratio over alternating pairs, the telemetry-section idiom.
        double best_ratio = 1e100;
        Result plain_result;
        for (int rep = 0; rep < 5; ++rep) {
            auto [plain_s, plain_r] = timed(clean_job());
            Job with_retry = clean_job();
            with_retry.retry.maxAttempts = 3;
            auto [retry_s, retry_r] = timed(std::move(with_retry));
            best_ratio = std::min(best_ratio, retry_s / plain_s);
            plain_result = std::move(plain_r);
        }
        retry_overhead_frac = std::max(0.0, best_ratio - 1.0);
        uninterrupted_shots = plain_result.shots();

        // Recovery: transient faults on two shards, retried with the
        // original RNG streams — counts must match the clean run.
        Job faulty = clean_job();
        faulty.retry.maxAttempts = 3;
        faulty.retry.baseBackoffMs = 0.01;
        faulty.faults = std::make_shared<const FaultPlan>(
            FaultPlan::parse("shard:1:throw,shard:3:badalloc"));
        const Result recovered = robust_engine.run(std::move(faulty));
        retry_counts_identical =
            recovered.rawCounts() == plain_result.rawCounts() &&
            recovered.execStats().retries == 2;

        // Cancel latency: cancel() inside the wave-1 progress
        // callback; wave 2's shards dequeue after it and skip, and
        // the engine delivers the partial result.
        {
            Job job = clean_job();
            job.stopping.waveShots = wave_shots;
            const CancelToken token = job.cancel;
            std::chrono::steady_clock::time_point cancelled_at;
            const Result partial = robust_engine.run(
                job,
                [&](const Result &, const StoppingStatus &status) {
                    if (status.wave == 1) {
                        cancelled_at =
                            std::chrono::steady_clock::now();
                        token.cancel();
                    }
                });
            cancel_latency_ms = secondsSince(cancelled_at) * 1000.0;
            if (!partial.cancelled())
                retry_counts_identical = false; // should never happen
        }

        // Checkpoint/resume: cancel at the wave-1 boundary, resume
        // from the checkpoint. Executed shots across both runs must
        // not exceed the uninterrupted budget (adopted checkpoint
        // shots are not re-run), and the final counts must match.
        {
            Job job = clean_job();
            job.stopping.waveShots = wave_shots;
            job.checkpoint = std::make_shared<JobCheckpoint>();
            const CancelToken token = job.cancel;
            const Result partial = robust_engine.run(
                job,
                [&](const Result &, const StoppingStatus &status) {
                    if (status.wave == 1)
                        token.cancel();
                });

            Job resume_job = clean_job();
            resume_job.stopping.waveShots = wave_shots;
            resume_job.resumeFrom = job.checkpoint;
            const Result resumed =
                robust_engine.run(std::move(resume_job));
            resume_total_shots =
                partial.shots() +
                (resumed.shots() -
                 resumed.execStats().resumedShots);
            resume_counts_identical =
                resumed.rawCounts() == plain_result.rawCounts();
        }

        if (!json_only)
            std::printf("  robustness (12 qubits, %zu shots): retry "
                        "overhead %.2f%%, recovered counts %s, "
                        "cancel latency %.2fms, resume %zu of %zu "
                        "shots (%s)\n",
                        robust_shots, retry_overhead_frac * 100.0,
                        retry_counts_identical ? "identical"
                                               : "DIFFER",
                        cancel_latency_ms, resume_total_shots,
                        uninterrupted_shots,
                        resume_counts_identical ? "identical"
                                                : "DIFFER");
        std::printf("{\"bench\":\"perf_engine\","
                    "\"section\":\"robustness\",\"qubits\":12,"
                    "\"shots\":%zu,"
                    "\"retry_overhead_frac\":%.5f,"
                    "\"retry_counts_identical\":%d,"
                    "\"cancel_latency_ms\":%.3f,"
                    "\"resume_total_shots\":%zu,"
                    "\"uninterrupted_shots\":%zu,"
                    "\"resume_counts_identical\":%d}\n",
                    robust_shots, retry_overhead_frac,
                    retry_counts_identical ? 1 : 0, cancel_latency_ms,
                    resume_total_shots, uninterrupted_shots,
                    resume_counts_identical ? 1 : 0);
    }

    // Auto-assertion quality: statically derived checks must detect
    // at least as many injected errors as the paper's hand-annotated
    // checks on the Bell/GHZ/W circuits under ibmqx4 noise, at
    // <= 1.25x the inserted-gate overhead. Fixed seeds keep counts
    // (and therefore both rates) bit-stable at any thread count, so
    // the comparison is a deterministic CI verdict, not a
    // statistical one.
    bool auto_assert_ok = true;
    {
        const DeviceModel aa_device = DeviceModel::ibmqx4();
        const std::size_t aa_shots = 4096;

        struct AutoCase
        {
            const char *name;
            Circuit payload;
            AssertionSpec hand;
        };
        auto entangledAt = [](std::size_t n, std::size_t cut) {
            AssertionSpec spec;
            spec.assertion =
                std::make_shared<EntanglementAssertion>(n);
            for (std::size_t q = 0; q < n; ++q)
                spec.targets.push_back(static_cast<Qubit>(q));
            spec.insertAt = cut;
            return spec;
        };
        std::vector<AutoCase> aa_cases;
        {
            Circuit bell = library::bellPair();
            bell.addClbits(bell.numQubits());
            bell.measureAll();
            aa_cases.push_back(
                {"bell", std::move(bell), entangledAt(2, 2)});
        }
        for (const std::size_t n : {3u, 4u}) {
            Circuit ghz = library::ghzState(n);
            ghz.addClbits(n);
            ghz.measureAll();
            aa_cases.push_back({n == 3 ? "ghz3" : "ghz4",
                                std::move(ghz), entangledAt(n, n)});
        }
        {
            // W(3): non-Clifford, but x(0) proves q0 = 1 — the
            // paper's hand annotation is that classical check.
            Circuit w = library::wState(3);
            w.addClbits(3);
            w.measureAll();
            AssertionSpec hand;
            hand.assertion = std::make_shared<ClassicalAssertion>(1);
            hand.targets = {0};
            hand.insertAt = 1;
            aa_cases.push_back(
                {"w3", std::move(w), std::move(hand)});
        }

        ExecutionEngine aa_engine(EngineOptions{.threads = threads});
        JobQueue aa_queue(aa_engine);
        if (!json_only)
            std::printf("  auto-assert vs hand annotation (ibmqx4 "
                        "noise, %zu shots):\n",
                        aa_shots);
        for (AutoCase &aa : aa_cases) {
            JobSpec base;
            base.circuit = aa.payload;
            base.shots = aa_shots;
            base.backend = "auto";
            base.seed = 101;
            base.noise = &aa_device.noiseModel();
            base.coupling = &aa_device.couplingMap();

            JobSpec hand_spec = base;
            hand_spec.assertions = {aa.hand};
            JobSpec auto_spec = base;
            auto_spec.injection =
                compile::InjectionStrategy::AutoGenerate;

            const auto hand_inst = aa_queue.instrumented(hand_spec);
            const auto auto_inst = aa_queue.instrumented(auto_spec);
            if (!hand_inst || !auto_inst ||
                auto_inst->checks().empty()) {
                auto_assert_ok = false;
                continue;
            }
            const double hand_inserted = static_cast<double>(
                hand_inst->circuit().size() - aa.payload.size());
            const double auto_inserted = static_cast<double>(
                auto_inst->circuit().size() - aa.payload.size());
            const double overhead_ratio =
                auto_inserted / hand_inserted;

            const Result hand_result =
                aa_queue.submit(hand_spec).get();
            const Result auto_result =
                aa_queue.submit(auto_spec).get();
            const double hand_rate =
                analyze(*hand_inst, hand_result).anyErrorRate;
            const double auto_rate =
                analyze(*auto_inst, auto_result).anyErrorRate;
            const std::size_t num_checks =
                auto_inst->checks().size();

            const bool case_ok = auto_rate + 1e-9 >= hand_rate &&
                                 overhead_ratio <= 1.25;
            auto_assert_ok = auto_assert_ok && case_ok;

            if (!json_only)
                std::printf("    %-5s auto %.2f%% vs hand %.2f%% "
                            "detected, %.2fx inserted gates, "
                            "%zu check%s%s\n",
                            aa.name, auto_rate * 100.0,
                            hand_rate * 100.0, overhead_ratio,
                            num_checks, num_checks == 1 ? "" : "s",
                            case_ok ? "" : "  [FAIL]");
            std::printf("{\"bench\":\"perf_engine\","
                        "\"section\":\"auto_assert\","
                        "\"circuit\":\"%s\",\"shots\":%zu,"
                        "\"auto_rate\":%.5f,\"hand_rate\":%.5f,"
                        "\"overhead_ratio\":%.3f,\"checks\":%zu}\n",
                        aa.name, aa_shots, auto_rate, hand_rate,
                        overhead_ratio, num_checks);
        }
    }

    // The parallelism claim only applies where parallelism exists.
    bool ok = true;
    if (threads >= 4) {
        ok = speedup_at_16 >= 2.0;
        if (!json_only)
            bench::verdict(ok, "engine delivers >= 2x shots/sec over "
                               "direct single-threaded execution at "
                               "16 qubits on a >= 4-core host");
    } else if (!json_only) {
        bench::verdict(true,
                       "host has < 4 threads; speedup is "
                       "informational only on this machine");
    }

    // Deterministic compile-quality claim: post-layout injection must
    // insert fewer SWAPs than the legacy inject-then-transpile order
    // on the grid workload batch.
    const bool placement_ok = swap_reduction > 0.0;
    if (!json_only)
        bench::verdict(placement_ok,
                       "post-layout assertion injection inserts fewer "
                       "SWAPs than inject-then-transpile");
    ok = ok && placement_ok;

    // Deterministic adaptive-execution claim: early stopping must
    // save >= 2x shots vs the fixed budget on at least one noise
    // point of the ablation sweep (counts — hence stopping points —
    // are bit-identical at any thread count).
    const bool stopping_ok = best_saved_factor >= 2.0;
    if (!json_only)
        bench::verdict(stopping_ok,
                       "confidence-driven early stopping saves >= 2x "
                       "shots vs the fixed budget on the noise sweep");
    ok = ok && stopping_ok;

    // Telemetry budget: enabled-path cost under 3% and counts
    // bit-identical with telemetry on or off.
    const bool telemetry_ok = counts_identical && overhead_frac < 0.03;
    if (!json_only)
        bench::verdict(telemetry_ok,
                       "telemetry enabled-path costs < 3% and leaves "
                       "counts bit-identical");
    ok = ok && telemetry_ok;

    // Robustness contract: retried and resumed jobs reproduce the
    // clean counts bit for bit, and resume never re-executes adopted
    // shots. Deterministic (fixed seeds, fixed shard plans), so safe
    // for CI.
    const bool robustness_ok =
        retry_counts_identical && resume_counts_identical &&
        resume_total_shots <= uninterrupted_shots;
    if (!json_only)
        bench::verdict(robustness_ok,
                       "retried and resumed jobs are bit-identical "
                       "to the clean run with no re-executed shots");
    ok = ok && robustness_ok;

    // Static-analysis contract: auto-derived checks match or beat
    // the hand annotations at bounded overhead (deterministic: fixed
    // seeds, thread-count-independent counts).
    if (!json_only)
        bench::verdict(auto_assert_ok,
                       "auto-derived assertions detect >= the "
                       "hand-annotated rate at <= 1.25x inserted "
                       "gates on Bell/GHZ/W under ibmqx4 noise");
    ok = ok && auto_assert_ok;
    return ok ? 0 : 1;
}
