/**
 * @file
 * ExecutionEngine: sharded, deterministic, multi-threaded circuit
 * execution over registry backends.
 *
 * A job's shot budget is split into shards by a plan that depends
 * only on the job (shots, seed, backend capabilities, engine shard
 * options) — never on the thread count. Each shard runs on the
 * thread pool with an RNG stream split from the job seed by shard
 * index. Shards execute in waves (one wave for a fixed budget), and
 * each wave's last-finishing shard merges it in shard order, so the
 * merged counts for a fixed seed are bit-identical whether the
 * engine drives 1 thread or 64. One callback path, submit(), runs
 * every job; the future and blocking forms are thin adapters.
 */

#ifndef QRA_RUNTIME_EXECUTION_ENGINE_HH
#define QRA_RUNTIME_EXECUTION_ENGINE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "assertions/injector.hh"
#include "circuit/circuit.hh"
#include "noise/noise_model.hh"
#include "runtime/backend_registry.hh"
#include "runtime/cancel.hh"
#include "runtime/checkpoint.hh"
#include "runtime/fault.hh"
#include "runtime/retry.hh"
#include "runtime/stopping.hh"
#include "runtime/thread_pool.hh"
#include "sim/kernels/plan.hh"
#include "sim/kernels/plan_cache.hh"
#include "sim/result.hh"

namespace qra {
namespace runtime {

/** One unit of work: a circuit, a shot budget, and how to run it. */
struct Job
{
    std::shared_ptr<const Circuit> circuit;
    std::size_t shots = 1024;
    /** Registry name, or "auto" to let the registry pick. */
    std::string backend = "auto";
    std::uint64_t seed = 7;
    /** Not owned; must outlive the job's execution. */
    const NoiseModel *noise = nullptr;

    /**
     * Shared artifact cache (lowered plans, trajectory plans, sampled
     * distributions) installed around every shard of this job; null =
     * each shard compiles locally. The JobQueue sets its own cache
     * here so repeated jobs skip lowering and distribution builds.
     */
    std::shared_ptr<kernels::PlanCache> artifacts;

    /**
     * Early-stopping policy. Every job executes its budget's shard
     * plan in waves; when the convergence target is unset the waves
     * run the whole budget, and with waveShots also 0 the whole plan
     * is one wave.
     */
    StoppingRule stopping;

    /**
     * Decode bookkeeping for the stopping rule's assertion
     * statistics (and for resolving OutcomeProbability over payload
     * bits). Required for AnyError/CheckError rules; may be null
     * otherwise.
     */
    std::shared_ptr<const InstrumentedCircuit> instrumented;

    /**
     * Cooperative cancellation handle. Keep a copy and call
     * cancel(): a shard the pool dequeues after cancel() runs
     * nothing, and no further wave launches. The delivered Result is
     * the longest completed prefix of the shard plan — bit-identical
     * to run() of those shards' shots — stamped cancelled(); shards
     * that finished after the first skipped one are discarded.
     */
    CancelToken cancel;

    /**
     * Wall-clock deadline in milliseconds from dispatch; <= 0 = none.
     * Armed on the cancel token at dispatch, so expiry behaves
     * exactly like cancel() with reason "deadline".
     */
    double deadlineMs = 0.0;

    /** Re-run policy for transiently failed shards (see retry.hh).
        Retried shards reuse their original RNG stream, so a recovered
        job is bit-identical to a fault-free one. */
    RetryPolicy retry;

    /**
     * Fault-injection plan for this job; null = the process-wide
     * QRA_FAULTS plan (itself usually null). Test/bench hook — see
     * fault.hh.
     */
    std::shared_ptr<const FaultPlan> faults;

    /**
     * Checkpoint sink: when set, the engine writes the job's
     * resumable cursor here at completion, cancellation, and wave
     * failure (see checkpoint.hh).
     */
    std::shared_ptr<JobCheckpoint> checkpoint;

    /**
     * Resume source: skip the shards a prior run already merged.
     * Must match this job's circuit, seed, and budget (validated
     * synchronously); the stopping rule may differ.
     */
    std::shared_ptr<const JobCheckpoint> resumeFrom;

    Job() = default;

    /** Convenience: copies @p circuit into shared ownership. */
    Job(Circuit circuit_value, std::size_t shots_value,
        std::string backend_name = "auto", std::uint64_t seed_value = 7,
        const NoiseModel *noise_model = nullptr)
        : circuit(std::make_shared<Circuit>(std::move(circuit_value))),
          shots(shots_value), backend(std::move(backend_name)),
          seed(seed_value), noise(noise_model)
    {
    }
};

/** Engine tuning knobs. */
struct EngineOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    std::size_t threads = 0;

    /**
     * Target shots per shard. Shard count is
     * clamp(ceil(shots / shardShots), 1, maxShards) and is part of
     * the deterministic shard plan: changing it changes the sampled
     * counts (like changing the seed), changing `threads` does not.
     */
    std::size_t shardShots = 1024;

    /** Upper bound on shards per job. */
    std::size_t maxShards = 64;

    /**
     * Amplitude-loop lanes per shard (intra-shot parallelism). 0 =
     * auto: leftover pool capacity is split across the job's shards
     * (threads / shard count), so one big-circuit job uses the whole
     * pool while a many-shard job stays at one lane per shard —
     * shards and lanes share the single engine pool either way, so
     * the machine is never oversubscribed. Lane count never affects
     * results: amplitude splits are bit-deterministic.
     */
    std::size_t intraThreads = 0;

    /**
     * Plan fusion level installed around backend runs (see
     * kernels::kFusionNone/1q/2q). Changing it changes which kernels
     * execute — results stay equivalent but, like changing the seed,
     * sampled counts are not bit-identical across levels.
     */
    int fusionLevel = kernels::kFusionDefault;

    /**
     * SIMD dispatch tier installed around backend runs: -1 = auto
     * (cpuid-detected, QRA_SIMD-overridable), otherwise a
     * kernels::simd::Tier value (0 scalar, 1 portable, 2 avx2,
     * 3 avx512), clamped to what the CPU and build support. Unlike
     * fusionLevel, the tier never changes results — every tier is
     * bit-identical to the scalar oracle, for gate updates and
     * measurement reductions alike.
     */
    int simdTier = -1;

    /**
     * Cache-tile budget (bytes) for blocked pair traversal, installed
     * per shard (kernels::CacheBlockScope): 0 = the process default
     * (1 MiB or QRA_CACHE_BLOCK). Values round down to a power of two
     * with a 4 KiB floor. Like simdTier this is a pure locality knob —
     * Linear and Blocked traversal are bit-identical — so per-plan
     * tuning (e.g. a smaller budget on a cache-starved host) never
     * changes counts.
     */
    std::size_t cacheBlockBytes = 0;
};

/** One entry of a job's deterministic shard plan. */
struct Shard
{
    std::size_t shots = 0;
    std::uint64_t seed = 0;
};

/** Sharded multi-threaded executor over registry backends. */
class ExecutionEngine
{
  public:
    /** @param registry Defaults to the global registry. */
    explicit ExecutionEngine(EngineOptions options = {},
                             BackendRegistry *registry = nullptr);

    /** Shorthand for EngineOptions{.threads = threads}. */
    explicit ExecutionEngine(std::size_t threads);

    std::size_t threads() const { return pool_.size(); }
    const EngineOptions &options() const { return options_; }
    BackendRegistry &registry() const { return *registry_; }

    /**
     * The shard plan for @p shots shots under @p seed: shot budget
     * split near-evenly, per-shard seeds derived via splitSeed.
     * Backends with shardable=false get a single shard.
     */
    std::vector<Shard> shardPlan(std::size_t shots, std::uint64_t seed,
                                 const Backend &backend) const;

    /**
     * Completion callback: the final Result, or — if a shard or a
     * wave failed — a default Result plus the first error.
     */
    using Completion = std::function<void(Result, std::exception_ptr)>;

    /**
     * Streaming callback: the merged partial Result after each wave
     * plus the stopping evaluation. Invoked on a pool thread,
     * strictly between waves (never concurrently with shard
     * execution of the same job), so the partial may be read without
     * locking but must not be retained past the callback's return —
     * the next wave mutates it.
     */
    using Progress =
        std::function<void(const Result &, const StoppingStatus &)>;

    /**
     * Dispatch @p job and deliver its Result through @p onComplete.
     *
     * The budget (stopping.maxShots, defaulting to job.shots) is laid
     * out as the deterministic shard plan and executed in waves of
     * ~stopping.waveShots shots; 0 = the whole plan in one wave when
     * no convergence target is set, about one shard per pool thread
     * otherwise. The last shard of each wave merges the wave in
     * shard order, evaluates the stopping rule, streams the partial
     * to @p onProgress (optional), and either launches the next wave
     * or completes. A run ends early once the watched statistic's
     * Wilson 95% half-width reaches the target (past any minShots
     * floor); the Result then carries stoppedEarly(), and always
     * shotsRequested() = budget.
     *
     * Determinism: waves partition the shard plan by index and merge
     * in shard order, so counts depend on the job and the shard
     * options only — never on threads or wave size. An early-stopped
     * run equals run() of the shots actually taken whenever those
     * form the same shard decomposition (budget a multiple of
     * shardShots, within maxShards).
     *
     * Cancellation (Job::cancel, Job::deadlineMs) delivers the longest
     * completed prefix of the shard plan, stamped cancelled(); with
     * Job::checkpoint set, a job resumed from that cursor finishes
     * bit-identical to an uninterrupted run.
     *
     * Both callbacks run on pool threads: they must not block on
     * pool work they wait for themselves (submitting new jobs is
     * fine), and should not throw — an escaping exception is logged
     * as a warning and dropped. Dispatch errors (unknown backend,
     * rejected circuit, misconfigured stopping rule, mismatched
     * resume checkpoint) throw synchronously.
     */
    void submit(Job job, Completion onComplete, Progress onProgress = {});

    /**
     * Future form of submit(): the future resolves to the Result or
     * rethrows the job's error. Wait on it from outside the pool.
     */
    std::future<Result> submit(Job job);

    /**
     * Synchronous form of submit(): blocks the calling thread (not a
     * pool thread) until the job completes. @throws the job's error.
     */
    Result run(const Job &job, Progress onProgress = {});

    /** Convenience: run a circuit without building a Job by hand. */
    Result run(const Circuit &circuit, std::size_t shots,
               const std::string &backend = "auto",
               std::uint64_t seed = 7,
               const NoiseModel *noise = nullptr);

  private:
    /** One job's wave state (defined in the .cc). */
    struct JobRun;

    /** Reject invalid jobs and resolve intra-shot lane budget. */
    std::size_t checkAndLaneCount(const Job &job,
                                  const BackendPtr &backend,
                                  std::size_t shard_count) const;

    /** Queue the next wave's shards of @p run on the pool. */
    void launchWave(const std::shared_ptr<JobRun> &run);

    /**
     * Execute shard @p index of @p run: fault injection and the
     * transient-failure retry loop inside the engine's kernel scopes.
     */
    Result runShard(JobRun &run, std::size_t index);

    /** Wave epilogue, run by the wave's last-finishing shard. */
    void finishWave(const std::shared_ptr<JobRun> &run);

    EngineOptions options_;
    BackendRegistry *registry_;
    ThreadPool pool_;
};

/** A Completion that settles @p promise with the Result or error. */
ExecutionEngine::Completion
settlePromise(std::shared_ptr<std::promise<Result>> promise);

} // namespace runtime
} // namespace qra

#endif // QRA_RUNTIME_EXECUTION_ENGINE_HH
