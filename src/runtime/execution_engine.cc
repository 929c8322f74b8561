#include "runtime/execution_engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/kernels/parallel.hh"
#include "sim/kernels/simd/dispatch.hh"

namespace qra {
namespace runtime {

namespace {

/** Registered-once handles for the engine's metrics. */
struct EngineMetrics
{
    obs::CounterHandle jobs;
    obs::CounterHandle shards;
    obs::CounterHandle shots;
    obs::CounterHandle waves;
    obs::CounterHandle adaptiveBudgetShots;
    obs::CounterHandle adaptiveShotsSaved;
    obs::CounterHandle cancelled;
    obs::CounterHandle retries;
    obs::CounterHandle resumedShots;
    obs::HistogramHandle shardRunNs;
    obs::HistogramHandle shardQueueWaitNs;
};

const EngineMetrics &
engineMetrics()
{
    static const EngineMetrics metrics = []() {
        obs::MetricsRegistry &reg = obs::MetricsRegistry::global();
        EngineMetrics m;
        m.jobs = reg.counter("engine.jobs");
        m.shards = reg.counter("engine.shards");
        m.shots = reg.counter("engine.shots");
        m.waves = reg.counter("engine.waves");
        m.adaptiveBudgetShots =
            reg.counter("engine.adaptive.budget_shots");
        m.adaptiveShotsSaved =
            reg.counter("engine.adaptive.shots_saved");
        m.cancelled = reg.counter("engine.cancelled");
        m.retries = reg.counter("engine.retries");
        m.resumedShots = reg.counter("engine.resumed_shots");
        m.shardRunNs = reg.histogram("engine.shard.run_ns");
        m.shardQueueWaitNs =
            reg.histogram("engine.shard.queue_wait_ns");
        return m;
    }();
    return metrics;
}

std::uint64_t
elapsedNs(obs::Tracer::Clock::time_point begin,
          obs::Tracer::Clock::time_point end)
{
    return end <= begin
               ? 0
               : static_cast<std::uint64_t>(
                     std::chrono::duration_cast<
                         std::chrono::nanoseconds>(end - begin)
                         .count());
}

/** Invoke a user callback, logging instead of propagating throws. */
template <typename Callback, typename... Args>
void
invokeGuarded(const char *what, Callback &&callback, Args &&...args)
{
    try {
        callback(std::forward<Args>(args)...);
    } catch (const std::exception &e) {
        logWarn(std::string(what) + " threw: " + e.what());
    } catch (...) {
        logWarn(std::string(what) +
                " threw a non-standard exception");
    }
}

/** Arm Job::deadlineMs on the job's cancel token at dispatch. */
void
armJobDeadline(const Job &job)
{
    if (job.deadlineMs <= 0.0)
        return;
    job.cancel.armDeadline(
        CancelToken::Clock::now() +
        std::chrono::duration_cast<CancelToken::Clock::duration>(
            std::chrono::duration<double, std::milli>(
                job.deadlineMs)));
}

/** The fault plan governing a job: its own, else the QRA_FAULTS one. */
const FaultPlan *
effectiveFaultPlan(const Job &job)
{
    return job.faults ? job.faults.get() : processFaultPlan();
}

} // namespace

ExecutionEngine::ExecutionEngine(EngineOptions options,
                                 BackendRegistry *registry)
    : options_(options),
      registry_(registry != nullptr ? registry
                                    : &BackendRegistry::global()),
      pool_(options.threads)
{
    if (options_.shardShots == 0)
        throw ValueError("EngineOptions.shardShots must be positive");
    if (options_.maxShards == 0)
        throw ValueError("EngineOptions.maxShards must be positive");
    if (options_.fusionLevel < kernels::kFusionNone ||
        options_.fusionLevel > kernels::kFusion2q)
        throw ValueError("EngineOptions.fusionLevel must be 0, 1 or 2");
    if (options_.simdTier >
        static_cast<int>(kernels::simd::Tier::Avx512))
        throw ValueError(
            "EngineOptions.simdTier must be -1 (auto), 0 (scalar), "
            "1 (portable), 2 (avx2) or 3 (avx512)");
}

ExecutionEngine::ExecutionEngine(std::size_t threads)
    : ExecutionEngine(EngineOptions{.threads = threads})
{
}

std::vector<Shard>
ExecutionEngine::shardPlan(std::size_t shots, std::uint64_t seed,
                           const Backend &backend) const
{
    std::size_t count = 1;
    if (backend.capabilities().shardable && shots > 0) {
        count = (shots + options_.shardShots - 1) / options_.shardShots;
        count = std::clamp<std::size_t>(count, 1, options_.maxShards);
    }
    std::vector<Shard> plan(count);
    const std::size_t base = shots / count;
    const std::size_t remainder = shots % count;
    for (std::size_t i = 0; i < count; ++i) {
        plan[i].shots = base + (i < remainder ? 1 : 0);
        plan[i].seed = splitSeed(seed, i);
    }
    return plan;
}

std::size_t
ExecutionEngine::checkAndLaneCount(const Job &job,
                                   const BackendPtr &backend,
                                   std::size_t shard_count) const
{
    if (!job.circuit)
        throw ValueError("job has no circuit");
    const std::string reason =
        backend->rejectReason(*job.circuit, job.noise);
    if (!reason.empty())
        throw SimulationError(reason);

    // Intra-shot lanes: leftover pool capacity divided across the
    // job's shards (or the explicit intraThreads knob), clamped to
    // the pool size. Lanes and shards share pool_, and a lane-waiting
    // shard helps drain the queue, so total concurrency never
    // exceeds the pool's worker count.
    std::size_t lanes = options_.intraThreads;
    if (lanes == 0)
        lanes = std::max<std::size_t>(
            1,
            pool_.size() / std::max<std::size_t>(1, shard_count));
    return std::min(lanes, pool_.size());
}

/**
 * One job's wave state. Wave bookkeeping (parts, remaining, error) is
 * guarded by the mutex; everything else is only touched by the
 * dispatching thread or by the wave's last-finishing shard — the
 * release/acquire pair on the final `--remaining` orders those
 * accesses, so the merge/evaluate/relaunch sequence runs unlocked.
 * Shards only read the fields fixed before the first wave (job,
 * backend, plan, lanes, faults).
 */
struct ExecutionEngine::JobRun
{
    Job job;
    BackendPtr backend;
    std::vector<Shard> plan;
    std::size_t perWave = 1;
    std::size_t lanes = 1;
    std::size_t budget = 0;
    std::size_t numClbits = 0;
    /** Resolved fault plan (job's own or QRA_FAULTS; may be null). */
    const FaultPlan *faults = nullptr;

    /** Shards [0, nextShard) are merged; the next wave starts here,
        and a failed wave leaves it at that wave's first shard. */
    std::size_t nextShard = 0;
    std::size_t wave = 0;
    /** Shots adopted from Job::resumeFrom (0 = fresh run). */
    std::size_t resumedShots = 0;
    Result merged;
    StoppingStatus lastStatus;
    std::atomic<std::size_t> retryCount{0};
    obs::Tracer::Clock::time_point start;
    /** Async-span id of the in-flight wave (0 = tracing off). */
    std::uint64_t waveSpanId = 0;

    std::mutex mutex;
    /** One slot per shard of the wave; empty = skipped (dequeued
        after cancellation). */
    std::vector<std::optional<Result>> parts;
    std::size_t remaining = 0;
    std::exception_ptr error;

    Progress progress;
    Completion done;

    /**
     * Fill the job's checkpoint sink (if any) with the current
     * cursor. Called with the wave machinery quiescent: at
     * completion, cancellation, and wave failure. The stored merge is
     * the raw shard prefix, before any completion stamping, so
     * resuming merges cleanly on top of it.
     */
    void
    writeCheckpoint() const
    {
        if (!job.checkpoint)
            return;
        JobCheckpoint &ck = *job.checkpoint;
        ck.circuitHash = job.circuit->hash();
        ck.seed = job.seed;
        ck.budget = budget;
        ck.planShards = plan.size();
        ck.nextShard = nextShard;
        ck.wave = wave;
        ck.merged = merged;
        ck.lastStatus = lastStatus;
    }
};

Result
ExecutionEngine::runShard(JobRun &run, std::size_t index)
{
    const Job &job = run.job;
    const Shard &shard = run.plan[index];
    kernels::ParallelScope scope(&pool_, run.lanes);
    kernels::FusionScope fusion_scope(options_.fusionLevel);
    kernels::simd::TierScope tier_scope(options_.simdTier);
    kernels::CacheBlockScope block_scope(options_.cacheBlockBytes);
    kernels::PlanCacheScope cache_scope(job.artifacts.get());
    // Transient failures (TransientSimulationError, bad_alloc —
    // injected or real) re-run the shard with its ORIGINAL seed: a
    // recovered run's counts are bit-identical to a fault-free one.
    // Permanent errors and exhausted budgets propagate.
    for (std::size_t attempt = 0;; ++attempt) {
        try {
            maybeInjectFault(run.faults, FaultSite::Scope::Shard, index,
                             attempt);
            return run.backend->run(*job.circuit, shard.shots,
                                    shard.seed, job.noise);
        } catch (...) {
            const std::exception_ptr error = std::current_exception();
            if (!isTransient(error) ||
                attempt + 1 >= job.retry.maxAttempts ||
                job.cancel.cancelled())
                std::rethrow_exception(error);
            run.retryCount.fetch_add(1, std::memory_order_relaxed);
            obs::count(engineMetrics().retries);
            const double delay_ms =
                retryBackoffMs(job.retry, attempt + 1, shard.seed);
            if (delay_ms > 0.0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        delay_ms));
        }
    }
}

void
ExecutionEngine::launchWave(const std::shared_ptr<JobRun> &run)
{
    const std::size_t begin = run->nextShard;
    const std::size_t count =
        std::min(run->perWave, run->plan.size() - begin);
    run->parts.assign(count, std::nullopt);
    run->remaining = count;
    if (count == 0) {
        // Resuming an exhausted checkpoint: no shard will finish a
        // wave, so a lone task runs the epilogue, which re-evaluates
        // the rule on the merged counts and completes.
        pool_.submit([this, run]() { finishWave(run); });
        return;
    }
    if (obs::tracingEnabled()) {
        // Wave shards cross threads, so the wave itself is an async
        // begin/end pair closed by the wave epilogue.
        run->waveSpanId = obs::Tracer::global().nextAsyncId();
        obs::asyncBegin("engine", "wave", run->waveSpanId,
                        {{"wave", run->wave + 1}, {"shards", count}});
    }
    // The enqueue timestamp is only captured when telemetry is on:
    // the disabled path stays free of clock reads.
    const obs::Tracer::Clock::time_point enqueued =
        obs::anyEnabled() ? obs::Tracer::Clock::now()
                          : obs::Tracer::Clock::time_point{};
    for (std::size_t i = 0; i < count; ++i) {
        pool_.submit([this, run, i, index = begin + i, enqueued]() {
            std::optional<Result> part;
            std::exception_ptr error;
            // A shard dequeued after cancel() (or the deadline) runs
            // nothing; the epilogue merges only the prefix before it.
            if (!run->job.cancel.poll()) {
                try {
                    if (!obs::anyEnabled()) {
                        part = runShard(*run, index);
                    } else {
                        const auto start = obs::Tracer::Clock::now();
                        const std::uint64_t wait_ns =
                            elapsedNs(enqueued, start);
                        part = runShard(*run, index);
                        const auto end = obs::Tracer::Clock::now();
                        const std::size_t shots =
                            run->plan[index].shots;
                        obs::complete(
                            "engine", "shard", start, end,
                            {{"shots", shots}, {"wait_ns", wait_ns}});
                        const EngineMetrics &m = engineMetrics();
                        obs::count(m.shards);
                        obs::count(m.shots, shots);
                        obs::observe(m.shardRunNs,
                                     elapsedNs(start, end));
                        obs::observe(m.shardQueueWaitNs, wait_ns);
                    }
                } catch (...) {
                    error = std::current_exception();
                }
            }
            bool last = false;
            {
                std::lock_guard<std::mutex> lock(run->mutex);
                run->parts[i] = std::move(part);
                if (error && !run->error)
                    run->error = error;
                last = --run->remaining == 0;
            }
            if (last)
                finishWave(run);
        });
    }
}

void
ExecutionEngine::finishWave(const std::shared_ptr<JobRun> &run)
try {
    // Wave-scope fault sites fail the epilogue itself (there is no
    // per-wave retry — recovery is the checkpoint/resume path).
    if (!run->error) {
        try {
            maybeInjectFault(run->faults, FaultSite::Scope::Wave,
                             run->wave, 0);
        } catch (...) {
            run->error = std::current_exception();
        }
    }
    if (run->error) {
        // The failing wave's parts are discarded and the cursor stays
        // at its first shard, so a resume re-runs exactly the lost
        // shots.
        run->writeCheckpoint();
        invokeGuarded("completion callback", run->done,
                      Result(run->numClbits), run->error);
        return;
    }
    // Merge in shard order up to the first shard that did not run:
    // together with waves walking the plan in index order, the merge
    // is always the longest completed prefix of the shard plan —
    // bit-identical to run() of those shards. Shards that finished
    // after the gap are discarded.
    {
        obs::Span merge_span("engine", "wave_merge",
                             {{"wave", run->wave + 1},
                              {"parts", run->parts.size()}});
        for (std::optional<Result> &part : run->parts) {
            if (!part)
                break;
            run->merged.merge(*part);
            ++run->nextShard;
        }
    }
    ++run->wave;
    obs::count(engineMetrics().waves);

    const StoppingRule &rule = run->job.stopping;
    StoppingStatus status;
    if (rule.enabled() || run->progress) {
        obs::Span eval_span("engine", "stopping_eval",
                            {{"wave", run->wave}});
        try {
            status = evaluateStopping(rule, run->merged,
                                      run->job.instrumented.get());
        } catch (const Error &) {
            // An enabled rule was validated at submit. A disabled one
            // may have nothing to watch (any-error without
            // assertions): stream shot progress only.
            if (rule.enabled())
                throw;
        }
    }
    const bool exhausted = run->nextShard >= run->plan.size();
    status.shotsDone = run->merged.shots();
    status.wave = run->wave;
    status.shotsRequested = run->budget;
    // Cancelled means cancellation cut the run short: shards remain
    // and the token fired (a skipped shard implies it did).
    status.cancelled =
        !status.converged && !exhausted && run->job.cancel.poll();
    status.finished = status.converged || status.cancelled || exhausted;
    run->lastStatus = status;

    if (run->waveSpanId != 0) {
        obs::asyncEnd("engine", "wave", run->waveSpanId);
        run->waveSpanId = 0;
    }

    if (run->progress)
        invokeGuarded("progress callback", run->progress, run->merged,
                      status);

    if (!status.finished) {
        launchWave(run);
        return;
    }
    // Checkpoint before completion stamping: the stored merge is the
    // raw shard prefix a resume continues from.
    run->writeCheckpoint();
    Result final_result = std::move(run->merged);
    final_result.setShotsRequested(run->budget);
    final_result.setStoppedEarly(status.converged &&
                                 final_result.shots() < run->budget);
    if (status.cancelled) {
        final_result.setCancelled(
            cancelReasonName(run->job.cancel.reason()));
        obs::count(engineMetrics().cancelled);
    }
    ExecStats stats;
    stats.shards = run->nextShard;
    stats.waves = run->wave;
    stats.retries = run->retryCount.load(std::memory_order_relaxed);
    stats.resumedShots = run->resumedShots;
    stats.engineSeconds = std::chrono::duration<double>(
                              obs::Tracer::Clock::now() - run->start)
                              .count();
    final_result.setExecStats(stats);
    if (obs::metricsEnabled() && rule.enabled() && !status.cancelled) {
        const EngineMetrics &m = engineMetrics();
        obs::count(m.adaptiveBudgetShots, run->budget);
        obs::count(m.adaptiveShotsSaved,
                   run->budget - final_result.shots());
    }
    invokeGuarded("completion callback", run->done,
                  std::move(final_result), nullptr);
} catch (...) {
    // An epilogue throw (merge failure, next-wave dispatch onto a
    // stopping pool) would vanish into the pool task's discarded
    // future and leave the job uncompleted; deliver it instead.
    invokeGuarded("completion callback", run->done,
                  Result(run->numClbits), std::current_exception());
}

void
ExecutionEngine::submit(Job job, Completion on_complete,
                        Progress on_progress)
{
    if (!on_complete)
        throw ValueError("submit requires a completion callback");
    if (!job.circuit)
        throw ValueError("job has no circuit");
    const auto start_time = obs::Tracer::Clock::now();
    obs::count(engineMetrics().jobs);
    const BackendPtr backend =
        registry_->resolve(job.backend, *job.circuit, job.noise);
    armJobDeadline(job);

    const StoppingRule &rule = job.stopping;
    const std::size_t budget =
        rule.maxShots != 0 ? rule.maxShots : job.shots;
    // Misconfigured rules (assertion statistic without an
    // instrumented circuit, bad check index, bad outcome string) must
    // throw here, synchronously, not inside a pool callback.
    if (rule.enabled())
        evaluateStopping(rule, Result(job.circuit->numClbits()),
                         job.instrumented.get());

    auto run = std::make_shared<JobRun>();
    // Waves partition the budget's shard plan by shard index, so
    // every shard's shots and RNG stream are the same whatever the
    // wave size — which is what makes waved counts bit-identical to
    // a single wave.
    run->plan = shardPlan(budget, job.seed, *backend);
    if (rule.waveShots > 0) {
        // Round the requested wave size up to whole shards.
        const std::size_t avg_shard =
            std::max<std::size_t>(1, budget / run->plan.size());
        run->perWave = std::clamp<std::size_t>(
            (rule.waveShots + avg_shard - 1) / avg_shard, 1,
            run->plan.size());
    } else if (!rule.enabled()) {
        // A fixed budget: one wave of the whole plan (full shard
        // parallelism, one epilogue).
        run->perWave = run->plan.size();
    } else {
        // Auto wave size: about one shard per pool thread keeps the
        // pool busy within a wave without overshooting the stopping
        // point by more than a pool-width of shards.
        run->perWave = std::clamp<std::size_t>(pool_.size(), 1,
                                               run->plan.size());
    }
    run->lanes = checkAndLaneCount(job, backend, run->perWave);
    run->budget = budget;
    run->numClbits = job.circuit->numClbits();
    run->merged = Result(run->numClbits);
    run->faults = effectiveFaultPlan(job);

    // Resume: adopt a prior run's cursor after validating that it
    // describes THIS job's shard plan — same circuit, seed, budget,
    // and shard decomposition — so the continued merge is
    // bit-identical to an uninterrupted run. The stopping rule is
    // deliberately not matched: resuming with a tighter target is the
    // refine-an-estimate use case.
    if (job.resumeFrom) {
        const JobCheckpoint &ck = *job.resumeFrom;
        if (!ck.valid())
            throw ValueError("resume checkpoint was never written "
                             "(invalid)");
        if (ck.circuitHash != job.circuit->hash())
            throw ValueError(
                "resume checkpoint is for a different circuit");
        if (ck.seed != job.seed)
            throw ValueError(
                "resume checkpoint is for a different seed");
        if (ck.budget != budget)
            throw ValueError(
                "resume checkpoint is for a different shot budget");
        if (ck.planShards != run->plan.size())
            throw ValueError(
                "resume checkpoint shard plan does not match this "
                "engine's (different shardShots/maxShards?)");
        if (ck.merged.shots() > 0 &&
            ck.merged.numClbits() != run->numClbits)
            throw ValueError(
                "resume checkpoint counts have the wrong register "
                "width");
        run->nextShard = std::min(ck.nextShard, ck.planShards);
        run->wave = ck.wave;
        if (ck.merged.shots() > 0)
            run->merged = ck.merged;
        run->resumedShots = ck.merged.shots();
        obs::count(engineMetrics().resumedShots, run->resumedShots);
    }

    run->backend = backend;
    run->job = std::move(job);
    run->progress = std::move(on_progress);
    run->done = std::move(on_complete);
    run->start = start_time;
    launchWave(run);
}

std::future<Result>
ExecutionEngine::submit(Job job)
{
    auto promise = std::make_shared<std::promise<Result>>();
    std::future<Result> future = promise->get_future();
    submit(std::move(job), settlePromise(std::move(promise)));
    return future;
}

Result
ExecutionEngine::run(const Job &job, Progress on_progress)
{
    auto promise = std::make_shared<std::promise<Result>>();
    std::future<Result> future = promise->get_future();
    submit(job, settlePromise(std::move(promise)),
           std::move(on_progress));
    // Safe to park here: the caller is not a pool thread, so waves
    // drain freely.
    return future.get();
}

Result
ExecutionEngine::run(const Circuit &circuit, std::size_t shots,
                     const std::string &backend, std::uint64_t seed,
                     const NoiseModel *noise)
{
    return run(Job(circuit, shots, backend, seed, noise));
}

ExecutionEngine::Completion
settlePromise(std::shared_ptr<std::promise<Result>> promise)
{
    // Heap-held promise: the pool-side callback may still be inside
    // set_value's epilogue when get() unblocks the waiting thread.
    return [promise = std::move(promise)](Result result,
                                          std::exception_ptr error) {
        if (error)
            promise->set_exception(error);
        else
            promise->set_value(std::move(result));
    };
}

} // namespace runtime
} // namespace qra
