/**
 * @file
 * The traced run's spans. They are recorded only by benchmark code
 * around calls into each layer's public functions: parse, prepare,
 * submit-to-completion, analyze, and — through timing wrappers
 * registered in a benchmark-owned BackendRegistry — each
 * Backend::run. Spans live in memory and are attributed to jobs and
 * exported after the run.
 */

#ifndef E2EBENCH_SPANS_HH
#define E2EBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "runtime/backend_registry.hh"

namespace e2e {

enum class SpanKind : std::uint8_t
{
    Job,     ///< e2e.job: QASM text handed over -> report returned
    Parse,   ///< circuit.parse: parseAnnotatedQasm
    Prepare, ///< compile.prepare: JobQueue::instrumented
    Runtime, ///< runtime.job: JobQueue::submit -> future ready
    Report,  ///< assertions.report: analyze
    Backend, ///< sim.<backend>: one Backend::run (one shard)
};

/** The builtin backends, in wrapper index order. */
inline constexpr std::array<const char *, 4> kBackendNames = {
    "statevector", "density", "trajectory", "stabilizer"};

inline constexpr std::uint64_t kNoJob = ~0ULL;

/** One interval, in ns since the log's epoch. */
struct Span
{
    std::int64_t begin = 0;
    std::int64_t end = 0;
    /** Job index; backend spans get theirs from attribute(). */
    std::uint64_t job = kNoJob;
    /** Backend spans: the shard seed (maps the shard to its job). */
    std::uint64_t seed = 0;
    /** Backend spans: unitary gates in the executed circuit. */
    std::uint32_t gates = 0;
    std::uint16_t thread = 0;
    SpanKind kind = SpanKind::Job;
    /** Backend spans: index into kBackendNames. */
    std::uint8_t backend = 0;
};

/** Thread-safe in-memory span sink. */
class SpanLog
{
  public:
    SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

    SpanLog(const SpanLog &) = delete;
    SpanLog &operator=(const SpanLog &) = delete;

    std::int64_t now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    void add(const Span &span)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(span);
    }

    std::vector<Span> take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::move(spans_);
    }

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Small dense id of the calling thread (for trace lanes). */
std::uint16_t threadLane();

/** Records [construction, destruction) as one span of @p job. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, SpanKind kind, std::uint64_t job)
        : log_(log)
    {
        if (log_ != nullptr) {
            span_.kind = kind;
            span_.job = job;
            span_.thread = threadLane();
            span_.begin = log_->now();
        }
    }

    ~ScopedSpan()
    {
        if (log_ != nullptr) {
            span_.end = log_->now();
            log_->add(span_);
        }
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    Span span_;
};

/**
 * Register timing wrappers around make{Statevector,Density,
 * Trajectory,Stabilizer}Backend() under their builtin names. The
 * wrappers forward name, capabilities and rejectReason unchanged, so
 * resolveAuto() picks exactly what the global registry would.
 */
void registerTimedBackends(qra::runtime::BackendRegistry &registry,
                           SpanLog &log);

/** What the harness knows of one traced job. */
struct TracedJob
{
    std::uint64_t seed = 0;
    /** Shards the engine ran (ExecStats::shards). */
    std::size_t shards = 0;
};

/** Per-layer totals over a traced run (times in ms, summed). */
struct LayerSplit
{
    std::size_t jobs = 0;
    double latencyMs = 0.0;
    double parseMs = 0.0;
    double prepareMs = 0.0;
    double runtimeMs = 0.0;
    double queueWaitMs = 0.0;
    double engineSelfMs = 0.0;
    double reportMs = 0.0;
    /** Latency not covered by parse/prepare/runtime/report spans. */
    double unattributedMs = 0.0;
    /** Busy time per backend, summed over shards. */
    std::array<double, 4> backendMs{};
    std::size_t backendCalls = 0;
    /** Backend calls whose shard seed matched no job. */
    std::size_t unmatchedCalls = 0;
    /** Sum over jobs of the executed circuit's unitary gate count. */
    double gatesOut = 0.0;
};

/**
 * Give every backend span its job (shard seeds are splitSeed(job
 * seed, shard index)) and sum each layer's self time over jobs
 * first, first + 1, ..., described by jobs[0], jobs[1], ... A job's
 * engine self time is its runtime span minus the union of its
 * backend spans and its queue wait (submit -> first backend call).
 */
LayerSplit attribute(std::vector<Span> &spans,
                     const std::vector<TracedJob> &jobs, std::uint64_t first);

/**
 * Chrome trace-event JSON of the spans of jobs below @p max_jobs;
 * @p host_json (a JSON object) goes under "otherData".
 */
void writeChromeTrace(std::ostream &out, const std::vector<Span> &spans,
                      std::uint64_t max_jobs,
                      const std::string &host_json);

} // namespace e2e

#endif // E2EBENCH_SPANS_HH
