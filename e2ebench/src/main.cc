/**
 * @file
 * e2ebench — the paper's assertion workloads through the product
 * path, timed end to end and per layer.
 *
 *   e2ebench --workload paper_ibmqx4|debug_corpus|wide_sweep
 *            --seed N --jobs J --trace 0|1 [--trace-out FILE]
 *
 * Every job is annotated OpenQASM text generated from the seed. It
 * goes parseAnnotatedQasm -> JobQueue::submit (prepare pipeline and
 * cache) -> ExecutionEngine -> auto-selected backend -> analyze(),
 * and its report is checked against the job's analytic answer.
 * Clients run closed loops: each waits for its report before
 * submitting again.
 *
 * --trace 0 times J jobs with tracing off and prints the end-to-end
 * metrics. A fixed count, rather than a time window, keeps the
 * process's memory (the prepare cache holds every distinct program)
 * from tracking its throughput. --trace 1 runs the same J jobs
 * untraced, then replays them on a fresh engine whose registry wraps
 * every backend in a timer, with spans around each layer call; it
 * prints the per-layer split, checks that both passes produced
 * bit-identical counts, and writes the spans as Chrome trace JSON to
 * FILE.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed and metrics ({name: {value, unit}}).
 */

#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "assertions/directives.hh"
#include "assertions/entanglement_assertion.hh"
#include "assertions/report.hh"
#include "noise/device_model.hh"
#include "oracle.hh"
#include "runtime/job_queue.hh"
#include "sim/kernels/simd/dispatch.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace qra;
using namespace qra::runtime;

namespace {

using Clock = std::chrono::steady_clock;

/** Set-up repetitions per run; setup_s is their median. */
constexpr std::size_t kSetupReps = 41;
/** Jobs of the stream hashed by the generator self-check. */
constexpr std::size_t kDigestJobs = 64;
/** Jobs whose spans go into the exported trace. */
constexpr std::uint64_t kTraceExportJobs = 1000;
/** Fewest timed jobs per run: ten latency samples beyond p90. */
constexpr std::size_t kMinTimedJobs = 100;

struct Options
{
    e2e::WorkloadKind workload = e2e::WorkloadKind::PaperIbmqx4;
    std::uint64_t seed = 1;
    /** Timed jobs (per pass, with --trace 1). */
    std::size_t jobs = 0;
    bool trace = false;
    std::string traceOut;
};

bool
parseArgs(int argc, char **argv, Options &opts)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", arg.c_str());
            return false;
        }
        const char *value = argv[++i];
        if (arg == "--workload") {
            if (!e2e::parseWorkload(value, &opts.workload)) {
                std::fprintf(stderr, "unknown workload %s\n", value);
                return false;
            }
            have_workload = true;
        } else if (arg == "--seed") {
            opts.seed = std::strtoull(value, nullptr, 10);
        } else if (arg == "--jobs") {
            opts.jobs = std::strtoull(value, nullptr, 10);
        } else if (arg == "--trace") {
            opts.trace = std::strcmp(value, "1") == 0;
        } else if (arg == "--trace-out") {
            opts.traceOut = value;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
            return false;
        }
    }
    return have_workload && opts.jobs > 0;
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** User + system CPU seconds of the whole process (every thread). */
double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/**
 * High-water resident set of this process image. VmHWM, unlike
 * getrusage's ru_maxrss, does not carry over the parent's peak
 * across fork + exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

std::size_t
cpuCount()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Pins the process, and every thread it starts later, to the CPU it
 * runs on. A serial workload's client and single engine worker hand
 * each job back and forth: on one CPU that is a local context switch,
 * while across the vCPUs of a shared VM each hand-off wakes an idle
 * vCPU. Unpinned, debug_corpus ran 670-1010 jobs/s on a 4-vCPU Xeon;
 * pinned, 1460-1550.
 * @return the CPU, or -1 if pinning failed.
 */
int
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return -1;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string brand(reinterpret_cast<const char *>(regs),
                          sizeof regs);
        brand.resize(std::strlen(brand.c_str()));
        const auto first = brand.find_first_not_of(' ');
        if (first != std::string::npos)
            return brand.substr(first);
    }
#endif
    return "unknown";
}

/** CPU, core count, SIMD tiers, build: printed with every result. */
std::string
hostStampJson(std::size_t nproc, std::size_t threads, int pinned_cpu)
{
    namespace simd = kernels::simd;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "{\"cpu\":\"%s\",\"nproc\":%zu,\"engine_threads\":%zu,"
        "\"pinned_cpu\":%d,"
        "\"simd_compiled\":\"%s\",\"simd_detected\":\"%s\","
        "\"simd_selected\":\"%s\",\"build\":\"%s\",\"compiler\":\"%s\"}",
        cpuModel().c_str(), nproc, threads, pinned_cpu,
        simd::tierName(simd::compiledTier()),
        simd::tierName(simd::detectedTier()),
        simd::tierName(simd::currentTier()), E2E_BUILD_TYPE,
        E2E_COMPILER);
    return buf;
}

/** The product's objects, built in the order a caller builds them. */
struct Env
{
    std::optional<DeviceModel> device;
    /** Null = the global registry (the product default). */
    std::unique_ptr<BackendRegistry> registry;
    std::unique_ptr<ExecutionEngine> engine;
    std::unique_ptr<JobQueue> queue;
};

std::unique_ptr<Env>
makeEnv(bool ibmqx4, std::size_t threads, e2e::SpanLog *log)
{
    auto env = std::make_unique<Env>();
    if (ibmqx4)
        env->device.emplace(DeviceModel::ibmqx4());
    if (log != nullptr) {
        env->registry = std::make_unique<BackendRegistry>();
        e2e::registerTimedBackends(*env->registry, *log);
    }
    env->engine = std::make_unique<ExecutionEngine>(
        EngineOptions{.threads = threads}, env->registry.get());
    env->queue = std::make_unique<JobQueue>(*env->engine);
    return env;
}

/** The JobSpec a caller fills in for @p job's parsed program. */
JobSpec
makeSpec(const Env &env, const e2e::JobInput &job, AnnotatedProgram program)
{
    JobSpec spec;
    spec.circuit = std::move(program.payload);
    spec.assertions = std::move(program.specs);
    spec.shots = job.shots;
    spec.seed = job.seed;
    spec.backend = "auto";
    if (job.ibmqx4) {
        spec.noise = &env.device->noiseModel();
        spec.coupling = &env.device->couplingMap();
    }
    spec.instrumentOptions.reuseAncillas = job.reuseAncillas;
    if (job.autoAssert) {
        spec.injection = compile::InjectionStrategy::AutoGenerate;
        spec.autoAssert.maxChecks = job.autoMaxChecks;
    }
    if (job.fullGhzCheck) {
        const std::size_t n = spec.circuit.numQubits();
        AssertionSpec full;
        full.assertion = std::make_shared<EntanglementAssertion>(
            n, EntanglementAssertion::Parity::Even,
            EntanglementAssertion::Mode::Full);
        for (std::size_t q = 0; q < n; ++q)
            full.targets.push_back(static_cast<Qubit>(q));
        const auto &ops = spec.circuit.ops();
        full.insertAt = static_cast<std::size_t>(
            std::find_if(ops.begin(), ops.end(),
                         [](const Operation &op) {
                             return op.kind == OpKind::Measure;
                         }) -
            ops.begin());
        full.label = e2e::kFullGhzLabel;
        spec.assertions.push_back(std::move(full));
    }
    return spec;
}

std::uint64_t
countsDigest(const Result &result)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    };
    mix(result.shots());
    for (const auto &[outcome, count] : result.rawCounts()) {
        mix(outcome);
        mix(count);
    }
    return h;
}

/**
 * A passing `-` superposition check should leave its qubit in |->;
 * today it leaves |+>. The corpus works around it (see workloads.cc),
 * so this probe keeps the defect visible in every run's output.
 * @return P(payload = 1) of H after the check on |->, ideally 1.
 */
double
minusCheckProbe()
{
    const AnnotatedProgram program = parseAnnotatedQasm(
        "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nx q[0];\nh q[0];\n"
        "// qra:assert-superposition q[0] -\n"
        "h q[0];\nmeasure q[0] -> c[0];\n");
    ExecutionEngine engine(EngineOptions{.threads = 1});
    JobQueue queue(engine);
    JobSpec spec;
    spec.circuit = program.payload;
    spec.assertions = program.specs;
    spec.shots = 1024;
    const Result result = queue.submit(spec).get();
    const AssertionReport report =
        analyze(*queue.instrumented(spec), result);
    const auto it = report.rawPayload.find(1);
    return it == report.rawPayload.end() ? 0.0 : it->second;
}

void
printMinusCheckProbe()
{
    double p1 = 0.0;
    try {
        p1 = minusCheckProbe();
    } catch (const std::exception &e) {
        std::printf("known defect probe: threw: %s\n", e.what());
        return;
    }
    std::printf("known defect probe: H after a passing `-` check on "
                "|-> gives P(1) = %.3f (correct: 1); %s\n",
                p1,
                p1 > 0.999 ? "FIXED - the corpus workaround in "
                             "workloads.cc can go"
                           : "the check leaves its qubit in |+>, so "
                             "the corpus avoids `-` checks before a "
                             "qubit's last use");
}

struct JobRecord
{
    std::size_t index = 0;
    double latencyMs = 0.0;
    std::size_t shots = 0;
    std::size_t shards = 0;
    std::uint64_t seed = 0;
    std::uint64_t digest = 0;
    /** Empty when the job ran and its answer was right. */
    std::string error;
};

/**
 * One job through the product path. With @p log set, spans go
 * around each layer call and the prepare step runs (through
 * JobQueue::instrumented) just before submit, so submit's own
 * prepare is a cache hit and the work matches the untraced path.
 */
JobRecord
runJob(Env &env, const e2e::JobInput &job, std::uint64_t id,
       e2e::SpanLog *log)
{
    using e2e::ScopedSpan;
    using e2e::SpanKind;
    JobRecord rec;
    rec.index = id;
    rec.seed = job.seed;
    const auto start = Clock::now();
    try {
        std::shared_ptr<const InstrumentedCircuit> inst;
        Result result;
        AssertionReport report;
        {
            ScopedSpan whole(log, SpanKind::Job, id);
            std::optional<AnnotatedProgram> program;
            {
                ScopedSpan span(log, SpanKind::Parse, id);
                program.emplace(parseAnnotatedQasm(job.qasm));
            }
            const JobSpec spec =
                makeSpec(env, job, std::move(*program));
            if (log != nullptr) {
                ScopedSpan span(log, SpanKind::Prepare, id);
                inst = env.queue->instrumented(spec);
            }
            {
                ScopedSpan span(log, SpanKind::Runtime, id);
                result = env.queue->submit(spec).get();
            }
            if (log == nullptr)
                inst = env.queue->instrumented(spec);
            if (!inst)
                inst = std::make_shared<const InstrumentedCircuit>(
                    instrument(spec.circuit, {}));
            {
                ScopedSpan span(log, SpanKind::Report, id);
                report = analyze(*inst, result);
            }
        }
        rec.latencyMs = secondsSince(start) * 1e3;
        rec.shots = result.shots();
        rec.shards = result.execStats().shards;
        rec.digest = countsDigest(result);
        rec.error = e2e::checkAnswer(job, *inst, result, report);
    } catch (const std::exception &e) {
        rec.latencyMs = secondsSince(start) * 1e3;
        rec.error = std::string("threw: ") + e.what();
    }
    return rec;
}

struct Phase
{
    /** Jobs first, first + 1, ... in index order. */
    std::vector<JobRecord> jobs;
    double wallS = 0.0;
    double cpuS = 0.0;
    /** Queue cache statistics of this phase alone. */
    std::size_t prepareHits = 0;
    std::size_t prepareMisses = 0;
    std::size_t planHits = 0;
    std::size_t planMisses = 0;
};

/**
 * Closed-loop run of jobs [@p first, @p end) of the stream: each of
 * @p clients threads takes the next job index and waits for its
 * report before taking another. The jobs are generated before the
 * clock starts (generating a debug_corpus program costs ~3% of
 * running it).
 */
Phase
runPhase(Env &env, const Options &opts, std::size_t clients,
         std::size_t first, std::size_t end, e2e::SpanLog *log)
{
    std::vector<e2e::JobInput> inputs;
    for (std::size_t i = first; i < end; ++i)
        inputs.push_back(e2e::makeJob(opts.workload, opts.seed, i));
    Phase phase;
    phase.jobs.resize(inputs.size());
    const std::size_t prepare_hits = env.queue->cacheHits();
    const std::size_t prepare_misses = env.queue->cacheMisses();
    const std::size_t plan_hits = env.queue->samplingCacheHits();
    const std::size_t plan_misses = env.queue->samplingCacheMisses();

    std::atomic<std::size_t> next{0};
    auto client = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < inputs.size();)
            phase.jobs[i] = runJob(env, inputs[i], first + i, log);
    };
    const double cpu_start = cpuSeconds();
    const auto start = Clock::now();
    if (clients == 1) {
        client();
    } else {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients; ++c)
            threads.emplace_back(client);
        for (std::thread &t : threads)
            t.join();
    }
    phase.wallS = secondsSince(start);
    phase.cpuS = cpuSeconds() - cpu_start;

    phase.prepareHits = env.queue->cacheHits() - prepare_hits;
    phase.prepareMisses = env.queue->cacheMisses() - prepare_misses;
    phase.planHits = env.queue->samplingCacheHits() - plan_hits;
    phase.planMisses = env.queue->samplingCacheMisses() - plan_misses;
    return phase;
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) *
                            (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Failed jobs of @p phase; the first few go to stderr. */
std::size_t
countFailures(const Phase &phase, const char *what)
{
    std::size_t failed = 0;
    for (const JobRecord &job : phase.jobs) {
        if (job.error.empty())
            continue;
        if (++failed <= 5)
            std::fprintf(stderr, "%s job %zu failed: %s\n", what,
                         job.index, job.error.c_str());
    }
    return failed;
}

/** Collects metrics for the human table and the JSON result line. */
class Report
{
  public:
    void add(const char *name, double value, const char *unit,
             const std::string &note = "")
    {
        std::printf("  %-34s %14.6g %-6s %s\n", name, value, unit,
                    note.c_str());
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                      json_.empty() ? "" : ", ", name, value, unit);
        json_ += buf;
    }

    void finish(bool correct, std::size_t attempted, std::size_t failed)
    {
        std::printf("{\"correct\": %s, \"attempted\": %zu, "
                    "\"failed\": %zu, \"metrics\": {%s}}\n",
                    correct ? "true" : "false", attempted, failed,
                    json_.c_str());
    }

  private:
    std::string json_;
};

std::string
countNote(std::size_t n, const char *what)
{
    return "(n=" + std::to_string(n) + " " + what + ")";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        std::fprintf(stderr,
                     "usage: e2ebench --workload "
                     "paper_ibmqx4|debug_corpus|wide_sweep --seed N "
                     "--jobs J --trace 0|1 [--trace-out FILE]\n");
        return 2;
    }
    const std::size_t nproc = cpuCount();
    const std::size_t threads = e2e::concurrency(opts.workload, nproc);
    const std::size_t clients = threads;
    const int pinned_cpu = threads == 1 ? pinToCurrentCpu() : -1;
    const bool ibmqx4 = opts.workload == e2e::WorkloadKind::PaperIbmqx4;
    const std::size_t warmup = e2e::warmupJobs(opts.workload);
    const std::string host = hostStampJson(nproc, threads, pinned_cpu);
    std::printf("host: %s\n", host.c_str());
    std::printf("workload: %s seed=%" PRIu64 " jobs=%zu trace=%d "
                "clients=%zu engine_threads=%zu\n",
                e2e::workloadName(opts.workload), opts.seed, opts.jobs,
                opts.trace ? 1 : 0, clients, threads);

    // Generator self-check: a seed reproduces its corpus byte for
    // byte, and the next seed gives a different one.
    const std::uint64_t digest =
        e2e::corpusDigest(opts.workload, opts.seed, kDigestJobs);
    const bool reproducible =
        digest == e2e::corpusDigest(opts.workload, opts.seed, kDigestJobs);
    const bool distinct =
        digest != e2e::corpusDigest(opts.workload, opts.seed + 1,
                                    kDigestJobs);
    std::printf("corpus: first %zu jobs fnv1a=%016" PRIx64
                " reproducible=%s differs_from_seed+1=%s\n",
                kDigestJobs, digest, reproducible ? "yes" : "NO",
                distinct ? "yes" : "NO");
    bool correct = reproducible && distinct;

    // Set-up, repeated; the last instance runs the workload.
    std::vector<double> setup_s;
    std::unique_ptr<Env> env;
    for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
        env.reset();
        const auto start = Clock::now();
        env = makeEnv(ibmqx4, threads, nullptr);
        setup_s.push_back(secondsSince(start));
    }

    const Phase warm = runPhase(*env, opts, 1, 0, warmup, nullptr);
    const Phase run =
        runPhase(*env, opts, clients, warmup, warmup + opts.jobs, nullptr);
    const std::size_t n = run.jobs.size();
    if (n < kMinTimedJobs) {
        std::fprintf(stderr, "%zu timed jobs, fewer than the %zu latency "
                             "percentiles need\n",
                     n, kMinTimedJobs);
        correct = false;
    }

    Report out;
    if (!opts.trace) {
        const std::size_t failed =
            countFailures(warm, "warm-up") + countFailures(run, "untraced");
        std::vector<double> latency;
        double shots = 0.0;
        for (const JobRecord &job : run.jobs) {
            latency.push_back(job.latencyMs);
            shots += static_cast<double>(job.shots);
        }
        std::printf("end-to-end (%zu jobs in %.3f s, %zu failed):\n", n,
                    run.wallS, failed);
        out.add("setup_s", percentile(setup_s, 0.5), "s",
                countNote(setup_s.size(), "set-ups, median"));
        out.add("jobs_per_s", ratio(n, run.wallS), "1/s",
                countNote(n, "jobs"));
        out.add("shots_per_s", ratio(shots, run.wallS), "1/s",
                "(8192 shots/job)");
        out.add("latency_p50_ms", percentile(latency, 0.5), "ms",
                countNote(n, "jobs"));
        out.add("latency_p90_ms", percentile(latency, 0.9), "ms",
                countNote(n, "jobs"));
        out.add("cpu_ms_per_job", ratio(run.cpuS * 1e3, n), "ms",
                "(getrusage user+sys)");
        out.add("peak_rss_mb", peakRssMb(), "MB", "(VmHWM)");
        std::printf("  %-34s %14.6g %-6s (%zu of %zu; not in the JSON "
                    "metrics, see failed/attempted)\n",
                    "fail_frac", ratio(failed, n), "", failed, n);
        printMinusCheckProbe();
        correct = correct && failed == 0;
        out.finish(correct, warmup + n, failed);
        return 0;
    }

    // Traced run: a fresh engine with timed backends replays the same
    // jobs. The untraced engine is destroyed first, so only one
    // prepare cache is alive at a time.
    env.reset();
    e2e::SpanLog log;
    std::unique_ptr<Env> traced_env = makeEnv(ibmqx4, threads, &log);
    const Phase traced_warm =
        runPhase(*traced_env, opts, 1, 0, warmup, nullptr);
    log.take(); // the warm-up's backend spans
    const Phase traced = runPhase(*traced_env, opts, clients, warmup,
                                  warmup + n, &log);
    const std::size_t failed = countFailures(warm, "warm-up") +
                               countFailures(run, "untraced") +
                               countFailures(traced_warm, "warm-up") +
                               countFailures(traced, "traced");

    std::size_t mismatched = traced.jobs.size() == n ? 0 : n;
    for (std::size_t i = 0; i < traced_warm.jobs.size(); ++i)
        if (traced_warm.jobs[i].digest != warm.jobs[i].digest)
            ++mismatched;
    std::vector<e2e::TracedJob> traced_jobs;
    double shards = 0.0;
    for (std::size_t i = 0; i < traced.jobs.size(); ++i) {
        const JobRecord &job = traced.jobs[i];
        traced_jobs.push_back({job.seed, job.shards});
        shards += static_cast<double>(job.shards);
        if (i < n && job.digest != run.jobs[i].digest)
            ++mismatched;
    }
    std::vector<e2e::Span> spans = log.take();
    const e2e::LayerSplit split =
        e2e::attribute(spans, traced_jobs, warmup);
    std::printf("registries: global vs timed wrappers, %zu jobs, counts "
                "%s (%zu differ); unmatched backend calls: %zu\n",
                n, mismatched == 0 ? "bit-identical" : "DIFFER",
                mismatched, split.unmatchedCalls);

    if (!opts.traceOut.empty()) {
        std::ofstream file(opts.traceOut);
        e2e::writeChromeTrace(file, spans, kTraceExportJobs, host);
        if (!file)
            std::fprintf(stderr, "cannot write %s\n", opts.traceOut.c_str());
        else
            std::printf("trace: %s (spans of the first %" PRIu64
                        " jobs)\n",
                        opts.traceOut.c_str(), kTraceExportJobs);
    }

    const double jobs = static_cast<double>(std::max<std::size_t>(n, 1));
    const double backend_wall =
        split.runtimeMs - split.queueWaitMs - split.engineSelfMs;
    std::printf("per-layer self time (%zu traced jobs, latency sum "
                "%.3f ms):\n",
                n, split.latencyMs);
    const std::pair<const char *, double> rows[] = {
        {"circuit.parse", split.parseMs},
        {"compile.prepare", split.prepareMs},
        {"runtime.queue_wait", split.queueWaitMs},
        {"runtime.engine.self", split.engineSelfMs},
        {"sim (wall under backend spans)", backend_wall},
        {"assertions.report", split.reportMs},
        {"unattributed", split.unattributedMs},
    };
    for (const auto &[name, total] : rows)
        std::printf("  %-34s %10.4f ms/job %6.2f%%\n", name, total / jobs,
                    100.0 * ratio(total, split.latencyMs));
    for (std::size_t b = 0; b < e2e::kBackendNames.size(); ++b)
        std::printf("  sim.%-30s %10.4f ms/job busy (summed over "
                    "shards)\n",
                    e2e::kBackendNames[b], split.backendMs[b] / jobs);

    std::printf("per-layer metrics:\n");
    out.add("circuit.parse.ms_per_job", split.parseMs / jobs, "ms");
    out.add("compile.prepare.ms_per_job", split.prepareMs / jobs, "ms");
    out.add("compile.prepare.gates_out", split.gatesOut / jobs, "count",
            "(unitary gates in the executed circuit)");
    out.add("runtime.prepare_cache.hit_ratio",
            ratio(run.prepareHits,
                  run.prepareHits + run.prepareMisses),
            "ratio", countNote(run.prepareHits + run.prepareMisses,
                            "prepare lookups"));
    out.add("runtime.queue_wait.ms_per_job", split.queueWaitMs / jobs,
            "ms");
    out.add("runtime.engine.self_ms_per_job", split.engineSelfMs / jobs,
            "ms");
    out.add("runtime.shards_per_job", shards / jobs, "count");
    for (std::size_t b = 0; b < e2e::kBackendNames.size(); ++b) {
        const std::string name =
            std::string("sim.") + e2e::kBackendNames[b] + ".ms_per_job";
        out.add(name.c_str(), split.backendMs[b] / jobs, "ms");
    }
    out.add("sim.backend.calls_per_job",
            static_cast<double>(split.backendCalls) / jobs, "count");
    out.add("sim.plan_cache.hit_ratio",
            ratio(run.planHits, run.planHits + run.planMisses),
            "ratio", countNote(run.planHits + run.planMisses,
                            "artifact lookups"));
    out.add("assertions.report.ms_per_job", split.reportMs / jobs, "ms");
    out.add("unattributed_frac",
            ratio(split.unattributedMs, split.latencyMs), "ratio");
    out.add("trace_overhead_frac", ratio(traced.wallS, run.wallS) - 1.0,
            "ratio", "(traced vs untraced wall, same jobs)");

    printMinusCheckProbe();
    correct = correct && failed == 0 && mismatched == 0 &&
              split.unmatchedCalls == 0;
    out.finish(correct, 2 * warmup + n + traced.jobs.size(), failed);
    return 0;
}
