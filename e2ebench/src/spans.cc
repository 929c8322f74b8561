#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/rng.hh"
#include "runtime/builtin_backends.hh"

namespace e2e {

namespace {

using qra::runtime::Backend;
using qra::runtime::BackendCapabilities;
using qra::runtime::BackendPtr;

/** Forwards to a builtin backend; records one span per run(). */
class TimedBackend final : public Backend
{
  public:
    TimedBackend(BackendPtr inner, SpanLog &log, std::uint8_t index)
        : inner_(std::move(inner)), log_(log), index_(index)
    {
    }

    const std::string &name() const override { return inner_->name(); }

    const BackendCapabilities &capabilities() const override
    {
        return inner_->capabilities();
    }

    std::string rejectReason(const qra::Circuit &circuit,
                             const qra::NoiseModel *noise) const override
    {
        return inner_->rejectReason(circuit, noise);
    }

    qra::Result run(const qra::Circuit &circuit, std::size_t shots,
                    std::uint64_t seed,
                    const qra::NoiseModel *noise) const override
    {
        Span span;
        span.kind = SpanKind::Backend;
        span.backend = index_;
        span.seed = seed;
        span.gates = static_cast<std::uint32_t>(std::count_if(
            circuit.ops().begin(), circuit.ops().end(),
            [](const qra::Operation &op) {
                return qra::opIsUnitary(op.kind);
            }));
        span.thread = threadLane();
        span.begin = log_.now();
        try {
            qra::Result result = inner_->run(circuit, shots, seed, noise);
            span.end = log_.now();
            log_.add(span);
            return result;
        } catch (...) {
            span.end = log_.now();
            log_.add(span);
            throw;
        }
    }

  private:
    BackendPtr inner_;
    SpanLog &log_;
    std::uint8_t index_;
};

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

/** Length of the union of @p intervals (sorted in place). */
std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> &intervals)
{
    std::sort(intervals.begin(), intervals.end());
    std::int64_t total = 0;
    std::int64_t cur_begin = 0;
    std::int64_t cur_end = std::numeric_limits<std::int64_t>::min();
    for (const auto &[begin, end] : intervals) {
        if (begin > cur_end) {
            if (cur_end > cur_begin)
                total += cur_end - cur_begin;
            cur_begin = begin;
            cur_end = end;
        } else {
            cur_end = std::max(cur_end, end);
        }
    }
    if (cur_end > cur_begin)
        total += cur_end - cur_begin;
    return total;
}

const char *
spanName(const Span &span)
{
    switch (span.kind) {
      case SpanKind::Job: return "e2e.job";
      case SpanKind::Parse: return "circuit.parse";
      case SpanKind::Prepare: return "compile.prepare";
      case SpanKind::Runtime: return "runtime.job";
      case SpanKind::Report: return "assertions.report";
      case SpanKind::Backend: break;
    }
    static const char *const names[] = {"sim.statevector", "sim.density",
                                        "sim.trajectory", "sim.stabilizer"};
    return names[span.backend];
}

const char *
parentName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Job: return nullptr;
      case SpanKind::Backend: return "runtime.job";
      default: return "e2e.job";
    }
}

} // namespace

std::uint16_t
threadLane()
{
    static std::atomic<std::uint16_t> next{0};
    thread_local const std::uint16_t lane = next.fetch_add(1);
    return lane;
}

void
registerTimedBackends(qra::runtime::BackendRegistry &registry,
                      SpanLog &log)
{
    using Make = BackendPtr (*)();
    const Make makers[] = {
        qra::runtime::makeStatevectorBackend,
        qra::runtime::makeDensityBackend,
        qra::runtime::makeTrajectoryBackend,
        qra::runtime::makeStabilizerBackend};
    for (std::uint8_t i = 0; i < kBackendNames.size(); ++i) {
        const Make make = makers[i];
        registry.registerBackend(kBackendNames[i], [make, &log, i]() {
            return std::make_shared<TimedBackend>(make(), log, i);
        });
    }
}

LayerSplit
attribute(std::vector<Span> &spans, const std::vector<TracedJob> &jobs,
          std::uint64_t first)
{
    std::unordered_map<std::uint64_t, std::uint64_t> owner;
    LayerSplit split;
    split.jobs = jobs.size();
    for (std::uint64_t j = 0; j < jobs.size(); ++j) {
        for (std::size_t s = 0; s < std::max<std::size_t>(1, jobs[j].shards);
             ++s)
            owner.emplace(qra::splitSeed(jobs[j].seed, s), first + j);
    }

    struct Acc
    {
        std::int64_t runtimeBegin = 0;
        std::int64_t runtimeEnd = 0;
        std::int64_t firstBackend = std::numeric_limits<std::int64_t>::max();
        std::uint32_t firstGates = 0;
        std::vector<std::pair<std::int64_t, std::int64_t>> backends;
    };
    std::vector<Acc> acc(jobs.size());
    double top_level_ms = 0.0;

    for (Span &span : spans) {
        if (span.kind == SpanKind::Backend) {
            const auto it = owner.find(span.seed);
            if (it == owner.end()) {
                ++split.unmatchedCalls;
                continue;
            }
            span.job = it->second;
        }
        if (span.job < first || span.job - first >= jobs.size())
            continue;
        Acc &a = acc[span.job - first];
        const double dur = ms(span.end - span.begin);
        switch (span.kind) {
          case SpanKind::Job: split.latencyMs += dur; break;
          case SpanKind::Parse: split.parseMs += dur; break;
          case SpanKind::Prepare: split.prepareMs += dur; break;
          case SpanKind::Report: split.reportMs += dur; break;
          case SpanKind::Runtime:
            split.runtimeMs += dur;
            a.runtimeBegin = span.begin;
            a.runtimeEnd = span.end;
            break;
          case SpanKind::Backend:
            split.backendMs[span.backend] += dur;
            ++split.backendCalls;
            a.backends.emplace_back(span.begin, span.end);
            if (span.begin < a.firstBackend) {
                a.firstBackend = span.begin;
                a.firstGates = span.gates;
            }
            break;
        }
        if (span.kind != SpanKind::Job && span.kind != SpanKind::Backend)
            top_level_ms += dur;
    }

    for (Acc &a : acc) {
        if (a.backends.empty())
            continue;
        split.gatesOut += a.firstGates;
        const std::int64_t wait =
            std::max<std::int64_t>(0, a.firstBackend - a.runtimeBegin);
        split.queueWaitMs += ms(wait);
        for (auto &[begin, end] : a.backends) {
            begin = std::clamp(begin, a.runtimeBegin, a.runtimeEnd);
            end = std::clamp(end, a.runtimeBegin, a.runtimeEnd);
        }
        a.backends.emplace_back(a.runtimeBegin, a.runtimeBegin + wait);
        split.engineSelfMs += ms(std::max<std::int64_t>(
            0, (a.runtimeEnd - a.runtimeBegin) - unionLength(a.backends)));
    }
    split.unattributedMs = split.latencyMs - top_level_ms;
    return split;
}

void
writeChromeTrace(std::ostream &out, const std::vector<Span> &spans,
                 std::uint64_t max_jobs, const std::string &host_json)
{
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << host_json
        << ",\"traceEvents\":[";
    const char *sep = "\n";
    char buf[320];
    for (const Span &span : spans) {
        if (span.job >= max_jobs)
            continue;
        const char *parent = parentName(span.kind);
        std::snprintf(
            buf, sizeof buf,
            "%s{\"name\":\"%s\",\"cat\":\"e2ebench\",\"ph\":\"X\","
            "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
            "\"args\":{\"job\":%" PRIu64 "%s%s%s}}",
            sep, spanName(span), static_cast<unsigned>(span.thread),
            static_cast<double>(span.begin) * 1e-3,
            static_cast<double>(span.end - span.begin) * 1e-3, span.job,
            parent ? ",\"parent\":\"" : "", parent ? parent : "",
            parent ? "\"" : "");
        out << buf;
        sep = ",\n";
    }
    out << "\n]}\n";
}

} // namespace e2e
