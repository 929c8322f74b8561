/**
 * @file
 * Seeded job generators for the end-to-end benchmark's three
 * workloads. A job is annotated OpenQASM text plus the submission
 * knobs a caller would set on its JobSpec, and the analytic answer
 * the assertion report must give. Generation depends only on
 * (workload, seed, job index), never on timing, so a traced and an
 * untraced run of one seed submit byte-identical jobs.
 */

#ifndef E2EBENCH_WORKLOADS_HH
#define E2EBENCH_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class WorkloadKind
{
    /** The paper's circuits on the ibmqx4 model, one job in flight. */
    PaperIbmqx4,
    /** Distinct generated debug programs, one job in flight. */
    DebugCorpus,
    /** Wide ancilla-heavy ideal circuits, nproc clients. */
    WideSweep,
};

/** @return false for an unknown workload name. */
bool parseWorkload(const std::string &name, WorkloadKind *out);

const char *workloadName(WorkloadKind kind);

/**
 * Closed-loop clients, each with at most one job in flight, and the
 * engine's worker threads: nproc of each for wide_sweep, one of each
 * for the other two. Those two are serial by design. On a shared VM
 * every fork/join across idle vCPUs waits on the slowest wake-up: at
 * four threads, paper_ibmqx4's density lanes and debug_corpus's 8
 * shards per job lost 35-45% of their throughput when two busy
 * processes shared the machine, and two ten-seed sets of paper_ibmqx4
 * disagreed by 1.6x. At one thread, with the process pinned to one
 * CPU, both stay within 10% under the same load. One thread also runs
 * paper_ibmqx4 faster (8 ms against 14 ms p50 on a 4-vCPU Xeon).
 */
std::size_t concurrency(WorkloadKind kind, std::size_t nproc);

/** The paper experiment an ibmqx4 job reproduces (its shape bounds). */
enum class PaperShape
{
    None,
    Table1,   ///< classical check, payload error = bit set
    Table2,   ///< Bell entanglement check, error = bits differ
    Sec43,    ///< superposition check on |+>
    Ghz3,     ///< Fig. 4 three-qubit GHZ check
    BellAuto, ///< Bell under AutoGenerate
    W3Auto,   ///< W3 under AutoGenerate, error = weight != 1
};

/** Analytic error rate of one check, keyed by its report label. */
struct ExpectedCheck
{
    std::string label;
    double rate = 0.0;
};

/** Label of the Full-mode GHZ check added through an AssertionSpec. */
inline constexpr const char *kFullGhzLabel = "full-ghz";

/** One generated job. */
struct JobInput
{
    /** Annotated program text: the only circuit input the product sees. */
    std::string qasm;
    std::uint64_t seed = 0;
    std::size_t shots = 8192;
    /** Run on the ibmqx4 device model (noise + coupling map). */
    bool ibmqx4 = false;
    /** InjectionStrategy::AutoGenerate with this check budget. */
    bool autoAssert = false;
    std::size_t autoMaxChecks = 8;
    bool reuseAncillas = false;
    /** Append a Full-mode entanglement check over every payload
        qubit before the measurements (directives cannot say Full). */
    bool fullGhzCheck = false;

    /** ibmqx4 jobs: which paper bounds the report must meet. */
    PaperShape shape = PaperShape::None;
    /** Ideal jobs: every non-auto check's analytic error rate.
        Checks labelled "auto:" are proven facts and must read 0. */
    std::vector<ExpectedCheck> expected;
    /** The program carries a planted bug; some check must fire. */
    bool plantedBug = false;
};

/**
 * Jobs at the head of the stream that run untimed, one at a time,
 * before measuring: one per distinct circuit of a resubmitting
 * workload, so the prepare and artifact caches are filled once, in a
 * fixed order, and concurrent cold builds never set the peak RSS.
 * 0 for debug_corpus, whose every job is cold by design.
 */
std::size_t warmupJobs(WorkloadKind kind);

/** Job @p index of @p kind's stream under workload seed @p seed. */
JobInput makeJob(WorkloadKind kind, std::uint64_t seed,
                 std::size_t index);

/** FNV-1a over the first @p count jobs (text, seed and knobs). */
std::uint64_t corpusDigest(WorkloadKind kind, std::uint64_t seed,
                           std::size_t count);

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_HH
