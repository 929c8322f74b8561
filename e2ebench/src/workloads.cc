#include "workloads.hh"

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <utility>

namespace e2e {

namespace {

constexpr double kPi = 3.14159265358979323846;

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/** Stream @p index of @p seed, decorrelated by @p salt. */
std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t salt, std::uint64_t index)
{
    std::uint64_t state = seed ^ (salt * 0xD1B54A32D192ED03ULL);
    splitmix64(state);
    state ^= index * 0x9E3779B97F4A7C15ULL;
    return splitmix64(state);
}

class Rand
{
  public:
    explicit Rand(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() { return splitmix64(state_); }

    /** Uniform in [lo, hi]. */
    std::size_t range(std::size_t lo, std::size_t hi)
    {
        return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
    }

    bool chance(double p)
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53 < p;
    }

  private:
    std::uint64_t state_;
};

std::string
qubit(std::size_t i)
{
    return "q[" + std::to_string(i) + "]";
}

bool
bit(std::uint64_t mask, std::size_t i)
{
    return ((mask >> i) & 1) != 0;
}

/**
 * "assert-classical q[hi], ..., q[lo] == bits": the directive lists
 * qubits MSB-first, with the value rendered in the same order.
 */
std::string
classicalBody(std::size_t lo, std::size_t hi, std::uint64_t value)
{
    std::string qubits;
    std::string bits;
    for (std::size_t i = hi + 1; i-- > lo;) {
        qubits += (qubits.empty() ? "" : ", ") + qubit(i);
        bits += bit(value, i) ? '1' : '0';
    }
    return "assert-classical " + qubits + " == " + bits;
}

/** 1 when @p actual differs from @p intended on qubits [lo, hi]. */
double
windowRate(std::uint64_t intended, std::uint64_t actual, std::size_t lo,
           std::size_t hi)
{
    const std::uint64_t width_mask =
        (hi - lo + 1 >= 64) ? ~0ULL : ((1ULL << (hi - lo + 1)) - 1);
    return (((intended ^ actual) >> lo) & width_mask) != 0 ? 1.0 : 0.0;
}

/** QASM text builder that records each directive's analytic rate. */
class Program
{
  public:
    explicit Program(std::size_t qubits) : qubits_(qubits)
    {
        const std::string n = std::to_string(qubits);
        text_ = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" + n +
                "];\ncreg c[" + n + "];\n";
    }

    void gate(const char *name, std::initializer_list<std::size_t> qs)
    {
        text_ += name;
        const char *sep = " ";
        for (std::size_t q : qs) {
            text_ += sep + qubit(q);
            sep = ",";
        }
        text_ += ";\n";
    }

    void rotation(const char *name, double angle, std::size_t q)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s(%.17g) ", name, angle);
        text_ += buf + qubit(q) + ";\n";
    }

    /**
     * Emit `// qra:<body>` expecting error rate @p rate. Returns false
     * and emits nothing when the same directive is already present
     * (report labels must stay unique within a program).
     */
    bool check(const std::string &body, double rate)
    {
        const std::string label = "qasm: " + body;
        for (const ExpectedCheck &e : expected_)
            if (e.label == label)
                return false;
        text_ += "// qra:" + body + "\n";
        expected_.push_back({label, rate});
        return true;
    }

    /**
     * Measure every qubit. A nonzero @p phase first applies
     * rz(phase) to q[0]: diagonal, so no measured outcome or check
     * changes, but the circuit (and its prepare-cache key) becomes
     * unique to the job, as a program under active editing is.
     */
    JobInput finish(bool bug, double phase = 0.0)
    {
        if (phase != 0.0)
            rotation("rz", phase, 0);
        for (std::size_t q = 0; q < qubits_; ++q)
            text_ += "measure " + qubit(q) + " -> c[" +
                     std::to_string(q) + "];\n";
        JobInput job;
        job.qasm = std::move(text_);
        job.expected = std::move(expected_);
        job.plantedBug = bug;
        return job;
    }

  private:
    std::size_t qubits_;
    std::string text_;
    std::vector<ExpectedCheck> expected_;
};

// ---------------------------------------------------------------- //
// debug_corpus families. Each builds the intended program with
// checks written for the intent; a planted bug mutates the program
// so that at least one check fires deterministically (rate 1). All
// checks are deterministic on these states, so they never disturb
// the payload and every analytic rate is exactly 0 or 1.

/** GHZ(n) with an optional X-flip pattern; bug = one stray X. */
JobInput
ghzFamily(Rand &rng, bool bug, double phase)
{
    const std::size_t n = rng.range(2, 8);
    const std::uint64_t intended =
        rng.chance(0.5) ? rng.next() & ((1ULL << n) - 1) : 0;
    const std::size_t stray = rng.range(0, n - 1);
    const std::uint64_t actual =
        bug ? intended ^ (1ULL << stray) : intended;

    Program p(n);
    std::size_t budget = 3;
    p.gate("h", {0});
    if (rng.chance(0.3) && p.check("assert-superposition q[0] +", 0.0))
        --budget;
    for (std::size_t i = 0; i + 1 < n; ++i)
        p.gate("cx", {i, i + 1});
    for (std::size_t i = 0; i < n; ++i)
        if (bit(actual, i))
            p.gate("x", {i});

    auto pair = [&](std::size_t a, std::size_t b) {
        if (a > b)
            std::swap(a, b);
        const bool odd = bit(intended, a) != bit(intended, b);
        const bool actual_odd = bit(actual, a) != bit(actual, b);
        return p.check("assert-entangled " + qubit(a) + ", " +
                           qubit(b) + (odd ? " odd" : ""),
                       odd != actual_odd ? 1.0 : 0.0);
    };

    if (bug) {
        // The check that must fire: a pair through the stray qubit.
        std::size_t other = rng.range(0, n - 2);
        if (other >= stray)
            ++other;
        pair(stray, other);
        --budget;
    }
    std::size_t ancillas = 0;
    const std::size_t want = rng.range(bug ? 0 : 1, budget);
    for (std::size_t made = 0, tries = 0; made < want && tries < 8;
         ++tries) {
        if (n >= 3 && rng.chance(0.4)) {
            // Chain over a range the intended flips leave uniform.
            const std::size_t lo = rng.range(0, n - 3);
            const std::size_t len = rng.range(3, n - lo);
            bool uniform = true;
            bool broken = false;
            for (std::size_t i = lo + 1; i < lo + len; ++i) {
                uniform &= bit(intended, i) == bit(intended, lo);
                broken |= bit(actual, i) != bit(actual, lo);
            }
            if (!uniform || ancillas + len - 1 > 6)
                continue;
            std::string body = "assert-entangled ";
            for (std::size_t i = lo; i < lo + len; ++i)
                body += (i == lo ? "" : ", ") + qubit(i);
            if (p.check(body + " chain", broken ? 1.0 : 0.0)) {
                ancillas += len - 1;
                ++made;
            }
        } else {
            const std::size_t a = rng.range(0, n - 1);
            std::size_t b = rng.range(0, n - 2);
            if (b >= a)
                ++b;
            if (pair(a, b)) {
                ++ancillas;
                ++made;
            }
        }
    }
    return p.finish(bug, phase);
}

/** W(n) cascade; bug = the initial excitation X is missing. */
JobInput
wFamily(Rand &rng, bool bug, double phase)
{
    const std::size_t n = rng.range(2, 6);
    Program p(n);

    // Checks on still-untouched |0> wires, before any gate.
    std::size_t made = 0;
    const std::size_t starts = rng.range(0, bug ? 1 : 2);
    for (std::size_t i = 0; i < starts; ++i)
        made += p.check("assert-classical " +
                            qubit(rng.range(1, n - 1)) + " == 0",
                        0.0);

    if (!bug)
        p.gate("x", {0});
    const double rate = bug ? 1.0 : 0.0;
    if (bug || made == 0 || rng.chance(0.5))
        made += p.check("assert-classical q[0] == 1", rate);
    if (n >= 3 && made < 3 && rng.chance(0.4))
        p.check(classicalBody(0, 2, 0b001), rate);

    for (std::size_t k = 0; k + 1 < n; ++k) {
        const double theta =
            2.0 * std::acos(std::sqrt(1.0 / static_cast<double>(n - k)));
        p.rotation("ry", theta / 2.0, k + 1);
        p.gate("cx", {k, k + 1});
        p.rotation("ry", -theta / 2.0, k + 1);
        p.gate("cx", {k, k + 1});
        p.gate("cx", {k + 1, k});
    }
    return p.finish(bug, phase);
}

/**
 * Pick a window of at most 4 qubits inside [0, n) for a classical
 * check, covering qubit @p must when @p bug.
 */
std::pair<std::size_t, std::size_t>
checkWindow(Rand &rng, std::size_t n, bool bug, std::size_t must)
{
    const std::size_t width = n < 4 ? n : 4;
    std::size_t lo_min = 0;
    std::size_t lo_max = n - width;
    if (bug) {
        lo_min = must + 1 >= width ? must + 1 - width : 0;
        lo_max = must < lo_max ? must : lo_max;
    }
    const std::size_t lo = rng.range(lo_min, lo_max);
    return {lo, lo + width - 1};
}

/** Bernstein-Vazirani; bug = the oracle drops one CNOT. */
JobInput
bvFamily(Rand &rng, bool bug, double phase)
{
    const std::size_t m = rng.range(1, 7);
    const std::uint64_t secret = rng.range(1, (1ULL << m) - 1);
    std::size_t dropped = 0;
    if (bug) {
        std::vector<std::size_t> ones;
        for (std::size_t i = 0; i < m; ++i)
            if (bit(secret, i))
                ones.push_back(i);
        dropped = ones[rng.range(0, ones.size() - 1)];
    }
    const std::uint64_t found =
        bug ? secret ^ (1ULL << dropped) : secret;

    Program p(m + 1);
    p.gate("x", {m});
    p.gate("h", {m});
    for (std::size_t i = 0; i < m; ++i)
        p.gate("h", {i});
    for (std::size_t i = 0; i < m; ++i)
        if (bit(secret, i) && !(bug && i == dropped))
            p.gate("cx", {i, m});
    for (std::size_t i = 0; i < m; ++i)
        p.gate("h", {i});
    const auto [lo, hi] = checkWindow(rng, m, bug, dropped);
    p.check(classicalBody(lo, hi, secret),
            windowRate(secret, found, lo, hi));
    // The oracle qubit is still |->. The check goes after its last
    // use: a passing `-` check leaves its target in |+>, which would
    // undo the phase kickback if the oracle ran after it.
    if (rng.chance(0.5))
        p.check("assert-superposition " + qubit(m) + " -", 0.0);
    return p.finish(bug, phase);
}

/** One op of a generated gate list (for emitting it and its inverse). */
struct GateOp
{
    const char *name;
    std::size_t a;
    std::size_t b;
    double angle;
    bool twoQubit;
    bool rotation;
};

/** QFT(n) as the library lays it out: CP from 2 CX + 3 P, then swaps. */
std::vector<GateOp>
qftOps(std::size_t n)
{
    std::vector<GateOp> ops;
    for (std::size_t t = n; t-- > 0;) {
        ops.push_back({"h", t, 0, 0.0, false, false});
        for (std::size_t k = 0; k < t; ++k) {
            const double angle =
                kPi / static_cast<double>(std::size_t{1} << (t - k));
            ops.push_back({"p", t, 0, angle / 2.0, false, true});
            ops.push_back({"cx", k, t, 0.0, true, false});
            ops.push_back({"p", t, 0, -angle / 2.0, false, true});
            ops.push_back({"cx", k, t, 0.0, true, false});
            ops.push_back({"p", k, 0, angle / 2.0, false, true});
        }
    }
    for (std::size_t q = 0; q < n / 2; ++q)
        ops.push_back({"swap", q, n - 1 - q, 0.0, true, false});
    return ops;
}

void
emit(Program &p, const GateOp &op, bool inverse)
{
    if (op.rotation)
        p.rotation(op.name, inverse ? -op.angle : op.angle, op.a);
    else if (op.twoQubit)
        p.gate(op.name, {op.a, op.b});
    else
        p.gate(op.name, {op.a});
}

/** QFT then inverse QFT of a basis state; bug = one prep X wrong. */
JobInput
qftFamily(Rand &rng, bool bug, double phase)
{
    const std::size_t n = rng.range(2, 6);
    const std::uint64_t value =
        rng.chance(1.0 / 3.0) ? 0 : rng.range(1, (1ULL << n) - 1);
    const std::size_t flipped = rng.range(0, n - 1);
    const std::uint64_t prepared =
        bug ? value ^ (1ULL << flipped) : value;

    Program p(n);
    for (std::size_t i = 0; i < n; ++i)
        if (bit(prepared, i))
            p.gate("x", {i});
    const std::vector<GateOp> ops = qftOps(n);
    for (const GateOp &op : ops)
        emit(p, op, false);
    // QFT|0> = |+>^n: superposition checks hold exactly there.
    if (prepared == 0) {
        const std::size_t count = rng.range(0, 2);
        for (std::size_t i = 0; i < count; ++i)
            p.check("assert-superposition " +
                        qubit(rng.range(0, n - 1)) + " +",
                    0.0);
    }
    for (std::size_t i = ops.size(); i-- > 0;)
        emit(p, ops[i], true);
    const auto [lo, hi] = checkWindow(rng, n, bug, flipped);
    p.check(classicalBody(lo, hi, value),
            windowRate(value, prepared, lo, hi));
    return p.finish(bug, phase);
}

/** Two-qubit Grover (exact: ends in |11>); bug = oracle marks |10>. */
JobInput
groverFamily(Rand &rng, bool bug, double phase)
{
    Program p(2);
    if (rng.chance(0.5))
        p.check("assert-classical " + qubit(rng.range(0, 1)) + " == 0",
                0.0);
    p.gate("h", {0});
    p.gate("h", {1});
    if (bug)
        p.gate("x", {0});
    p.gate("cz", {0, 1});
    if (bug)
        p.gate("x", {0});
    for (std::size_t q : {0, 1})
        p.gate("h", {q});
    for (std::size_t q : {0, 1})
        p.gate("x", {q});
    p.gate("cz", {0, 1});
    for (std::size_t q : {0, 1})
        p.gate("x", {q});
    for (std::size_t q : {0, 1})
        p.gate("h", {q});
    p.check(classicalBody(0, 1, 0b11), bug ? 1.0 : 0.0);
    return p.finish(bug, phase);
}

/**
 * Teleport RY(theta)|0> from q0 to q2 with deferred corrections;
 * bug = the state preparation over-rotates by pi.
 */
JobInput
teleportFamily(Rand &rng, bool bug, double phase)
{
    const std::size_t which = rng.range(0, 2);
    const double theta = kPi / 2.0 * static_cast<double>(which);
    Program p(3);
    if (rng.chance(0.5))
        p.check("assert-classical q[1] == 0", 0.0);
    p.rotation("ry", bug ? theta + kPi : theta, 0);
    p.gate("h", {1});
    p.gate("cx", {1, 2});
    p.gate("cx", {0, 1});
    p.gate("h", {0});
    p.gate("cx", {1, 2});
    p.gate("cz", {0, 2});
    const double rate = bug ? 1.0 : 0.0;
    if (which == 0)
        p.check("assert-classical q[2] == 0", rate);
    else if (which == 1)
        p.check("assert-superposition q[2] +", rate);
    else
        p.check("assert-classical q[2] == 1", rate);
    return p.finish(bug, phase);
}

JobInput
debugJob(std::uint64_t seed, std::size_t index)
{
    Rand rng(streamSeed(seed, 0xC0DE, index));
    // Families in turn, so every seed runs the same family mix.
    const std::size_t family = index % 6;
    const bool bug = rng.chance(0.2);
    // A quarter of all programs use AutoGenerate, drawn from the four
    // families whose states never become |-> mid-circuit: the
    // analyzer asserts |-> where it proves it, and a passing `-`
    // check leaves its target in |+> (see minusCheckProbe() in
    // main.cc), which
    // would corrupt the BV oracle qubit and QFT phases.
    const bool auto_assert =
        family != 2 && family != 3 && rng.chance(0.375);
    // Distinct per job (53 random bits), never 0.
    const double phase =
        (static_cast<double>(rng.next() >> 11) + 1.0) * 0x1.0p-53 * kPi;
    JobInput job;
    switch (family) {
      case 0: job = ghzFamily(rng, bug, phase); break;
      case 1: job = wFamily(rng, bug, phase); break;
      case 2: job = bvFamily(rng, bug, phase); break;
      case 3: job = qftFamily(rng, bug, phase); break;
      case 4: job = groverFamily(rng, bug, phase); break;
      default: job = teleportFamily(rng, bug, phase); break;
    }
    job.autoAssert = auto_assert;
    job.autoMaxChecks = 2;
    return job;
}

// ---------------------------------------------------------------- //
// paper_ibmqx4: the paper's experiments as annotated QASM.

const char *const kQasmHeader = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
constexpr std::size_t kPaperCircuits = 6;

JobInput
paperJob(std::size_t index)
{
    JobInput job;
    job.ibmqx4 = true;
    switch (index % kPaperCircuits) {
      case 0: // Table 1: classical check (q == |0>).
        job.qasm = std::string(kQasmHeader) +
                   "qreg q[1];\ncreg c[1];\n"
                   "// qra:assert-classical q[0] == 0\n"
                   "measure q[0] -> c[0];\n";
        job.shape = PaperShape::Table1;
        break;
      case 1: // Table 2: Bell pair, entanglement check.
        job.qasm = std::string(kQasmHeader) +
                   "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
                   "// qra:assert-entangled q[0], q[1]\n"
                   "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n";
        job.shape = PaperShape::Table2;
        break;
      case 2: // Sec. 4.3: superposition check on |+>.
        job.qasm = std::string(kQasmHeader) +
                   "qreg q[1];\ncreg c[1];\nh q[0];\n"
                   "// qra:assert-superposition q[0] +\n"
                   "measure q[0] -> c[0];\n";
        job.shape = PaperShape::Sec43;
        break;
      case 3: // Fig. 4: three-qubit GHZ, one parity ancilla.
        job.qasm = std::string(kQasmHeader) +
                   "qreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\n"
                   "cx q[1],q[2];\n"
                   "// qra:assert-entangled q[0], q[1], q[2]\n"
                   "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n"
                   "measure q[2] -> c[2];\n";
        job.shape = PaperShape::Ghz3;
        break;
      case 4: // Bell, checks derived by the static analyzer.
        job.qasm = std::string(kQasmHeader) +
                   "qreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\n"
                   "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n";
        job.autoAssert = true;
        job.shape = PaperShape::BellAuto;
        break;
      default: { // W3, checks derived by the static analyzer.
        Program p(3);
        p.gate("x", {0});
        for (std::size_t k = 0; k < 2; ++k) {
            const double theta = 2.0 * std::acos(std::sqrt(
                                            1.0 / static_cast<double>(3 - k)));
            p.rotation("ry", theta / 2.0, k + 1);
            p.gate("cx", {k, k + 1});
            p.rotation("ry", -theta / 2.0, k + 1);
            p.gate("cx", {k, k + 1});
            p.gate("cx", {k + 1, k});
        }
        job = p.finish(false);
        job.ibmqx4 = true;
        job.autoAssert = true;
        job.shape = PaperShape::W3Auto;
        break;
      }
    }
    return job;
}

// ---------------------------------------------------------------- //
// wide_sweep: wide, ancilla-heavy ideal circuits.

std::string
chainBody(std::size_t lo, std::size_t hi)
{
    std::string body = "assert-entangled ";
    for (std::size_t i = lo; i <= hi; ++i)
        body += (i == lo ? "" : ", ") + qubit(i);
    return body + " chain";
}

constexpr std::size_t kWideCircuits = 4;

JobInput
wideJob(std::size_t index)
{
    JobInput job;
    switch (index % kWideCircuits) {
      case 0: { // GHZ-8, Full stabiliser check: 16 qubits.
        Program p(8);
        p.gate("h", {0});
        for (std::size_t i = 0; i + 1 < 8; ++i)
            p.gate("cx", {i, i + 1});
        job = p.finish(false);
        job.fullGhzCheck = true;
        job.expected.push_back({kFullGhzLabel, 0.0});
        break;
      }
      case 1: { // Phase-GHZ-9 (non-Clifford), chain: 17 qubits.
        Program p(9);
        p.gate("h", {0});
        p.rotation("p", 0.7, 0);
        for (std::size_t i = 0; i + 1 < 9; ++i)
            p.gate("cx", {i, i + 1});
        p.check(chainBody(0, 8), 0.0);
        job = p.finish(false);
        break;
      }
      case 2: { // GHZ-10 (Clifford), chain: 19 qubits.
        Program p(10);
        p.gate("h", {0});
        for (std::size_t i = 0; i + 1 < 10; ++i)
            p.gate("cx", {i, i + 1});
        p.check(chainBody(0, 9), 0.0);
        job = p.finish(false);
        break;
      }
      default: { // Sequential checks sharing a reset ancilla pool.
        Program p(4);
        p.gate("h", {0});
        p.gate("cx", {0, 1});
        p.gate("cx", {1, 2});
        p.check(chainBody(0, 2), 0.0);
        p.rotation("p", 0.4, 0);
        p.gate("cx", {2, 3});
        p.check(chainBody(0, 3), 0.0);
        p.check("assert-entangled q[0], q[3]", 0.0);
        job = p.finish(false);
        job.reuseAncillas = true;
        break;
      }
    }
    return job;
}

} // namespace

bool
parseWorkload(const std::string &name, WorkloadKind *out)
{
    for (WorkloadKind kind :
         {WorkloadKind::PaperIbmqx4, WorkloadKind::DebugCorpus,
          WorkloadKind::WideSweep}) {
        if (name == workloadName(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::PaperIbmqx4: return "paper_ibmqx4";
      case WorkloadKind::DebugCorpus: return "debug_corpus";
      case WorkloadKind::WideSweep: return "wide_sweep";
    }
    return "?";
}

std::size_t
concurrency(WorkloadKind kind, std::size_t nproc)
{
    return kind == WorkloadKind::WideSweep ? nproc : 1;
}

std::size_t
warmupJobs(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::PaperIbmqx4: return kPaperCircuits;
      case WorkloadKind::DebugCorpus: return 0;
      case WorkloadKind::WideSweep: return kWideCircuits;
    }
    return 0;
}

JobInput
makeJob(WorkloadKind kind, std::uint64_t seed, std::size_t index)
{
    JobInput job;
    switch (kind) {
      case WorkloadKind::PaperIbmqx4: job = paperJob(index); break;
      case WorkloadKind::DebugCorpus: job = debugJob(seed, index); break;
      case WorkloadKind::WideSweep: job = wideJob(index); break;
    }
    job.seed = streamSeed(seed, 0x5EED, index);
    return job;
}

std::uint64_t
corpusDigest(WorkloadKind kind, std::uint64_t seed, std::size_t count)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    };
    for (std::size_t i = 0; i < count; ++i) {
        const JobInput job = makeJob(kind, seed, i);
        for (unsigned char c : job.qasm) {
            h ^= c;
            h *= 0x100000001B3ULL;
        }
        mix(job.seed);
        mix(job.shots);
        mix((job.ibmqx4 ? 1 : 0) | (job.autoAssert ? 2 : 0) |
            (job.reuseAncillas ? 4 : 0) | (job.fullGhzCheck ? 8 : 0));
        mix(job.autoMaxChecks);
    }
    return h;
}

} // namespace e2e
