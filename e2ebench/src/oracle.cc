#include "oracle.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>

namespace e2e {

namespace {

std::string
fmt(const char *format, double a, double b = 0.0, double c = 0.0)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, format, a, b, c);
    return buf;
}

/** Paper shape: raw payload error in (lo, hi), filtered below raw. */
std::string
filteredShape(const qra::InstrumentedCircuit &inst,
              const qra::Result &result, double lo, double hi,
              const std::function<bool(std::uint64_t)> &is_error)
{
    const qra::stats::ErrorRateReport rates =
        qra::errorRates(inst, result, is_error);
    if (!(rates.rawErrorRate > lo && rates.rawErrorRate < hi))
        return fmt("raw error %.4f outside (%.2f, %.2f)",
                   rates.rawErrorRate, lo, hi);
    if (!rates.hasFiltered ||
        !(rates.filteredErrorRate < rates.rawErrorRate))
        return fmt("filtered error %.4f not below raw %.4f",
                   rates.filteredErrorRate, rates.rawErrorRate);
    return {};
}

std::string
paperAnswer(const JobInput &job, const qra::InstrumentedCircuit &inst,
            const qra::Result &result,
            const qra::AssertionReport &report)
{
    auto differ = [](std::uint64_t bits) {
        return bits == 0b01 || bits == 0b10;
    };
    switch (job.shape) {
      case PaperShape::Table1: // table1_classical_ibmq
        return filteredShape(inst, result, 0.01, 0.08,
                             [](std::uint64_t b) { return b != 0; });
      case PaperShape::Table2: // table2_entanglement_ibmq
      case PaperShape::BellAuto:
        return filteredShape(inst, result, 0.04, 0.35, differ);
      case PaperShape::Sec43: // sec43_superposition_ibmq
        if (report.anyErrorRate > 0.02 && report.anyErrorRate < 0.30)
            return {};
        return fmt("assertion error %.4f outside (0.02, 0.30)",
                   report.anyErrorRate);
      case PaperShape::Ghz3: // fig4_ghz_assertion, on the noisy model
        return filteredShape(inst, result, 0.04, 0.50,
                             [](std::uint64_t b) {
                                 return b != 0b000 && b != 0b111;
                             });
      case PaperShape::W3Auto:
        return filteredShape(inst, result, 0.04, 0.50,
                             [](std::uint64_t b) {
                                 return std::popcount(b) != 1;
                             });
      case PaperShape::None:
        break;
    }
    return "ibmqx4 job without a shape";
}

std::string
idealAnswer(const JobInput &job, const qra::InstrumentedCircuit &inst,
            const qra::Result &result,
            const qra::AssertionReport &report)
{
    const auto &checks = inst.checks();
    if (report.checkErrorRates.size() != checks.size())
        return "report/check count mismatch";
    std::vector<bool> seen(job.expected.size(), false);
    bool fired = false;
    for (std::size_t j = 0; j < checks.size(); ++j) {
        const std::string &label = checks[j].spec.label;
        const double observed = report.checkErrorRates[j];
        double rate = 0.0;
        if (label.rfind("auto:", 0) != 0) {
            std::size_t k = 0;
            while (k < job.expected.size() &&
                   (seen[k] || job.expected[k].label != label))
                ++k;
            if (k == job.expected.size())
                return "unexpected check '" + label + "'";
            seen[k] = true;
            rate = job.expected[k].rate;
        }
        if (rate == 0.0) {
            if (observed != 0.0)
                return "'" + label + "' read " +
                       fmt("%.6f, expected exactly 0", observed);
            continue;
        }
        double lo = 0.0;
        double hi = 1.0;
        wilsonInterval(rate, result.shots(), kWilsonZ999, &lo, &hi);
        if (observed < lo || observed > hi)
            return "'" + label + "' read " +
                   fmt("%.6f outside the 99.9%% interval [%.6f, %.6f]",
                       observed, lo, hi);
        fired = true;
    }
    for (std::size_t k = 0; k < seen.size(); ++k)
        if (!seen[k])
            return "missing check '" + job.expected[k].label + "'";
    if (job.plantedBug && !fired)
        return "planted bug went undetected";
    return {};
}

} // namespace

void
wilsonInterval(double p, std::size_t n, double z, double *lo, double *hi)
{
    const double nn = static_cast<double>(n);
    const double z2 = z * z;
    const double denom = 1.0 + z2 / nn;
    const double centre = (p + z2 / (2.0 * nn)) / denom;
    const double half =
        z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) / denom;
    // Clamp to [0, 1]: at p = 0 or 1 the bound is exact in real
    // arithmetic but may round to just inside it.
    *lo = p == 0.0 ? 0.0 : std::max(0.0, centre - half);
    *hi = p == 1.0 ? 1.0 : std::min(1.0, centre + half);
}

std::string
checkAnswer(const JobInput &job,
            const qra::InstrumentedCircuit &instrumented,
            const qra::Result &result, const qra::AssertionReport &report)
{
    if (result.shots() != job.shots)
        return fmt("ran %.0f shots, expected %.0f",
                   static_cast<double>(result.shots()),
                   static_cast<double>(job.shots));
    if (job.ibmqx4)
        return paperAnswer(job, instrumented, result, report);
    return idealAnswer(job, instrumented, result, report);
}

} // namespace e2e
