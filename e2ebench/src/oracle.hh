/**
 * @file
 * Per-job answer oracle. Ideal jobs: every check whose analytic error
 * rate is 0 must read exactly 0, and every other check (planted bugs)
 * must lie inside the Wilson 99.9% interval of its analytic rate.
 * ibmqx4 jobs: the shape bounds of the paper benches (raw error in
 * band, assertion filtering lowers it).
 */

#ifndef E2EBENCH_ORACLE_HH
#define E2EBENCH_ORACLE_HH

#include <string>

#include "assertions/injector.hh"
#include "assertions/report.hh"
#include "sim/result.hh"
#include "workloads.hh"

namespace e2e {

/** Two-sided normal quantile of the oracle's 99.9% intervals. */
inline constexpr double kWilsonZ999 = 3.2905267314919;

/** Wilson score interval [lo, hi] for a proportion @p p over @p n. */
void wilsonInterval(double p, std::size_t n, double z, double *lo,
                    double *hi);

/** Empty when the report answers @p job correctly, else why not. */
std::string checkAnswer(const JobInput &job,
                        const qra::InstrumentedCircuit &instrumented,
                        const qra::Result &result,
                        const qra::AssertionReport &report);

} // namespace e2e

#endif // E2EBENCH_ORACLE_HH
