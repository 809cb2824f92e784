/**
 * @file
 * The Table-1 suite workloads (regex_suite, anmlzoo_suite): every
 * automaton of the suite at 1 and 4 ranks through runPap, repeated in
 * passes for the measured time. The traced run collects the phase
 * spans runPap itself emits on an obs::TraceSink.
 */

#ifndef PAPBENCH_SUITE_H
#define PAPBENCH_SUITE_H

#include <string>
#include <vector>

#include "bench_util.h"

namespace papbench {

/** One suite workload: its automata and its input sizing. */
struct SuiteSpec
{
    /** Table-1 automata, in registry order. */
    std::vector<std::string> names;
    /** Base trace length; each automaton scales it by traceScale. */
    std::uint64_t baseTraceLen = 0;
    /** Whether the registry's traceScale applies (ANMLZoo only). */
    bool applyTraceScale = false;
};

/** The regex_suite workload. */
SuiteSpec regexSuite();

/** The anmlzoo_suite workload. */
SuiteSpec anmlzooSuite();

/** Every automaton the suites run (names of the per-automaton metrics). */
std::vector<std::string> allSuiteAutomata();

/** Run a suite workload per @p args (untraced or traced). */
Outcome runSuite(const SuiteSpec &spec, const Args &args);

} // namespace papbench

#endif // PAPBENCH_SUITE_H
