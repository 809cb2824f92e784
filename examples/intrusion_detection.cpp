/**
 * @file
 * Network intrusion detection on a simulated AP board, in the spirit
 * of the paper's Snort workload: a few thousand signature rules
 * compiled into one automaton, compressed with common-prefix merging,
 * and scanned over synthetic traffic in parallel. Demonstrates the
 * effect of ruleset compression and of the board size (ranks) on
 * end-to-end throughput.
 */

#include <cstdio>

#include "ap/ap_config.h"
#include "nfa/prefix_merge.h"
#include "pap/runner.h"
#include "workloads/ruleset_gen.h"
#include "workloads/trace_gen.h"

using namespace pap;

int
main()
{
    // A Snort-like synthetic ruleset: content strings with classes,
    // bounded repetitions, and occasional unbounded wildcards.
    RulesetParams params;
    params.count = 1500;
    params.minAtoms = 6;
    params.maxAtoms = 12;
    params.classFraction = 0.15;
    params.boundedRepFraction = 0.05;
    params.dotstarFraction = 0.01;
    params.separatorFraction = 0.2;
    params.firstAtomPool = 70;
    params.seed = 2024;

    const std::vector<RegexRule> rules = generateRuleset(params);
    Nfa raw = compileRuleset(rules, "ids-rules");

    PrefixMergeStats merge_stats;
    const Nfa nfa = commonPrefixMerge(raw, &merge_stats);
    std::printf("Ruleset: %u rules; %zu states before prefix merging, "
                "%zu after (%u passes)\n",
                params.count, merge_stats.statesBefore,
                merge_stats.statesAfter, merge_stats.iterations);

    // Compile and analyze the ruleset once; every scan below reuses it.
    const PreparedAutomaton automaton(nfa);
    std::printf("Signature groups (connected components): %u\n",
                automaton.comps.count);

    // Synthetic traffic with p_m = 0.75 (representative of real
    // traffic per Becchi et al.): most bytes extend some signature.
    TraceGenOptions tg;
    tg.pm = 0.75;
    tg.baseAlphabet = alphabetFromString(params.alphabet);
    tg.separator = '\n';
    tg.separatorPeriod = 40;
    const InputTrace traffic = generateTrace(nfa, 1 << 18, tg, 99);

    const SequentialResult seq = runSequential(automaton.cnfa, traffic);

    for (const std::uint32_t ranks : {1u, 4u}) {
        const PapResult r =
            runPap(automaton, traffic, ApConfig::d480(ranks));
        const double ns_per_symbol =
            7.5 * static_cast<double>(r.papCycles) /
            static_cast<double>(traffic.size());
        const double gbps = 8.0 / ns_per_symbol;
        std::printf(
            "%u rank(s): %u segments, speedup %5.2fx over sequential "
            "AP, scan rate %.2f Gbit/s, alerts %zu (verified=%s)\n",
            ranks, r.numSegments, r.speedup, gbps, r.reports.size(),
            r.verified ? "yes" : "no");
    }
    std::printf("Sequential alerts: %zu\n", seq.reports.size());
    return 0;
}
