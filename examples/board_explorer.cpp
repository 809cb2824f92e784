/**
 * @file
 * Capacity-planning example: given a ruleset, explore how board size
 * (ranks), TDM quantum, and input size change the end-to-end speedup
 * and where the bottleneck sits — the kind of what-if study a team
 * sizing an AP deployment would run.
 */

#include <cstdio>

#include "ap/ap_config.h"
#include "common/table.h"
#include "nfa/prefix_merge.h"
#include "pap/runner.h"
#include "workloads/ruleset_gen.h"
#include "workloads/trace_gen.h"

using namespace pap;

int
main()
{
    // The deployment's ruleset: a mid-size signature set.
    RulesetParams params;
    params.count = 800;
    params.minAtoms = 10;
    params.maxAtoms = 14;
    params.classFraction = 0.1;
    params.dotstarFraction = 0.02;
    params.separatorFraction = 0.15;
    params.firstAtomPool = 60;
    params.seed = 7;
    const Nfa nfa = buildRulesetAutomaton(params, "deployment", true);
    std::printf("Ruleset: %zu states after prefix merging\n\n",
                nfa.size());
    // Compile and analyze the ruleset once for every run below.
    const PreparedAutomaton automaton(nfa);

    TraceGenOptions tg;
    tg.baseAlphabet = alphabetFromString(params.alphabet);
    tg.separator = '\n';
    tg.separatorPeriod = 32;

    Table table({"Input", "Ranks", "Segments", "Speedup", "Gbit/s",
                 "AvgFlows", "Bottleneck"});
    for (const std::uint64_t len : {64ull << 10, 512ull << 10}) {
        const InputTrace input = generateTrace(nfa, len, tg, 3);
        for (const std::uint32_t ranks : {1u, 2u, 4u}) {
            const PapResult r =
                runPap(automaton, input, ApConfig::d480(ranks));
            const double ns_per_symbol =
                7.5 * static_cast<double>(r.papCycles) /
                static_cast<double>(input.size());
            const char *bottleneck = "balanced";
            if (r.speedup > 0.9 * r.idealSpeedup)
                bottleneck = "near-ideal";
            else if (r.avgActiveFlows > 2.0)
                bottleneck = "live flows";
            else
                bottleneck = "upload/Tcpu";
            table.addRow({std::to_string(len >> 10) + " KiB",
                          std::to_string(ranks),
                          std::to_string(r.numSegments),
                          fmtDouble(r.speedup, 2),
                          fmtDouble(8.0 / ns_per_symbol, 2),
                          fmtDouble(r.avgActiveFlows, 1), bottleneck});
        }
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("Larger streams amortize the per-segment state-vector "
                "upload;\nmore ranks only pay off once segments stay "
                "long enough.\n");
    return 0;
}
