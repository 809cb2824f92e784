/**
 * @file
 * PAPsim quickstart: build a small pattern set, inspect the automaton,
 * run it sequentially and in parallel on a simulated AP board, and
 * compare the results.
 *
 * Build & run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/quickstart
 */

#include <cstdio>

#include "ap/ap_config.h"
#include "common/logging.h"
#include "ap/placement.h"
#include "nfa/analysis.h"
#include "nfa/glushkov.h"
#include "pap/runner.h"
#include "workloads/trace_gen.h"

using namespace pap;

int
main()
{
    setLogLevel(LogLevel::Info);

    // 1. Compile a ruleset into a homogeneous (ANML-style) NFA.
    //    Each rule gets a report code; unanchored rules match anywhere.
    const std::vector<RegexRule> rules = {
        {"virus[0-9]{2}", 1},
        {"worm(net|web)+", 2},
        {"back.?door", 3},
        {"r00t", 4},
    };
    const Nfa nfa = compileRuleset(rules, "quickstart");
    std::printf("Compiled %zu rules into %zu states / %zu edges\n",
                rules.size(), nfa.size(), nfa.edgeCount());

    // 2. Static analysis: connected components and symbol ranges.
    const Components comps = connectedComponents(nfa);
    const RangeAnalysis ranges(nfa);
    std::printf("Connected components: %u, symbol range min/avg/max = "
                "%u/%.1f/%u\n",
                comps.count, ranges.minRange(), ranges.avgRange(),
                ranges.maxRange());

    // 3. Place one copy on a 1-rank D480 board.
    const ApConfig board = ApConfig::d480(1);
    const Placement placement = placeAutomaton(nfa, comps, board).value();
    std::printf("One copy occupies %u half-core(s); the board can run "
                "%u input segments in parallel\n",
                placement.halfCoresPerCopy,
                placement.inputSegments(board));

    // 4. Generate an input stream that exercises the patterns.
    TraceGenOptions tg;
    tg.baseAlphabet = alphabetFromString(
        "abcdefghijklmnopqrstuvwxyz0123456789 ");
    tg.separator = '\n';
    tg.separatorPeriod = 32;
    const InputTrace input = generateTrace(nfa, 1 << 16, tg, /*seed=*/7);

    // 5. Sequential baseline.
    const SequentialResult seq = runSequential(nfa, input);
    std::printf("Sequential: %zu matches in %llu symbol cycles\n",
                seq.reports.size(),
                static_cast<unsigned long long>(seq.cycles));

    // 6. Parallel Automata Processor run. The framework verifies that
    //    the composed parallel reports equal the sequential ones.
    const PapResult pap = runPap(nfa, input, board);
    std::printf("PAP: %zu matches, %u segments, %.2fx speedup "
                "(ideal %ux), verified=%s\n",
                pap.reports.size(), pap.numSegments, pap.speedup,
                pap.idealSpeedup, pap.verified ? "yes" : "no");

    // 7. Show the first few matches.
    std::printf("First matches (offset: rule):\n");
    std::size_t shown = 0;
    for (const auto &event : pap.reports) {
        if (shown++ == 8)
            break;
        std::printf("  %8llu: rule %u\n",
                    static_cast<unsigned long long>(event.offset),
                    event.code);
    }
    return 0;
}
