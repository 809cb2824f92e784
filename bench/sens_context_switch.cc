/**
 * @file
 * Regenerates the context-switch sensitivity study of Section 5.3:
 * speedup degradation when the flow context switch costs 2x (6
 * cycles) and 4x (12 cycles) the nominal 3 cycles. The paper reports
 * average losses of 0.5% and 1.2% (worst case 1.75% / 5.04%).
 */

#include <cstdio>
#include <vector>

#include "ap/ap_config.h"
#include "bench_common.h"
#include "common/stats.h"
#include "common/table.h"
#include "pap/runner.h"
#include "workloads/benchmarks.h"

using namespace pap;

int
main()
{
    bench::ObsSession obs_session("sens_context_switch");
    bench::printHeader(
        "Section 5.3: context-switch cost sensitivity (2x / 4x)",
        "Section 5.3");

    Table table({"Benchmark", "Speedup@3cyc", "Speedup@6cyc",
                 "Speedup@12cyc", "Loss@6cyc%", "Loss@12cyc%"});
    std::vector<double> loss2, loss4;
    for (const auto &info : benchmarkRegistry()) {
        const Nfa nfa = buildBenchmark(info.name);
        const std::uint64_t len = static_cast<std::uint64_t>(
            static_cast<double>(bench::smallTraceLen()) *
            info.traceScale);
        const InputTrace input =
            buildBenchmarkTrace(nfa, info.name, len);
        const PreparedAutomaton automaton(nfa);

        double speedups[3];
        const Cycles costs[3] = {3, 6, 12};
        for (int i = 0; i < 3; ++i) {
            PapOptions opt;
            opt.routingMinHalfCores = info.paper.halfCores;
            opt.threads = bench::hostThreads();
            ApConfig board = ApConfig::d480(4);
            board.timing.contextSwitchCycles = costs[i];
            speedups[i] = runPap(automaton, input, board, opt).speedup;
        }
        const double l2 =
            100.0 * (1.0 - speedups[1] / speedups[0]);
        const double l4 =
            100.0 * (1.0 - speedups[2] / speedups[0]);
        loss2.push_back(l2);
        loss4.push_back(l4);
        table.addRow({info.name, fmtDouble(speedups[0], 2),
                      fmtDouble(speedups[1], 2),
                      fmtDouble(speedups[2], 2), fmtDouble(l2, 2),
                      fmtDouble(l4, 2)});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("Average loss: %.2f%% (2x), %.2f%% (4x); worst: %.2f%% "
                "/ %.2f%%\n",
                stats::mean(loss2), stats::mean(loss4),
                stats::maxOf(loss2), stats::maxOf(loss4));
    std::printf("Paper reference: avg 0.5%% / 1.2%%, worst 1.75%% / "
                "5.04%%.\n");
    return 0;
}
