/**
 * @file
 * Ablation: TDM quantum sensitivity. The paper fixes the context
 * switch at 3 cycles but leaves the per-flow quantum k implicit; k
 * trades switching overhead (3/(k+3), Figure 10) against the
 * granularity of deactivation checks (a dying flow keeps its slot
 * until the next context switch). This harness sweeps k on
 * representative benchmarks.
 */

#include <cstdio>
#include <vector>

#include "ap/ap_config.h"
#include "bench_common.h"
#include "common/table.h"
#include "pap/runner.h"
#include "workloads/benchmarks.h"

using namespace pap;

int
main()
{
    bench::ObsSession obs_session("sens_quantum");
    bench::printHeader("Ablation: TDM quantum (k) sensitivity",
                       "Section 3.2 (flow quantum, design choice)");

    const std::vector<std::uint32_t> quanta = {25, 50, 125, 250, 500,
                                               1000};
    std::vector<std::string> headers = {"Benchmark"};
    for (const auto k : quanta)
        headers.push_back("k=" + std::to_string(k));
    Table table(headers);

    for (const char *name :
         {"Dotstar06", "TCP", "SPM", "Hamming", "ClamAV"}) {
        const BenchmarkInfo &info = benchmarkInfo(name);
        const Nfa nfa = buildBenchmark(name);
        const std::uint64_t len = static_cast<std::uint64_t>(
            static_cast<double>(bench::smallTraceLen()) *
            info.traceScale);
        const InputTrace input = buildBenchmarkTrace(nfa, name, len);
        const PreparedAutomaton automaton(nfa);

        std::vector<std::string> row = {name};
        for (const auto k : quanta) {
            PapOptions opt;
            opt.routingMinHalfCores = info.paper.halfCores;
            opt.threads = bench::hostThreads();
            opt.tdmQuantum = k;
            const PapResult r =
                runPap(automaton, input, ApConfig::d480(4), opt);
            row.push_back(fmtDouble(r.speedup, 2));
        }
        table.addRow(row);
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf(
        "Small quanta pay 3/(k+3) switching overhead; large quanta\n"
        "delay deactivation and convergence checks. k=125 (the 2.3%%\n"
        "worst-case point reported in Fig. 10) sits near the knee.\n");
    return 0;
}
