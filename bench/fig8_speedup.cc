/**
 * @file
 * Regenerates Figure 8 of the paper: speedup of the Parallel Automata
 * Processor over the sequential AP baseline, for 1 rank and 4 ranks
 * and for both input sizes, with the ideal speedup (= number of input
 * segments) alongside, plus the geometric mean over all benchmarks.
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

namespace {

struct Row
{
    std::string name;
    double pap1 = 1, pap4 = 1;
    std::uint32_t ideal1 = 1, ideal4 = 1;
};

Row
runOne(const BenchmarkInfo &info, std::uint64_t base_len)
{
    const std::uint64_t len = static_cast<std::uint64_t>(
        static_cast<double>(base_len) * info.traceScale);

    const Nfa nfa = buildBenchmark(info.name);
    const InputTrace input = buildBenchmarkTrace(nfa, info.name, len);
    const PreparedAutomaton automaton(nfa);

    PapOptions opt;
    opt.routingMinHalfCores = info.paper.halfCores;
    opt.threads = bench::hostThreads();

    Row row;
    row.name = info.name;
    const PapResult r1 = runPap(automaton, input, ApConfig::d480(1), opt);
    const PapResult r4 = runPap(automaton, input, ApConfig::d480(4), opt);
    row.pap1 = r1.speedup;
    row.ideal1 = r1.idealSpeedup;
    row.pap4 = r4.speedup;
    row.ideal4 = r4.idealSpeedup;
    return row;
}

void
runSize(const char *label, std::uint64_t base_len)
{
    std::printf("--- %s input ---\n", label);
    Table table({"Benchmark", "PAP-1rank", "PAP-4ranks", "Ideal-1rank",
                 "Ideal-4rank"});
    std::vector<double> s1, s4;
    for (const auto &info : benchmarkRegistry()) {
        const Row row = runOne(info, base_len);
        s1.push_back(row.pap1);
        s4.push_back(row.pap4);
        table.addRow({row.name, fmtDouble(row.pap1, 2),
                      fmtDouble(row.pap4, 2), std::to_string(row.ideal1),
                      std::to_string(row.ideal4)});
    }
    table.addRow({"Geomean", fmtDouble(stats::geomean(s1), 2),
                  fmtDouble(stats::geomean(s4), 2), "-", "-"});
    std::printf("%s\n", table.toString().c_str());
}

} // namespace

int
main()
{
    bench::ObsSession obs_session("fig8_speedup");
    bench::printHeader("Figure 8: PAP speedup over sequential AP",
                       "Figure 8");
    runSize("1MB-class", bench::smallTraceLen());
    runSize("10MB-class", bench::largeTraceLen());
    std::printf(
        "Paper reference: geomean 6.6x (1MB/1rank), 18.8x (1MB/4ranks),\n"
        "                 7.6x (10MB/1rank), 25.5x (10MB/4ranks).\n");
    return 0;
}
