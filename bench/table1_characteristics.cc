/**
 * @file
 * Regenerates Table 1 of the paper: per-benchmark state count, range
 * of the chosen partition symbol, connected components, AP half-core
 * footprint, and input segments at 1 and 4 ranks. Published values
 * are printed alongside the values measured on our synthetic rebuilds.
 */

#include <cstdio>

#include "ap/ap_config.h"
#include "ap/placement.h"
#include "bench_common.h"
#include "common/table.h"
#include "nfa/analysis.h"
#include "pap/partitioner.h"
#include "workloads/benchmarks.h"

using namespace pap;

int
main()
{
    bench::ObsSession obs_session("table1_characteristics");
    bench::printHeader("Table 1: Benchmark Characteristics", "Table 1");

    Table table({"#", "Benchmark", "States", "(paper)", "Range",
                 "(paper)", "CCs", "(paper)", "HalfCores", "(paper)",
                 "Seg/1R", "(paper)", "Seg/4R", "(paper)"});

    const ApConfig one_rank = ApConfig::d480(1);
    const ApConfig four_ranks = ApConfig::d480(4);

    int index = 1;
    for (const auto &info : benchmarkRegistry()) {
        const Nfa nfa = buildBenchmark(info.name);
        const Components comps = connectedComponents(nfa);
        const RangeAnalysis ranges(nfa);
        const Placement placement =
            placeAutomaton(nfa, comps, four_ranks, info.paper.halfCores)
                .value();

        // Profile the partition symbol on a representative trace at
        // the 4-rank segment count (the configuration the paper's
        // Range column reflects).
        const InputTrace probe = buildBenchmarkTrace(
            nfa, info.name,
            std::max<std::uint64_t>(16384, bench::smallTraceLen() / 8));
        const PartitionProfile profile = choosePartitionSymbol(
            ranges, probe, placement.inputSegments(four_ranks));

        table.addRow({std::to_string(index++), info.name,
                      fmtCount(nfa.size()), fmtCount(info.paper.states),
                      fmtCount(profile.rangeSize),
                      fmtCount(info.paper.range), fmtCount(comps.count),
                      fmtCount(info.paper.components),
                      std::to_string(placement.halfCoresPerCopy),
                      std::to_string(info.paper.halfCores),
                      std::to_string(placement.inputSegments(one_rank)),
                      std::to_string(info.paper.segments1Rank),
                      std::to_string(placement.inputSegments(four_ranks)),
                      std::to_string(info.paper.segments4Rank)});
    }
    std::printf("%s\n", table.toString().c_str());
    return 0;
}
