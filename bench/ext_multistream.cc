/**
 * @file
 * Extension study (paper Section 3.2 background): AP flows in their
 * advertised role — time-multiplexing independent user streams on one
 * half-core through the State Vector Cache. Measures the aggregate
 * overhead of sharing as the stream count grows (bounded by
 * switch/(quantum+switch)) and the fairness of round-robin service.
 */

#include <cstdio>

#include "ap/ap_config.h"
#include "bench_common.h"
#include "common/stats.h"
#include "common/table.h"
#include "pap/multistream.h"
#include "workloads/benchmarks.h"

using namespace pap;

int
main()
{
    bench::ObsSession obs_session("ext_multistream");
    bench::printHeader(
        "Extension: multi-user stream multiplexing via flows",
        "Section 3.2 (flow abstraction)");

    const Nfa nfa = buildBenchmark("Bro217");
    const ApConfig board = ApConfig::d480(1);

    Table table({"Streams", "TotalCycles", "Overhead(x)", "Switch%",
                 "FinishSpread%"});
    for (const std::uint32_t n : {1u, 2u, 8u, 32u, 128u}) {
        std::vector<InputTrace> streams;
        for (std::uint32_t i = 0; i < n; ++i)
            streams.push_back(buildBenchmarkTrace(
                nfa, "Bro217", 16384, /*seed=*/1000 + i));
        const MultiStreamResult r =
            runMultiStream(nfa, streams, board);

        std::vector<double> done;
        for (const auto d : r.streamDone)
            done.push_back(static_cast<double>(d));
        const double spread =
            100.0 * (stats::maxOf(done) - stats::minOf(done)) /
            stats::maxOf(done);
        table.addRow(
            {std::to_string(n), fmtCount(r.totalCycles),
             fmtDouble(r.overheadRatio, 4),
             fmtDouble(100.0 * static_cast<double>(r.switchCycles) /
                           static_cast<double>(r.totalCycles),
                       2),
             fmtDouble(spread, 2)});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("Overhead is bounded by switch/(quantum+switch) = "
                "3/128 = 2.34%%;\nround-robin keeps finish times "
                "within one quantum of each other.\n");
    return 0;
}
