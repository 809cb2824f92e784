/**
 * @file
 * Extension study (paper Section 6 future work): speculative
 * parallelization versus the paper's enumerative PAP. Speculation
 * predicts each segment's start set from a warmup window; it shines
 * on memoryless rulesets (prediction accuracy ~1) and collapses on
 * automata with long-lived latched states (.* gaps), exactly the
 * workloads the enumerative flow machinery was designed for.
 */

#include <cstdio>

#include "ap/ap_config.h"
#include "bench_common.h"
#include "common/table.h"
#include "pap/runner.h"
#include "pap/speculative.h"
#include "workloads/benchmarks.h"

using namespace pap;

int
main()
{
    bench::ObsSession obs_session("ext_speculation");
    bench::printHeader(
        "Extension: speculative vs enumerative parallelization",
        "Section 6 (future-work direction)");

    Table table({"Benchmark", "PAP(enum)", "SPEC(w=256)", "Accuracy",
                 "SPEC(w=1024)", "Accuracy", "Ideal"});
    for (const auto &info : benchmarkRegistry()) {
        const Nfa nfa = buildBenchmark(info.name);
        const std::uint64_t len = static_cast<std::uint64_t>(
            static_cast<double>(bench::smallTraceLen()) *
            info.traceScale);
        const InputTrace input =
            buildBenchmarkTrace(nfa, info.name, len);
        const PreparedAutomaton automaton(nfa);

        PapOptions pap_opt;
        pap_opt.routingMinHalfCores = info.paper.halfCores;
        const PapResult pap =
            runPap(automaton, input, ApConfig::d480(4), pap_opt);

        SpeculationOptions s1;
        s1.warmupWindow = 256;
        s1.routingMinHalfCores = info.paper.halfCores;
        const SpeculationResult spec1 =
            runSpeculative(automaton, input, ApConfig::d480(4), s1);

        SpeculationOptions s2 = s1;
        s2.warmupWindow = 1024;
        const SpeculationResult spec2 =
            runSpeculative(automaton, input, ApConfig::d480(4), s2);

        table.addRow({info.name, fmtDouble(pap.speedup, 2),
                      fmtDouble(spec1.speedup, 2),
                      fmtDouble(spec1.accuracy, 2),
                      fmtDouble(spec2.speedup, 2),
                      fmtDouble(spec2.accuracy, 2),
                      std::to_string(pap.idealSpeedup)});
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf(
        "Expected shape: speculation rivals or beats enumeration on\n"
        "memoryless rulesets (ExactMatch, Ranges, RandomForest) and\n"
        "loses badly wherever latched states survive across windows\n"
        "(Dotstar, SPM, ClamAV) -- the regime the paper's flow\n"
        "machinery targets.\n");
    return 0;
}
