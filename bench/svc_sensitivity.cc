/**
 * @file
 * State Vector Cache sensitivity: the live cache's capacity on an
 * enumeration workload whose flow plan (>512 flows per segment)
 * exceeds the D480's 512-entry SVC, the regime Section 3.2's overflow
 * discussion leaves to the scheduler.
 *
 * The workload is a ruleset of independent "b c{L} z" chains with a
 * skewed lifetime mix (70% die within ~60 symbols, 20% within ~160,
 * 10% run for hundreds), so victim choice matters: most contexts are
 * about to free themselves, and the cache's eviction order (smallest
 * modeled re-upload + remaining-lifetime cost first) keeps the
 * long-lived flows resident.
 *
 * Swept: capacities 64..512. Reports are byte-identical across every
 * cell by construction; this harness re-checks that, that the plan
 * really overflows the native SVC, and that the capacity curve is
 * monotone (no mid-sweep cliff). Emits BENCH_svc.json (path
 * overridable as argv[1]).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ap/ap_config.h"
#include "bench_common.h"
#include "nfa/glushkov.h"
#include "pap/runner.h"

using namespace pap;

namespace {

/** Enumeration rules: every chain starts at the 'b' boundary. */
constexpr std::uint32_t kRules = 584;

/**
 * Skewed lifetime of rule @p i, in symbols: mostly short chains, a
 * minority of long ones. All below the 511-symbol 'c' runs of the
 * trace, so a flow's lifetime is its chain length.
 */
std::uint32_t
chainLen(std::uint32_t i)
{
    const std::uint32_t r = i % 10;
    if (r < 7)
        return 4 + (i * 13) % 56; // dies inside the first TDM round
    if (r < 9)
        return 80 + (i * 17) % 80; // one or two rounds
    return 250 + (i * 29) % 230;   // the flows worth keeping resident
}

Nfa
buildChains()
{
    std::vector<RegexRule> rules;
    rules.reserve(kRules);
    for (std::uint32_t i = 0; i < kRules; ++i)
        rules.push_back({"bc{" + std::to_string(chainLen(i)) + "}z",
                         static_cast<ReportCode>(i), false});
    return compileRuleset(rules, "svc_chains");
}

/**
 * 'b' every 512 symbols, 'c' runs between: frequent enough that the
 * partitioner keeps 'b' as the boundary symbol (range = one flow per
 * rule), long enough that no chain is cut short by the next 'b'.
 */
InputTrace
buildTrace(std::uint64_t len)
{
    std::string text;
    text.reserve(len);
    while (text.size() < len) {
        text += 'b';
        text.append(std::min<std::size_t>(511, len - text.size()), 'c');
    }
    return InputTrace::fromString(text);
}

struct Row
{
    std::string label; // row identity for bench_compare.py
    std::uint32_t capacity = 0;
    double speedup = 0.0;
    Cycles papCycles = 0;
    std::uint64_t evictions = 0;
    std::uint64_t reuploads = 0;
    double hitRate = 1.0;
    Cycles reuploadCycles = 0;
    bool capped = false;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs_session("svc_sensitivity");
    bench::printHeader(
        "SVC sensitivity: live-cache capacity",
        "Section 3.2 State Vector Cache overflow");

    const char *out_path = argc > 1 ? argv[1] : "BENCH_svc.json";
    // The flow-death transient of a >512-flow segment costs tens of
    // thousands of cycles at any capacity; the trace must be long
    // relative to it or the golden cap flattens every cell.
    const std::uint64_t len = bench::largeTraceLen();

    const Nfa nfa = buildChains();
    const PreparedAutomaton automaton(nfa);
    const InputTrace input = buildTrace(len);

    PapOptions opt;
    opt.threads = bench::hostThreads();
    // One flow per rule: component merging would pack the independent
    // chains into a single flow and hide the SVC pressure this bench
    // exists to measure.
    opt.enableCcMerging = false;

    const std::uint32_t capacities[] = {64, 128, 256, 384, 512};

    std::vector<Row> rows;
    std::vector<ReportEvent> ref_reports;
    bool identical = true;
    std::uint32_t plan_flows = 0;

    std::printf("workload: %u chain rules, %llu-symbol trace\n\n",
                kRules, static_cast<unsigned long long>(len));

    for (const std::uint32_t capacity : capacities) {
        ApConfig cfg = ApConfig::d480(1);
        cfg.svcEntriesPerDevice = capacity;
        const PapResult r = runPap(automaton, input, cfg, opt);
        if (!r.status.ok() || !r.verified) {
            std::fprintf(stderr, "FAIL: run did not verify (%s)\n",
                         r.status.ok() ? "divergence"
                                       : r.status.toString().c_str());
            identical = false;
        }
        if (ref_reports.empty())
            ref_reports = r.reports;
        else if (r.reports != ref_reports) {
            identical = false;
            std::fprintf(stderr, "FAIL: reports differ at c%u\n",
                         capacity);
        }
        plan_flows = std::max(plan_flows, r.maxFlowsPerSegment);

        Row row;
        row.capacity = capacity;
        // The "evict-cost" prefix keeps the labels of earlier
        // baselines, so bench_compare.py still matches the rows.
        row.label = "evict-cost-c" + std::to_string(capacity);
        row.speedup = r.speedup;
        row.papCycles = r.papCycles;
        row.evictions = r.svcEvictions;
        row.reuploads = r.svcReuploads;
        row.hitRate = r.svcHitRate;
        row.reuploadCycles = r.svcReuploadCycles;
        row.capped = r.goldenCapped;
        rows.push_back(row);
        std::printf("  %-18s  %8.3fx  %7llu ev  %7llu re  hit %.3f%s\n",
                    row.label.c_str(), row.speedup,
                    static_cast<unsigned long long>(row.evictions),
                    static_cast<unsigned long long>(row.reuploads),
                    row.hitRate, row.capped ? "  [golden-capped]" : "");
    }

    // --- Acceptance checks -------------------------------------------
    bool ok = identical;
    if (plan_flows <= 512) {
        std::fprintf(stderr,
                     "FAIL: workload plans only %u flows per segment; "
                     "the sweep never overflows the native SVC\n",
                     plan_flows);
        ok = false;
    }
    double prev = 0.0;
    for (const Row &r : rows) {
        if (r.speedup + 1e-9 < prev) {
            std::fprintf(stderr,
                         "FAIL: capacity curve dips at c%u (%.3fx after "
                         "%.3fx)\n",
                         r.capacity, r.speedup, prev);
            ok = false;
        }
        prev = r.speedup;
    }
    std::printf("\n%u flows per enumeration segment; reports %s; "
                "%.3fx at capacity 512\n",
                plan_flows,
                identical ? "byte-identical across all cells"
                          : "DIVERGED",
                rows.back().speedup);

    std::FILE *f = std::fopen(out_path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(f, "{\n");
    bench::writeMetaHeader(f, "svc_sensitivity");
    std::fprintf(f, "  \"trace_symbols\": %llu,\n",
                 static_cast<unsigned long long>(len));
    std::fprintf(f, "  \"rules\": %u,\n", kRules);
    std::fprintf(f, "  \"flows_per_segment\": %u,\n", plan_flows);
    std::fprintf(f, "  \"reports_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(
            f,
            "    {\"label\": \"%s\", \"capacity\": %u, "
            "\"speedup\": %.4f, \"pap_cycles\": %llu, "
            "\"svc_evictions\": %llu, "
            "\"svc_reuploads\": %llu, \"svc_hit_rate\": %.4f, "
            "\"svc_reupload_cycles\": %llu, "
            "\"golden_capped\": %s}%s\n",
            r.label.c_str(), r.capacity, r.speedup,
            static_cast<unsigned long long>(r.papCycles),
            static_cast<unsigned long long>(r.evictions),
            static_cast<unsigned long long>(r.reuploads), r.hitRate,
            static_cast<unsigned long long>(r.reuploadCycles),
            r.capped ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
    return ok ? 0 : 1;
}
