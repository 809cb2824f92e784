/**
 * @file
 * Runner edge cases and diagnostics: segment-count capping on short
 * inputs, per-segment diagnostics consistency, boundary-symbol
 * reporting, sequential fallback, and option plumbing.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <string>

#include "ap/ap_config.h"
#include "common/rng.h"
#include "nfa/glushkov.h"
#include "obs/metrics.h"
#include "pap/runner.h"
#include "workload_helpers.h"

namespace pap {
namespace {

ApConfig
tinyBoard(std::uint32_t half_cores)
{
    ApConfig cfg = ApConfig::d480(1);
    cfg.devicesPerRank = half_cores;
    cfg.halfCoresPerDevice = 1;
    return cfg;
}

TEST(RunnerEdges, ShortInputCapsSegmentCount)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    PapOptions opt;
    opt.tdmQuantum = 125;
    // 600 symbols / (2 x 125) = 2 segments even on a 16-half-core
    // board.
    Rng rng(81);
    const InputTrace input = randomTextTrace(rng, 600, "ab ");
    const PapResult r = runPap(nfa, input, tinyBoard(16), opt);
    EXPECT_EQ(r.numSegments, 2u);
    EXPECT_TRUE(r.verified);
}

TEST(RunnerEdges, VeryShortInputFallsBackToSequential)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    const InputTrace input = InputTrace::fromString("ababab");
    const PapResult r = runPap(nfa, input, tinyBoard(16));
    EXPECT_EQ(r.numSegments, 1u);
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);
    EXPECT_TRUE(r.verified);
    ASSERT_EQ(r.reports.size(), 3u);
}

TEST(RunnerEdges, SegmentDiagnosticsAreConsistent)
{
    Rng rng(82);
    const Nfa nfa = compileRuleset(
        {{"abc.*de", 1}, {"fgh", 2}, {"aab", 3}}, "m");
    const InputTrace input =
        randomTextTrace(rng, 16384, "abcdefgh ");
    const PapResult r = runPap(nfa, input, tinyBoard(8));
    ASSERT_EQ(r.segments.size(), r.numSegments);

    std::uint64_t covered = 0;
    std::uint64_t entries = 0;
    for (std::size_t j = 0; j < r.segments.size(); ++j) {
        const auto &d = r.segments[j];
        EXPECT_EQ(d.begin, covered);
        covered += d.length;
        entries += d.entries;
        // Flow outcomes partition the planned flows (+1 ASG flow is
        // not an enumeration flow and is excluded from all counters).
        EXPECT_EQ(d.deactivated + d.converged + d.ranToEnd, d.flows)
            << "segment " << j;
        EXPECT_LE(d.truePaths, d.totalPaths);
        EXPECT_LE(d.tDone, d.tResolve);
        if (j == 0) {
            EXPECT_EQ(d.flows, 0u); // golden segment
            EXPECT_EQ(d.totalPaths, 0u);
        }
    }
    EXPECT_EQ(covered, input.size());
    EXPECT_EQ(entries, r.papReportEvents);
}

TEST(RunnerEdges, MetricsRegistryMatchesResultDiagnostics)
{
    Rng rng(84);
    const Nfa nfa = compileRuleset(
        {{"abc.*de", 1}, {"fgh", 2}, {"aab", 3}}, "m");
    const InputTrace input =
        randomTextTrace(rng, 16384, "abcdefgh ");
    obs::metrics().clear();
    const PapResult r = runPap(nfa, input, tinyBoard(8));

    obs::MetricsRegistry &m = obs::metrics();
    EXPECT_EQ(m.counter("runner.runs"), 1u);
    EXPECT_EQ(m.counter("runner.segments"), r.segments.size());
    EXPECT_EQ(m.counter("runner.report_events.pap"),
              r.papReportEvents);
    EXPECT_EQ(m.counter("runner.report_events.sequential"),
              r.seqReportEvents);
    EXPECT_EQ(m.counter("runner.context_switches"),
              r.contextSwitches);

    // Per-segment histograms sample each segment exactly once, and the
    // flow counters sum what the diagnostics hold.
    std::uint64_t flows = 0, deactivated = 0, converged = 0,
                  ran_to_end = 0, entries = 0;
    for (const auto &d : r.segments) {
        flows += d.flows;
        deactivated += d.deactivated;
        converged += d.converged;
        ran_to_end += d.ranToEnd;
        entries += d.entries;
    }
    const obs::HistogramSnapshot seg_flows =
        m.histogram("runner.segment.flows");
    EXPECT_EQ(seg_flows.count, r.segments.size());
    EXPECT_DOUBLE_EQ(seg_flows.sum, static_cast<double>(flows));
    EXPECT_EQ(m.counter("runner.flows.planned"), flows);
    EXPECT_EQ(m.counter("runner.flows.deactivated"), deactivated);
    EXPECT_EQ(m.counter("runner.flows.converged"), converged);
    EXPECT_EQ(m.counter("runner.flows.ran_to_end"), ran_to_end);
    const obs::HistogramSnapshot seg_entries =
        m.histogram("runner.segment.entries");
    EXPECT_EQ(seg_entries.count, r.segments.size());
    EXPECT_DOUBLE_EQ(seg_entries.sum, static_cast<double>(entries));
    EXPECT_EQ(m.histogram("runner.segment.length").count,
              r.segments.size());
    EXPECT_EQ(m.histogram("runner.segment.tdone_cycles").count,
              r.segments.size());
    EXPECT_EQ(m.histogram("runner.segment.tresolve_cycles").count,
              r.segments.size());

    EXPECT_DOUBLE_EQ(m.gauge("runner.speedup"), r.speedup);
    EXPECT_DOUBLE_EQ(m.gauge("runner.pap_cycles"),
                     static_cast<double>(r.papCycles));
    EXPECT_DOUBLE_EQ(m.gauge("runner.baseline_cycles"),
                     static_cast<double>(r.baselineCycles));
    obs::metrics().clear();
}

TEST(RunnerEdges, BoundaryProfileReported)
{
    const Nfa nfa = compileRuleset({{"abc", 1}}, "m");
    // 'z' never appears in a label: range 0; make it frequent.
    std::string text;
    for (int i = 0; i < 8000; ++i)
        text += (i % 5 == 4) ? 'z' : "abc"[i % 3];
    const InputTrace input = InputTrace::fromString(text);
    const PapResult r = runPap(nfa, input, tinyBoard(8));
    // Both 'z' (absent from all labels) and 'c' (the final state has
    // no successors) have range 0; frequency breaks the tie.
    EXPECT_TRUE(r.boundarySymbol == 'z' || r.boundarySymbol == 'c');
    EXPECT_EQ(r.boundaryRangeSize, 0u);
    EXPECT_TRUE(r.verified);
}

/** Distinct boundary symbols (the symbol before each segment cut). */
std::set<Symbol>
boundarySymbols(const PapResult &r, const InputTrace &input)
{
    std::set<Symbol> out;
    for (std::size_t j = 1; j < r.segments.size(); ++j)
        out.insert(input[r.segments[j].begin - 1]);
    return out;
}

TEST(RunnerEdges, BuildsOnePlanPerDistinctBoundarySymbol)
{
    Rng rng(85);
    const Nfa nfa = compileRuleset(
        {{"abc.*de", 1}, {"fgh", 2}, {"aab", 3}}, "m");
    const InputTrace input =
        randomTextTrace(rng, 16384, "abcdefgh ");
    const std::uint64_t before =
        obs::metrics().counter("runner.plans.built");
    const PapResult r = runPap(nfa, input, tinyBoard(16));
    ASSERT_TRUE(r.verified);
    ASSERT_GT(r.segments.size(), 2u);
    EXPECT_EQ(obs::metrics().counter("runner.plans.built") - before,
              boundarySymbols(r, input).size());
}

TEST(RunnerEdges, SingleSymbolPartitionBuildsOnePlan)
{
    // Range-guided partitioning cuts every segment after the same
    // frequent small-range symbol: sixteen segments share one plan.
    const Nfa nfa = compileRuleset({{"abc", 1}, {"b.*ca", 2}}, "m");
    std::string text;
    for (int i = 0; i < 16000; ++i)
        text += (i % 5 == 4) ? 'z' : "abc"[i % 3];
    const InputTrace input = InputTrace::fromString(text);
    const std::uint64_t before =
        obs::metrics().counter("runner.plans.built");
    const PapResult r = runPap(nfa, input, tinyBoard(16));
    ASSERT_TRUE(r.verified);
    EXPECT_EQ(r.segments.size(), 16u);
    EXPECT_EQ(boundarySymbols(r, input),
              std::set<Symbol>{r.boundarySymbol});
    EXPECT_EQ(obs::metrics().counter("runner.plans.built") - before, 1u);
}

TEST(RunnerEdges, ReportCostAffectsBaseline)
{
    const Nfa nfa = compileRuleset({{"a", 1}}, "m");
    const InputTrace input =
        InputTrace::fromString(std::string(5000, 'a'));
    PapOptions cheap, pricey;
    cheap.reportCostCyclesPerEvent = 0.0;
    pricey.reportCostCyclesPerEvent = 2.0;
    const auto seq_cheap = runSequential(nfa, input, cheap);
    const auto seq_pricey = runSequential(nfa, input, pricey);
    EXPECT_EQ(seq_cheap.cycles, 5000u);
    EXPECT_EQ(seq_pricey.cycles, 5000u + 10000u);
    EXPECT_EQ(seq_cheap.reports.size(), 5000u);
}

TEST(RunnerEdges, MaxFlowsLimitDegradesToSequential)
{
    // Limit of 1 flow per segment: a two-star single-component rule
    // needs 2. Under the default policy the run degrades to the
    // golden sequential result instead of dying.
    const Nfa nfa = compileRuleset({{"ab.*cd.*ef", 1}}, "m");
    Rng rng(83);
    const InputTrace input = randomTextTrace(rng, 8192, "abcdef");
    PapOptions opt;
    opt.maxFlowsPerSegment = 1;
    const PapResult r = runPap(nfa, input, tinyBoard(4), opt);
    EXPECT_TRUE(r.status.ok());
    EXPECT_TRUE(r.degraded);
    EXPECT_TRUE(r.verified);
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);
    const SequentialResult seq = runSequential(nfa, input, opt);
    EXPECT_EQ(r.reports, seq.reports);
}

TEST(RunnerEdges, MaxFlowsLimitFailsWhenAskedTo)
{
    const Nfa nfa = compileRuleset({{"ab.*cd.*ef", 1}}, "m");
    Rng rng(83);
    const InputTrace input = randomTextTrace(rng, 8192, "abcdef");
    PapOptions opt;
    opt.maxFlowsPerSegment = 1;
    opt.overflowPolicy = OverflowPolicy::Fail;
    const PapResult r = runPap(nfa, input, tinyBoard(4), opt);
    EXPECT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), ErrorCode::CapacityExceeded);
    EXPECT_FALSE(r.verified);
    EXPECT_TRUE(r.reports.empty());
}

} // namespace
} // namespace pap
