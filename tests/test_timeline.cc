/**
 * @file
 * Timeline (cycle-accounting) model tests: single-flow segments pay
 * no switches, TDM cost accounting, FIV kills of false flows, the
 * Tcpu skip rules, drain costs, the golden-execution cap, and the
 * sequential baseline the cap and the speedup divide by.
 */

#include <gtest/gtest.h>

#include "ap/ap_config.h"
#include "nfa/glushkov.h"
#include "pap/runner.h"
#include "pap/timeline.h"

namespace pap {
namespace {

SegmentTimingInput
segment(std::uint64_t len,
        std::initializer_list<FlowTimingInfo> flows,
        std::uint64_t entries = 0, std::uint32_t alive = 0)
{
    SegmentTimingInput seg;
    seg.segLen = len;
    seg.flows = flows;
    seg.totalEntries = entries;
    seg.aliveEnumFlowsAtEnd = alive;
    for (const auto &f : seg.flows)
        if (f.kind == FlowKind::Enum)
            seg.hasEnumFlows = true;
    return seg;
}

FlowTimingInfo
flow(FlowKind kind, std::uint64_t symbols, bool is_true = true)
{
    return FlowTimingInfo{kind, symbols, is_true};
}

const ApConfig kConfig;

TEST(Timeline, SingleGoldenSegmentHasNoOverhead)
{
    PapOptions opt;
    const std::vector<SegmentTimingInput> segs = {
        segment(1000, {flow(FlowKind::Golden, 1000)})};
    const TimelineResult r = simulateTimeline(segs, 1000, opt, kConfig);
    EXPECT_EQ(r.tDone[0], 1000u);
    EXPECT_EQ(r.switchCycles, 0u);
    EXPECT_EQ(r.papCycles, 1000u); // no enum flows anywhere: no tcpu
    EXPECT_EQ(r.tcpuCycles[0], 0u);
}

TEST(Timeline, TwoFlowsPaySwitches)
{
    PapOptions opt;
    opt.tdmQuantum = 100;
    const std::vector<SegmentTimingInput> segs = {
        segment(1000, {flow(FlowKind::Golden, 1000)}),
        segment(1000, {flow(FlowKind::Asg, 1000),
                       flow(FlowKind::Enum, 1000)},
                0, 1)};
    const TimelineResult r = simulateTimeline(segs, 2000, opt, kConfig);
    // Segment 1: 10 rounds x (2 flows x 100 syms + 2 x 3 switch).
    EXPECT_EQ(r.tDone[1], 2000u + 60u);
    EXPECT_EQ(r.switchCycles, 60u);
}

TEST(Timeline, DeadFlowStopsCosting)
{
    PapOptions opt;
    opt.tdmQuantum = 100;
    const std::vector<SegmentTimingInput> segs = {
        segment(1000, {flow(FlowKind::Golden, 1000)}),
        segment(1000, {flow(FlowKind::Asg, 1000),
                       flow(FlowKind::Enum, 200)})};
    const TimelineResult r = simulateTimeline(segs, 2000, opt, kConfig);
    // Enum flow contributes 200 symbols + switches for 2 rounds.
    EXPECT_EQ(r.tDone[1], 1000u + 200u + 2u * 2u * 3u);
}

TEST(Timeline, FivKillsFalseFlows)
{
    PapOptions opt;
    opt.tdmQuantum = 100;
    opt.decodeBaseCycles = 0;
    opt.decodePerFlowCycles = 0;

    // Segment 0 finishes at 1000; FIV reaches segment 1 at
    // 1000 + 1668 (upload) + 15 (download).
    const std::vector<SegmentTimingInput> segs = {
        segment(10000, {flow(FlowKind::Golden, 10000)}),
        segment(10000, {flow(FlowKind::Asg, 10000),
                        flow(FlowKind::Enum, 10000, /*true*/ true),
                        flow(FlowKind::Enum, 10000, /*true*/ false)},
                0, 2)};

    TimelineResult with = simulateTimeline(segs, 20000, opt, kConfig);
    PapOptions no_fiv = opt;
    no_fiv.enableFiv = false;
    TimelineResult without = simulateTimeline(segs, 20000, no_fiv, kConfig);
    EXPECT_LT(with.tDone[1], without.tDone[1]);
    // Without FIV: 3 flows all the way: 30000 + 300 rounds... exactly
    // 100 rounds x (300 + 9).
    EXPECT_EQ(without.tDone[1], 100u * 309u);
}

TEST(Timeline, TrueFlowsSurviveFiv)
{
    PapOptions opt;
    opt.tdmQuantum = 100;
    const std::vector<SegmentTimingInput> segs = {
        segment(5000, {flow(FlowKind::Golden, 5000)}),
        segment(5000, {flow(FlowKind::Enum, 5000, true)})};
    const TimelineResult r = simulateTimeline(segs, 10000, opt, kConfig);
    // The single (true) enum flow runs to completion; one flow means
    // no switch cost either.
    EXPECT_EQ(r.tDone[1], 5000u);
}

TEST(Timeline, TcpuSkippedWithoutEnumFlows)
{
    PapOptions opt;
    const std::vector<SegmentTimingInput> segs = {
        segment(1000, {flow(FlowKind::Golden, 1000)}),
        segment(1000, {flow(FlowKind::Asg, 1000)}),
        segment(1000, {flow(FlowKind::Asg, 1000)})};
    const TimelineResult r = simulateTimeline(segs, 3000, opt, kConfig);
    for (const auto tcpu : r.tcpuCycles)
        EXPECT_EQ(tcpu, 0u);
    EXPECT_EQ(r.papCycles, 1000u);
}

TEST(Timeline, UploadChargedWhenNextSegmentNeedsT)
{
    PapOptions opt;
    const std::vector<SegmentTimingInput> segs = {
        segment(1000, {flow(FlowKind::Golden, 1000)}),
        segment(1000, {flow(FlowKind::Asg, 1000),
                       flow(FlowKind::Enum, 48)},
                0, 0)};
    const TimelineResult r = simulateTimeline(segs, 2000, opt, kConfig);
    // Segment 0 pays the upload (segment 1 needs its T)...
    EXPECT_EQ(r.tcpuCycles[0], kConfig.timing.stateVectorUploadCycles);
    // ...and segment 1 pays upload (it has enum flows) but no
    // per-flow decode since nothing survived to segment end.
    EXPECT_EQ(r.tcpuCycles[1], kConfig.timing.stateVectorUploadCycles +
                                   opt.decodeBaseCycles);
}

TEST(Timeline, DecodeChainsSeriallyButUploadsOverlap)
{
    PapOptions opt;
    opt.decodeBaseCycles = 50;
    opt.decodePerFlowCycles = 0;
    std::vector<SegmentTimingInput> segs;
    segs.push_back(segment(1000, {flow(FlowKind::Golden, 1000)}));
    for (int j = 0; j < 4; ++j)
        segs.push_back(segment(
            1000, {flow(FlowKind::Enum, 1000, true)}, 0, 1));
    const TimelineResult r =
        simulateTimeline(segs, 5000, opt, kConfig);
    // All segments finish at 1000; uploads overlap; decodes chain:
    // truth_j = 1000 + 1668 + 50 * (j) ... segment 0 truth at
    // 1000+1668, then +50 per enumeration segment.
    EXPECT_EQ(r.tResolve.back(),
              1000u + kConfig.timing.stateVectorUploadCycles + 4u * 50u);
}

TEST(Timeline, DrainAddsReportCost)
{
    PapOptions opt;
    opt.reportCostCyclesPerEvent = 0.5;
    opt.applyGoldenCap = false; // pap drain exceeds baseline here
    const std::vector<SegmentTimingInput> segs = {
        segment(1000, {flow(FlowKind::Golden, 1000)}, /*entries=*/200)};
    const TimelineResult r = simulateTimeline(segs, 1050, opt, kConfig);
    EXPECT_EQ(r.papCycles, 1000u + 100u);
    EXPECT_DOUBLE_EQ(r.speedup, 1050.0 / 1100.0);
}

TEST(Timeline, SequentialBaselineChargesEveryEntry)
{
    // 1000 symbols, every tenth an 'a': 100 reports, each charged
    // half a cycle of host processing on top of one cycle per symbol.
    PapOptions opt;
    opt.reportCostCyclesPerEvent = 0.5;
    std::string text(1000, 'b');
    for (std::size_t i = 0; i < text.size(); i += 10)
        text[i] = 'a';
    const SequentialResult seq =
        runSequential(compileRuleset({{"a", 1}}, "a"),
                      InputTrace::fromString(text), opt);
    EXPECT_EQ(seq.entries, 100u);
    EXPECT_EQ(seq.reports.size(), 100u);
    EXPECT_EQ(seq.cycles, 1000u + 50u);
}

TEST(Timeline, GoldenCapBoundsSpeedupAtOne)
{
    PapOptions opt;
    opt.tdmQuantum = 100;
    // A pathological segment with 50 immortal flows.
    std::vector<FlowTimingInfo> flows;
    for (int i = 0; i < 50; ++i)
        flows.push_back(flow(FlowKind::Enum, 1000, true));
    SegmentTimingInput heavy;
    heavy.segLen = 1000;
    heavy.flows = flows;
    heavy.hasEnumFlows = true;
    heavy.aliveEnumFlowsAtEnd = 50;
    const std::vector<SegmentTimingInput> segs = {
        segment(1000, {flow(FlowKind::Golden, 1000)}), heavy};

    const TimelineResult r = simulateTimeline(segs, 2000, opt, kConfig);
    EXPECT_TRUE(r.goldenCapped);
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);

    PapOptions uncapped = opt;
    uncapped.applyGoldenCap = false;
    const TimelineResult r2 = simulateTimeline(segs, 2000, uncapped, kConfig);
    EXPECT_LT(r2.speedup, 1.0);
}

TEST(Timeline, AvgActiveFlowsWeightsRounds)
{
    PapOptions opt;
    opt.tdmQuantum = 500;
    const std::vector<SegmentTimingInput> segs = {
        segment(1000, {flow(FlowKind::Golden, 1000)}),
        segment(1000, {flow(FlowKind::Asg, 1000),
                       flow(FlowKind::Enum, 500, true)})};
    const TimelineResult r = simulateTimeline(segs, 2000, opt, kConfig);
    // Rounds: seg0 2x1 flow; seg1 round0 2 flows, round1 1 flow.
    EXPECT_DOUBLE_EQ(r.avgActiveFlows, (1 + 1 + 2 + 1) / 4.0);
}

} // namespace
} // namespace pap
