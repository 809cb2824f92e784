/**
 * @file
 * Timeline (cycle-accounting) model tests: single-flow segments pay
 * no switches, TDM cost accounting, FIV kills of false flows, the
 * Tcpu skip rules, drain costs, the golden-execution cap, and the
 * sequential baseline the cap and the speedup divide by.
 */

#include <gtest/gtest.h>

#include <algorithm>

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

    // Segment 0 (golden: no decode) finishes at 10000; the FIV reaches
    // segment 1 at 10000 + 1668 (upload) + 15 (download) = 11683.
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
    // With it: 38 rounds of 3 flows reach 11742 >= 11683, and the
    // false flow dies at that boundary; 62 rounds of 2 flows remain.
    EXPECT_EQ(with.tDone[1], 38u * 309u + 62u * (200u + 6u));
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
                                   kDecodeBaseCycles);
}

TEST(Timeline, DecodeChainsSeriallyButUploadsOverlap)
{
    PapOptions opt;
    std::vector<SegmentTimingInput> segs;
    segs.push_back(segment(1000, {flow(FlowKind::Golden, 1000)}));
    for (int j = 0; j < 4; ++j)
        segs.push_back(segment(
            1000, {flow(FlowKind::Enum, 1000, true)}, 0, 1));
    const TimelineResult r =
        simulateTimeline(segs, 5000, opt, kConfig);
    // All segments finish at 1000; uploads overlap; decodes chain:
    // segment 0's truth at 1000 + 1668, then one decode of one live
    // flow per enumeration segment.
    const Cycles decode = kDecodeBaseCycles + kDecodePerFlowCycles;
    EXPECT_EQ(decode, 34u);
    EXPECT_EQ(r.tResolve.back(),
              1000u + kConfig.timing.stateVectorUploadCycles +
                  4u * decode);
}

TEST(Timeline, DrainAddsReportCost)
{
    // 2,000 entries at kReportCostCyclesPerEvent (0.05) drain in 100
    // cycles after the segment's last symbol; the baseline does not
    // bind.
    PapOptions opt;
    const std::vector<SegmentTimingInput> segs = {
        segment(1000, {flow(FlowKind::Golden, 1000)}, /*entries=*/2000)};
    const TimelineResult r = simulateTimeline(segs, 1200, opt, kConfig);
    EXPECT_EQ(r.tResolve[0], 1000u + 100u);
    EXPECT_EQ(r.papCycles, 1000u + 100u);
    EXPECT_FALSE(r.goldenCapped);
    EXPECT_DOUBLE_EQ(r.speedup, 1200.0 / 1100.0);
}

TEST(Timeline, SequentialBaselineChargesEveryEntry)
{
    // 1000 symbols, every tenth an 'a': 100 reports, each charged
    // kReportCostCyclesPerEvent (0.05) of host processing on top of
    // one cycle per symbol.
    std::string text(1000, 'b');
    for (std::size_t i = 0; i < text.size(); i += 10)
        text[i] = 'a';
    const SequentialResult seq =
        runSequential(compileRuleset({{"a", 1}}, "a"),
                      InputTrace::fromString(text));
    EXPECT_EQ(seq.entries, 100u);
    EXPECT_EQ(seq.reports.size(), 100u);
    EXPECT_EQ(seq.cycles, 1000u + 5u);
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
    EXPECT_EQ(r.papCycles, 2000u);
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);

    // Uncapped, segment 1 would resolve far later: 10 rounds of 50
    // flows and 50 switches, the upload, and the decode of 50 flows.
    EXPECT_EQ(*std::max_element(r.tResolve.begin(), r.tResolve.end()),
              10u * (50u * 100u + 50u * 3u) +
                  kConfig.timing.stateVectorUploadCycles +
                  kDecodeBaseCycles + 50u * kDecodePerFlowCycles);
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
