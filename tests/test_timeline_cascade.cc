/**
 * @file
 * Quantitative tests of the cross-segment FIV cascade (Figure 6 of
 * the paper): the pipeline effect when every segment's false flows
 * die only once the previous segment's truth arrives, and the
 * steady-state spacing this induces.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ap/ap_config.h"
#include "pap/timeline.h"

namespace pap {
namespace {

const ApConfig kConfig;

/** When the last segment resolved: the completion before the cap. */
Cycles
completion(const TimelineResult &r)
{
    return *std::max_element(r.tResolve.begin(), r.tResolve.end());
}

/** A segment with one true and @p false_flows immortal false flows. */
SegmentTimingInput
cascadeSegment(std::uint64_t len, std::uint32_t false_flows)
{
    SegmentTimingInput seg;
    seg.segLen = len;
    seg.hasEnumFlows = true;
    seg.aliveEnumFlowsAtEnd = 1 + false_flows;
    seg.flows.push_back(FlowTimingInfo{FlowKind::Asg, len, true});
    seg.flows.push_back(FlowTimingInfo{FlowKind::Enum, len, true});
    for (std::uint32_t i = 0; i < false_flows; ++i)
        seg.flows.push_back(FlowTimingInfo{FlowKind::Enum, len, false});
    return seg;
}

TEST(TimelineCascade, FivPipelinesAcrossSegments)
{
    PapOptions opt;
    opt.tdmQuantum = 100;

    const std::uint64_t len = 100000;
    std::vector<SegmentTimingInput> segs;
    SegmentTimingInput golden;
    golden.segLen = len;
    golden.flows.push_back(FlowTimingInfo{FlowKind::Golden, len, true});
    segs.push_back(golden);
    for (int j = 0; j < 6; ++j)
        segs.push_back(cascadeSegment(len, /*false_flows=*/8));

    const TimelineResult r = simulateTimeline(
        segs, len * segs.size(), opt, kConfig);

    // Segment 0 finishes at len; every later segment receives its FIV
    // shortly after the previous one resolves, drops from 10 flows to
    // 2, and finishes a roughly constant delta later: the pipeline of
    // Figure 6. The deltas must be far below the 10x slowdown a
    // cascade-free run would show, and roughly equal in steady state.
    ASSERT_EQ(r.tDone.size(), segs.size());
    std::vector<double> deltas;
    for (std::size_t j = 2; j < segs.size(); ++j)
        deltas.push_back(static_cast<double>(r.tDone[j]) -
                         static_cast<double>(r.tDone[j - 1]));
    for (const double d : deltas) {
        EXPECT_GT(d, 0.0);
        EXPECT_LT(d, 3.0 * static_cast<double>(len));
    }
    // The cascade accelerates: each segment receives its FIV earlier
    // relative to its own progress, so the deltas shrink monotonically.
    for (std::size_t i = 1; i < deltas.size(); ++i)
        EXPECT_LT(deltas[i], deltas[i - 1]);

    // Each segment resolves once its vector uploaded and its
    // predecessor resolved, plus the decode of its 9 live flows.
    const Cycles upload = kConfig.timing.stateVectorUploadCycles;
    EXPECT_EQ(r.tResolve[0], r.tDone[0] + upload);
    for (std::size_t j = 1; j < segs.size(); ++j)
        EXPECT_EQ(r.tResolve[j],
                  std::max(r.tDone[j] + upload, r.tResolve[j - 1]) +
                      kDecodeBaseCycles + 9u * kDecodePerFlowCycles)
            << "segment " << j;

    // And the cascade beats the no-FIV run.
    PapOptions no_fiv = opt;
    no_fiv.enableFiv = false;
    const TimelineResult r2 = simulateTimeline(
        segs, len * segs.size(), no_fiv, kConfig);
    EXPECT_GT(completion(r2), completion(r));
}

TEST(TimelineCascade, FirstSegmentAnchorsTheChain)
{
    PapOptions opt;
    opt.tdmQuantum = 100;

    const std::uint64_t len = 50000;
    std::vector<SegmentTimingInput> segs;
    SegmentTimingInput golden;
    golden.segLen = len;
    golden.flows.push_back(FlowTimingInfo{FlowKind::Golden, len, true});
    segs.push_back(golden);
    segs.push_back(cascadeSegment(len, 4));

    const TimelineResult r =
        simulateTimeline(segs, 2 * len, opt, kConfig);
    // Segment 1's FIV cannot arrive before segment 0 resolved:
    // t_done[0] + upload + fivDownload (a golden segment decodes
    // nothing).
    const Cycles fiv_min = r.tDone[0] +
                           kConfig.timing.stateVectorUploadCycles +
                           kConfig.timing.fivDownloadCycles;
    // Before the FIV, segment 1 runs 6 flows; it cannot have finished
    // earlier than the FIV arrival implies.
    EXPECT_GT(r.tDone[1], fiv_min);
    EXPECT_LT(r.tDone[1], 6 * len); // but far better than no-FIV
    // Its own upload, then the decode of its 5 live flows.
    EXPECT_EQ(r.tResolve[1],
              r.tDone[1] + kConfig.timing.stateVectorUploadCycles +
                  kDecodeBaseCycles + 5u * kDecodePerFlowCycles);
}

TEST(TimelineCascade, AllFalseFlowsSegmentIdlesAfterFiv)
{
    PapOptions opt;
    opt.tdmQuantum = 100;
    const std::uint64_t len = 50000;

    std::vector<SegmentTimingInput> segs;
    SegmentTimingInput golden;
    golden.segLen = len;
    golden.flows.push_back(FlowTimingInfo{FlowKind::Golden, len, true});
    segs.push_back(golden);
    // No ASG, no true flow: everything dies at the FIV.
    SegmentTimingInput dead;
    dead.segLen = len;
    dead.hasEnumFlows = true;
    dead.aliveEnumFlowsAtEnd = 0;
    for (int i = 0; i < 4; ++i)
        dead.flows.push_back(FlowTimingInfo{FlowKind::Enum, len, false});
    segs.push_back(dead);

    const TimelineResult r =
        simulateTimeline(segs, 2 * len, opt, kConfig);
    // After the FIV kill the half-core idles to segment end; the
    // timeline must terminate (no livelock) with a finite t_done.
    EXPECT_GT(r.tDone[1], 0u);
    EXPECT_LT(r.tDone[1], 5 * len);
}

} // namespace
} // namespace pap
