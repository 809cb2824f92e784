/**
 * @file
 * Cycle-accounting model of a PAP run (Sections 3.4, 4.2 and 5 of the
 * paper). All segments start at wall-clock zero on their own
 * half-cores. A segment's rounds cost (live flows x (quantum + context
 * switch)); a single live flow pays no switch. When segment j-1 is
 * resolved at the host (state-vector upload + decode = Tcpu), a Flow
 * Invalidation Vector reaches segment j fifteen cycles later and kills
 * its false flows at the next round boundary; Tcpu is thereby
 * overlapped with the next segment's execution. The golden-execution
 * policy caps the parallel time at the sequential baseline.
 */

#ifndef PAP_PAP_TIMELINE_H
#define PAP_PAP_TIMELINE_H

#include <cstdint>
#include <vector>

#include "ap/ap_config.h"
#include "ap/state_vector_cache.h"
#include "pap/options.h"
#include "pap/segment_sim.h"

namespace pap {

/** Timing-relevant facts about one flow of one segment. */
struct FlowTimingInfo
{
    FlowKind kind = FlowKind::Enum;
    /** Local symbols the flow processed (check-boundary rounded). */
    std::uint64_t symbolsProcessed = 0;
    /** False flows are killed when the FIV arrives. */
    bool isTrue = true;
};

/** Timing-relevant facts about one segment. */
struct SegmentTimingInput
{
    std::uint64_t segLen = 0;
    std::vector<FlowTimingInfo> flows;
    /** Output-buffer entries the segment produced (drain cost). */
    std::uint64_t totalEntries = 0;
    /** Enumeration flows alive at segment end (decode cost). */
    std::uint32_t aliveEnumFlowsAtEnd = 0;
    /**
     * True when the segment ran any enumeration flows. Segments
     * without them (tiny ranges) need no truth from their predecessor
     * and no false-path decode: their reports are final at t_done.
     */
    bool hasEnumFlows = false;
};

/** Outcome of the timeline simulation. */
struct TimelineResult
{
    Cycles papCycles = 0;
    double speedup = 1.0;
    /** True when the golden-execution cap engaged. */
    bool goldenCapped = false;
    /** Per segment: symbol processing finished. */
    std::vector<Cycles> tDone;
    /** Per segment: truth resolved at the host. */
    std::vector<Cycles> tResolve;
    /** Per segment: Tcpu spent (upload + decode), Fig. 11. */
    std::vector<Cycles> tcpuCycles;
    /** Total context-switch cycles across all segments (Fig. 10). */
    Cycles switchCycles = 0;
    /** Total busy cycles (symbols + switches) across all flows. */
    Cycles busyCycles = 0;
    /** Cycles the live caches charged for context re-uploads. */
    Cycles svcReuploadCycles = 0;
    /**
     * Access counts of the per-segment live caches. Zero when every
     * segment fit the SVC: a fitting segment never evicts, so its
     * cache is not simulated.
     */
    SvcCounters svc;
    /** Round-weighted average of live flows (Fig. 9). */
    double avgActiveFlows = 0.0;
};

/**
 * Simulate the cross-segment timeline. A segment whose flows, the ASG
 * flow included, exceed svcCapacity(options, config) replays its flow
 * schedule through a live State Vector Cache: each TDM round looks up
 * every live flow's context, a miss on a previously evicted flow
 * stalls the half-core for the state-vector upload while the context
 * re-uploads, and flow deaths (deactivation, convergence merges, FIV
 * kills) release their entries, so merging directly relieves
 * admission pressure.
 * @param segments        per-segment timing inputs, in input order.
 * @param baseline_cycles the sequential run's cycles: the golden cap
 *                        and the speedup's numerator.
 */
TimelineResult simulateTimeline(
    const std::vector<SegmentTimingInput> &segments,
    Cycles baseline_cycles, const PapOptions &options,
    const ApConfig &config);

} // namespace pap

#endif // PAP_PAP_TIMELINE_H
