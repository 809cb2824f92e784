/**
 * @file
 * Multi-user stream multiplexing — the original purpose of AP flows
 * (Section 3.2: "AP's flows allow multiple users to time multiplex
 * the AP for independent input streams"). Each independent input
 * stream becomes one flow on a half-core; the State Vector Cache
 * context-switches between them every TDM quantum at the 3-cycle
 * flow-switch cost. PAP repurposes this machinery for enumeration;
 * this module models the machinery in its advertised role, including
 * the throughput cost of sharing.
 */

#ifndef PAP_PAP_MULTISTREAM_H
#define PAP_PAP_MULTISTREAM_H

#include <cstdint>
#include <vector>

#include "ap/ap_config.h"
#include "common/error.h"
#include "engine/report.h"
#include "engine/trace.h"
#include "nfa/nfa.h"
#include "pap/options.h"

namespace pap {

/** Outcome of multiplexing independent streams on one half-core. */
struct MultiStreamResult
{
    /** Cycles until the last stream finished. */
    Cycles totalCycles = 0;
    /** Context-switch cycles spent. */
    Cycles switchCycles = 0;
    /** Completion time of each stream (same order as the input). */
    std::vector<Cycles> streamDone;
    /** Report events per stream (offsets are stream-local). */
    std::vector<std::vector<ReportEvent>> reports;
    /**
     * totalCycles relative to running the streams back to back
     * (1.0 + switching overhead; round-robin adds no symbol work).
     */
    double overheadRatio = 1.0;
    /**
     * InvalidInput when checkOptions refuses the options, or
     * CapacityExceeded when more streams were given than the State
     * Vector Cache holds contexts (nothing executes in either case).
     */
    Status status;
    /** Host threads the functional execution ran on. */
    std::uint32_t threadsUsed = 1;
};

/**
 * Run each stream of @p streams as an independent flow over @p nfa on
 * one simulated half-core, round-robin with the TDM quantum and
 * flow-switch cost of @p options. Each stream's reports are those of
 * runSequential over it: the flow is that run. A stream count beyond
 * the State Vector Cache of @p config yields a CapacityExceeded
 * status.
 */
MultiStreamResult runMultiStream(const Nfa &nfa,
                                 const std::vector<InputTrace> &streams,
                                 const ApConfig &config,
                                 const PapOptions &options = {});

} // namespace pap

#endif // PAP_PAP_MULTISTREAM_H
