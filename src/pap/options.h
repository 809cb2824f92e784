/**
 * @file
 * What a caller chooses about one Parallel Automata Processor run. The
 * paper's fixed costs live elsewhere: the flow switch on the board
 * (ApTiming), host decode and report costs as constants
 * (pap/timeline.h, pap/segment_sim.h).
 */

#ifndef PAP_PAP_OPTIONS_H
#define PAP_PAP_OPTIONS_H

#include <cstdint>
#include <string>

#include "common/error.h"
#include "common/types.h"

namespace pap {

class FaultInjector;

/**
 * The execution engine of a run's flows. FunctionalEngine is the only
 * engine, so this has one value; see PapOptions::engine.
 */
enum class EngineKind : std::uint8_t
{
    Sparse,
};

/**
 * What to do when a segment's flow plan, the ASG flow included, needs
 * more contexts than the State Vector Cache holds (512 entries per
 * device on the D480).
 */
enum class OverflowPolicy : std::uint8_t
{
    /**
     * Run the whole plan and let the timeline's live cache
     * (ap/state_vector_cache.h) evict: each restored context pays the
     * 1668-cycle state-vector re-upload. Timing-only: reports are
     * byte-identical at every capacity. The default.
     */
    Evict,
    /** Give up on parallelism: return the golden sequential result. */
    SequentialFallback,
    /** Fail the run with a CapacityExceeded status. */
    Fail,
};

/** Options of one PAP run. Every optimization can be ablated. */
struct PapOptions
{
    /**
     * Read by nothing: every flow runs FunctionalEngine. It stays only
     * because the benchmark of record (papbench/) still sets it; drop
     * it, and EngineKind, once a benchmark change removes those
     * assignments.
     */
    EngineKind engine = EngineKind::Sparse;

    /**
     * Symbols each flow processes before a context switch (the TDM
     * quantum k of Section 3.2). 125 symbols puts the worst-case
     * switching overhead at 3/(125+3) = 2.3%, matching the paper's
     * reported worst case (ClamAV, Fig. 10).
     */
    std::uint32_t tdmQuantum = 125;

    /** Merge enumeration paths of disjoint connected components. */
    bool enableCcMerging = true;

    /** One enumeration path per parent state instead of per range state. */
    bool enableParentMerging = true;

    /**
     * Exclude Active State Group states from enumeration paths (their
     * activity runs in the dedicated always-true ASG flow).
     */
    bool enableAsgMerging = true;

    /** Dynamic convergence checks between flows. */
    bool enableConvergenceChecks = true;

    /** Deactivation of empty flows (affects the timing model). */
    bool enableDeactivationChecks = true;

    /** Propagate Flow Invalidation Vectors between segments. */
    bool enableFiv = true;

    /**
     * Hard ceiling on enumeration flows per segment, far above any
     * realistic SVC pressure. Runs needing more are treated per
     * @c overflowPolicy: Fail returns CapacityExceeded, everything
     * else falls back to the golden sequential result (cycling a plan
     * this degenerate through the SVC would be slower than
     * sequential).
     */
    std::uint32_t maxFlowsPerSegment = 1u << 20;

    /**
     * Reaction to a segment flow plan that exceeds the State Vector
     * Cache capacity of the device (Section 3.2).
     */
    OverflowPolicy overflowPolicy = OverflowPolicy::Evict;

    /**
     * Optional deterministic fault-injection harness (not owned).
     * When set, the runner and segment simulator consult it at
     * context switches, report drains, and FIV downloads.
     */
    FaultInjector *faultInjector = nullptr;

    /**
     * Routing-constraint hint: minimum half-cores one FSM copy
     * occupies (densely connected automata are distributed across
     * multiple dies by the AP compiler, Section 4.1).
     */
    std::uint32_t routingMinHalfCores = 1;

    // --- Hardened host-parallel execution (pap/exec) ----------------

    /**
     * Host threads running per-segment simulation (0 = one per
     * hardware thread). runPap runs its segments and golden checks on
     * one pool of this many workers, and of one more while this is
     * below the host's hardware threads (of one when faultInjector
     * arms an in-segment kind). Reports and per-figure metrics are
     * byte-identical for every thread count; only wall-clock changes.
     */
    std::uint32_t threads = 1;

    /**
     * Deadline per segment attempt, in wall-clock milliseconds: the
     * attempt's cancellation token trips once it passes, and the
     * attempt fails at its next poll. 0 derives a generous default
     * from the segment length (10 us per symbol with a 5 s floor);
     * negative sets no deadline.
     */
    double segmentDeadlineMs = 0.0;

    /**
     * Extra attempts after a failed segment (0 disables retry), each
     * after the exec layer's jittered backoff (exec::retryBackoff).
     */
    std::uint32_t maxSegmentRetries = 2;

    /**
     * Crash-consistent checkpoint file. When non-empty the runner
     * serializes the composition frontier here after composing each
     * segment, resumes from a matching checkpoint at startup, and
     * removes the file on successful completion. The run holds an
     * advisory lock on "<path>.lock" throughout; a second run on the
     * same path fails with ErrorCode::LockHeld.
     */
    std::string checkpointPath;

    /**
     * Test hook simulating a killed run: when >= 0, the runner stops
     * with ErrorCode::Cancelled right after composing (and
     * checkpointing) this segment index, leaving the checkpoint on
     * disk for a resume.
     */
    std::int64_t stopAfterSegment = -1;
};

/**
 * InvalidInput when @p options holds a zero divisor: a tdmQuantum of
 * 0. runPap, runMultiStream and serve::Server refuse such options
 * before they run anything.
 */
inline Status
checkOptions(const PapOptions &options)
{
    if (options.tdmQuantum == 0)
        return Status::error(ErrorCode::InvalidInput,
                             "tdmQuantum must be at least 1");
    return Status();
}

} // namespace pap

#endif // PAP_PAP_OPTIONS_H
