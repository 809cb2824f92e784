/**
 * @file
 * Tunables of the Parallel Automata Processor framework. Defaults
 * follow the paper: 3-cycle flow switches, convergence checks every 10
 * TDM steps, and host-side costs calibrated to Section 4.2 / Fig. 11.
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

/** Knobs for one PAP run. Every optimization can be ablated. */
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

    /** Convergence checks run every this many TDM steps (Sec. 3.3.3). */
    std::uint32_t convergenceCheckPeriod = 10;

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

    /** Flow context-switch cost (3 on D480; 6/12 for sensitivity). */
    Cycles contextSwitchCycles = 3;

    /**
     * Host decode: fixed cost of interpreting an uploaded vector
     * ("a few tens of symbol cycles", Section 3.4). Uploads of
     * different segments' vectors proceed in parallel (separate
     * devices); only this decode step chains serially.
     */
    Cycles decodeBaseCycles = 32;

    /** Host decode: additional cost per live flow. */
    Cycles decodePerFlowCycles = 2;

    /**
     * Host cost per output-buffer entry drained, in AP symbol cycles.
     * The Xeon host filters an entry in a few CPU cycles while the AP
     * streams at 7.5 ns/symbol, so one entry costs well under one
     * symbol cycle (output reporting is ~1% of execution, Sec. 5.3).
     */
    double reportCostCyclesPerEvent = 0.05;

    /**
     * Cap parallel time at sequential time (the golden-execution
     * guarantee of Section 5.1).
     */
    bool applyGoldenCap = true;

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
     * Override of the modeled SVC capacity, in flow contexts
     * (0 = the device's svcEntriesPerDevice, 512 on the D480): the
     * knob the capacity-sensitivity sweep turns.
     */
    std::uint32_t svcCapacity = 0;

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
     * hardware thread). While they are fewer than the host's hardware
     * threads, runPap's golden checks run on one more thread of their
     * own. Reports and per-figure metrics are byte-identical for every
     * thread count; only wall-clock changes.
     */
    std::uint32_t threads = 1;

    /**
     * Watchdog deadline per segment attempt, in wall-clock
     * milliseconds. 0 derives a generous default from the segment
     * length (10 us per symbol with a 5 s floor); negative disables
     * the watchdog entirely.
     */
    double segmentDeadlineMs = 0.0;

    /** Extra attempts after a failed segment (0 disables retry). */
    std::uint32_t maxSegmentRetries = 2;

    /**
     * First retry backoff in ms; doubles per retry up to
     * exec::HardenedExecOptions::backoffCapMs. Each sleep is jittered
     * by a pure hash of the fault seed and the segment
     * (exec::retryBackoff), so workers that fail together do not
     * retry together. Timing only.
     */
    std::uint32_t retryBackoffBaseMs = 1;

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
 * InvalidInput when @p options holds a zero divisor: a tdmQuantum or
 * a convergenceCheckPeriod of 0. runPap, runMultiStream and
 * serve::Server refuse such options before they run anything.
 */
inline Status
checkOptions(const PapOptions &options)
{
    if (options.tdmQuantum == 0)
        return Status::error(ErrorCode::InvalidInput,
                             "tdmQuantum must be at least 1");
    if (options.convergenceCheckPeriod == 0)
        return Status::error(ErrorCode::InvalidInput,
                             "convergenceCheckPeriod must be at least 1");
    return Status();
}

} // namespace pap

#endif // PAP_PAP_OPTIONS_H
