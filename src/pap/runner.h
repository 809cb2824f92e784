/**
 * @file
 * End-to-end PAP run: analysis, placement, range-guided partitioning,
 * per-segment flow enumeration and TDM execution, host composition,
 * timeline simulation, and verification of the composed reports
 * against the sequential execution. This is the public entry point
 * the examples and benches use.
 *
 * The sequential execution is the paper's golden execution (Section
 * 3.4), run one segment at a time: as soon as segment j-1 is composed,
 * a golden check of segment j is queued on the segment workers, behind
 * the segments queued before it: a start-enabled sequential run from
 * the composed true set entering the segment. The workers are the
 * call's only threads besides the caller's: `threads` of them, and one
 * more, shared by segments and checks, while `threads` is below the
 * host's hardware threads; one, when the fault injector arms a kind
 * drawn inside segments. A run resumed from a checkpoint checks its
 * restored prefix as one more slice, from the initial set. When every
 * check ends on the composed set leaving its slice, induction from
 * offset 0 (where the first check starts from the initial active set)
 * makes each check's start the true one, so the checks together are
 * the whole-input sequential run. Otherwise the whole input runs
 * sequentially once more.
 */

#ifndef PAP_PAP_RUNNER_H
#define PAP_PAP_RUNNER_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ap/ap_config.h"
#include "common/error.h"
#include "engine/compiled_nfa.h"
#include "engine/report.h"
#include "engine/trace.h"
#include "nfa/nfa.h"
#include "obs/attrib.h"
#include "pap/options.h"
#include "pap/prepared.h"
#include "pap/segment_sim.h" // SequentialResult, runSequential on a slice

namespace pap {

/**
 * Run @p cnfa sequentially over @p input from its initial set: the
 * whole-input golden execution, traced as one pap.sequential span.
 */
SequentialResult runSequential(const CompiledNfa &cnfa,
                               const InputTrace &input);

/**
 * Compile @p nfa and run it sequentially over @p input. @p options is
 * read by nothing: it stays only because the benchmark of record
 * (papbench/) still passes one; drop it, with PapOptions::engine,
 * once a benchmark change removes those arguments.
 */
SequentialResult runSequential(const Nfa &nfa, const InputTrace &input,
                               const PapOptions &options = {});

/** Everything a PAP run produces, including the per-figure metrics. */
struct PapResult
{
    std::string name;

    // Configuration echo (Table 1).
    std::uint32_t numSegments = 1;
    std::uint32_t idealSpeedup = 1;
    std::uint32_t halfCoresPerCopy = 1;
    Symbol boundarySymbol = 0;
    std::uint32_t boundaryRangeSize = 0;

    // Headline numbers (Figure 8).
    double speedup = 1.0;
    Cycles papCycles = 0;
    Cycles baselineCycles = 0;
    bool goldenCapped = false;

    // Flow statistics, averaged over enumeration segments (Figure 9).
    double flowsInRange = 0.0;
    double flowsAfterCc = 0.0;
    double flowsAfterParent = 0.0;
    double avgActiveFlows = 0.0;

    // Overheads (Figures 10-12).
    double switchOverheadPct = 0.0;
    double avgTcpuCycles = 0.0;
    std::uint64_t seqReportEvents = 0;
    std::uint64_t papReportEvents = 0;
    double reportInflation = 1.0;

    // Energy accounting (Section 5.3).
    /** Flow transitions relative to sequential (paper: 2.4x avg). */
    double transitionRatio = 1.0;
    /** Total state transitions across all flows. */
    std::uint64_t flowTransitions = 0;
    /** State transitions of the sequential baseline. */
    std::uint64_t seqTransitions = 0;
    /** Flow context switches performed. */
    std::uint64_t contextSwitches = 0;
    /** State vectors uploaded to the host. */
    std::uint64_t stateVectorUploads = 0;
    /** Sum over all flows of symbols they processed. */
    std::uint64_t flowSymbolCycles = 0;

    /** Peak enumeration flows in any segment (SVC pressure). */
    std::uint32_t maxFlowsPerSegment = 0;
    /**
     * True if a segment needed more contexts than the modeled State
     * Vector Cache holds, the ASG flow's included.
     */
    bool svcOverflow = false;
    /**
     * Always 1: SVC capacity never splits a segment. It stays only
     * because the benchmark of record (papbench/) still reads it; drop
     * it once a benchmark change removes those reads.
     */
    std::uint32_t svcBatches = 1;

    // Live-cache census (ap/state_vector_cache.h), all zero when every
    // segment fit the SVC. Timing-only facts: reports are
    // byte-identical across capacities.
    /**
     * The board's svcEntriesPerDevice (flow contexts), echoed because
     * the benchmark of record's digests read it.
     */
    std::uint32_t svcCapacity = 0;
    /** Contexts evicted by the live cache. */
    std::uint64_t svcEvictions = 0;
    /** Evicted contexts restored via a state-vector re-upload. */
    std::uint64_t svcReuploads = 0;
    /** Context lookups that hit / missed the live cache. */
    std::uint64_t svcLoadHits = 0;
    std::uint64_t svcLoadMisses = 0;
    /** load_hits / (load_hits + load_misses); 1.0 with no lookups. */
    double svcHitRate = 1.0;
    /** Cycles the timeline charged for context re-uploads. */
    Cycles svcReuploadCycles = 0;

    /** Composed true reports (equal to the sequential reports). */
    std::vector<ReportEvent> reports;
    /** True when verification against the sequential run passed. */
    bool verified = false;
    /**
     * True when the run gave up on parallel composition and returned
     * the golden sequential result instead (overflow fallback, or
     * recovery from a detected divergence). Degraded runs report
     * speedup 1.0 — the golden-execution guarantee of Section 3.4.
     */
    bool degraded = false;
    /**
     * True when verification caught a divergence and the result was
     * repaired from the sequential oracle. Implies degraded.
     */
    bool recovered = false;
    /**
     * Non-Ok only when the run could not produce a result at all:
     * options checkOptions refuses → InvalidInput, an automaton the
     * board cannot place (placeAutomaton) or OverflowPolicy::Fail
     * with an over-capacity plan → CapacityExceeded, a
     * checkpointPath another run holds → LockHeld, or the
     * stopAfterSegment test hook → Cancelled (checkpoint left on
     * disk). The run then carries no reports.
     * The sequential fields (baselineCycles, seqReportEvents) are
     * settled on every exit that ran the pipeline or adopted the
     * sequential result, so a Cancelled run carries them; a refused
     * call (InvalidInput, LockHeld, CapacityExceeded) runs nothing
     * and leaves them zero. Every exit settles the attribution ledger
     * and the census of what ran before it stopped.
     */
    Status status;

    // Hardened host-execution census (pap/exec).
    /**
     * The resolved `threads` option. The metrics gauge
     * exec.pool.threads reads the width of the execute phase's pool.
     */
    std::uint32_t threadsUsed = 1;
    /** Segments that needed at least one retry attempt. */
    std::uint32_t segmentsRetried = 0;
    /**
     * Segments whose retries were exhausted and whose result was
     * recomputed from the sequential oracle at compose time. Implies
     * degraded (their timing is modeled as a single golden flow).
     */
    std::uint32_t segmentsRecovered = 0;
    /** True when the run continued from an on-disk checkpoint. */
    bool resumedFromCheckpoint = false;
    /** Segments skipped because the checkpoint had composed them. */
    std::uint32_t resumedSegments = 0;

    // Pipeline census (composition against segment execution). These
    // describe wall-clock only; they never influence reports or the
    // modeled per-figure metrics.
    /** Wall-clock of the execute+compose region, ms. */
    double pipelineWallMs = 0.0;
    /** Wall-clock the composer spent blocked on segments, ms. */
    double composerStallMs = 0.0;
    /** 1 - stall/wall over the region (1.0 = composer never waited). */
    double pipelineOccupancy = 1.0;

    // Performance attribution (obs/attrib.h): the run's wall time
    // decomposed into named buckets. Wall buckets (including the
    // "other" residual) sum to attrib.wallMs by construction; aux
    // buckets are worker-side time that overlaps the wall clock.
    obs::AttribSnapshot attrib;

    // Engine introspection totals, summed over every flow the run
    // executed (EngineCounters; estimated datapath cost).
    std::uint64_t engineSuccRows = 0;
    std::uint64_t engineBytesTouched = 0;
    /** Flow steps that ran on the engine's shift datapath. */
    std::uint64_t engineShiftSteps = 0;
    /** bytesTouched / flowSymbolCycles (0 when no flows ran). */
    double engineBytesPerSymbol = 0.0;
    /** Per-step active-density histogram summed over flows. */
    std::array<std::uint64_t, 8> engineDensityOctiles{};

    /** Per-segment diagnostics (input order). */
    struct SegmentDiag
    {
        std::uint64_t begin = 0;
        std::uint64_t length = 0;
        /** Enumeration flows planned for the segment. */
        std::uint32_t flows = 0;
        /** Flow outcomes. */
        std::uint32_t deactivated = 0;
        std::uint32_t converged = 0;
        std::uint32_t ranToEnd = 0;
        /** Enumeration-path truth census. */
        std::uint32_t truePaths = 0;
        std::uint32_t totalPaths = 0;
        /** Timeline landmarks (cycles). */
        Cycles tDone = 0;
        Cycles tResolve = 0;
        /** Output-buffer entries produced. */
        std::uint64_t entries = 0;
    };
    std::vector<SegmentDiag> segments;
};

/**
 * Run the full Parallel Automata Processor pipeline on @p automaton,
 * prepared once and shared by any number of calls (at other rank
 * counts or options, or on other threads).
 *
 * Never panics on data-dependent trouble: a divergence between the
 * composed and sequential reports (possible only under fault
 * injection, otherwise a PAPsim bug) is repaired from the sequential
 * oracle (result.recovered), an over-capacity flow plan is handled
 * per options.overflowPolicy, and the only non-Ok result.status is
 * InvalidInput for options checkOptions refuses, CapacityExceeded for
 * an automaton the board cannot place or under OverflowPolicy::Fail,
 * LockHeld on a checkpoint another run holds, or Cancelled from the
 * stopAfterSegment test hook.
 */
PapResult runPap(const PreparedAutomaton &automaton,
                 const InputTrace &input, const ApConfig &config,
                 const PapOptions &options = {});

/**
 * runPap on @p nfa, prepared inside the call (in its analyze phase).
 * The result equals runPap on PreparedAutomaton(nfa).
 */
PapResult runPap(const Nfa &nfa, const InputTrace &input,
                 const ApConfig &config, const PapOptions &options = {});

} // namespace pap

#endif // PAP_PAP_RUNNER_H
