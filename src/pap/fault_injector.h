/**
 * @file
 * Deterministic, seeded fault injection for hardened-execution
 * testing. The injector models the hardware failure modes the PAP
 * composition scheme (Section 3.4) must survive:
 *
 *  - corrupt-sv       flip one state in a flow's state vector at a
 *                     context switch (SVC bit error);
 *  - evict-svc        lose a flow's SVC entry under pressure (the
 *                     context comes back all-zero);
 *  - drop-report      lose one output-buffer entry before the host
 *                     drains it;
 *  - truncate-report  lose the tail of a flow's output buffer;
 *  - drop-fiv         lose the Flow Invalidation Vector / truth
 *                     download between two segments, so the next
 *                     segment composes against an empty true set.
 *
 * Two further kinds target the *host* execution layer (the hardened
 * worker pool of pap/exec) rather than the modeled hardware:
 *
 *  - stall-worker     a segment attempt hangs until its deadline
 *                     trips its cancellation token (exercises
 *                     retry);
 *  - crash-worker     a segment attempt dies outright (exercises
 *                     retry exhaustion and per-segment recovery).
 *
 * Three more kinds target the serve layer (src/serve): they model
 * client and operator behavior against a long-lived daemon rather
 * than hardware or worker failures:
 *
 *  - disconnect-client  a session's client vanishes mid-stream (the
 *                       session is aborted; siblings are unaffected);
 *  - slow-client        a session trickles its input (exercises
 *                       backpressure and per-stream deadlines);
 *  - swap-during-stream a ruleset hot-swap lands while streams are in
 *                       flight (exercises the refcounted registry).
 *
 * Two durability kinds model a hard crash landing in the middle of
 * the serve layer's persistence writes (the crash-recovery path of
 * docs/robustness.md):
 *
 *  - torn-manifest-write  a session-manifest journal append is torn:
 *                         only a prefix of the record reaches disk,
 *                         as if the process died mid-write (recovery
 *                         must stop cleanly at the torn tail);
 *  - crash-at-checkpoint  a periodic checkpoint save dies after the
 *                         .tmp file is partially written but before
 *                         the atomic rename (the previous checkpoint
 *                         must survive; the stale .tmp must be swept
 *                         on the next cold start).
 *
 * Determinism model: every in-segment hardware fault (corrupt-sv,
 * evict-svc, drop-report, truncate-report) is drawn from a per-segment
 * RNG stream derived from (seed, segment) and consumed in that
 * segment's simulation order, so the draw sequence a segment sees is
 * independent of which thread runs it and of how segments interleave
 * with each other and with composition. The cross-segment FIV fault
 * (drop-fiv) is drawn from a dedicated stream consumed in composition
 * order — this is the stream rngState()/restoreRngState() checkpoint,
 * since composition order is exactly the checkpoint frontier. Only
 * the shared injection *budgets* couple segments: once one runs out,
 * which faults it allowed depends on the order segments drew in. So
 * runPap executes a run that armsSegmentFaults() on one worker, in
 * segment order, and a given (spec, seed) pair injects the exact same
 * faults for every thread count. Worker faults are decided
 * *functionally* from a hash of (seed, kind, segment) — no RNG stream
 * at all — so they strike the same segments for any thread count,
 * scheduling order or resume point; for them, count means "faulted
 * attempts per affected segment" and rate the per-segment selection
 * probability. "all" arms only the five hardware kinds; worker kinds
 * must be named explicitly.
 *
 * The verification oracle (the golden sequential execution) detects
 * the resulting divergence and the runner repairs it by falling back
 * to the oracle result; the injected/detected/recovered counters let
 * tests assert that full loop closes for every fault kind.
 *
 * All hooks are thread-safe: the hardened execution driver consults
 * the injector concurrently from its worker threads.
 */

#ifndef PAP_PAP_FAULT_INJECTOR_H
#define PAP_PAP_FAULT_INJECTOR_H

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/types.h"
#include "engine/report.h"

namespace pap {

/** The failure modes the harness can inject. */
enum class FaultKind : std::uint8_t
{
    CorruptStateVector = 0,
    EvictSvcEntry,
    DropReport,
    TruncateReport,
    DropFiv,
    StallWorker,
    CrashWorker,
    DisconnectClient,
    SlowClient,
    SwapDuringStream,
    TornManifestWrite,
    CrashAtCheckpoint,
};

inline constexpr std::size_t kFaultKindCount = 12;
/** Kinds at or past this index target the host worker pool. */
inline constexpr std::size_t kWorkerFaultFirst = 5;
/** Kinds at or past this index target the serve layer. */
inline constexpr std::size_t kServeFaultFirst = 7;

/** Spec-grammar name of a fault kind ("corrupt-sv", ...). */
const char *faultKindName(FaultKind kind);

/** Deterministic fault-injection harness for one simulation. */
class FaultInjector
{
  public:
    /** An injector with no faults armed. @p seed drives every draw. */
    explicit FaultInjector(std::uint64_t seed);

    /**
     * Parse a fault spec and build an armed injector.
     *
     * Grammar:  spec  := entry ("," entry)*
     *           entry := kind [":" count [":" rate]]
     *           kind  := corrupt-sv | evict-svc | drop-report
     *                  | truncate-report | drop-fiv | all
     *
     * @p count is the injection budget for the kind (default 1);
     * @p rate is the per-opportunity firing probability in (0, 1]
     * (default 1, i.e. fire at the first opportunities). "all" arms
     * every hardware kind (not the worker kinds) with the given
     * count/rate. For stall-worker/crash-worker, count bounds the
     * faulted attempts per affected segment and rate selects segments.
     */
    static Result<FaultInjector> fromSpec(const std::string &spec,
                                          std::uint64_t seed);

    /** Arm @p kind with an injection budget and firing rate. */
    void arm(FaultKind kind, std::uint32_t count = 1, double rate = 1.0);

    // --- Injection hooks (called from the simulation hot path) ------

    /** State-vector fault to apply to a flow at a context switch. */
    enum class SvAction : std::uint8_t { None, Corrupt, Evict };

    /**
     * Consult the injector at a context switch of @p flow inside the
     * segment whose stream coordinate is @p segment (callers pass the
     * segment's absolute start offset: unique and schedule-invariant).
     */
    SvAction onContextSwitch(FlowId flow, std::uint64_t segment = 0);

    /**
     * Corrupt @p vector in place: toggle one seeded-random state below
     * @p num_states (a single-bit SVC error), keeping it sorted. Draws
     * from the @p segment stream of the surrounding context switch.
     */
    void corruptVector(std::vector<StateId> &vector, StateId num_states,
                       std::uint64_t segment = 0);

    /**
     * Possibly drop one entry and/or truncate the tail of a finished
     * flow's report list (drawn from the @p segment stream). The list
     * is first stable-sorted by (offset, state), so the entries lost
     * do not depend on the order the engine emitted them in. Returns
     * the number of events removed.
     */
    std::uint64_t onReportDrain(std::vector<ReportEvent> &reports,
                                std::uint64_t segment = 0);

    /**
     * True when the FIV/truth download between segments is dropped.
     * Called by the composer in composition order; draws from the
     * dedicated FIV stream the checkpoint serializes.
     */
    bool onFivDownload();

    /**
     * True while a kind drawn inside segment execution (corrupt-sv,
     * evict-svc, drop-report, truncate-report) has budget left. Those
     * budgets are shared by every segment, so the faults they allow
     * depend on the order in which segments draw.
     */
    bool armsSegmentFaults() const;

    /** Host-execution fault to apply to one segment attempt. */
    enum class WorkerFault : std::uint8_t { None, Stall, Crash };

    /**
     * Consult the injector before attempt @p attempt of segment
     * @p segment runs on a pool worker. The decision is a pure
     * function of (seed, kind, segment, attempt), so it is identical
     * for every thread count and scheduling order; injections are
     * still counted under the usual census.
     */
    WorkerFault onWorkerAttempt(std::uint64_t segment,
                                std::uint32_t attempt);

    /** Serve-layer fault to apply to one session chunk. */
    enum class ServeFault : std::uint8_t
    {
        None,
        /** The session's client disconnects; the stream is aborted. */
        Disconnect,
        /** The client trickles this chunk (producer-side delay). */
        Slow,
        /** A ruleset hot-swap lands while this stream is in flight. */
        Swap,
    };

    /**
     * Consult the injector as chunk @p chunk of session @p session is
     * fed to the serve layer. Like worker faults, selection is a pure
     * function of (seed, kind, session) — the affected session set
     * and the strike chunk within a session are invariant under
     * scheduling — while count is the usual shared fire budget (so
     * "disconnect-client:8" drops at most eight sessions) and rate
     * the per-session selection probability.
     */
    ServeFault onServeChunk(std::uint64_t session, std::uint64_t chunk);

    /**
     * True when this manifest-journal append should be torn: the
     * caller writes only a seeded-random prefix of the framed record
     * and reports the append as failed, modeling a crash mid-write.
     * Selection is a pure hash of (seed, kind, append ordinal), so a
     * given spec+seed tears the same appends every run; @p record_len
     * bounds the prefix draw returned through @p keep_bytes.
     */
    bool onManifestAppend(std::size_t record_len,
                          std::size_t &keep_bytes);

    /**
     * True when this checkpoint save should die mid-write: the caller
     * leaves a partial `.tmp` file behind and skips the atomic
     * rename, so the previous checkpoint (if any) stays intact.
     * Selection hashes (seed, kind, save ordinal).
     */
    bool onCheckpointSave();

    // --- Bookkeeping -------------------------------------------------

    // The census getters lock: worker, composer and checkpoint-writer
    // threads record injections while a caller may be reading.

    /** Total faults injected so far. */
    std::uint64_t injected() const
    {
        std::lock_guard<std::mutex> lock(*mutex_);
        return totalInjected;
    }

    /** Faults of one kind injected so far. */
    std::uint64_t injected(FaultKind kind) const
    {
        std::lock_guard<std::mutex> lock(*mutex_);
        return injectedByKind[static_cast<std::size_t>(kind)];
    }

    /** Remaining budget of one kind. */
    std::uint32_t remaining(FaultKind kind) const
    {
        std::lock_guard<std::mutex> lock(*mutex_);
        return budgets[static_cast<std::size_t>(kind)].remaining;
    }

    /** Record that @p count injected faults were caught by the oracle. */
    void markDetected(std::uint64_t count);

    /** Record that @p count detected faults were repaired. */
    void markRecovered(std::uint64_t count);

    std::uint64_t detected() const
    {
        std::lock_guard<std::mutex> lock(*mutex_);
        return totalDetected;
    }

    std::uint64_t recovered() const
    {
        std::lock_guard<std::mutex> lock(*mutex_);
        return totalRecovered;
    }

    /** One-line census for CLI output. */
    std::string summary() const;

    /** The seed every deterministic draw derives from. */
    std::uint64_t seed() const { return seed_; }

    /**
     * FIV-stream RNG state for checkpoint serialization. Per-segment
     * hardware streams are pure functions of (seed, segment) and need
     * no serialization: a resumed run re-derives them.
     */
    std::array<std::uint64_t, 4> rngState() const;

    /** Restore an RNG state captured with rngState(). */
    void restoreRngState(const std::array<std::uint64_t, 4> &state);

    // Copyable and movable (tests copy out of Result<FaultInjector>);
    // each copy gets its own lock, counters carry over.
    FaultInjector(const FaultInjector &other);
    FaultInjector &operator=(const FaultInjector &other);
    FaultInjector(FaultInjector &&) = default;
    FaultInjector &operator=(FaultInjector &&) = default;

  private:
    struct Budget
    {
        std::uint32_t remaining = 0;
        double rate = 1.0;
    };

    /** Draw for @p kind from @p stream; consumes budget and records. */
    bool tryFire(FaultKind kind, Rng &stream);

    /** Record one injection of @p kind (mutex held). */
    void recordInjection(FaultKind kind);

    /** The (lazily derived) hardware stream of @p segment (mutex held). */
    Rng &segmentRng(std::uint64_t segment);

    /** Hands-off lock so the injector stays movable. */
    std::unique_ptr<std::mutex> mutex_ =
        std::make_unique<std::mutex>();
    std::uint64_t seed_ = 0;
    /** The FIV/composition-order stream (checkpointed). */
    Rng rng;
    /** Per-segment hardware streams, keyed by stream coordinate. */
    std::unordered_map<std::uint64_t, Rng> segRngs_;
    std::array<Budget, kFaultKindCount> budgets{};
    /** Append/save ordinals for the durability kinds' pure-hash draws. */
    std::uint64_t manifestAppends_ = 0;
    std::uint64_t checkpointSaves_ = 0;
    std::array<std::uint64_t, kFaultKindCount> injectedByKind{};
    std::uint64_t totalInjected = 0;
    std::uint64_t totalDetected = 0;
    std::uint64_t totalRecovered = 0;
};

} // namespace pap

#endif // PAP_PAP_FAULT_INJECTOR_H
