/**
 * @file
 * The serve-mode session manager: many concurrent input streams
 * against one (hot-swappable) ruleset, executed with the same PAP
 * composition scheme as a one-shot run. Each stream is chunked
 * incrementally as bytes arrive — chunk 0 runs as the golden flow
 * from the initial active set, every later chunk enumerates the
 * candidate start states of its boundary symbol's range and the host
 * composes truth against the previous chunk's true final active set —
 * so a stream's final report list is byte-identical to running its
 * whole input through `papsim run`, for any chunking the arrival
 * pattern produces.
 *
 * Robustness model (the reason serve exists as a subsystem):
 *
 *  - Admission control: open() sheds with ErrorCode::ResourceExhausted
 *    once the global session cap or the tenant's session cap is
 *    reached — a typed error, never a hang or an OOM.
 *  - Backpressure: each session holds at most `sessionWindow` chunks
 *    in flight; feed() blocks (and tryFeed() returns would-block, so
 *    the socket loop stops reading that client) until composition
 *    frees a slot. Memory per session is bounded by window * chunk.
 *  - Fault ladder: a chunk attempt that stalls is cancelled by the
 *    watchdog, retried with seeded-jitter backoff, and — if retries
 *    exhaust — recovered at composition time from the sequential
 *    oracle, exactly like a one-shot run. A stream whose chunks keep
 *    needing the oracle is quarantined: terminated with
 *    ErrorCode::StreamQuarantined without touching its siblings.
 *  - Per-stream deadlines: a session that overstays sessionDeadlineMs
 *    is terminated with DeadlineExceeded at its next interaction.
 *  - Hot swap: swap() installs a new ruleset generation; in-flight
 *    sessions finish on the generation they opened with, new sessions
 *    bind the new one, old generations free at refcount zero.
 *  - Graceful drain: drain() stops admission, flushes and composes
 *    every in-flight session, and checkpoints unfinished streams with
 *    the PAPCKPT machinery so resume() can continue them after a
 *    restart (the caller re-feeds from the returned offset).
 *  - Hard-crash tolerance: keyed sessions checkpoint *periodically*
 *    (every checkpointIntervalChunks composed chunks, written off the
 *    hot path by a dedicated writer thread), and every lifecycle
 *    event is journaled to an append-only session manifest in
 *    checkpointDir. After a kill -9 the next boot replays the
 *    manifest, sweeps stale temp files, re-binds resumable sessions,
 *    and resume() continues each stream from its last durable
 *    checkpoint — replay is bounded by the checkpoint interval and
 *    the final reports are byte-identical to an uninterrupted run.
 *
 * Scheduling: chunk tasks from all sessions share one WorkerPool,
 * ordered by a weighted deficit-round-robin queue across tenants.
 * Composition for a session runs in-order on whichever dispatcher
 * completed the frontier chunk; results are deterministic for any
 * thread count because composition order is fixed per session and
 * chunk execution writes only its own slot.
 */

#ifndef PAP_SERVE_SERVER_H
#define PAP_SERVE_SERVER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/file_lock.h"
#include "engine/report.h"
#include "pap/composer.h"
#include "pap/exec/pipeline.h"
#include "pap/exec/watchdog.h"
#include "pap/exec/worker_pool.h"
#include "pap/options.h"
#include "pap/segment_sim.h"
#include "pap/exec/checkpoint.h"
#include "serve/fair_queue.h"
#include "serve/manifest.h"
#include "serve/ruleset_registry.h"

namespace pap {
namespace serve {

using SessionId = std::uint64_t;

/** Daemon tuning; `pap` carries the per-chunk TDM/retry knobs. */
struct ServeOptions
{
    /** Worker threads (0 = hardware concurrency). */
    std::uint32_t threads = 0;
    /** Global concurrent-session cap; open() past it sheds. */
    std::uint32_t maxSessions = 64;
    /** Per-tenant concurrent-session cap; open() past it sheds. */
    std::uint32_t tenantSessionCap = 16;
    /** Chunks a session may have in flight before feed() blocks. */
    std::uint32_t sessionWindow = 4;
    /** Target chunk length in symbols. */
    std::uint32_t chunkSymbols = 2048;
    /** How far back from the target the chunker may move a cut to
        land after a small-range boundary symbol. */
    std::uint32_t boundaryLookback = 256;
    /** Consecutive oracle-recovered chunks before quarantine. */
    std::uint32_t quarantineAfter = 3;
    /** Wall-clock budget per session; <= 0 disables. */
    double sessionDeadlineMs = 0.0;
    /** Directory for drain checkpoints; empty disables checkpointing. */
    std::string checkpointDir;
    /** Checkpoint a keyed session every N composed chunks (0 = only
        on drain). Sessions may override per-OPEN. */
    std::uint32_t checkpointIntervalChunks = 0;
    /** TDM, retry, deadline, and fault-injection knobs. */
    PapOptions pap;
};

/** Everything a finished stream reports back to its client. */
struct SessionReport
{
    /** Sorted, deduplicated report events (absolute stream offsets). */
    std::vector<ReportEvent> reports;
    /** Symbols processed (after any resume offset). */
    std::uint64_t symbols = 0;
    /** Chunks the stream was cut into. */
    std::uint64_t chunks = 0;
    std::uint32_t chunksRetried = 0;
    /** Chunks recovered from the sequential oracle. */
    std::uint32_t chunksRecovered = 0;
    /** Ruleset generation the stream ran against. */
    std::uint64_t generation = 0;
    /** Symbols already composed before this process (resume offset). */
    std::uint64_t resumedSymbols = 0;
    /** open() to finish() wall time. */
    double latencyMs = 0.0;
};

/** Snapshot for the STATS verb and load-test assertions. */
struct ServerStats
{
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t completed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t resumed = 0;
    std::uint64_t checkpointed = 0;
    /** Periodic (interval-triggered) checkpoint saves. */
    std::uint64_t periodicCheckpoints = 0;
    /** Cold-start recovery census (fixed after the constructor except
        sessionsRecovered, which counts successful post-crash resumes). */
    std::uint64_t staleTmpCleaned = 0;
    std::uint64_t staleCheckpointsRemoved = 0;
    std::uint64_t journalRecords = 0;
    std::uint64_t journalTorn = 0;
    std::uint64_t sessionsResumable = 0;
    std::uint64_t sessionsRecovered = 0;
    std::uint64_t chunksExecuted = 0;
    std::uint64_t chunksRecovered = 0;
    std::size_t openSessions = 0;
    std::size_t queueDepth = 0;
    std::uint64_t generation = 0;
    std::size_t liveGenerations = 0;
};

/** A resumed session: re-feed the stream from @c offset. */
struct ResumeInfo
{
    SessionId id = 0;
    /** Symbols already composed; the client skips this prefix. */
    std::uint64_t offset = 0;
};

class Server
{
  public:
    /**
     * Build a daemon serving @p ruleset. Check status() before use:
     * options checkOptions refuses, or a ruleset that fails to
     * compile, leave the server inert (every call returns that error).
     */
    Server(const ServeOptions &options, const Nfa &ruleset);

    /** Terminates outstanding sessions (no checkpoint) and joins. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * OK unless construction failed: options checkOptions refuses, a
     * checkpointDir another server holds, or a boot ruleset that
     * failed to install.
     */
    Status status() const;

    /**
     * Admit a new stream for @p tenant, bound to the current ruleset
     * generation. @p key names the stream for checkpoints (empty: not
     * checkpointable). @p checkpointInterval overrides the server's
     * periodic checkpoint cadence for this session (-1: server
     * default; 0: drain-only). Sheds with ResourceExhausted at the
     * global or tenant cap, or while draining.
     */
    Result<SessionId> open(const std::string &tenant,
                           const std::string &key = std::string(),
                           std::int64_t checkpointInterval = -1);

    /**
     * Reopen a stream checkpointed by a previous drain() — or by the
     * periodic checkpointer before a hard crash — from checkpointDir.
     * The caller must re-feed the input from ResumeInfo::offset;
     * reports for the composed prefix are already in the checkpoint
     * and reappear in the final SessionReport. A session the manifest
     * journal knows but that crashed before its first checkpoint (or
     * whose checkpoint file is corrupt) resumes fresh at offset 0.
     */
    Result<ResumeInfo> resume(const std::string &tenant,
                              const std::string &key);

    /**
     * Append @p len symbols to the stream, blocking while the
     * session's chunk window is full. Fails typed when the session
     * was quarantined, timed out, aborted, or the daemon is draining.
     */
    Status feed(SessionId id, const Symbol *data, std::size_t len);

    /**
     * Non-blocking feed for the socket loop: ok(true) accepted,
     * ok(false) window full — stop reading this client and retry
     * later; error() the session is gone (typed like feed()).
     */
    Result<bool> tryFeed(SessionId id, const Symbol *data,
                         std::size_t len);

    /**
     * Close the stream's input and block until every chunk has
     * composed; returns the final report and releases the session.
     */
    Result<SessionReport> finish(SessionId id);

    /**
     * Non-blocking finish: ok(true) with @p out filled when done,
     * ok(false) still composing, error() terminal. The first call
     * closes the stream's input. Releases the session when it
     * returns true or an error.
     */
    Result<bool> tryFinish(SessionId id, SessionReport *out);

    /**
     * Drop a stream (client disconnected): pending chunks are
     * discarded, siblings unaffected. Idempotent-safe: an unknown id
     * is an InvalidInput error.
     */
    Status abort(SessionId id, const std::string &reason);

    /**
     * Install @p ruleset as the new current generation. Streams
     * already open finish on their old generation; the swap never
     * blocks on them.
     */
    Result<std::uint64_t> swap(const Nfa &ruleset);

    /** Scheduling weight for @p tenant's chunk tasks (default 1). */
    void setTenantWeight(const std::string &tenant, double weight);

    /**
     * Graceful shutdown: stop admitting, flush and compose every
     * in-flight session, checkpoint keyed unfinished sessions to
     * checkpointDir, terminate the rest with Unavailable. Sessions
     * whose finish() is already pending complete normally. Safe to
     * call once; subsequent calls are no-ops.
     */
    Status drain();

    /** True once drain() has begun (admission is closed). */
    bool draining() const;

    ServerStats stats() const;

    /** Current ruleset generation. */
    std::uint64_t generation() const;

    const ServeOptions &options() const { return opts_; }

  private:
    struct Chunk;
    struct Session;
    using SessionPtr = std::shared_ptr<Session>;
    using SessionCoord = std::pair<std::string, std::string>;

    /** One unit of work for the off-hot-path checkpoint writer. */
    struct CkptOp
    {
        enum class Kind : std::uint8_t { Save, Complete };
        Kind kind = Kind::Save;
        /** Checkpoint file path (save target / removal target). */
        std::string path;
        /** Frontier snapshot to persist (Save only). */
        exec::CheckpointFrontier frontier;
        /** Manifest record appended once the file operation lands. */
        ManifestRecord record;
    };

    SessionPtr findLocked(SessionId id) const;
    /** Admit a session. With @p resumeFrom, admit it only when that
        checkpoint belongs to it (same ruleset, tenant and key), and
        continue the stream from it. */
    Result<SessionId> openImpl(const std::string &tenant,
                               const std::string &key,
                               std::int64_t checkpointInterval,
                               bool journal,
                               exec::CheckpointFrontier *resumeFrom);
    Status sessionGateLocked(const Session &s) const;
    void checkDeadlineLocked(Session &s);
    void terminateLocked(Session &s, Status why, const char *metric);
    void closeAccountingLocked(Session &s);
    void cutLocked(Session &s, bool flush, bool *slow);
    Status feedImpl(SessionId id, const Symbol *data, std::size_t len,
                    bool blocking, bool *accepted);
    void pumpLocked();
    void updateQueueGaugeLocked();
    void dispatchLoop();
    void executeChunk(Session &s, Chunk &chunk);
    void composeReady(std::unique_lock<std::mutex> &lock, SessionPtr s);
    void finalizeLocked(Session &s);
    SessionReport buildReportLocked(Session &s);
    /** Where the keyed stream (@p tenant, @p key) checkpoints. */
    std::string checkpointPath(const std::string &tenant,
                               const std::string &key) const;
    Status checkpointLocked(Session &s);
    void drainPendingSwap();

    // --- Crash tolerance (manifest journal + periodic checkpoints) --
    /** Cold-start recovery: sweep temp files, replay the manifest,
        verify live checkpoints against @p ruleset, compact. */
    void recoverColdStart(const Nfa &ruleset);
    /** Serialized, fsynced journal append; failures are tolerated. */
    void appendManifest(const ManifestRecord &record);
    /** Journal the Admit record for a freshly opened keyed session. */
    void journalAdmitLocked(const Session &s);
    /** Journal Complete + remove the checkpoint file (writer thread). */
    void journalCompleteLocked(const Session &s);
    /** Queue a periodic checkpoint of @p s for the writer thread. */
    void enqueuePeriodicCheckpointLocked(const Session &s);
    void enqueueCkptOp(CkptOp op);
    /** Block until every queued writer op has been processed. */
    void flushCkptOps();
    void ckptWriterLoop();
    void stopCkptWriter();

    const ServeOptions opts_;
    /** Exclusive hold on checkpointDir for the server's lifetime
        (declared first, so it is released last). */
    std::optional<FileLock> dirLock_;
    /** pap knobs with hardware fault injection stripped: serve chunks
        run exact (there is no per-stream verification oracle to catch
        silent corruption); the injector still drives worker and serve
        faults. */
    PapOptions execPap_;
    exec::HardenedExecOptions execOpt_;
    std::uint32_t threads_ = 1;

    RulesetRegistry registry_;
    Status status_;

    mutable std::mutex mutex_;
    std::condition_variable windowCv_; ///< chunk window slots freed
    std::condition_variable doneCv_;   ///< session finished/terminated
    std::condition_variable idleCv_;   ///< scheduler state changed
    std::unordered_map<SessionId, SessionPtr> sessions_;
    std::unordered_map<std::string, std::uint32_t> tenantSessions_;
    FairQueue queue_;
    std::unique_ptr<exec::WorkerPool> pool_;
    exec::Watchdog watchdog_;
    std::uint32_t dispatchers_ = 0;
    SessionId nextSession_ = 1;
    bool draining_ = false;
    bool drained_ = false;
    /** True while the destructor tears sessions down: terminations are
        process exit, not stream completion, so they must NOT journal
        Complete — a crashed-without-drain server leaves its keyed
        sessions live in the manifest for the next boot to recover. */
    bool inShutdown_ = false;
    /** An injected swap-during-stream fault waiting to be applied. */
    bool pendingSelfSwap_ = false;

    /** Session manifest journal (open iff checkpointDir is set). */
    ManifestJournal manifest_;
    std::mutex manifestMutex_;
    /** Live sessions the boot-time manifest replay promised; resume()
        falls back to a fresh admit for entries with no checkpoint. */
    std::map<SessionCoord, ManifestReplay::LiveSession> recoveredLive_;

    /** Off-hot-path checkpoint writer (periodic saves + journaling). */
    std::thread ckptThread_;
    std::mutex ckptMutex_;
    std::condition_variable ckptCv_;
    std::deque<CkptOp> ckptOps_;
    std::uint64_t ckptQueued_ = 0;
    std::uint64_t ckptDone_ = 0;
    bool ckptStop_ = false;

    // Counters mirrored into obs::metrics() as they change.
    ServerStats counters_;
};

} // namespace serve
} // namespace pap

#endif // PAP_SERVE_SERVER_H
