#include "serve/server.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>

#include <dirent.h>

#include "common/hash.h"
#include "obs/attrib.h"
#include "obs/metrics.h"
#include "pap/composer.h"
#include "pap/exec/checkpoint.h"
#include "pap/run_common.h"

namespace pap {
namespace serve {

namespace {

/** Lock file inside ServeOptions::checkpointDir. */
constexpr const char *kLockFileName = "serve.lock";

/**
 * Identity binding a serve checkpoint to one (ruleset, tenant, key)
 * tuple: the ruleset's structural digest (computed once per install),
 * then the tenant and the key. The input is deliberately excluded — a
 * drained stream's remainder is unknown at resume time — and so is
 * the generation counter: generations continue monotonically across
 * restarts (see RulesetRegistry::setNextGeneration), so the *same*
 * ruleset reinstalled after a reboot must still match, while a
 * structurally different ruleset (e.g. the survivor of a hot swap)
 * must not.
 */
std::uint64_t
sessionIdentity(std::uint64_t digest, const std::string &tenant,
                const std::string &key)
{
    std::uint64_t h = digest;
    for (const char c : tenant)
        h = hashCombine(h, static_cast<std::uint64_t>(c));
    h = hashCombine(h, 0x1F);
    for (const char c : key)
        h = hashCombine(h, static_cast<std::uint64_t>(c));
    return h;
}

/** Filesystem-safe form of a tenant or stream key. */
std::string
sanitize(const std::string &name)
{
    std::string out = name;
    for (char &c : out)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_')
            c = '_';
    return out;
}

/** The checkpoint file of a keyed stream: "<tenant>-<key>.papckpt". */
std::string
checkpointFileName(const std::string &tenant, const std::string &key)
{
    return sanitize(tenant) + "-" + sanitize(key) + ".papckpt";
}

} // namespace

/** One cut-but-not-yet-composed slice of a stream. */
struct Server::Chunk
{
    /** Chunk index within the stream (resume continues the count). */
    std::uint64_t index = 0;
    /** Absolute symbol offset of the chunk's first symbol. */
    std::uint64_t begin = 0;
    std::vector<Symbol> data;
    /** Last symbol of the previous chunk (the boundary; index > 0). */
    Symbol boundary = 0;
    /** True for the stream's very first chunk (golden flow). */
    bool first = false;
    /** Compose sequentially from the frontier (resume continuation). */
    bool oracle = false;
    /** Execution finished (success or exhausted retries). */
    bool executed = false;
    /** The attempt ladder's outcome; a failure (retries exhausted)
        recovers from the oracle at compose time. */
    exec::TaskReport report;
    /** The ruleset's shared plan for @c boundary (null for the first
        chunk and oracle continuations, which run no enumeration). */
    const FlowPlan *plan = nullptr;
    SegmentRun run;
};

/** One admitted stream. All fields are guarded by Server::mutex_
    except chunk execution state (owned by the executing dispatcher
    until `executed` is published under the lock) and the composition
    frontier, which only the single thread holding `composing`
    mutates: it reads the frontier outside the lock and folds into it
    under the lock. */
struct Server::Session
{
    SessionId id = 0;
    std::string tenant;
    std::string key;
    std::shared_ptr<const CompiledRuleset> ruleset;

    std::vector<Symbol> buffer;
    /** Last symbol handed to a chunk: the next chunk's boundary. */
    Symbol lastSymbol = 0;
    /** Cut chunks awaiting execution/composition (window-bounded). */
    std::deque<std::unique_ptr<Chunk>> chunks;
    std::uint64_t nextChunk = 0;
    /** Symbols moved from buffer into chunks this process. */
    std::uint64_t symbolsCut = 0;
    std::uint64_t symbolsFed = 0;
    std::uint64_t symbolsComposed = 0;
    std::uint64_t resumedSymbols = 0;

    /** The composition state: one record per composed chunk, the
        true final active set and reports so far, and the census. Its
        identity is fixed at admission; it is what checkpoints save. */
    exec::CheckpointFrontier frontier;
    std::uint32_t consecutiveRecovered = 0;

    /** Composed-chunk count at the last (periodic or resume-seeded)
        checkpoint; the periodic trigger fires on the delta. */
    std::uint64_t lastCkptChunk = 0;
    /** Effective periodic cadence (0 = drain-only). */
    std::uint64_t ckptIntervalChunks = 0;

    bool resumed = false;
    /** Next chunk composes from the oracle (boundary symbol unknown
        after a resume: the checkpoint does not carry it). */
    bool forceOracleNext = false;
    bool finRequested = false;
    bool done = false;
    bool composing = false;
    /** Still counted against the admission caps. */
    bool accounted = true;
    Status status;
    std::chrono::steady_clock::time_point openedAt;
};

Server::Server(const ServeOptions &options, const Nfa &ruleset)
    : opts_(options)
{
    threads_ = exec::WorkerPool::resolveThreads(opts_.threads);
    execPap_ = opts_.pap;
    execPap_.faultInjector = nullptr;
    execOpt_ =
        makeHardenedOptions(opts_.pap, threads_, opts_.chunkSymbols);
    status_ = checkOptions(opts_.pap);
    if (!status_.ok())
        return;
    if (!opts_.checkpointDir.empty()) {
        // Own the directory before touching it: a second server on it
        // would append to the same manifest and sweep our temp files.
        auto lock = FileLock::acquire(opts_.checkpointDir + "/" +
                                      kLockFileName);
        if (lock.ok()) {
            dirLock_.emplace(std::move(lock.value()));
        } else if (lock.status().code() == ErrorCode::LockHeld) {
            status_ = lock.status();
            return;
        } else {
            warn(lock.status().message(),
                 "; checkpointing without a lock");
        }
    }
    // Cold-start recovery runs before the install so the replayed
    // generation floor is in place when the boot ruleset publishes.
    recoverColdStart(ruleset);
    auto installed = registry_.install(ruleset);
    if (!installed.ok()) {
        status_ = installed.status();
        return;
    }
    pool_ = std::make_unique<exec::WorkerPool>(threads_);
    if (!opts_.checkpointDir.empty())
        ckptThread_ = std::thread([this] { ckptWriterLoop(); });
    auto &m = obs::metrics();
    m.setGauge("serve.sessions.open", 0.0);
    m.setGauge("serve.queue.depth", 0.0);
}

Server::~Server()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        draining_ = true;
        // Destructor terminations are process teardown, not stream
        // completion: keyed sessions must stay live in the manifest
        // so a restart can still recover them.
        inShutdown_ = true;
        for (auto &entry : sessions_)
            terminateLocked(*entry.second,
                            Status::error(ErrorCode::Cancelled,
                                          "server shut down"),
                            "serve.sessions.aborted");
    }
    if (pool_)
        pool_->drain();
    stopCkptWriter();
    std::lock_guard<std::mutex> lock(manifestMutex_);
    manifest_.close();
}

Status
Server::status() const
{
    return status_;
}

Server::SessionPtr
Server::findLocked(SessionId id) const
{
    const auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
}

Result<SessionId>
Server::open(const std::string &tenant, const std::string &key,
             std::int64_t checkpointInterval)
{
    return openImpl(tenant, key, checkpointInterval, /*journal=*/true,
                    nullptr);
}

Result<SessionId>
Server::openImpl(const std::string &tenant, const std::string &key,
                 std::int64_t checkpointInterval, bool journal,
                 exec::CheckpointFrontier *resumeFrom)
{
    if (!status_.ok())
        return status_;
    std::lock_guard<std::mutex> lock(mutex_);
    const auto shed = [&](const char *what) -> Status {
        ++counters_.shed;
        obs::metrics().add("serve.sessions.shed");
        return Status::error(ErrorCode::ResourceExhausted, what);
    };
    if (draining_)
        return shed("daemon is draining; no new sessions");
    if (counters_.openSessions >= opts_.maxSessions)
        return shed("session limit reached; retry later");
    if (tenantSessions_[tenant] >= opts_.tenantSessionCap)
        return shed("tenant session limit reached; retry later");

    std::shared_ptr<const CompiledRuleset> ruleset = registry_.current();
    const std::uint64_t identity =
        sessionIdentity(ruleset->digest, tenant, key);
    // A checkpoint of a different ruleset or stream must not silently
    // start fresh; it is refused before anything is admitted.
    if (resumeFrom && resumeFrom->identity != identity)
        return Status::error(ErrorCode::InvalidInput, "checkpoint '",
                             checkpointPath(tenant, key),
                             "' belongs to a different ruleset or "
                             "stream");

    auto s = std::make_shared<Session>();
    s->id = nextSession_++;
    s->tenant = tenant;
    s->key = key;
    s->ruleset = std::move(ruleset);
    s->frontier.identity = identity;
    if (resumeFrom) {
        s->resumed = true;
        s->frontier = std::move(*resumeFrom);
        s->nextChunk = s->frontier.nextSegment;
        s->lastCkptChunk = s->frontier.nextSegment;
        s->forceOracleNext = s->frontier.nextSegment > 0;
        for (const exec::SegmentCheckpoint &cp : s->frontier.segments)
            s->resumedSymbols += cp.timing.segLen;
    }
    s->ckptIntervalChunks =
        checkpointInterval >= 0
            ? static_cast<std::uint64_t>(checkpointInterval)
            : opts_.checkpointIntervalChunks;
    s->openedAt = std::chrono::steady_clock::now();
    sessions_.emplace(s->id, s);
    ++tenantSessions_[tenant];
    ++counters_.openSessions;
    ++counters_.admitted;
    auto &m = obs::metrics();
    m.add("serve.sessions.admitted");
    m.setGauge("serve.sessions.open",
               static_cast<double>(counters_.openSessions));
    if (journal)
        journalAdmitLocked(*s);
    return s->id;
}

Result<ResumeInfo>
Server::resume(const std::string &tenant, const std::string &key)
{
    if (!status_.ok())
        return status_;
    if (opts_.checkpointDir.empty())
        return Status::error(ErrorCode::InvalidInput,
                             "resume needs a checkpoint directory");
    if (key.empty())
        return Status::error(ErrorCode::InvalidInput,
                             "resume needs a stream key");
    const std::string path = checkpointPath(tenant, key);
    const SessionCoord coord{tenant, key};
    auto loaded = exec::loadCheckpoint(path);
    if (!loaded.ok()) {
        // No checkpoint file (InvalidInput) or a corrupt one. When
        // the manifest journal vouches for the session — admitted
        // before the crash, never completed — fall back to a fresh
        // admit at offset 0: the client re-feeds everything and the
        // final report still equals an uninterrupted run. Otherwise
        // surface the load error typed, as before.
        bool known = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            known = recoveredLive_.count(coord) > 0;
        }
        if (!known)
            return loaded.status();
        if (loaded.status().code() == ErrorCode::CheckpointCorrupt)
            std::remove(path.c_str());
    }
    const auto opened = openImpl(tenant, key, -1, false,
                                 loaded.ok() ? &loaded.value() : nullptr);
    if (!opened.ok())
        return opened.status();
    std::lock_guard<std::mutex> lock(mutex_);
    const SessionPtr s = findLocked(opened.value());
    ++counters_.resumed;
    auto &m = obs::metrics();
    m.add("serve.sessions.resumed");
    if (recoveredLive_.erase(coord) > 0) {
        ++counters_.sessionsRecovered;
        m.add("serve.recovery.sessions_recovered");
    }
    journalAdmitLocked(*s);
    return ResumeInfo{s->id, s->resumedSymbols};
}

Status
Server::sessionGateLocked(const Session &s) const
{
    if (s.done) {
        if (!s.status.ok())
            return s.status;
        return Status::error(ErrorCode::InvalidInput,
                             "session already finished");
    }
    if (s.finRequested)
        return Status::error(ErrorCode::InvalidInput,
                             "session input already closed");
    if (draining_)
        return Status::error(ErrorCode::Cancelled,
                             "daemon is draining");
    return Status();
}

void
Server::checkDeadlineLocked(Session &s)
{
    if (opts_.sessionDeadlineMs <= 0.0 || s.done)
        return;
    if (obs::msSince(s.openedAt) > opts_.sessionDeadlineMs) {
        ++counters_.aborted;
        terminateLocked(
            s,
            Status::error(ErrorCode::DeadlineExceeded, "session ", s.id,
                          " exceeded its deadline"),
            "serve.sessions.expired");
    }
}

void
Server::closeAccountingLocked(Session &s)
{
    if (!s.accounted)
        return;
    s.accounted = false;
    auto it = tenantSessions_.find(s.tenant);
    if (it != tenantSessions_.end() && it->second > 0)
        --it->second;
    if (counters_.openSessions > 0)
        --counters_.openSessions;
    obs::metrics().setGauge(
        "serve.sessions.open",
        static_cast<double>(counters_.openSessions));
}

void
Server::terminateLocked(Session &s, Status why, const char *metric)
{
    if (s.done)
        return;
    s.done = true;
    s.status = std::move(why);
    // Chunks still executing on dispatchers keep the deque alive via
    // the session's shared_ptr; they notice `done` and are dropped.
    queue_.eraseSession(s.id);
    updateQueueGaugeLocked();
    closeAccountingLocked(s);
    obs::metrics().add(metric);
    // An aborted/quarantined/expired stream is terminal: journal it
    // complete and drop its checkpoint. Drained streams stay live
    // (resumable), and destructor teardown journals nothing — a
    // crash must leave the manifest exactly as the journal last
    // recorded it.
    if (!inShutdown_ &&
        std::strcmp(metric, "serve.sessions.drained") != 0)
        journalCompleteLocked(s);
    windowCv_.notify_all();
    doneCv_.notify_all();
    idleCv_.notify_all();
}

/**
 * Cut full chunks (and, with @p flush, the final partial chunk) off
 * the session's buffer into the chunk window and enqueue them. The
 * cut position prefers a nearby boundary whose symbol has the
 * smallest range — fewer candidate start states means fewer
 * enumeration flows for the following chunk (Section 3.1's
 * range-guided partitioning, applied incrementally).
 */
void
Server::cutLocked(Session &s, bool flush, bool *slow)
{
    FaultInjector *const inj = opts_.pap.faultInjector;
    while (!s.done && s.chunks.size() < opts_.sessionWindow) {
        std::size_t cut = 0;
        if (s.buffer.size() >= opts_.chunkSymbols) {
            const RangeAnalysis &ranges = s.ruleset->prepared.ranges;
            const std::size_t target = opts_.chunkSymbols;
            const std::size_t lo =
                target > opts_.boundaryLookback
                    ? target - opts_.boundaryLookback
                    : 1;
            std::size_t best = target;
            std::uint32_t best_range =
                std::numeric_limits<std::uint32_t>::max();
            for (std::size_t p = target; p >= lo; --p) {
                const std::uint32_t r = ranges.rangeSize(s.buffer[p - 1]);
                if (r < best_range) {
                    best_range = r;
                    best = p;
                }
            }
            cut = best;
        } else if (flush && !s.buffer.empty()) {
            cut = s.buffer.size();
        } else {
            break;
        }

        auto chunk = std::make_unique<Chunk>();
        chunk->index = s.nextChunk++;
        chunk->begin = s.resumedSymbols + s.symbolsCut;
        chunk->first = chunk->index == 0;
        chunk->boundary = s.lastSymbol;
        if (s.forceOracleNext) {
            chunk->oracle = true;
            s.forceOracleNext = false;
        }
        chunk->data.assign(s.buffer.begin(),
                           s.buffer.begin() +
                               static_cast<std::ptrdiff_t>(cut));
        s.buffer.erase(s.buffer.begin(),
                       s.buffer.begin() +
                           static_cast<std::ptrdiff_t>(cut));
        s.lastSymbol = chunk->data.back();
        s.symbolsCut += cut;
        obs::metrics().add("serve.chunks.cut");

        if (inj) {
            switch (inj->onServeChunk(s.id, chunk->index)) {
            case FaultInjector::ServeFault::Disconnect:
                // The client vanished mid-stream: drop the session
                // (this chunk included) without touching siblings.
                ++counters_.aborted;
                terminateLocked(
                    s,
                    Status::error(ErrorCode::Cancelled,
                                  "injected client disconnect"),
                    "serve.sessions.aborted");
                return;
            case FaultInjector::ServeFault::Slow:
                if (slow)
                    *slow = true;
                break;
            case FaultInjector::ServeFault::Swap:
                pendingSelfSwap_ = true;
                break;
            case FaultInjector::ServeFault::None:
                break;
            }
        }

        queue_.push(s.tenant, ChunkTask{s.id, chunk->index});
        s.chunks.push_back(std::move(chunk));
        updateQueueGaugeLocked();
    }
}

void
Server::updateQueueGaugeLocked()
{
    obs::metrics().setGauge("serve.queue.depth",
                            static_cast<double>(queue_.size()));
}

void
Server::pumpLocked()
{
    while (dispatchers_ < threads_ && !queue_.empty()) {
        ++dispatchers_;
        if (!pool_->submit([this] { dispatchLoop(); })) {
            --dispatchers_;
            break; // pool stopping: shutdown path drains explicitly
        }
    }
}

void
Server::dispatchLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        const auto task = queue_.pop();
        updateQueueGaugeLocked();
        if (!task)
            break;
        const SessionPtr s = findLocked(task->session);
        if (!s || s->done)
            continue;
        Chunk *chunk = nullptr;
        for (const auto &c : s->chunks)
            if (c->index == task->chunk) {
                chunk = c.get();
                break;
            }
        if (!chunk || chunk->executed)
            continue;
        lock.unlock();
        executeChunk(*s, *chunk);
        lock.lock();
        chunk->executed = true;
        composeReady(lock, s);
        if (pendingSelfSwap_) {
            lock.unlock();
            drainPendingSwap();
            lock.lock();
        }
    }
    --dispatchers_;
    idleCv_.notify_all();
    // A task pushed while this dispatcher was exiting would otherwise
    // strand: pump() saw it still counted and spawned nothing.
    if (!queue_.empty())
        pumpLocked();
}

/**
 * Execute one chunk on the shared segment executor, up the hardened
 * attempt ladder: watchdog deadline, injected worker faults,
 * capped-exponential retry with seeded jitter. Retries exhausting
 * marks the chunk failed — the composer recovers it from the
 * sequential oracle, so a poisoned chunk degrades the stream instead
 * of killing it.
 */
void
Server::executeChunk(Session &s, Chunk &chunk)
{
    const CompiledRuleset &rs = *s.ruleset;
    if (chunk.oracle)
        return; // composed sequentially from the frontier
    if (!chunk.first)
        chunk.plan = &rs.prepared.plan(chunk.boundary, execPap_);

    // Worker-fault coordinate: the session id, so a selected session
    // has *every* chunk attempt faulted — that is what drives it up
    // the whole ladder into quarantine, while unselected siblings
    // never see a fault. The jitter index still mixes the chunk so
    // concurrent retries decorrelate.
    exec::AttemptSite site;
    site.faultCoord = s.id;
    site.jitterIndex = static_cast<std::size_t>(s.id ^ (chunk.index << 20));
    chunk.report = exec::runAttempts(
        execOpt_, watchdog_, site,
        [&](const exec::CancellationToken &cancel) -> Status {
            SegmentRun run = executeSegment(
                rs.prepared, chunk.plan, chunk.data.data(), chunk.begin,
                chunk.data.size(), execPap_, &cancel);
            if (cancel.cancelled())
                return Status::error(ErrorCode::DeadlineExceeded,
                                     "chunk ", chunk.index,
                                     " cancelled by the watchdog");
            chunk.run = std::move(run);
            return Status();
        });
}

/**
 * Drain the session's compose frontier: while the oldest chunk has
 * finished executing, pop and fold it, cutting freshly buffered
 * symbols into the freed window slots as we go. Single-composer per
 * session (the `composing` flag); the deque order is the stream
 * order, so reports and the final active set are identical for any
 * thread count.
 */
void
Server::composeReady(std::unique_lock<std::mutex> &lock, SessionPtr s)
{
    if (s->composing)
        return;
    s->composing = true;
    FaultInjector *const inj = opts_.pap.faultInjector;
    while (!s->done) {
        checkDeadlineLocked(*s);
        if (s->done)
            break;
        cutLocked(*s, s->finRequested || draining_, nullptr);
        pumpLocked();
        if (s->chunks.empty() || !s->chunks.front()->executed)
            break;
        std::unique_ptr<Chunk> chunk = std::move(s->chunks.front());
        s->chunks.pop_front();

        ComposeInput seg;
        seg.plan = chunk->plan;
        seg.data = chunk->data.data();
        seg.begin = chunk->begin;
        seg.length = chunk->data.size();
        seg.failed = !chunk->report.status.ok();
        seg.continuation = chunk->oracle;
        seg.retried = chunk->report.retried;

        // The truth is computed outside the lock: only this composer
        // writes the frontier, and it writes under the lock.
        lock.unlock();
        SegmentTruth truth = composeStep(s->ruleset->prepared, s->frontier,
                                         seg, chunk->run);
        lock.lock();
        if (s->done)
            break; // terminated while composing; result discarded

        foldSegment(s->frontier, seg, chunk->run, std::move(truth));
        // A resume reads only a composed chunk's length. Its per-flow
        // timing records would grow the chunk's checkpoint record,
        // copied under the lock into every later checkpoint of the
        // stream, with its plan's flow count.
        std::vector<FlowTimingInfo>().swap(
            s->frontier.segments.back().timing.flows);
        s->symbolsComposed += chunk->data.size();
        ++counters_.chunksExecuted;
        auto &m = obs::metrics();
        m.add("serve.chunks.executed");

        if (seg.failed) {
            ++counters_.chunksRecovered;
            m.add("serve.chunks.recovered");
            if (inj && chunk->report.faultsInjected > 0)
                inj->markRecovered(chunk->report.faultsInjected);
            if (++s->consecutiveRecovered >= opts_.quarantineAfter) {
                ++counters_.quarantined;
                terminateLocked(
                    *s,
                    Status::error(
                        ErrorCode::StreamQuarantined, "session ",
                        s->id, " quarantined after ",
                        s->consecutiveRecovered,
                        " consecutive oracle-recovered chunks"),
                    "serve.sessions.quarantined");
                break;
            }
        } else {
            s->consecutiveRecovered = 0;
        }

        // Periodic incremental checkpoint: snapshot the frontier under
        // the lock, hand the (possibly large) serialization and fsync
        // to the writer thread. The compose hot path pays only the
        // copy, so clean-run latency is unchanged, and a kill -9
        // replays at most ckptIntervalChunks chunks.
        if (!opts_.checkpointDir.empty() && !s->key.empty() &&
            s->ckptIntervalChunks > 0 &&
            s->frontier.nextSegment - s->lastCkptChunk >=
                s->ckptIntervalChunks) {
            enqueuePeriodicCheckpointLocked(*s);
            s->lastCkptChunk = s->frontier.nextSegment;
        }

        windowCv_.notify_all();
        idleCv_.notify_all();
    }
    s->composing = false;
    finalizeLocked(*s);
    idleCv_.notify_all();
}

void
Server::finalizeLocked(Session &s)
{
    if (s.done || !s.finRequested || s.composing || !s.buffer.empty() ||
        !s.chunks.empty())
        return;
    s.done = true;
    s.status = Status();
    closeAccountingLocked(s);
    ++counters_.completed;
    auto &m = obs::metrics();
    m.add("serve.sessions.completed");
    m.observe("serve.session.latency_ms", obs::msSince(s.openedAt));
    journalCompleteLocked(s);
    doneCv_.notify_all();
    idleCv_.notify_all();
}

Status
Server::feedImpl(SessionId id, const Symbol *data, std::size_t len,
                 bool blocking, bool *accepted)
{
    if (!status_.ok())
        return status_;
    bool slow = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        const SessionPtr s = findLocked(id);
        if (!s)
            return Status::error(ErrorCode::InvalidInput,
                                 "unknown session ", id);
        checkDeadlineLocked(*s);
        const Status gate = sessionGateLocked(*s);
        if (!gate.ok())
            return gate;
        if (!blocking && s->chunks.size() >= opts_.sessionWindow &&
            s->buffer.size() >= opts_.chunkSymbols) {
            *accepted = false; // window full: stop reading this client
            return Status();
        }
        s->buffer.insert(s->buffer.end(), data, data + len);
        s->symbolsFed += len;
        for (;;) {
            cutLocked(*s, /*flush=*/false, &slow);
            pumpLocked();
            if (s->done)
                return s->status;
            if (!blocking || s->buffer.size() < opts_.chunkSymbols)
                break;
            if (s->chunks.size() < opts_.sessionWindow)
                continue; // window has room: cut again
            obs::metrics().add("serve.feed.backpressure_waits");
            windowCv_.wait(lock);
            checkDeadlineLocked(*s);
            if (s->done)
                return s->status;
        }
        if (accepted)
            *accepted = true;
    }
    drainPendingSwap();
    if (slow) // injected slow-client: the producer trickles
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return Status();
}

Status
Server::feed(SessionId id, const Symbol *data, std::size_t len)
{
    return feedImpl(id, data, len, /*blocking=*/true, nullptr);
}

Result<bool>
Server::tryFeed(SessionId id, const Symbol *data, std::size_t len)
{
    bool accepted = false;
    const Status st =
        feedImpl(id, data, len, /*blocking=*/false, &accepted);
    if (!st.ok())
        return st;
    return accepted;
}

SessionReport
Server::buildReportLocked(Session &s)
{
    SessionReport report;
    report.reports = s.frontier.reports;
    sortAndDedupReports(report.reports);
    report.symbols = s.symbolsComposed;
    report.chunks = s.frontier.nextSegment;
    report.chunksRetried = s.frontier.segmentsRetried;
    report.chunksRecovered = s.frontier.segmentsRecovered;
    report.generation = s.ruleset->generation;
    report.resumedSymbols = s.resumedSymbols;
    report.latencyMs = obs::msSince(s.openedAt);
    return report;
}

Result<SessionReport>
Server::finish(SessionId id)
{
    if (!status_.ok())
        return status_;
    SessionPtr s;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        s = findLocked(id);
        if (!s)
            return Status::error(ErrorCode::InvalidInput,
                                 "unknown session ", id);
        checkDeadlineLocked(*s);
        s->finRequested = true;
        cutLocked(*s, /*flush=*/true, nullptr);
        pumpLocked();
        finalizeLocked(*s);
    }
    drainPendingSwap();
    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [&] { return s->done; });
    const Status st = s->status;
    SessionReport report;
    if (st.ok())
        report = buildReportLocked(*s);
    sessions_.erase(id);
    if (!st.ok())
        return st;
    return report;
}

Result<bool>
Server::tryFinish(SessionId id, SessionReport *out)
{
    if (!status_.ok())
        return status_;
    std::unique_lock<std::mutex> lock(mutex_);
    const SessionPtr s = findLocked(id);
    if (!s)
        return Status::error(ErrorCode::InvalidInput,
                             "unknown session ", id);
    checkDeadlineLocked(*s);
    if (!s->done) {
        s->finRequested = true;
        cutLocked(*s, /*flush=*/true, nullptr);
        pumpLocked();
        finalizeLocked(*s);
    }
    if (!s->done)
        return false;
    const Status st = s->status;
    if (st.ok() && out)
        *out = buildReportLocked(*s);
    sessions_.erase(id);
    if (!st.ok())
        return st;
    return true;
}

Status
Server::abort(SessionId id, const std::string &reason)
{
    if (!status_.ok())
        return status_;
    std::lock_guard<std::mutex> lock(mutex_);
    const SessionPtr s = findLocked(id);
    if (!s)
        return Status::error(ErrorCode::InvalidInput,
                             "unknown session ", id);
    if (!s->done) {
        ++counters_.aborted;
        terminateLocked(*s,
                        Status::error(ErrorCode::Cancelled,
                                      "session aborted: ", reason),
                        "serve.sessions.aborted");
    }
    sessions_.erase(id);
    return Status();
}

Result<std::uint64_t>
Server::swap(const Nfa &ruleset)
{
    if (!status_.ok())
        return status_;
    auto installed = registry_.install(ruleset);
    if (!installed.ok())
        return installed.status();
    obs::metrics().add("serve.swaps");
    return installed.value()->generation;
}

void
Server::setTenantWeight(const std::string &tenant, double weight)
{
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.setWeight(tenant, weight);
}

void
Server::drainPendingSwap()
{
    bool want = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        want = pendingSelfSwap_;
        pendingSelfSwap_ = false;
    }
    if (!want)
        return;
    // Injected swap-during-stream: reinstall the current automaton as
    // a fresh generation, exercising the registry while streams that
    // hold the old generation keep running on it.
    const auto current = registry_.current();
    if (current)
        swap(current->nfa);
}

std::string
Server::checkpointPath(const std::string &tenant,
                       const std::string &key) const
{
    return opts_.checkpointDir + "/" + checkpointFileName(tenant, key);
}

Status
Server::checkpointLocked(Session &s)
{
    const Status saved =
        exec::saveCheckpoint(checkpointPath(s.tenant, s.key), s.frontier);
    if (saved.ok()) {
        ++counters_.checkpointed;
        obs::metrics().add("serve.sessions.checkpointed");
        ManifestRecord rec;
        rec.kind = ManifestRecordKind::CheckpointWritten;
        rec.symbols = s.resumedSymbols + s.symbolsComposed;
        rec.chunks = s.frontier.nextSegment;
        rec.tenant = s.tenant;
        rec.key = s.key;
        appendManifest(rec);
    }
    return saved;
}

// --- Crash tolerance -------------------------------------------------

void
Server::appendManifest(const ManifestRecord &record)
{
    std::lock_guard<std::mutex> lock(manifestMutex_);
    if (!manifest_.isOpen())
        return;
    if (!manifest_.append(record).ok())
        obs::metrics().add("serve.manifest.append_failures");
}

void
Server::journalAdmitLocked(const Session &s)
{
    if (s.key.empty() || opts_.checkpointDir.empty())
        return;
    ManifestRecord rec;
    rec.kind = ManifestRecordKind::Admit;
    rec.identity = s.frontier.identity;
    rec.generation = s.ruleset->generation;
    rec.tenant = s.tenant;
    rec.key = s.key;
    appendManifest(rec);
}

void
Server::journalCompleteLocked(const Session &s)
{
    if (s.key.empty() || opts_.checkpointDir.empty())
        return;
    CkptOp op;
    op.kind = CkptOp::Kind::Complete;
    op.path = checkpointPath(s.tenant, s.key);
    op.record.kind = ManifestRecordKind::Complete;
    op.record.tenant = s.tenant;
    op.record.key = s.key;
    enqueueCkptOp(std::move(op));
}

void
Server::enqueuePeriodicCheckpointLocked(const Session &s)
{
    CkptOp op;
    op.kind = CkptOp::Kind::Save;
    op.path = checkpointPath(s.tenant, s.key);
    op.frontier = s.frontier;
    op.record.kind = ManifestRecordKind::CheckpointWritten;
    op.record.symbols = s.resumedSymbols + s.symbolsComposed;
    op.record.chunks = s.frontier.nextSegment;
    op.record.tenant = s.tenant;
    op.record.key = s.key;
    enqueueCkptOp(std::move(op));
}

void
Server::enqueueCkptOp(CkptOp op)
{
    std::lock_guard<std::mutex> lock(ckptMutex_);
    if (!ckptThread_.joinable())
        return; // no checkpoint dir: nothing to persist to
    ckptOps_.push_back(std::move(op));
    ++ckptQueued_;
    ckptCv_.notify_all();
}

void
Server::flushCkptOps()
{
    std::unique_lock<std::mutex> lock(ckptMutex_);
    if (!ckptThread_.joinable())
        return;
    ckptCv_.wait(lock, [&] { return ckptDone_ == ckptQueued_; });
}

void
Server::ckptWriterLoop()
{
    std::unique_lock<std::mutex> lock(ckptMutex_);
    for (;;) {
        ckptCv_.wait(lock,
                     [&] { return ckptStop_ || !ckptOps_.empty(); });
        if (ckptOps_.empty()) {
            if (ckptStop_)
                break;
            continue;
        }
        CkptOp op = std::move(ckptOps_.front());
        ckptOps_.pop_front();
        lock.unlock();

        auto &m = obs::metrics();
        if (op.kind == CkptOp::Kind::Save) {
            FaultInjector *const inj = opts_.pap.faultInjector;
            if (inj && inj->onCheckpointSave()) {
                // Injected crash-at-checkpoint: the process "dies"
                // after a partial temp write — the previous
                // checkpoint file survives untouched and the stale
                // .tmp is left for the next boot's sweep.
                const std::string tmp = op.path + ".tmp";
                if (std::FILE *fp = std::fopen(tmp.c_str(), "wb")) {
                    std::fwrite("PAPCKPT\0torn", 1, 12, fp);
                    std::fclose(fp);
                }
            } else if (exec::saveCheckpoint(op.path, op.frontier)
                           .ok()) {
                {
                    std::lock_guard<std::mutex> counters(mutex_);
                    ++counters_.periodicCheckpoints;
                }
                m.add("serve.checkpoints.periodic");
                appendManifest(op.record);
            } else {
                m.add("serve.checkpoints.failed");
            }
        } else {
            // Complete record first, then the file: a crash between
            // the two leaves a stale checkpoint of a completed
            // session, which the next boot's sweep removes.
            appendManifest(op.record);
            exec::removeCheckpoint(op.path);
        }

        lock.lock();
        ++ckptDone_;
        ckptCv_.notify_all();
    }
}

void
Server::stopCkptWriter()
{
    {
        std::lock_guard<std::mutex> lock(ckptMutex_);
        ckptStop_ = true;
        ckptCv_.notify_all();
    }
    if (ckptThread_.joinable())
        ckptThread_.join();
}

void
Server::recoverColdStart(const Nfa &ruleset)
{
    if (opts_.checkpointDir.empty())
        return;
    auto &m = obs::metrics();

    // (1) Sweep temp files a crash left mid-write: half-written
    // checkpoints ("<name>.papckpt.tmp") and half-compacted
    // manifests. They were never published by a rename, so deleting
    // them can only reclaim garbage.
    std::vector<std::string> entries;
    if (DIR *dir = ::opendir(opts_.checkpointDir.c_str())) {
        while (const dirent *ent = ::readdir(dir))
            entries.emplace_back(ent->d_name);
        ::closedir(dir);
    }
    const auto hasSuffix = [](const std::string &name,
                              const char *suffix) {
        const std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    for (const std::string &name : entries) {
        if (!hasSuffix(name, ".tmp"))
            continue;
        std::remove((opts_.checkpointDir + "/" + name).c_str());
        ++counters_.staleTmpCleaned;
        m.add("serve.recovery.stale_tmp_cleaned");
    }

    // (2) Replay the manifest journal into the live-session set.
    const std::string mpath =
        opts_.checkpointDir + "/" + kManifestFileName;
    ManifestReplay replay;
    bool journalReadable = true;
    bool hadManifest = false;
    {
        auto replayed = replayManifest(mpath);
        if (replayed.ok()) {
            replay = std::move(replayed.value());
            hadManifest = replay.records > 0 || replay.torn > 0;
        } else {
            // Unreadable header: count it as torn and start fresh —
            // a bad journal must never block the daemon from booting.
            journalReadable = false;
            replay.torn = 1;
            std::remove(mpath.c_str());
        }
    }
    counters_.journalRecords = replay.records;
    counters_.journalTorn = replay.torn;
    m.add("serve.recovery.journal_records", replay.records);
    if (replay.torn > 0)
        m.add("serve.recovery.journal_torn", replay.torn);

    // (3) Verify each live session's checkpoint against the boot
    // ruleset. A corrupt file is removed (the session falls back to
    // a fresh re-feed); an identity mismatch is kept on disk so
    // resume() can reject it typed.
    const std::uint64_t digest = automatonDigest(ruleset);
    std::set<std::string> liveFiles;
    for (const auto &entry : replay.live) {
        const std::string file =
            checkpointFileName(entry.first.first, entry.first.second);
        liveFiles.insert(file);
        const std::string path = opts_.checkpointDir + "/" + file;
        auto loaded = exec::loadCheckpoint(path);
        bool resumable = true;
        if (loaded.ok()) {
            // An identity mismatch (different ruleset) is the one
            // non-resumable case; it stays on disk for the typed
            // rejection.
            resumable = loaded.value().identity ==
                        sessionIdentity(digest, entry.first.first,
                                        entry.first.second);
        } else if (loaded.status().code() ==
                   ErrorCode::CheckpointCorrupt) {
            // Corrupt file: remove it; the session re-feeds fresh.
            std::remove(path.c_str());
        } // else: no checkpoint yet — fresh re-feed, still resumable.
        if (resumable) {
            ++counters_.sessionsResumable;
            m.add("serve.recovery.sessions_resumable");
        }
    }

    // (4) Checkpoints of sessions the journal does not consider live
    // are stale (completed before the crash, or the Complete landed
    // but the file removal did not). Only a readable journal may
    // authorize deletions — with none, directory contents are kept.
    if (journalReadable && hadManifest) {
        for (const std::string &name : entries) {
            if (!hasSuffix(name, ".papckpt") || liveFiles.count(name))
                continue;
            std::remove((opts_.checkpointDir + "/" + name).c_str());
            ++counters_.staleCheckpointsRemoved;
            m.add("serve.recovery.stale_checkpoints_removed");
        }
    }

    // (5) Generations must stay monotone across restarts so a
    // checkpoint written under a swapped-out ruleset can never alias
    // a later install (the identity hash deliberately excludes the
    // counter; the structure hash does the discriminating).
    if (replay.maxGeneration > 0)
        registry_.setNextGeneration(replay.maxGeneration + 1);

    // (6) Compact the journal (bounds growth across restarts) and
    // reopen it for appending.
    if (journalReadable)
        (void)compactManifest(mpath, replay);
    {
        std::lock_guard<std::mutex> lock(manifestMutex_);
        auto opened =
            ManifestJournal::open(mpath, opts_.pap.faultInjector);
        if (opened.ok())
            manifest_ = std::move(opened.value());
    }
    recoveredLive_ = std::move(replay.live);
}

Status
Server::drain()
{
    if (!status_.ok())
        return status_;
    std::unique_lock<std::mutex> lock(mutex_);
    if (drained_)
        return Status();
    draining_ = true;
    for (auto &entry : sessions_)
        if (!entry.second->done)
            cutLocked(*entry.second, /*flush=*/true, nullptr);
    pumpLocked();
    // Quiesce: every queued chunk executed, every dispatcher parked,
    // every session's compose chain drained. composeReady keeps
    // cutting leftover buffers into freed window slots (draining_ is
    // set), so large backlogs flush without further help.
    idleCv_.wait(lock, [&] {
        if (!queue_.empty() || dispatchers_ != 0)
            return false;
        for (const auto &entry : sessions_) {
            const Session &s = *entry.second;
            if (s.done)
                continue;
            if (s.composing || !s.chunks.empty() || !s.buffer.empty())
                return false;
        }
        return true;
    });
    // Settle the checkpoint writer before the final saves: a periodic
    // save still queued carries an older frontier and must not land
    // after (and thereby overwrite) the full drain checkpoint.
    lock.unlock();
    flushCkptOps();
    lock.lock();
    Status worst;
    for (auto &entry : sessions_) {
        Session &s = *entry.second;
        if (s.done)
            continue;
        finalizeLocked(s);
        if (s.done)
            continue;
        if (!s.key.empty() && !opts_.checkpointDir.empty()) {
            const Status saved = checkpointLocked(s);
            if (!saved.ok())
                worst = saved;
            terminateLocked(
                s,
                Status::error(ErrorCode::Cancelled,
                              "daemon drained; stream checkpointed "
                              "for resume"),
                "serve.sessions.drained");
        } else {
            terminateLocked(
                s,
                Status::error(ErrorCode::Cancelled,
                              "daemon drained; stream had no "
                              "checkpoint key"),
                "serve.sessions.drained");
        }
    }
    drained_ = true;
    lock.unlock();
    // Settle the writer thread so every periodic save and journal
    // append queued before the drain is durable when we return.
    flushCkptOps();
    return worst;
}

bool
Server::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return draining_;
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServerStats out = counters_;
    out.queueDepth = queue_.size();
    out.generation = registry_.generation();
    out.liveGenerations = registry_.liveGenerations();
    return out;
}

std::uint64_t
Server::generation() const
{
    return registry_.generation();
}

} // namespace serve
} // namespace pap
