/**
 * @file
 * Append-only session-manifest journal for crash-tolerant serve.
 *
 * The daemon's periodic checkpoints (PAPCKPT files, one per keyed
 * session) say how to *resume* a stream; the manifest says *which*
 * streams exist at all. After a hard crash the set of live sessions
 * must be reconstructible without trusting directory listings — a
 * crash can leave stale checkpoint files of completed sessions, or a
 * freshly admitted session that never reached its first checkpoint.
 * The journal records the session lifecycle as it happens:
 *
 *   Admit(identity, generation, tenant, key)   keyed session admitted
 *   CheckpointWritten(symbols, chunks, t, k)   checkpoint durable
 *   Complete(tenant, key)                      finished/aborted —
 *                                              checkpoint removed
 *   SwapGeneration(generation)                 ruleset hot-swap
 *
 * Each record is CRC-framed: [u8 kind][u32 len][payload][u32 crc],
 * the CRC covering kind, length, and payload. Appends are written in
 * one write(2) to an O_APPEND descriptor and fsynced, so a crash can
 * only tear the *tail*: replay stops cleanly at the first bad frame
 * and reports it, never misparses (torn-tail tolerance, exercised by
 * the seeded `torn-manifest-write` fault). On cold start the server
 * replays the journal, recovers the live set, then compacts the file
 * (tmp + rename + dir-fsync, same discipline as PAPCKPT) so it does
 * not grow without bound across restarts.
 *
 * The format is documented in docs/file-formats.md §5.
 */

#ifndef PAP_SERVE_MANIFEST_H
#define PAP_SERVE_MANIFEST_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/error.h"

namespace pap {

class FaultInjector;

namespace serve {

/** Current manifest journal file version. */
inline constexpr std::uint32_t kManifestVersion = 1;

/** Journal file name inside the checkpoint directory. */
inline constexpr const char *kManifestFileName = "manifest.papj";

/** Lifecycle events the journal records. */
enum class ManifestRecordKind : std::uint8_t
{
    Admit = 1,
    CheckpointWritten = 2,
    Complete = 3,
    SwapGeneration = 4,
};

/** One journal record (union of the per-kind fields). */
struct ManifestRecord
{
    ManifestRecordKind kind = ManifestRecordKind::Admit;
    /** Admit: serve identity hash binding ruleset + tenant + key. */
    std::uint64_t identity = 0;
    /** Admit / SwapGeneration: ruleset generation. */
    std::uint64_t generation = 0;
    /** CheckpointWritten: committed symbol offset / composed chunks. */
    std::uint64_t symbols = 0;
    std::uint64_t chunks = 0;
    /** Admit / CheckpointWritten / Complete: session coordinates. */
    std::string tenant;
    std::string key;
};

/**
 * Appender for the journal. Opens (creating + writing the header if
 * absent) an O_APPEND descriptor; every append() is one write + fsync
 * so records hit the disk in order and a crash tears at most the
 * final record. Not internally locked: serve::Server makes every
 * append on its one writer, a single-worker pool that also saves and
 * removes the checkpoint files.
 */
class ManifestJournal
{
  public:
    ManifestJournal() = default;
    ~ManifestJournal();

    ManifestJournal(ManifestJournal &&other) noexcept;
    ManifestJournal &operator=(ManifestJournal &&other) noexcept;
    ManifestJournal(const ManifestJournal &) = delete;
    ManifestJournal &operator=(const ManifestJournal &) = delete;

    /**
     * Open the journal at @p path for appending, creating it (and
     * writing the file header) when absent. @p faults, when non-null,
     * arms the `torn-manifest-write` hook: a selected append writes
     * only a prefix of the frame and reports failure, modeling a
     * crash mid-write.
     */
    static Result<ManifestJournal> open(const std::string &path,
                                        FaultInjector *faults = nullptr);

    /** True when open() succeeded and close() has not been called. */
    bool isOpen() const { return fd_ >= 0; }

    /**
     * Durably append one record. On failure (I/O trouble or an
     * injected torn write) the journal stays usable but the record
     * must be considered lost — recovery after a crash here replays
     * up to the previous record only.
     */
    Status append(const ManifestRecord &record);

    const std::string &path() const { return path_; }

    void close();

  private:
    std::string path_;
    int fd_ = -1;
    FaultInjector *faults_ = nullptr;
};

/** What a cold start learns from replaying the journal. */
struct ManifestReplay
{
    /** Last journaled state of a still-live keyed session. */
    struct LiveSession
    {
        std::uint64_t identity = 0;
        std::uint64_t generation = 0;
        /** Committed frontier of the newest durable checkpoint. */
        std::uint64_t symbols = 0;
        std::uint64_t chunks = 0;
        /** True once a CheckpointWritten record was replayed. */
        bool checkpointed = false;
    };

    /** Live sessions keyed by (tenant, key). */
    std::map<std::pair<std::string, std::string>, LiveSession> live;
    /** Sessions whose Complete record was replayed. */
    std::uint64_t completed = 0;
    /** Highest ruleset generation any record mentioned. */
    std::uint64_t maxGeneration = 0;
    /** Well-formed records replayed. */
    std::uint64_t records = 0;
    /** 1 when replay stopped at a torn/corrupt tail, else 0. */
    std::uint64_t torn = 0;
};

/**
 * Replay the journal at @p path. A missing file yields an empty
 * replay (first boot, not an error); a bad header yields
 * CheckpointCorrupt; a torn or corrupt record stops replay at the
 * last good frame and sets `torn`.
 */
Result<ManifestReplay> replayManifest(const std::string &path);

/**
 * Rewrite the journal to the minimal record set reproducing
 * @p replay (one Admit + at most one CheckpointWritten per live
 * session, plus a SwapGeneration pinning the generation floor),
 * atomically via tmp + rename + dir-fsync.
 */
Status compactManifest(const std::string &path,
                       const ManifestReplay &replay);

} // namespace serve
} // namespace pap

#endif // PAP_SERVE_MANIFEST_H
