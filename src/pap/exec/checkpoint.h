/**
 * @file
 * Crash-consistent checkpoint/resume for PAP runs. After composing
 * each segment, the runner serializes the composition frontier — next
 * segment index, the true final active set (the FIV the next segment
 * composes against), the accumulated true-report cursor, fault-
 * injector RNG state, and the timing records of every composed
 * segment — to a versioned binary file. A killed run restarted with
 * the same checkpoint path skips the simulation and composition of
 * every segment already composed and produces byte-identical reports
 * and per-figure metrics.
 *
 * Crash consistency: the file is written to "<path>.tmp" and renamed
 * over the target, so a crash mid-save leaves the previous checkpoint
 * intact; a CRC-32 over the payload detects torn or corrupted files,
 * which load as ErrorCode::CheckpointCorrupt (the runner then warns
 * and starts fresh — a bad checkpoint never blocks a run). The format
 * is documented in docs/file-formats.md.
 */

#ifndef PAP_PAP_EXEC_CHECKPOINT_H
#define PAP_PAP_EXEC_CHECKPOINT_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "engine/report.h"
#include "pap/timeline.h"

namespace pap {
namespace exec {

/**
 * Current checkpoint file version; a file of any other version loads
 * as CheckpointCorrupt (docs/file-formats.md lists what changed).
 */
inline constexpr std::uint32_t kCheckpointVersion = 2;

/** Per-composed-segment record needed to rebuild the full result. */
struct SegmentCheckpoint
{
    /** Timing-model input of the segment (flows, entries). */
    SegmentTimingInput timing;
    /** Flow-outcome census for the segment diagnostics. */
    std::uint32_t deactivated = 0;
    std::uint32_t converged = 0;
    std::uint32_t ranToEnd = 0;
    std::uint32_t truePaths = 0;
    /** True when the segment was repaired by the per-segment oracle. */
    std::uint8_t recovered = 0;
};

/**
 * The composition state of one runPap call or serve stream, and
 * everything a resumed run needs to continue its chain: foldSegment
 * (pap/composer.h) advances it one segment at a time.
 */
struct CheckpointFrontier
{
    /**
     * Hash binding the checkpoint to one run, built on the automaton's
     * structural digest (docs/file-formats.md); a mismatch means the
     * file belongs to a different run and is ignored.
     */
    std::uint64_t identity = 0;
    /** First segment that has NOT been composed yet. */
    std::uint32_t nextSegment = 0;
    /** True final active set after the last composed segment (FIV). */
    std::vector<StateId> finalActive;
    /** Accumulated true reports, in composition order (pre-dedup). */
    std::vector<ReportEvent> reports;
    /** Output-buffer entries accumulated so far (report inflation). */
    std::uint64_t papEntries = 0;
    /** Energy accounting accumulated over composed segments. */
    std::uint64_t flowTransitions = 0;
    std::uint64_t flowSymbolCycles = 0;
    /** Hardened-execution census so far. */
    std::uint32_t segmentsRetried = 0;
    std::uint32_t segmentsRecovered = 0;
    /** Fault-injector RNG state at checkpoint time (zeros if none). */
    std::array<std::uint64_t, 4> rngState{};
    /** One record per composed segment (indices [0, nextSegment)). */
    std::vector<SegmentCheckpoint> segments;
};

/**
 * Atomically write @p frontier to @p path (via "<path>.tmp" + rename).
 * Returns a Status instead of aborting on I/O trouble so a full disk
 * degrades checkpointing, not the run.
 */
Status saveCheckpoint(const std::string &path,
                      const CheckpointFrontier &frontier);

/**
 * Load a checkpoint. InvalidInput when the file does not exist (a
 * fresh run, not an error); CheckpointCorrupt when it exists but has a
 * bad magic, version, length, or CRC.
 */
Result<CheckpointFrontier> loadCheckpoint(const std::string &path);

/** Delete the checkpoint file, if present (after a completed run). */
void removeCheckpoint(const std::string &path);

} // namespace exec
} // namespace pap

#endif // PAP_PAP_EXEC_CHECKPOINT_H
