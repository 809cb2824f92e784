/**
 * @file
 * Word-packed flattening of a CompiledNfa for the hybrid backend
 * (HybridEngine). Every per-state predicate becomes a bit mask over the
 * state space, so one engine step is a handful of whole-word
 * operations — the software mirror of the AP's enable&match datapath
 * (PAPER.md Section 2.1): the routing matrix ORs the successor rows of
 * matched states into the enable vector, which is ANDed with the
 * per-symbol match vector.
 *
 * Successor rows are NOT stored as a flat states x words matrix (that
 * layout is states^2/8 bytes — 33 MB at 16K states — and walking it
 * per matched state is the measured cache cliff in BENCH_engine.json).
 * Instead each row is compressed to its non-zero cache tiles
 * (kSuccTileWords words each) in a CSR of (tile index, tile words)
 * entries: OR-ing a row touches only the tiles its edges land in, so
 * datapath traffic tracks edge count, not state count, and the whole
 * structure stays cache-resident for realistic fan-outs.
 *
 * Immutable; shared read-only by any number of engines and threads.
 */

#ifndef PAP_ENGINE_DENSE_NFA_H
#define PAP_ENGINE_DENSE_NFA_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "engine/compiled_nfa.h"
#include "engine/simd.h"

namespace pap {

/** Immutable dense (bit-matrix) form of a compiled automaton. */
class DenseNfa
{
  public:
    /** One compressed successor row: its non-zero tiles. */
    struct TileRow
    {
        /** Tile indices (word offset = index * kSuccTileWords). */
        const std::uint32_t *index;
        /** Tile payloads, kSuccTileWords words per entry. */
        const std::uint64_t *data;
        /** Number of tiles in the row. */
        std::size_t count;
    };

    /** Pack @p cnfa (kept by reference; must outlive this object). */
    explicit DenseNfa(const CompiledNfa &cnfa);

    /** Number of states. */
    std::size_t size() const { return numStates; }

    /**
     * 64-bit words per state vector, padded to a whole number of
     * successor tiles so tile ORs never need bounds checks. Padding
     * bits are zero in every mask and are never set by any engine.
     */
    std::size_t words() const { return numWords; }

    /** Successor tiles per state vector (words() / kSuccTileWords). */
    std::size_t tiles() const { return numWords / kSuccTileWords; }

    /** The compiled automaton this was packed from. */
    const CompiledNfa &compiled() const { return cnfa; }

    /** Bit q set iff state q's label matches symbol @p s. */
    const std::uint64_t *matchMask(Symbol s) const
    {
        return match.data() + static_cast<std::size_t>(s) * numWords;
    }

    /** Compressed successor row of state @p q (unfiltered). */
    TileRow succTiles(StateId q) const
    {
        const std::uint32_t begin = rowTileOffset[q];
        return TileRow{rowTileIndex.data() + begin,
                       rowTileData.data() +
                           static_cast<std::size_t>(begin) *
                               kSuccTileWords,
                       rowTileOffset[q + 1] - begin};
    }

    /** Bit q set iff state q reports on match. */
    const std::uint64_t *reportMask() const { return reporting.data(); }

    /** Bit q set iff state q is an AllInput start. */
    const std::uint64_t *allInputMask() const { return allInput.data(); }

    /**
     * States enabled for the next cycle because an AllInput start
     * matched symbol @p s (the per-symbol start enable word).
     */
    const std::uint64_t *startEnableMask(Symbol s) const
    {
        return startEnable.data() +
               static_cast<std::size_t>(s) * numWords;
    }

    /**
     * Non-zero tiles of startEnableMask(@p s) — the skip list the
     * hybrid backend uses to mark start-enable activity without
     * scanning the whole vector.
     */
    const std::vector<std::uint32_t> &startEnableTiles(Symbol s) const
    {
        return startTiles[s];
    }

    /**
     * Per-symbol range sizes read straight off the match masks:
     * rangeSizes()[s] is the popcount of the union of the successor
     * rows of every state in matchMask(s) — bitwise-identical to
     * RangeAnalysis::rangeSizes() (Section 3.1), so the partitioner
     * can consume either.
     */
    const std::array<std::uint32_t, kAlphabetSize> &rangeSizes() const
    {
        return ranges;
    }

    /** Total successor-row tiles stored (fan-out density census). */
    std::size_t totalSuccTiles() const
    {
        return rowTileIndex.size();
    }

    /** Approximate heap footprint in bytes (for the auto threshold). */
    std::size_t byteSize() const;

  private:
    const CompiledNfa &cnfa;
    std::size_t numStates;
    std::size_t numWords;
    std::vector<std::uint64_t> match;       // 256 x words
    std::vector<std::uint64_t> reporting;   // words
    std::vector<std::uint64_t> allInput;    // words
    std::vector<std::uint64_t> startEnable; // 256 x words
    // Compressed successor tiles (CSR over states).
    std::vector<std::uint32_t> rowTileOffset; // states + 1
    std::vector<std::uint32_t> rowTileIndex;  // per stored tile
    std::vector<std::uint64_t> rowTileData;   // tiles * kSuccTileWords
    std::array<std::vector<std::uint32_t>, kAlphabetSize> startTiles;
    std::array<std::uint32_t, kAlphabetSize> ranges{};
};

} // namespace pap

#endif // PAP_ENGINE_DENSE_NFA_H
