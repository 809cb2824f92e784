#include "engine/hybrid_engine.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace pap {

namespace {

/** Words of the per-tile skip bitmap for @p tiles tiles. */
inline std::size_t
tileMapWords(std::size_t tiles)
{
    return (tiles + 63) / 64;
}

} // namespace

HybridEngine::HybridEngine(const DenseNfa &dense, bool starts_enabled,
                           SimdLevel simd)
    : dnfa(dense), startsEnabled(starts_enabled), level(simd),
      ops(simdOps(simd)), active(dense.words(), 0),
      next(dense.words(), 0),
      activeTileMap(tileMapWords(dense.tiles()), 0),
      nextTileMap(tileMapWords(dense.tiles()), 0)
{
}

void
HybridEngine::seedWords(const std::vector<StateId> &states)
{
    ops.clearWords(active.data(), active.size());
    ops.clearWords(activeTileMap.data(), activeTileMap.size());
    activeBits = 0;
    for (const StateId q : states) {
        PAP_ASSERT(q < dnfa.size(), "seed state ", q, " out of range");
        if (startsEnabled && dnfa.compiled().isAllInputStart(q))
            continue;
        const std::size_t w = q >> 6;
        const std::uint64_t bit = std::uint64_t{1} << (q & 63);
        if (!(active[w] & bit)) {
            active[w] |= bit;
            ++activeBits;
        }
        markTile(activeTileMap, w / kSuccTileWords);
    }
}

void
HybridEngine::reset(const std::vector<StateId> &initial_active,
                    std::uint64_t offset_base)
{
    events.clear();
    stats = EngineCounters{};
    offsetCursor = offset_base;
    // Reset may be called mid-life; restore the all-zero invariant of
    // the next-side structures before reseeding.
    ops.clearWords(next.data(), next.size());
    ops.clearWords(nextTileMap.data(), nextTileMap.size());
    seedWords(initial_active);
}

void
HybridEngine::overwriteActive(const std::vector<StateId> &vector)
{
    seedWords(vector);
}

void
HybridEngine::step(Symbol s)
{
    const std::uint64_t *m = dnfa.matchMask(s);
    const std::uint64_t *rep = dnfa.reportMask();
    const CompiledNfa &cnfa = dnfa.compiled();
    std::uint64_t rows = 0;
    std::uint64_t scanned_words = 0;
    std::uint64_t edges_scattered = 0;
    std::uint64_t tile_words = 0;
    std::uint64_t tiles_ord = 0;
    // Enable&match over the active tiles only: the skip bitmap keeps
    // a sparse active set from touching the rest of the vector.
    for (std::size_t mw = 0; mw < activeTileMap.size(); ++mw) {
        std::uint64_t tiles = activeTileMap[mw];
        while (tiles) {
            const std::size_t tile =
                mw * 64 +
                static_cast<std::size_t>(std::countr_zero(tiles));
            tiles &= tiles - 1;
            const std::size_t base = tile * kSuccTileWords;
            scanned_words += kSuccTileWords;
            for (std::size_t w = base; w < base + kSuccTileWords;
                 ++w) {
                std::uint64_t hits = active[w] & m[w];
                if (!hits)
                    continue;
                rows +=
                    static_cast<std::uint64_t>(std::popcount(hits));
                std::uint64_t matchedReporting = hits & rep[w];
                while (matchedReporting) {
                    const StateId q = static_cast<StateId>(
                        w * 64 +
                        static_cast<std::size_t>(
                            std::countr_zero(matchedReporting)));
                    events.push_back(ReportEvent{offsetCursor, q,
                                                 cnfa.reportCode(q)});
                    matchedReporting &= matchedReporting - 1;
                }
                while (hits) {
                    const StateId q = static_cast<StateId>(
                        w * 64 + static_cast<std::size_t>(
                                     std::countr_zero(hits)));
                    hits &= hits - 1;
                    const auto [tbegin, tend] = cnfa.successors(q);
                    const std::size_t out =
                        static_cast<std::size_t>(tend - tbegin);
                    if (out <= kHybridScatterMaxOut) {
                        // Sparse row: scatter individual bits.
                        for (const StateId *t = tbegin; t != tend;
                             ++t) {
                            const std::size_t tw = *t >> 6;
                            next[tw] |= std::uint64_t{1} << (*t & 63);
                            markTile(nextTileMap,
                                     tw / kSuccTileWords);
                        }
                        edges_scattered += out;
                    } else {
                        // Dense row: OR its compressed tiles whole.
                        const DenseNfa::TileRow tr = dnfa.succTiles(q);
                        for (std::size_t i = 0; i < tr.count; ++i) {
                            ops.orTile(
                                next.data() +
                                    static_cast<std::size_t>(
                                        tr.index[i]) *
                                        kSuccTileWords,
                                tr.data + i * kSuccTileWords);
                            markTile(nextTileMap, tr.index[i]);
                        }
                        tile_words += tr.count * kSuccTileWords;
                        tiles_ord += tr.count;
                    }
                }
            }
        }
    }
    stats.matches += rows;
    if (startsEnabled) {
        // The AllInput-start fold; the dirty marks for the
        // start-enable tiles come from the precomputed skip list, and
        // clearing AllInput bits can only empty tiles (the census
        // pass prunes those marks).
        ops.andNotOrWords(next.data(), dnfa.allInputMask(),
                          dnfa.startEnableMask(s), dnfa.words());
        for (const std::uint32_t tile : dnfa.startEnableTiles(s))
            markTile(nextTileMap, tile);
        stats.matches += cnfa.startMatchCount(s);
        for (const auto &sr : cnfa.startReports(s))
            events.push_back(ReportEvent{offsetCursor, sr.state,
                                         sr.code});
    }
    active.swap(next);
    activeTileMap.swap(nextTileMap);
    // Census over the dirty tiles: count the active bits and prune
    // marks whose tile went empty, so the skip bitmap stays a tight
    // superset of the non-zero tiles.
    activeBits = 0;
    for (std::size_t mw = 0; mw < activeTileMap.size(); ++mw) {
        std::uint64_t tiles = activeTileMap[mw];
        std::uint64_t kept = 0;
        while (tiles) {
            const std::uint64_t lsb = tiles & (~tiles + 1);
            const std::size_t tile =
                mw * 64 +
                static_cast<std::size_t>(std::countr_zero(tiles));
            tiles &= tiles - 1;
            const std::uint64_t *w =
                active.data() + tile * kSuccTileWords;
            const std::uint64_t pop =
                static_cast<std::uint64_t>(std::popcount(w[0])) +
                static_cast<std::uint64_t>(std::popcount(w[1])) +
                static_cast<std::uint64_t>(std::popcount(w[2])) +
                static_cast<std::uint64_t>(std::popcount(w[3]));
            if (pop) {
                kept |= lsb;
                activeBits += pop;
            }
        }
        activeTileMap[mw] = kept;
    }
    // Restore the all-zero invariant of the next side: clear exactly
    // the tiles the previous active vector dirtied.
    std::uint64_t cleared_words = 0;
    for (std::size_t mw = 0; mw < nextTileMap.size(); ++mw) {
        std::uint64_t tiles = nextTileMap[mw];
        while (tiles) {
            const std::size_t tile =
                mw * 64 +
                static_cast<std::size_t>(std::countr_zero(tiles));
            tiles &= tiles - 1;
            std::uint64_t *w = next.data() + tile * kSuccTileWords;
            w[0] = 0;
            w[1] = 0;
            w[2] = 0;
            w[3] = 0;
            cleared_words += kSuccTileWords;
        }
        nextTileMap[mw] = 0;
    }
    stats.enables += activeBits;
    // Datapath cost: active-tile match words read twice (active +
    // mask), scattered edges as word RMWs, OR'd tiles with their CSR
    // metadata, the dirty-tile clears, and the two extra mask vectors
    // of the start fold. Everything scales with activity except the
    // start fold, which is O(words) but cache-resident.
    stats.succRows += rows;
    stats.maskWords += scanned_words;
    stats.bytesTouched +=
        16ull * scanned_words + 8ull * edges_scattered +
        8ull * tile_words + 4ull * (2 * rows + tiles_ord) +
        8ull * cleared_words +
        (startsEnabled ? 24ull * dnfa.words() : 0);
    ++stats.densityOctiles[densityOctile(activeBits, dnfa.size())];
    ++stats.symbols;
    ++offsetCursor;
}

void
HybridEngine::run(const Symbol *data, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        step(data[i]);
}

std::vector<StateId>
HybridEngine::snapshot() const
{
    // Tiles iterate in ascending order through the skip bitmap, so
    // states come out ascending.
    std::vector<StateId> out;
    out.reserve(activeBits);
    for (std::size_t mw = 0; mw < activeTileMap.size(); ++mw) {
        std::uint64_t tiles = activeTileMap[mw];
        while (tiles) {
            const std::size_t tile =
                mw * 64 +
                static_cast<std::size_t>(std::countr_zero(tiles));
            tiles &= tiles - 1;
            const std::size_t base = tile * kSuccTileWords;
            for (std::size_t w = base; w < base + kSuccTileWords;
                 ++w) {
                std::uint64_t word = active[w];
                while (word) {
                    out.push_back(static_cast<StateId>(
                        w * 64 + static_cast<std::size_t>(
                                     std::countr_zero(word))));
                    word &= word - 1;
                }
            }
        }
    }
    return out;
}

std::uint64_t
HybridEngine::stateHash() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t mw = 0; mw < activeTileMap.size(); ++mw) {
        std::uint64_t tiles = activeTileMap[mw];
        while (tiles) {
            const std::size_t tile =
                mw * 64 +
                static_cast<std::size_t>(std::countr_zero(tiles));
            tiles &= tiles - 1;
            const std::size_t base = tile * kSuccTileWords;
            for (std::size_t w = base; w < base + kSuccTileWords;
                 ++w) {
                std::uint64_t word = active[w];
                while (word) {
                    h ^= static_cast<StateId>(
                        w * 64 + static_cast<std::size_t>(
                                     std::countr_zero(word)));
                    h *= 0x100000001b3ull;
                    word &= word - 1;
                }
            }
        }
    }
    return h;
}

bool
HybridEngine::sameActiveSet(const EngineBackend &other) const
{
    // The zero-outside-marked-tiles invariant makes whole-vector
    // word compares exact against another hybrid peer.
    if (const auto *peer = dynamic_cast<const HybridEngine *>(&other)) {
        if (peer->active.size() == active.size())
            return peer->active == active;
    }
    if (other.activeCount() != activeBits)
        return false;
    return snapshot() == other.snapshot();
}

std::vector<ReportEvent>
HybridEngine::takeReports()
{
    std::vector<ReportEvent> out;
    out.swap(events);
    return out;
}

} // namespace pap
