/**
 * @file
 * Sparse-dense hybrid NFA interpreter, the word-packed backend: the
 * AP's enable&match datapath in software (active vector AND per-symbol
 * match mask, OR of the matched states' successors, then the
 * AllInput-start fold) over a word-packed active vector, driven by
 * activity-proportional work (like FunctionalEngine). Two ideas keep
 * it fast on large automata, where a full-vector datapath hits the
 * cache cliff:
 *
 *  1. A per-tile skip bitmap over the active vector: the enable&match
 *     AND only reads the tiles that contain active bits, so a sparse
 *     active set touches a handful of cache lines instead of the
 *     whole vector, and the next-vector clear touches only the tiles
 *     the previous step dirtied.
 *
 *  2. Per-state routing by successor-row density: a matched state
 *     with few successors scatters individual bits through the CSR
 *     edge list (cost ~ out-degree), while a dense row ORs its
 *     compressed successor tiles whole (cost ~ non-zero tiles). The
 *     partition point is kHybridScatterMaxOut edges — the break-even
 *     between |edges| single-bit RMWs and |tiles| 32-byte ORs.
 *
 * Under the EngineBackend equivalence contract this backend is
 * observationally identical to the sparse reference backend; it is
 * the default of every run entry point (EngineKind::Hybrid).
 */

#ifndef PAP_ENGINE_HYBRID_ENGINE_H
#define PAP_ENGINE_HYBRID_ENGINE_H

#include <cstdint>
#include <vector>

#include "engine/dense_nfa.h"
#include "engine/engine_backend.h"
#include "engine/simd.h"

namespace pap {

/**
 * A matched state with at most this many successors routes them as
 * individual bit writes through the CompiledNfa edge list; above it,
 * whole successor tiles are OR'd. At 16 edges the scatter writes at
 * most 16 words while even a single tile OR moves 4 words in and 4
 * out plus metadata — measured break-even on the synthetic bench.
 */
inline constexpr std::size_t kHybridScatterMaxOut = 16;

/** One execution context over a DenseNfa, hybrid datapath. */
class HybridEngine final : public EngineBackend
{
  public:
    /**
     * @param dnfa dense automaton (must outlive the engine).
     * @param starts_enabled as in FunctionalEngine.
     * @param simd kernel table for the bulk word operations;
     *        defaults to the PAP_SIMD/CPUID resolution.
     */
    explicit HybridEngine(const DenseNfa &dnfa, bool starts_enabled,
                          SimdLevel simd = currentSimdLevel());

    void reset(const std::vector<StateId> &initial_active,
               std::uint64_t offset_base = 0) override;
    void overwriteActive(const std::vector<StateId> &vector) override;
    void step(Symbol s) override;
    void run(const Symbol *data, std::size_t len) override;
    bool dead() const override { return activeBits == 0; }
    std::size_t activeCount() const override { return activeBits; }
    std::vector<StateId> snapshot() const override;
    std::uint64_t stateHash() const override;
    bool sameActiveSet(const EngineBackend &other) const override;
    std::uint64_t cursor() const override { return offsetCursor; }
    const std::vector<ReportEvent> &reports() const override
    {
        return events;
    }
    std::vector<ReportEvent> takeReports() override;
    const EngineCounters &counters() const override { return stats; }

    /** The dense automaton this engine runs. */
    const DenseNfa &automaton() const { return dnfa; }

    /** Kernel level the word operations dispatch to. */
    SimdLevel simdLevel() const { return level; }

  private:
    /** Seed the active vector with the AllInput-start filter. */
    void seedWords(const std::vector<StateId> &states);

    /** Mark tile @p tile dirty in @p map. */
    static void markTile(std::vector<std::uint64_t> &map,
                         std::size_t tile)
    {
        map[tile >> 6] |= std::uint64_t{1} << (tile & 63);
    }

    const DenseNfa &dnfa;
    const bool startsEnabled;
    const SimdLevel level;
    const SimdOps &ops;
    std::vector<std::uint64_t> active;
    std::vector<std::uint64_t> next;
    /**
     * Skip bitmaps: bit t set iff tile t of the corresponding vector
     * may contain set bits (a superset of the non-zero tiles; bits of
     * tiles that went empty are pruned during the census pass).
     * nextTileMap is all-zero between steps, like `next` itself.
     */
    std::vector<std::uint64_t> activeTileMap;
    std::vector<std::uint64_t> nextTileMap;
    std::size_t activeBits = 0;
    std::uint64_t offsetCursor = 0;
    std::vector<ReportEvent> events;
    EngineCounters stats;
};

} // namespace pap

#endif // PAP_ENGINE_HYBRID_ENGINE_H
