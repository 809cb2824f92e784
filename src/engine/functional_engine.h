/**
 * @file
 * Sparse-active-set NFA interpreter, the one execution engine. One
 * engine instance corresponds to one AP execution context (one flow):
 * it owns an active-state set, consumes symbols, and produces report
 * events. Start-state machinery can be disabled for enumeration flows,
 * whose spontaneous-start activity is carried by the Active State
 * Group flow instead (Section 3.3.2 of the paper).
 *
 * What the layers above rely on:
 *  - snapshot() returns the active set sorted ascending;
 *  - stateHash() is the FNV-1a hash of the sorted active ids, so equal
 *    sets hash equal however they were reached;
 *  - reports() hold the events in emission order, which every
 *    consumer erases via sortAndDedupReports before comparing or
 *    persisting.
 * FIVs, composition, convergence checks and checkpoint files are built
 * on these.
 */

#ifndef PAP_ENGINE_FUNCTIONAL_ENGINE_H
#define PAP_ENGINE_FUNCTIONAL_ENGINE_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/compiled_nfa.h"
#include "engine/report.h"

namespace pap {

/**
 * Counters an engine accumulates while running. Recording is O(1)
 * per step (a handful of adds folded into work the step does anyway),
 * so they stay on in every build.
 *
 * symbols/matches/enables are *result* counters: set cardinalities,
 * never visit orders. The introspection fields below estimate the
 * *cost* of the datapath: how much automaton and state-vector memory
 * the engine touches to produce that result. densityOctiles derives
 * from the per-step active-set cardinality, so it is a result too.
 */
struct EngineCounters
{
    /** Symbols consumed. */
    std::uint64_t symbols = 0;
    /** State matches (equals AP state transitions triggered). */
    std::uint64_t matches = 0;
    /** States enabled (with duplicates removed per cycle). */
    std::uint64_t enables = 0;

    // --- Datapath introspection (cost estimates) ---
    /** Successor edge lists walked, one per matched state. */
    std::uint64_t succRows = 0;
    /** Label bitmaps tested, one per scanned active state. */
    std::uint64_t maskWords = 0;
    /** Estimated automaton + state-vector bytes read. This is the
     *  measured form of the large-NFA cache cliff: when bytes per
     *  symbol outgrow the cache, throughput collapses. */
    std::uint64_t bytesTouched = 0;
    /** Histogram of per-step active density: octile k counts steps
     *  with active/states in [k/8, (k+1)/8). */
    std::array<std::uint64_t, 8> densityOctiles{};
};

/** Octile index (0..7) for @p active_states of @p total states. */
inline std::size_t
densityOctile(std::size_t active_states, std::size_t total)
{
    if (total == 0)
        return 0;
    const std::size_t k = active_states * 8 / total;
    return k < 7 ? k : 7;
}

/**
 * Per-cycle duplicate-suppression scratch. It is O(states) in size, so
 * when hundreds of engines (flows) run over the same automaton they
 * should share one instance; sharing is safe because the scratch is
 * only used inside a single step() call.
 */
class EngineScratch
{
  public:
    /** Size for an automaton of @p states states. */
    explicit EngineScratch(std::size_t states) : mark(states, 0) {}

    /** Start a new deduplication generation. */
    void
    bump()
    {
        if (++epoch == 0) {
            std::fill(mark.begin(), mark.end(), 0);
            epoch = 1;
        }
    }

    /** True the first time @p q is claimed in this generation. */
    bool
    claim(StateId q)
    {
        if (mark[q] == epoch)
            return false;
        mark[q] = epoch;
        return true;
    }

  private:
    std::vector<std::uint32_t> mark;
    std::uint32_t epoch = 0;
};

/** One execution context over a CompiledNfa. */
class FunctionalEngine
{
  public:
    /**
     * @param cnfa compiled automaton (must outlive the engine).
     * @param starts_enabled when true, StartOfData states are enabled
     *        before the first symbol and AllInput states before every
     *        symbol; when false the engine runs only the activity of
     *        the explicitly seeded states (enumeration-flow mode).
     * @param scratch shared dedup scratch; if null the engine owns one.
     */
    FunctionalEngine(const CompiledNfa &cnfa, bool starts_enabled,
                     EngineScratch *scratch = nullptr);

    /**
     * Clear all state and seed the active set. AllInput starts in the
     * seed are dropped when start machinery is live (they would be
     * double-processed). @p offset_base is the absolute input offset
     * of the next symbol (for report events).
     */
    void reset(const std::vector<StateId> &initial_active,
               std::uint64_t offset_base = 0);

    /**
     * Replace the active set without touching the cursor, counters,
     * or accumulated reports: the state-vector overwrite a context
     * switch performs when reloading (or mis-reloading) an SVC entry.
     * Applies the same AllInput-start filtering as reset().
     */
    void overwriteActive(const std::vector<StateId> &vector);

    /** Consume one symbol. */
    void step(Symbol s);

    /** Consume @p len symbols from @p data. */
    void run(const Symbol *data, std::size_t len);

    /** True if the active set is empty (the flow is unproductive). */
    bool dead() const { return active.empty(); }

    /** Number of currently active states. */
    std::size_t activeCount() const { return active.size(); }

    /** Sorted copy of the active set (the flow's state vector). */
    std::vector<StateId> snapshot() const;

    /** Order-independent 64-bit hash of the active set. */
    std::uint64_t stateHash() const;

    /**
     * True iff this engine's active set equals @p other's: the SVC
     * convergence comparator, a compare of the cached sorted ids.
     */
    bool sameActiveSet(const FunctionalEngine &other) const;

    /** Absolute offset of the next symbol to be consumed. */
    std::uint64_t cursor() const { return offsetCursor; }

    /** Events produced so far (unsorted, in emission order). */
    const std::vector<ReportEvent> &reports() const { return events; }

    /** Move the accumulated events out (clears the internal buffer). */
    std::vector<ReportEvent> takeReports();

    /** Performance counters. */
    const EngineCounters &counters() const { return stats; }

    /** Unsorted view of the active set (cheap; for sampling). */
    const std::vector<StateId> &activeRaw() const { return active; }

  private:
    /**
     * Sorted view of the active set, computed lazily and cached until
     * the next mutation, so convergence checks (which call snapshot /
     * stateHash / sameActiveSet on an unchanged engine many times per
     * round) sort each active set at most once.
     */
    const std::vector<StateId> &sortedActive() const;

    const CompiledNfa &cnfa;
    const bool startsEnabled;
    std::unique_ptr<EngineScratch> ownedScratch;
    EngineScratch *scratch;
    std::vector<StateId> active;
    std::vector<StateId> next;
    mutable std::vector<StateId> sortedCache;
    mutable bool sortedValid = false;
    std::uint64_t offsetCursor = 0;
    std::vector<ReportEvent> events;
    EngineCounters stats;
};

} // namespace pap

#endif // PAP_ENGINE_FUNCTIONAL_ENGINE_H
