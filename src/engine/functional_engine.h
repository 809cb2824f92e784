/**
 * @file
 * The one execution engine, an NFA interpreter with two datapaths. One
 * engine instance corresponds to one AP execution context (one flow):
 * it owns an active-state set, consumes symbols, and produces report
 * events. Start-state machinery can be disabled for enumeration flows,
 * whose spontaneous-start activity is carried by the Active State
 * Group flow instead (Section 3.3.2 of the paper).
 *
 * Each step runs on one of two datapaths, chosen from the live active
 * count: a sparse list (one label probe per listed state, one edge
 * walk per matched state) while activity is low, and a shift step
 * over a state bitset (the matched set moved along each offset class
 * of CompiledNfa with one shifted OR, the AP's routing matrix applied
 * to every enabled STE at once) while it is high. Which one ran is
 * invisible to every observer below.
 *
 * With start machinery live, the sparse list keeps the narrow start
 * successors enabled after the previous symbol implicit: which of
 * them match the next symbol depends on the symbol pair alone, so the
 * step reads them from CompiledNfa's symbol-pair table instead of
 * listing and probing every one, as the AP re-enables its AllInput
 * starts without any work per cycle. Every observer below counts the
 * implicit states as active.
 *
 * What the layers above rely on:
 *  - snapshot() returns the active set sorted ascending;
 *  - stateHash() is the FNV-1a hash of the sorted active ids, so equal
 *    sets hash equal however they were reached;
 *  - reports() hold the events in emission order, which differs
 *    between the datapaths; every consumer erases it via
 *    sortAndDedupReports, or a stable sort by (offset, state), before
 *    comparing, persisting or picking an event by index;
 *  - the result counters are the same on both datapaths.
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
 * never visit orders. succRows and maskWords count the sparse step's
 * work, which is a set cardinality too (matched and scanned states),
 * so both datapaths produce the same values. bytesTouched and
 * shiftSteps estimate the *cost* of the datapath that actually ran:
 * how much automaton and state-vector memory the engine touches to
 * produce that result. densityOctiles derives from the per-step
 * active-set cardinality, so it is a result too.
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
    /** Successor edge lists a sparse step walks, one per matched
     *  state; counted the same on a shift step, so a result too. */
    std::uint64_t succRows = 0;
    /** Active states a step scans, listed or implicit (one label
     *  probe each on the list step that lists every start successor);
     *  counted the same on a shift step, so a result too. */
    std::uint64_t maskWords = 0;
    /** Estimated automaton + state-vector bytes read. This is the
     *  measured form of the large-NFA cache cliff: when bytes per
     *  symbol outgrow the cache, throughput collapses. A sparse step
     *  charges per listed state it probes, symbol-pair table entry it
     *  reads and edge it walks (never per implicit start successor),
     *  a shift step the bitset words it reads. */
    std::uint64_t bytesTouched = 0;
    /** Steps that ran on the shift datapath. */
    std::uint64_t shiftSteps = 0;
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

/**
 * The sparse datapath: an unsorted list of active states, stepped with
 * one label probe per state and one edge walk per matched state, in
 * discovery order. FunctionalEngine runs it while activity is low.
 * generateTrace samples the list by index, so its traces (and every
 * benchmark input) depend on step()'s order; it steps this type
 * directly rather than the engine, whose list order changes once the
 * engine has moved to the shift datapath and back, and which steps a
 * start-enabled list with stepImplicitStarts().
 */
class SparseActiveList
{
  public:
    /**
     * @param cnfa compiled automaton (must outlive the list).
     * @param starts_enabled as for FunctionalEngine.
     * @param scratch shared dedup scratch; if null the list owns one.
     */
    SparseActiveList(const CompiledNfa &cnfa, bool starts_enabled,
                     EngineScratch *scratch = nullptr);

    /**
     * Replace the list with @p states, dropping duplicates and, when
     * start machinery is live, AllInput starts (they would be
     * double-processed). No state is implicit afterwards.
     */
    void assign(const std::vector<StateId> &states);

    /**
     * Consume @p s, listing every state the step enables: append the
     * reports of matched reporting states to @p events at @p offset
     * and add the step's matches, succRows, maskWords and
     * bytesTouched to @p stats. Requires no implicit state.
     */
    void step(Symbol s, std::uint64_t offset,
              std::vector<ReportEvent> &events, EngineCounters &stats);

    /**
     * step() with start machinery live and the narrow start
     * successors implicit: the matched implicit states come from the
     * symbol-pair table, only the listed states are probed, a
     * successor the starts enable narrowly after @p s is not listed,
     * and of the starts' enables only the wide ones are claimed; the
     * narrow successors of @p s are implicit afterwards. The active
     * set, reports and result counters equal step()'s; the list order
     * and bytesTouched differ.
     */
    void stepImplicitStarts(Symbol s, std::uint64_t offset,
                            std::vector<ReportEvent> &events,
                            EngineCounters &stats);

    /** Replace the list with the set bits of @p bits, ascending. No
        state is implicit afterwards. */
    void assignBits(const BitVector &bits);

    /** The listed active states in discovery order. */
    const std::vector<StateId> &states() const { return active; }

    /** The implicit active states, ascending; none of them is listed. */
    const std::vector<StateId> &implicitStates() const;

    /** Number of active states, listed and implicit. */
    std::size_t size() const { return active.size() + implicitCount; }

  private:
    const CompiledNfa &cnfa;
    const bool startsEnabled;
    std::unique_ptr<EngineScratch> ownedScratch;
    EngineScratch *scratch;
    std::vector<StateId> active;
    std::vector<StateId> next;
    /** The symbol whose narrow start successors are implicit, or -1. */
    int implicitAfter = -1;
    std::size_t implicitCount = 0;
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
    bool dead() const { return activeCount() == 0; }

    /** Number of currently active states. */
    std::size_t
    activeCount() const
    {
        return onBits ? bitCount : list.size();
    }

    /** Sorted copy of the active set (the flow's state vector). */
    std::vector<StateId> snapshot() const;

    /** Order-independent 64-bit hash of the active set. */
    std::uint64_t stateHash() const;

    /**
     * True iff this engine's active set equals @p other's: the SVC
     * convergence comparator.
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

  private:
    /** Move the active list, implicit states included, into the
        bitset. */
    void promote();
    /** Move the bitset into the active list, in state order, with no
        state implicit. */
    void demote();
    /** One step on the bitset. */
    void shiftStep(Symbol s);

    /**
     * Sorted view of the active set, computed lazily and cached until
     * the next mutation, so convergence checks (which call snapshot /
     * stateHash / sameActiveSet on an unchanged engine many times per
     * round) sort each active set at most once.
     */
    const std::vector<StateId> &sortedActive() const;

    const CompiledNfa &cnfa;
    const bool startsEnabled;
    SparseActiveList list;
    /** True while the active set lives in bits (the shift datapath). */
    bool onBits = false;
    BitVector bits;
    BitVector nextBits;
    std::size_t bitCount = 0;
    mutable std::vector<StateId> sortedCache;
    mutable bool sortedValid = false;
    std::uint64_t offsetCursor = 0;
    std::vector<ReportEvent> events;
    EngineCounters stats;
};

} // namespace pap

#endif // PAP_ENGINE_FUNCTIONAL_ENGINE_H
