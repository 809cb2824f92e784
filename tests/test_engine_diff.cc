/**
 * @file
 * Differential tests of FunctionalEngine's two datapaths. The engine
 * steps in lockstep beside the bare sparse list step (SparseActiveList)
 * on automata built to cross the shift-datapath threshold in both
 * directions, and must stay observationally identical to it: the
 * same active counts, snapshots, hashes, deadness, cursors, set
 * comparisons, result counters and reports. A table check pins the
 * CompiledNfa rows and classes the shift step reads to the labels and
 * edges they were built from.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/charclass.h"
#include "common/rng.h"
#include "engine/compiled_nfa.h"
#include "engine/functional_engine.h"
#include "engine/reference_engine.h"
#include "engine/trace.h"
#include "nfa/glushkov.h"
#include "workload_helpers.h"

namespace pap {
namespace {

/** FNV-1a over sorted ids: the stateHash() contract. */
std::uint64_t
fnvOfSorted(const std::vector<StateId> &sorted)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const StateId q : sorted) {
        h ^= q;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Reports as a sorted multiset (duplicates kept). */
std::vector<ReportEvent>
sortedEvents(std::vector<ReportEvent> events)
{
    std::sort(events.begin(), events.end());
    return events;
}

/**
 * The engine under test, a twin engine stepped identically (so both
 * sides of a bitset-vs-bitset compare exist), and the bare sparse list
 * step with its own cursor, reports and counters.
 */
struct Lockstep
{
    const CompiledNfa &cnfa;
    const bool starts;
    FunctionalEngine engine;
    FunctionalEngine twin;
    SparseActiveList reference;
    std::uint64_t refCursor = 0;
    std::vector<ReportEvent> refEvents;
    EngineCounters refStats;
    /** Datapath switches seen so far, read off shiftSteps. */
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    bool lastShift = false;

    Lockstep(const CompiledNfa &compiled, bool starts_enabled)
        : cnfa(compiled), starts(starts_enabled),
          engine(compiled, starts_enabled), twin(compiled, starts_enabled),
          reference(compiled, starts_enabled)
    {
    }

    void
    reset(const std::vector<StateId> &seed, std::uint64_t base = 0)
    {
        engine.reset(seed, base);
        twin.reset(seed, base);
        reference.assign(seed);
        refCursor = base;
        refEvents.clear();
        refStats = EngineCounters{};
    }

    void
    overwrite(const std::vector<StateId> &vector)
    {
        engine.overwriteActive(vector);
        twin.overwriteActive(vector);
        reference.assign(vector);
    }

    void
    step(Symbol s)
    {
        const std::uint64_t shift_steps = engine.counters().shiftSteps;
        engine.step(s);
        const bool shifted = engine.counters().shiftSteps > shift_steps;
        promotions += shifted && !lastShift;
        demotions += !shifted && lastShift;
        lastShift = shifted;
        twin.step(s);
        reference.step(s, refCursor, refEvents, refStats);
        const std::size_t active = reference.states().size();
        refStats.enables += active;
        ++refStats.densityOctiles[densityOctile(active, cnfa.size())];
        ++refStats.symbols;
        ++refCursor;
    }

    /** The full observable contract at the current instant. */
    void
    expectSame(const std::string &where)
    {
        std::vector<StateId> sorted = reference.states();
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(engine.activeCount(), sorted.size()) << where;
        EXPECT_EQ(engine.snapshot(), sorted) << where;
        EXPECT_EQ(engine.stateHash(), fnvOfSorted(sorted)) << where;
        EXPECT_EQ(engine.dead(), sorted.empty()) << where;
        EXPECT_EQ(engine.cursor(), refCursor) << where;

        // sameActiveSet both ways, against the twin (same datapath)
        // and against a fresh engine holding the list (the sparse
        // side of a mixed compare); and a set of the same size with
        // one member swapped must differ from both sides.
        EXPECT_TRUE(engine.sameActiveSet(twin)) << where;
        EXPECT_TRUE(twin.sameActiveSet(engine)) << where;
        FunctionalEngine mirror(cnfa, starts);
        mirror.overwriteActive(reference.states());
        EXPECT_TRUE(engine.sameActiveSet(mirror)) << where;
        EXPECT_TRUE(mirror.sameActiveSet(engine)) << where;
        StateId outsider = 0;
        while (outsider < cnfa.size() &&
               (std::binary_search(sorted.begin(), sorted.end(), outsider) ||
                (starts && cnfa.isAllInputStart(outsider))))
            ++outsider;
        if (!sorted.empty() && outsider < cnfa.size()) {
            std::vector<StateId> swapped = sorted;
            swapped[swapped.size() / 2] = outsider;
            mirror.overwriteActive(swapped);
            EXPECT_FALSE(engine.sameActiveSet(mirror)) << where;
            EXPECT_FALSE(mirror.sameActiveSet(engine)) << where;
        }

        const EngineCounters &a = engine.counters();
        EXPECT_EQ(a.symbols, refStats.symbols) << where;
        EXPECT_EQ(a.matches, refStats.matches) << where;
        EXPECT_EQ(a.enables, refStats.enables) << where;
        EXPECT_EQ(a.succRows, refStats.succRows) << where;
        EXPECT_EQ(a.maskWords, refStats.maskWords) << where;
        EXPECT_EQ(a.densityOctiles, refStats.densityOctiles) << where;
        EXPECT_EQ(a.shiftSteps, twin.counters().shiftSteps) << where;
    }

    void
    expectSameReports(const std::string &where)
    {
        EXPECT_EQ(sortedEvents(engine.takeReports()),
                  sortedEvents(refEvents))
            << where;
        EXPECT_EQ(sortedEvents(twin.takeReports()), sortedEvents(refEvents))
            << where;
        refEvents.clear();
    }
};

/** The shape of a random automaton for the shift datapath. */
struct ShiftShape
{
    std::size_t states = 256;
    /** Edges q -> q + offset added with probability edgeRate. */
    std::vector<std::int64_t> offsets;
    double edgeRate = 0.9;
    /** Random edges, outside every class. */
    double exceptionRate = 0.0;
    double allInputRate = 0.0;
    double reportRate = 0.05;
};

/**
 * Labels over "abcd" that make activity swell and collapse: most
 * states match 'a', about half 'b', few 'c' and almost none 'd', so
 * runs of a/b push the active set over the shift-datapath threshold
 * and runs of c/d pull it back under, down to the drivers.
 */
Nfa
shiftNfa(Rng &rng, const ShiftShape &shape)
{
    Nfa nfa("shift");
    // One self-looping driver per 1024 states matches every symbol:
    // without start machinery it re-seeds activity after a collapse,
    // and in automata of a few hundred states or more it and its
    // successors stay under the threshold of one active state per
    // word, so a collapse returns to the list.
    const std::size_t driver_stride = std::min<std::size_t>(1024, shape.states);
    for (std::size_t q = 0; q < shape.states; ++q) {
        CharClass label;
        if (q % driver_stride == driver_stride / 2)
            label = CharClass::fromString("abcd");
        if (rng.nextBool(0.9))
            label.set('a');
        if (rng.nextBool(0.5))
            label.set('b');
        if (rng.nextBool(0.1))
            label.set('c');
        if (rng.nextBool(0.02))
            label.set('d');
        const bool all_input = rng.nextBool(shape.allInputRate);
        const bool reporting = rng.nextBool(shape.reportRate);
        nfa.addState(label, all_input ? StartType::AllInput : StartType::None,
                     reporting,
                     reporting ? static_cast<ReportCode>(q % 7) : 0);
    }
    const auto n = static_cast<std::int64_t>(shape.states);
    for (std::int64_t q = 0; q < n; ++q) {
        for (const std::int64_t d : shape.offsets) {
            const std::int64_t t = q + d;
            if (t >= 0 && t < n && rng.nextBool(shape.edgeRate))
                nfa.addEdge(static_cast<StateId>(q), static_cast<StateId>(t));
        }
        if (rng.nextBool(shape.exceptionRate))
            nfa.addEdge(static_cast<StateId>(q),
                        static_cast<StateId>(rng.nextBelow(shape.states)));
    }
    for (std::size_t q = driver_stride / 2; q < shape.states; q += driver_stride)
        nfa.addEdge(static_cast<StateId>(q), static_cast<StateId>(q));
    nfa.finalize();
    return nfa;
}

/** Phases of a/b-heavy and c/d-heavy input. */
InputTrace
swellAndCollapse(Rng &rng, std::size_t len)
{
    std::vector<Symbol> data;
    while (data.size() < len) {
        const std::string alphabet =
            rng.nextBool(0.5) ? "aaab" : "ccdb";
        const std::size_t run = 4 + rng.nextBelow(40);
        for (std::size_t i = 0; i < run && data.size() < len; ++i)
            data.push_back(static_cast<Symbol>(
                alphabet[rng.nextBelow(alphabet.size())]));
    }
    return InputTrace(std::move(data));
}

/** Every few states, like a flow plan's seed. */
std::vector<StateId>
spreadSeed(std::size_t states, std::size_t stride)
{
    std::vector<StateId> seed;
    for (std::size_t q = 0; q < states; q += stride)
        seed.push_back(static_cast<StateId>(q));
    return seed;
}

/** Datapath switches a lockstep run went through. */
struct Crossings
{
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;

    Crossings &
    operator+=(const Crossings &other)
    {
        promotions += other.promotions;
        demotions += other.demotions;
        return *this;
    }
};

/** Both directions were crossed at least once. */
void
expectCrossedBothWays(const Crossings &c)
{
    EXPECT_GT(c.promotions, 0u);
    EXPECT_GT(c.demotions, 0u);
}

/**
 * Run @p nfa over @p input in lockstep, with starts on and off,
 * checking every @p check_every symbols.
 */
Crossings
lockstepRun(const Nfa &nfa, const InputTrace &input,
            const std::string &where, std::size_t check_every = 7)
{
    const CompiledNfa cnfa(nfa);
    Crossings crossings;
    for (const bool starts : {true, false}) {
        Lockstep p(cnfa, starts);
        std::vector<StateId> seed = spreadSeed(nfa.size(), 3);
        seed.insert(seed.end(), cnfa.initialActive().begin(),
                    cnfa.initialActive().end());
        p.reset(seed, 1000);
        p.expectSame(where + " after reset");
        for (std::size_t i = 0; i < input.size(); ++i) {
            p.step(input[i]);
            if (i % check_every == 0)
                p.expectSame(where + " at " + std::to_string(i));
        }
        p.expectSame(where + " at end");
        p.expectSameReports(where);
        crossings += Crossings{p.promotions, p.demotions};
    }
    return crossings;
}

TEST(EngineLockstep, SelfLoopsAndNextStateLikeSpm)
{
    Rng rng(101);
    Crossings shifted;
    for (int iter = 0; iter < 6; ++iter) {
        ShiftShape shape;
        shape.states = 800 + rng.nextBelow(800);
        shape.offsets = {0, 1};
        shape.allInputRate = iter % 2 ? 0.05 : 0.0;
        const Nfa nfa = shiftNfa(rng, shape);
        shifted += lockstepRun(nfa, swellAndCollapse(rng, 600),
                               "spm iter " + std::to_string(iter));
    }
    expectCrossedBothWays(shifted);
}

TEST(EngineLockstep, NeighbourOffsetsLikeHamming)
{
    Rng rng(102);
    Crossings shifted;
    for (int iter = 0; iter < 6; ++iter) {
        ShiftShape shape;
        shape.states = 800 + rng.nextBelow(600);
        shape.offsets = {7, 8, 9};
        shape.edgeRate = 0.7;
        shape.allInputRate = 0.1;
        const Nfa nfa = shiftNfa(rng, shape);
        shifted += lockstepRun(nfa, swellAndCollapse(rng, 500),
                               "hamming iter " + std::to_string(iter));
    }
    expectCrossedBothWays(shifted);
}

TEST(EngineLockstep, OffsetsAcrossWordsAndNegative)
{
    // 64 and 128 move whole words, 70 and 1400 words plus bits (like
    // Fermi's +1400), -1 and -65 run the shift the other way.
    Rng rng(103);
    const std::vector<std::vector<std::int64_t>> offset_sets = {
        {0, 64}, {1, 70}, {0, 1400, 1}, {-1, 0}, {-65, 1}, {128, -64}};
    Crossings shifted;
    for (std::size_t i = 0; i < offset_sets.size(); ++i) {
        ShiftShape shape;
        shape.states = 1600 + rng.nextBelow(400);
        shape.offsets = offset_sets[i];
        shape.allInputRate = 0.02;
        const Nfa nfa = shiftNfa(rng, shape);
        const CompiledNfa cnfa(nfa);
        for (const std::int64_t d : offset_sets[i])
            EXPECT_TRUE(std::any_of(cnfa.shiftClasses().begin(),
                                    cnfa.shiftClasses().end(),
                                    [&](const ShiftClass &k) {
                                        return k.offset == d;
                                    }))
                << "offset " << d << " has no class";
        shifted += lockstepRun(nfa, swellAndCollapse(rng, 400),
                               "offsets set " + std::to_string(i));
    }
    expectCrossedBothWays(shifted);
}

TEST(EngineLockstep, ExceptionEdgesOutsideTheClasses)
{
    Rng rng(104);
    Crossings shifted;
    for (int iter = 0; iter < 6; ++iter) {
        ShiftShape shape;
        shape.states = 800 + rng.nextBelow(700);
        shape.offsets = {0, 1, 2, 3, 5, 11}; // more than four classes
        shape.edgeRate = 0.4;
        shape.exceptionRate = 0.3;
        shape.allInputRate = 0.03;
        shape.reportRate = 0.2;
        const Nfa nfa = shiftNfa(rng, shape);
        const CompiledNfa cnfa(nfa);
        EXPECT_LE(cnfa.shiftClasses().size(), CompiledNfa::kMaxShiftClasses);
        EXPECT_TRUE(cnfa.exceptionMask().any());
        shifted += lockstepRun(nfa, swellAndCollapse(rng, 500),
                               "exceptions iter " + std::to_string(iter));
    }
    expectCrossedBothWays(shifted);
}

TEST(EngineLockstep, RandomRegexAutomata)
{
    // Glushkov automata of random rules: few states, AllInput starts,
    // reporting states, and offsets of every sign.
    Rng rng(1234);
    for (int iter = 0; iter < 40; ++iter) {
        const Nfa nfa = randomNfa(rng, 4);
        const InputTrace t =
            randomTextTrace(rng, 256 + rng.nextBelow(512), "abcdefgh\n ");
        lockstepRun(nfa, t, "regex iter " + std::to_string(iter), 17);
    }
}

TEST(EngineLockstep, StartsModeMatchesTheReference)
{
    Rng rng(105);
    for (int iter = 0; iter < 4; ++iter) {
        ShiftShape shape;
        shape.states = 150 + rng.nextBelow(200);
        shape.offsets = {0, 1, 9};
        shape.exceptionRate = 0.1;
        shape.allInputRate = 0.1;
        shape.reportRate = 0.1;
        const Nfa nfa = shiftNfa(rng, shape);
        const CompiledNfa cnfa(nfa);
        const InputTrace t = swellAndCollapse(rng, 300);
        FunctionalEngine engine(cnfa, /*starts=*/true);
        engine.reset(cnfa.initialActive(), 0);
        const ReferenceResult ref =
            referenceRun(nfa, t.symbols(), /*record_sets=*/true);
        for (std::size_t i = 0; i < t.size(); ++i) {
            engine.step(t[i]);
            // The reference keeps spontaneously enabled AllInput
            // starts in its sets; the engine re-enables them
            // implicitly.
            std::vector<StateId> expect;
            for (const StateId q : ref.enabledAfter[i])
                if (!cnfa.isAllInputStart(q))
                    expect.push_back(q);
            ASSERT_EQ(engine.snapshot(), expect)
                << "iter " << iter << " at " << i;
        }
        EXPECT_GT(engine.counters().shiftSteps, 0u);
        std::vector<ReportEvent> reports = engine.takeReports();
        sortAndDedupReports(reports);
        EXPECT_EQ(reports, ref.reports) << "iter " << iter;
    }
}

TEST(EngineLockstep, OverwriteAndResetWhilePromoted)
{
    Rng rng(106);
    ShiftShape shape;
    shape.states = 700;
    shape.offsets = {0, 1, 66};
    shape.exceptionRate = 0.05;
    shape.allInputRate = 0.05;
    const Nfa nfa = shiftNfa(rng, shape);
    const CompiledNfa cnfa(nfa);
    std::vector<StateId> all;
    for (StateId q = 0; q < nfa.size(); ++q)
        all.push_back(q);
    const std::vector<StateId> few = {3, 5, 400};
    for (const bool starts : {true, false}) {
        Lockstep p(cnfa, starts);
        p.reset(all, 0);
        p.step('a');
        ASSERT_GT(p.engine.counters().shiftSteps, 0u);
        p.expectSame("promoted");
        // A context-switch overwrite lands while the engine is on the
        // bitset: a small set, a large one, an empty one.
        for (const std::vector<StateId> &vector : {few, all}) {
            p.overwrite(vector);
            p.expectSame("after overwrite");
            for (int i = 0; i < 20; ++i)
                p.step(i % 3 ? 'a' : 'b');
            p.expectSame("after overwrite + run");
        }
        p.overwrite({});
        p.expectSame("after evict");
        p.step('a');
        p.expectSame("evicted + step");
        p.expectSameReports("overwrite");
        // reset() while promoted clears everything, cursor included.
        p.reset(all, 0);
        p.step('a');
        p.reset(few, 5000);
        p.expectSame("after reset");
        for (int i = 0; i < 40; ++i)
            p.step(i % 5 ? 'a' : 'c');
        p.expectSame("after reset + run");
        p.expectSameReports("reset");
    }
}

/**
 * 16K states with self-loops, next-state chains and +17 edges, one
 * driver per 1024 states, and a sprinkling of AllInput starts,
 * reporting states and random edges.
 */
Nfa
large16kShiftNfa(Rng &rng)
{
    ShiftShape shape;
    shape.states = 16384;
    shape.offsets = {0, 1, 17};
    shape.edgeRate = 0.8;
    shape.exceptionRate = 0.01;
    shape.allInputRate = 0.002;
    shape.reportRate = 0.01;
    return shiftNfa(rng, shape);
}

TEST(EngineLockstep, SixteenKStates)
{
    Rng rng(107);
    const Nfa nfa = large16kShiftNfa(rng);
    expectCrossedBothWays(
        lockstepRun(nfa, swellAndCollapse(rng, 600), "16K", 31));
}

// --- CompiledNfa tables --------------------------------------------

TEST(Engine, CompiledTablesMatchLabelsAndEdges)
{
    Rng rng(108);
    std::vector<Nfa> automata;
    for (int i = 0; i < 8; ++i)
        automata.push_back(randomNfa(rng, 5));
    for (const std::vector<std::int64_t> &offsets :
         std::vector<std::vector<std::int64_t>>{
             {0, 1}, {7, 8, 9}, {1, 1400}, {-65, 0, 2, 3, 4, 5}}) {
        ShiftShape shape;
        shape.states = 1500 + rng.nextBelow(600);
        shape.offsets = offsets;
        shape.exceptionRate = 0.05;
        shape.allInputRate = 0.02;
        automata.push_back(shiftNfa(rng, shape));
    }
    // Wide and ragged labels, so every quarter of the alphabet and a
    // partial last word are covered.
    Nfa wide("wide");
    for (StateId q = 0; q < 200; ++q) {
        CharClass label;
        for (int s = 0; s < kAlphabetSize; ++s)
            if (rng.nextBool(q % 3 == 0 ? 0.9 : 0.02))
                label.set(static_cast<Symbol>(s));
        wide.addState(label);
    }
    for (StateId q = 0; q + 1 < 200; ++q)
        wide.addEdge(q, q + 1);
    wide.finalize();
    automata.push_back(std::move(wide));

    for (const Nfa &nfa : automata) {
        const CompiledNfa cnfa(nfa);
        ASSERT_EQ(cnfa.words(), (nfa.size() + 63) / 64);
        for (int s = 0; s < kAlphabetSize; ++s) {
            const Symbol sym = static_cast<Symbol>(s);
            const std::uint64_t *row = cnfa.matchRow(sym);
            for (StateId q = 0; q < nfa.size(); ++q)
                ASSERT_EQ(((row[q >> 6] >> (q & 63)) & 1) != 0,
                          nfa[q].label.test(sym))
                    << nfa.name() << " state " << q << " symbol " << s;
            // No stray bits past the last state.
            if (nfa.size() % 64) {
                EXPECT_EQ(row[cnfa.words() - 1] >> (nfa.size() % 64), 0u);
            }
        }
        ASSERT_LE(cnfa.shiftClasses().size(), CompiledNfa::kMaxShiftClasses);
        for (StateId q = 0; q < nfa.size(); ++q) {
            EXPECT_EQ(cnfa.reporting(q), cnfa.reportMask().test(q));
            EXPECT_EQ(cnfa.isAllInputStart(q),
                      nfa[q].start == StartType::AllInput);
            const bool exception = cnfa.exceptionMask().test(q);
            std::vector<StateId> uncovered;
            for (const StateId t : nfa[q].succ) {
                const std::int64_t d = static_cast<std::int64_t>(t) -
                                       static_cast<std::int64_t>(q);
                bool covered = false;
                for (const ShiftClass &k : cnfa.shiftClasses())
                    covered |= k.offset == d && k.sources.test(q);
                if (!covered)
                    uncovered.push_back(t);
            }
            // Every edge is in a class or its source is an exception
            // state, whose whole row the shift step walks.
            EXPECT_EQ(exception, !uncovered.empty())
                << nfa.name() << " state " << q;
            // A class bit implies the edge it stands for.
            for (const ShiftClass &k : cnfa.shiftClasses()) {
                if (!k.sources.test(q))
                    continue;
                const std::int64_t t = static_cast<std::int64_t>(q) + k.offset;
                ASSERT_GE(t, 0);
                ASSERT_LT(t, static_cast<std::int64_t>(nfa.size()));
                EXPECT_TRUE(std::binary_search(nfa[q].succ.begin(),
                                               nfa[q].succ.end(),
                                               static_cast<StateId>(t)))
                    << nfa.name() << " state " << q << " offset "
                    << k.offset;
            }
        }
    }
}

} // namespace
} // namespace pap
