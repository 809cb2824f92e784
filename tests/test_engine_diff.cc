/**
 * @file
 * Differential tests of FunctionalEngine's two datapaths. The engine
 * steps in lockstep beside the bare sparse list step (SparseActiveList)
 * on automata built to cross the shift-datapath threshold in both
 * directions, and must stay observationally identical to it: the
 * same active counts, snapshots, hashes, deadness, cursors, set
 * comparisons, result counters and reports. With starts on, the
 * engine keeps narrow start successors implicit where the reference
 * lists and probes every one. A table check pins the CompiledNfa
 * rows, classes and symbol-pair table the engine reads to the labels
 * and edges they were built from.
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
    /** Promotions from a sparse step that left narrow start successors
        implicit, and sparse steps after a demotion that made some
        implicit. */
    std::uint64_t implicitPromotions = 0;
    std::uint64_t implicitDemotions = 0;
    /** Sparse steps that read implicit start successors. */
    std::uint64_t implicitSteps = 0;
    /** The last symbol since the last reset or overwrite, or -1. */
    int lastSymbol = -1;

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
        lastShift = false;
        lastSymbol = -1;
    }

    void
    overwrite(const std::vector<StateId> &vector)
    {
        engine.overwriteActive(vector);
        twin.overwriteActive(vector);
        reference.assign(vector);
        lastShift = false;
        lastSymbol = -1;
    }

    /** True if the start successors @p symbol enables narrowly are
        implicit after a start-enabled sparse step over it. */
    bool
    leavesImplicit(int symbol) const
    {
        return starts && symbol >= 0 &&
               !cnfa.narrowStartEnables(static_cast<Symbol>(symbol)).empty();
    }

    void
    step(Symbol s)
    {
        const std::uint64_t shift_steps = engine.counters().shiftSteps;
        const bool implicit_before = !lastShift && leavesImplicit(lastSymbol);
        engine.step(s);
        const bool shifted = engine.counters().shiftSteps > shift_steps;
        promotions += shifted && !lastShift;
        demotions += !shifted && lastShift;
        implicitPromotions += shifted && !lastShift && implicit_before;
        implicitDemotions += !shifted && lastShift && leavesImplicit(s);
        implicitSteps += !shifted && implicit_before;
        lastShift = shifted;
        lastSymbol = s;
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

/** Datapath switches a lockstep run went through, and its sparse
    steps that read implicit start successors. */
struct Crossings
{
    std::uint64_t promotions = 0;
    std::uint64_t demotions = 0;
    std::uint64_t implicitSteps = 0;

    Crossings &
    operator+=(const Crossings &other)
    {
        promotions += other.promotions;
        demotions += other.demotions;
        implicitSteps += other.implicitSteps;
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
        crossings += Crossings{p.promotions, p.demotions, p.implicitSteps};
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

// --- Implicit start successors -------------------------------------

/** Letters every label draws from; 'z' matches no state. */
const std::string kStartLetters = "abcdefgh";

/**
 * AllInput starts whose successors have narrow labels (one to three
 * letters) or wide ones (the alphabet, or about a tenth of it plus
 * half the letters), a body of such states with random edges, self
 * loops and edges back into the starts, and reporting states on both
 * sides. No label holds 'z', so a 'z' empties the active set.
 */
Nfa
startPairNfa(Rng &rng, std::size_t starts, std::size_t body)
{
    Nfa nfa("start-pairs");
    const auto narrow = [&] {
        CharClass c;
        const std::uint64_t k = 1 + rng.nextBelow(3);
        for (std::uint64_t i = 0; i < k; ++i)
            c.set(static_cast<Symbol>(kStartLetters[rng.nextBelow(8)]));
        return c;
    };
    const auto wide = [&] {
        CharClass c = CharClass::all();
        if (rng.nextBool(0.7)) {
            c = CharClass();
            for (int s = 0; s < kAlphabetSize; ++s)
                if (rng.nextBool(0.1))
                    c.set(static_cast<Symbol>(s));
            for (const char l : kStartLetters)
                if (rng.nextBool(0.5))
                    c.set(static_cast<Symbol>(l));
        }
        c.reset('z');
        return c;
    };
    const auto label = [&](double narrow_rate) {
        return rng.nextBool(narrow_rate) ? narrow() : wide();
    };
    for (std::size_t i = 0; i < starts; ++i) {
        const bool reporting = rng.nextBool(0.1);
        nfa.addState(label(0.7), StartType::AllInput, reporting,
                     static_cast<ReportCode>(i % 5));
    }
    for (std::size_t i = 0; i < body; ++i) {
        const bool reporting = rng.nextBool(0.1);
        nfa.addState(label(0.75), StartType::None, reporting,
                     static_cast<ReportCode>(i % 7));
    }
    const auto body_state = [&] {
        return static_cast<StateId>(starts + rng.nextBelow(body));
    };
    for (StateId q = 0; q < starts; ++q) {
        const std::uint64_t fan = 1 + rng.nextBelow(4);
        for (std::uint64_t i = 0; i < fan; ++i)
            nfa.addEdge(q, body_state());
        if (rng.nextBool(0.1))
            nfa.addEdge(q, static_cast<StateId>(rng.nextBelow(starts)));
    }
    for (StateId q = static_cast<StateId>(starts); q < starts + body; ++q) {
        const std::uint64_t fan = rng.nextBelow(3);
        for (std::uint64_t i = 0; i < fan; ++i)
            nfa.addEdge(q, body_state());
        if (rng.nextBool(0.05))
            nfa.addEdge(q, q);
        if (rng.nextBool(0.05))
            nfa.addEdge(q, static_cast<StateId>(rng.nextBelow(starts)));
    }
    nfa.finalize();
    return nfa;
}

/** Bursts of letters between runs of 'z'. */
InputTrace
burstsAndGaps(Rng &rng, std::size_t len)
{
    std::vector<Symbol> data;
    while (data.size() < len) {
        const bool gap = rng.nextBool(0.3);
        const std::size_t run = 1 + rng.nextBelow(gap ? 4 : 30);
        for (std::size_t i = 0; i < run && data.size() < len; ++i)
            data.push_back(static_cast<Symbol>(
                gap ? 'z' : kStartLetters[rng.nextBelow(8)]));
    }
    return InputTrace(std::move(data));
}

/** Symbols whose start successors are both narrow and wide. */
std::size_t
mixedStartSymbols(const CompiledNfa &cnfa)
{
    std::size_t mixed = 0;
    for (int p = 0; p < kAlphabetSize; ++p)
        mixed += !cnfa.narrowStartEnables(static_cast<Symbol>(p)).empty() &&
                 !cnfa.wideStartEnables(static_cast<Symbol>(p)).empty();
    return mixed;
}

TEST(EngineLockstep, NarrowAndWideStartSuccessors)
{
    Rng rng(109);
    std::uint64_t implicit_steps = 0;
    for (int iter = 0; iter < 8; ++iter) {
        const Nfa nfa = startPairNfa(rng, 4 + rng.nextBelow(30),
                                     40 + rng.nextBelow(1500));
        const CompiledNfa cnfa(nfa);
        EXPECT_GT(mixedStartSymbols(cnfa), 0u) << "iter " << iter;
        EXPECT_GT(cnfa.startPairCount(), 0u) << "iter " << iter;
        implicit_steps +=
            lockstepRun(nfa, burstsAndGaps(rng, 600),
                        "start pairs iter " + std::to_string(iter), 5)
                .implicitSteps;
    }
    EXPECT_GT(implicit_steps, 0u);
}

TEST(EngineLockstep, StartSuccessorAlsoReachedOverAnEdge)
{
    // Start 0 ('a') enables narrow 2 ('b') and wide 3 (all but 'z');
    // start 1 ('b') enables narrow 5 ('b'). State 4 ('a', self loop)
    // reaches 2 and 3 over edges on the same 'a' that the start
    // enables them, and 2 reaches 5 on the same 'b' that start 1
    // enables it. Each of 2, 3 and 5 reports once per cycle.
    Nfa nfa("overlap");
    nfa.addState(CharClass::single('a'), StartType::AllInput);
    nfa.addState(CharClass::single('b'), StartType::AllInput);
    CharClass wide = CharClass::all();
    wide.reset('z');
    nfa.addState(CharClass::single('b'), StartType::None, true, 2);
    nfa.addState(wide, StartType::None, true, 3);
    nfa.addState(CharClass::single('a'));
    nfa.addState(CharClass::single('b'), StartType::None, true, 5);
    nfa.addEdge(0, 2);
    nfa.addEdge(0, 3);
    nfa.addEdge(1, 5);
    nfa.addEdge(4, 2);
    nfa.addEdge(4, 3);
    nfa.addEdge(4, 4);
    nfa.addEdge(2, 5);
    nfa.addEdge(3, 3);
    // Inert padding: six words keep these few states on the sparse
    // list.
    for (int i = 0; i < 380; ++i)
        nfa.addState(CharClass::single('y'));
    nfa.finalize();
    const CompiledNfa cnfa(nfa);
    ASSERT_EQ(cnfa.narrowStartEnables('a'), std::vector<StateId>{2});
    ASSERT_EQ(cnfa.wideStartEnables('a'), std::vector<StateId>{3});
    ASSERT_EQ(cnfa.narrowStartEnables('b'), std::vector<StateId>{5});

    Lockstep p(cnfa, /*starts=*/true);
    p.reset({4}, 0);
    for (const char c : std::string("aabbaabzaab")) {
        p.step(static_cast<Symbol>(c));
        p.expectSame(std::string("after '") + c + "'");
    }
    p.expectSameReports("overlap");

    // Reseeding with 4 and running random letters keeps the overlap
    // going.
    Rng rng(110);
    p.reset({4, 2, 5}, 100);
    const InputTrace t = randomTextTrace(rng, 300, "aabz");
    for (std::size_t i = 0; i < t.size(); ++i) {
        p.step(t[i]);
        p.expectSame("random at " + std::to_string(i));
    }
    p.expectSameReports("overlap random");
    EXPECT_GT(p.implicitSteps, 0u);
}

TEST(EngineLockstep, PromotesAndDemotesWithImplicitStartSuccessors)
{
    Rng rng(111);
    std::uint64_t implicit_promotions = 0, implicit_demotions = 0;
    for (int iter = 0; iter < 6; ++iter) {
        // 60 starts over 4-5 words: a burst of letters enables more
        // than one state per word, a 'z' none.
        const Nfa nfa = startPairNfa(rng, 60, 200 + rng.nextBelow(100));
        const CompiledNfa cnfa(nfa);
        Lockstep p(cnfa, /*starts=*/true);
        p.reset(cnfa.initialActive(), 0);
        const InputTrace t = burstsAndGaps(rng, 800);
        for (std::size_t i = 0; i < t.size(); ++i) {
            p.step(t[i]);
            p.expectSame("iter " + std::to_string(iter) + " at " +
                         std::to_string(i));
        }
        p.expectSameReports("iter " + std::to_string(iter));
        implicit_promotions += p.implicitPromotions;
        implicit_demotions += p.implicitDemotions;
    }
    EXPECT_GT(implicit_promotions, 0u);
    EXPECT_GT(implicit_demotions, 0u);
}

TEST(EngineLockstep, OverwriteAndResetWithStartSuccessorsInTheSeed)
{
    Rng rng(112);
    const Nfa nfa = startPairNfa(rng, 20, 1500);
    const CompiledNfa cnfa(nfa);
    // Every state some start enables after 'a' or 'b' (narrow and
    // wide), two AllInput starts (dropped) and a few others.
    const auto seed_of = [&](Symbol x, Symbol y) {
        std::vector<StateId> seed = cnfa.startEnables(x);
        seed.insert(seed.end(), cnfa.startEnables(y).begin(),
                    cnfa.startEnables(y).end());
        seed.push_back(0);
        seed.push_back(1);
        for (StateId q = 25; q < nfa.size(); q += 37)
            seed.push_back(q);
        return seed;
    };
    ASSERT_FALSE(cnfa.narrowStartEnables('a').empty());
    for (const bool starts : {true, false}) {
        Lockstep p(cnfa, starts);
        p.reset(seed_of('a', 'b'), 0);
        p.expectSame("after reset");
        const InputTrace t = burstsAndGaps(rng, 200);
        for (std::size_t i = 0; i < t.size(); ++i) {
            p.step(t[i]);
            if (i % 50 == 49) {
                // Overwrite with the start successors of the symbol
                // just consumed: the very states the engine holds
                // implicit become listed.
                p.overwrite(seed_of(t[i], 'c'));
                p.expectSame("after overwrite at " + std::to_string(i));
            }
            if (i % 70 == 69) {
                p.reset(seed_of(t[i], 'a'), 5000 + i);
                p.expectSame("after reset at " + std::to_string(i));
            }
            p.expectSame("at " + std::to_string(i));
        }
        p.expectSameReports(starts ? "starts" : "no starts");
        if (starts) {
            EXPECT_GT(p.implicitSteps, 0u);
        }
    }
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
    for (int i = 0; i < 3; ++i)
        automata.push_back(startPairNfa(rng, 10 + 20 * i, 300));

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

        // The symbol-pair table: startEnables(p) splits by label
        // width, and span (p, s) lists the narrow members matching s.
        std::size_t enables = 0;
        for (int p = 0; p < kAlphabetSize; ++p) {
            const Symbol ps = static_cast<Symbol>(p);
            std::vector<StateId> narrow, wide_members;
            for (const StateId t : cnfa.startEnables(ps))
                (nfa[t].label.count() <= CompiledNfa::kNarrowLabelSymbols
                     ? narrow
                     : wide_members)
                    .push_back(t);
            enables += cnfa.startEnables(ps).size();
            ASSERT_EQ(cnfa.narrowStartEnables(ps), narrow)
                << nfa.name() << " symbol " << p;
            ASSERT_EQ(cnfa.wideStartEnables(ps), wide_members)
                << nfa.name() << " symbol " << p;
            for (int s = 0; s < kAlphabetSize; ++s) {
                std::vector<StateId> expect;
                for (const StateId t : narrow)
                    if (nfa[t].label.test(static_cast<Symbol>(s)))
                        expect.push_back(t);
                const auto [begin, end] =
                    cnfa.startPairs(ps, static_cast<Symbol>(s));
                ASSERT_EQ(std::vector<StateId>(begin, end), expect)
                    << nfa.name() << " pair " << p << "," << s;
            }
            for (StateId q = 0; q < nfa.size(); ++q)
                ASSERT_EQ(cnfa.coveredByStarts(q, ps),
                          cnfa.isAllInputStart(q) ||
                              std::binary_search(narrow.begin(),
                                                 narrow.end(), q))
                    << nfa.name() << " state " << q << " symbol " << p;
        }
        EXPECT_LE(cnfa.startPairCount(),
                  CompiledNfa::kNarrowLabelSymbols * enables)
            << nfa.name();
    }
}

} // namespace
} // namespace pap
