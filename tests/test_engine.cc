/**
 * @file
 * Execution engine tests: the fast sparse engine against the
 * reference semantics, enumeration-flow mode (starts disabled), the
 * union-decomposability property that justifies flow merging, shared
 * scratch correctness, snapshots and hashes, the state-vector
 * overwrite of a context switch, and counters.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "engine/functional_engine.h"
#include "engine/reference_engine.h"
#include "nfa/glushkov.h"
#include "workload_helpers.h"

namespace pap {
namespace {

std::vector<ReportEvent>
normalized(std::vector<ReportEvent> events)
{
    sortAndDedupReports(events);
    return events;
}

TEST(Engine, MatchesReferenceOnRandomMachines)
{
    Rng rng(21);
    for (int trial = 0; trial < 25; ++trial) {
        const Nfa nfa = randomNfa(rng, 6);
        const CompiledNfa cnfa(nfa);
        const InputTrace text =
            randomTextTrace(rng, 500, "abcdefgh\n ");

        FunctionalEngine engine(cnfa, /*starts=*/true);
        engine.reset(cnfa.initialActive(), 0);
        engine.run(text.begin(), text.size());

        const ReferenceResult ref =
            referenceRun(nfa, text.symbols(), /*record_sets=*/true);
        ASSERT_EQ(normalized(engine.takeReports()), ref.reports)
            << "trial " << trial;

        // Final snapshots agree modulo implicitly enabled AllInput
        // starts (the fast engine keeps them out of the active list).
        std::vector<StateId> expect;
        for (const StateId q : ref.enabledAfter.back())
            if (nfa[q].start != StartType::AllInput)
                expect.push_back(q);
        EXPECT_EQ(engine.snapshot(), expect);
    }
}

TEST(Engine, EnumerationModeHasNoSpontaneousActivity)
{
    const Nfa nfa = compileRuleset({{"abc", 1}}, "m");
    const CompiledNfa cnfa(nfa);
    FunctionalEngine engine(cnfa, /*starts=*/false);
    engine.reset({}, 0);
    const InputTrace text = InputTrace::fromString("abcabc");
    engine.run(text.begin(), text.size());
    EXPECT_TRUE(engine.dead());
    EXPECT_TRUE(engine.reports().empty());
}

TEST(Engine, EnumerationModeTracksSeededActivity)
{
    const Nfa nfa = compileRuleset({{"abc", 1}}, "m");
    const CompiledNfa cnfa(nfa);
    // Seed the 'b' state (id 1): it matches "bc" and reports at 'c'.
    FunctionalEngine engine(cnfa, /*starts=*/false);
    engine.reset({1}, 100);
    const InputTrace text = InputTrace::fromString("bc");
    engine.run(text.begin(), text.size());
    const auto reports = engine.reports();
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].offset, 101u);
    EXPECT_EQ(reports[0].code, 1u);
    EXPECT_TRUE(engine.dead()); // nothing after the final state
}

TEST(Engine, UnionDecomposabilityProperty)
{
    // reach(A ∪ B) == reach(A) ∪ reach(B): the foundation of flow
    // merging (Section 3.3.1).
    Rng rng(22);
    for (int trial = 0; trial < 20; ++trial) {
        const Nfa nfa = randomNfa(rng, 6);
        const CompiledNfa cnfa(nfa);
        const InputTrace text =
            randomTextTrace(rng, 120, "abcdefgh ");

        std::vector<StateId> seed_a, seed_b, seed_union;
        for (StateId q = 0; q < nfa.size(); ++q) {
            const bool in_a = rng.nextBool(0.2);
            const bool in_b = rng.nextBool(0.2);
            if (in_a)
                seed_a.push_back(q);
            if (in_b)
                seed_b.push_back(q);
            if (in_a || in_b)
                seed_union.push_back(q);
        }
        auto run = [&](const std::vector<StateId> &seed) {
            FunctionalEngine e(cnfa, /*starts=*/false);
            e.reset(seed, 0);
            e.run(text.begin(), text.size());
            return e.snapshot();
        };
        const auto ra = run(seed_a);
        const auto rb = run(seed_b);
        const auto ru = run(seed_union);
        std::set<StateId> merged(ra.begin(), ra.end());
        merged.insert(rb.begin(), rb.end());
        EXPECT_EQ(std::vector<StateId>(merged.begin(), merged.end()),
                  ru);
    }
}

TEST(Engine, SharedScratchGivesSameResults)
{
    Rng rng(23);
    const Nfa nfa = randomNfa(rng, 5);
    const CompiledNfa cnfa(nfa);
    const InputTrace text = randomTextTrace(rng, 300, "abcdefgh ");

    EngineScratch scratch(cnfa.size());
    FunctionalEngine shared1(cnfa, true, &scratch);
    FunctionalEngine shared2(cnfa, true, &scratch);
    FunctionalEngine owned(cnfa, true);
    shared1.reset(cnfa.initialActive(), 0);
    shared2.reset(cnfa.initialActive(), 0);
    owned.reset(cnfa.initialActive(), 0);
    // Interleave the shared-scratch engines symbol by symbol.
    for (std::size_t i = 0; i < text.size(); ++i) {
        shared1.step(text[i]);
        shared2.step(text[i]);
        owned.step(text[i]);
    }
    EXPECT_EQ(shared1.snapshot(), owned.snapshot());
    EXPECT_EQ(shared2.snapshot(), owned.snapshot());
    EXPECT_EQ(shared1.stateHash(), owned.stateHash());
}

TEST(Engine, HashIsOrderIndependentAndSnapshotSorted)
{
    const Nfa nfa = compileRuleset({{"ab", 1}, {"cb", 2}}, "m");
    const CompiledNfa cnfa(nfa);
    FunctionalEngine e1(cnfa, false), e2(cnfa, false);
    e1.reset({1, 3}, 0);
    e2.reset({3, 1}, 0);
    EXPECT_EQ(e1.stateHash(), e2.stateHash());
    const auto snap1 = e1.snapshot();
    EXPECT_EQ(snap1, e2.snapshot());
    EXPECT_TRUE(std::is_sorted(snap1.begin(), snap1.end()));
}

TEST(Engine, OverwriteActiveAppliesStartFiltering)
{
    // overwriteActive drops AllInput starts when start machinery is
    // live, as reset() does, and keeps them in enumeration mode. It
    // leaves the cursor, counters and reports untouched, and the
    // overwritten set runs on like a freshly reset one.
    Rng rng(7);
    const Nfa nfa = compileRuleset({{".*ab", 1}, {"cd", 2}}, "m");
    const CompiledNfa cnfa(nfa);
    const InputTrace t = randomTextTrace(rng, 512, "abcd");
    std::vector<StateId> all;
    bool has_all_input = false;
    for (StateId q = 0; q < nfa.size(); ++q) {
        all.push_back(q);
        has_all_input |= cnfa.isAllInputStart(q);
    }
    ASSERT_TRUE(has_all_input);
    for (const bool starts : {true, false}) {
        FunctionalEngine engine(cnfa, starts);
        engine.reset(cnfa.initialActive(), 0);
        engine.run(t.begin(), 100);
        const std::uint64_t cursor = engine.cursor();
        const EngineCounters counters = engine.counters();
        const std::vector<ReportEvent> reports = engine.reports();

        engine.overwriteActive(all);
        std::vector<StateId> expect;
        for (const StateId q : all)
            if (!(starts && cnfa.isAllInputStart(q)))
                expect.push_back(q);
        EXPECT_EQ(engine.snapshot(), expect) << "starts " << starts;
        EXPECT_EQ(engine.cursor(), cursor);
        EXPECT_EQ(engine.counters().symbols, counters.symbols);
        EXPECT_EQ(engine.counters().matches, counters.matches);
        EXPECT_EQ(engine.counters().enables, counters.enables);
        EXPECT_EQ(engine.reports(), reports);

        FunctionalEngine fresh(cnfa, starts);
        fresh.reset(all, cursor);
        engine.takeReports();
        engine.run(t.begin() + 100, t.size() - 100);
        fresh.run(t.begin() + 100, t.size() - 100);
        EXPECT_EQ(engine.snapshot(), fresh.snapshot());
        EXPECT_EQ(normalized(engine.takeReports()),
                  normalized(fresh.takeReports()));
    }
}

TEST(Engine, CountersTrackWork)
{
    const Nfa nfa = compileRuleset({{"aa", 1}}, "m");
    const CompiledNfa cnfa(nfa);
    FunctionalEngine engine(cnfa, true);
    engine.reset(cnfa.initialActive(), 0);
    const InputTrace text = InputTrace::fromString("aaa");
    engine.run(text.begin(), text.size());
    EXPECT_EQ(engine.counters().symbols, 3u);
    // start matches at offsets 0,1,2 plus second-state matches at 1,2.
    EXPECT_EQ(engine.counters().matches, 5u);
    EXPECT_EQ(engine.reports().size(), 2u);
}

TEST(Engine, OffsetBaseAppliesToReports)
{
    const Nfa nfa = compileRuleset({{"x", 9}}, "m");
    const CompiledNfa cnfa(nfa);
    FunctionalEngine engine(cnfa, true);
    engine.reset(cnfa.initialActive(), 1000);
    const InputTrace text = InputTrace::fromString("x");
    engine.run(text.begin(), text.size());
    ASSERT_EQ(engine.reports().size(), 1u);
    EXPECT_EQ(engine.reports()[0].offset, 1000u);
    EXPECT_EQ(engine.cursor(), 1001u);
}

TEST(Engine, CompiledNfaExposesStructure)
{
    const Nfa nfa =
        compileRuleset({{"ab", 3, /*anchored=*/true}}, "m");
    const CompiledNfa cnfa(nfa);
    EXPECT_EQ(cnfa.size(), 2u);
    EXPECT_EQ(cnfa.initialActive().size(), 1u); // StartOfData head
    EXPECT_FALSE(cnfa.isAllInputStart(0));
    EXPECT_TRUE(cnfa.reporting(1));
    EXPECT_EQ(cnfa.reportCode(1), 3u);
    const auto [begin, end] = cnfa.successors(0);
    EXPECT_EQ(end - begin, 1);
    EXPECT_EQ(*begin, 1u);
}

} // namespace
} // namespace pap
