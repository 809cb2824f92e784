/**
 * @file
 * Graph analysis tests: predecessors, connected components, symbol
 * ranges (including the range-soundness property that underpins
 * range-guided partitioning), always-active states, parents, and
 * degree statistics.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "engine/reference_engine.h"
#include "nfa/analysis.h"
#include "nfa/glushkov.h"
#include "workload_helpers.h"

namespace pap {
namespace {

TEST(Analysis, Predecessors)
{
    Nfa nfa;
    const auto a = nfa.addState(CharClass::single('a'));
    const auto b = nfa.addState(CharClass::single('b'));
    const auto c = nfa.addState(CharClass::single('c'));
    nfa.addEdge(a, c);
    nfa.addEdge(b, c);
    nfa.addEdge(c, c);
    nfa.finalize();
    const auto pred = buildPredecessors(nfa);
    EXPECT_TRUE(pred[0].empty());
    EXPECT_TRUE(pred[1].empty());
    EXPECT_EQ(pred[2], (std::vector<StateId>{a, b, c}));
}

TEST(Analysis, ConnectedComponentsOfRuleset)
{
    // Rules share no prefixes -> one component per rule.
    const Nfa nfa = compileRuleset(
        {{"abc", 1}, {"xyz", 2}, {"pq", 3}}, "three");
    const Components comps = connectedComponents(nfa);
    EXPECT_EQ(comps.count, 3u);
    std::multiset<std::uint32_t> sizes(comps.sizes.begin(),
                                       comps.sizes.end());
    EXPECT_EQ(sizes, (std::multiset<std::uint32_t>{2, 3, 3}));
    // Every state belongs to a component.
    for (StateId q = 0; q < nfa.size(); ++q)
        EXPECT_LT(comps.of[q], comps.count);
}

TEST(Analysis, ComponentsIgnoreEdgeDirection)
{
    Nfa nfa;
    const auto a = nfa.addState(CharClass::single('a'));
    const auto b = nfa.addState(CharClass::single('b'));
    const auto c = nfa.addState(CharClass::single('c'));
    nfa.addEdge(a, b);
    nfa.addEdge(c, b); // c connects through b despite direction
    nfa.finalize();
    const Components comps = connectedComponents(nfa);
    EXPECT_EQ(comps.count, 1u);
}

TEST(Analysis, RangeDefinition)
{
    // range(s) = union of successors of states labeled with s.
    Nfa nfa;
    const auto a = nfa.addState(CharClass::single('a'));
    const auto b = nfa.addState(CharClass::single('b'));
    const auto c = nfa.addState(CharClass::fromString("ab"));
    nfa.addEdge(a, b);
    nfa.addEdge(c, a);
    nfa.finalize();
    const RangeAnalysis ranges(nfa);
    EXPECT_EQ(ranges.rangeSize('a'), 2u); // succ(a)={b}, succ(c)={a}
    EXPECT_EQ(ranges.rangeSize('b'), 1u); // succ(c)={a}
    EXPECT_EQ(ranges.rangeSize('z'), 0u);
    EXPECT_EQ(ranges.computeRange('a'),
              (std::vector<StateId>{a, b}));
    EXPECT_EQ(ranges.minRange(), 0u);
    EXPECT_EQ(ranges.maxRange(), 2u);
    EXPECT_EQ(ranges.minRangeSymbol(), 0);
}

TEST(Analysis, RangeSizesMatchComputeRange)
{
    // The eager sizes come from per-state unions of predecessor
    // labels; computeRange is the literal definition.
    Rng rng(12);
    for (int iter = 0; iter < 10; ++iter) {
        const Nfa nfa = randomNfa(rng, 6);
        const RangeAnalysis ranges(nfa);
        for (int s = 0; s < kAlphabetSize; ++s)
            EXPECT_EQ(ranges.computeRange(static_cast<Symbol>(s)).size(),
                      ranges.rangeSize(static_cast<Symbol>(s)))
                << "iter " << iter << " symbol " << s;
    }
}

TEST(Analysis, RangeSoundnessProperty)
{
    // After any prefix ending in symbol s, every enabled state that
    // is not a spontaneously enabled start is in range(s).
    Rng rng(13);
    for (int trial = 0; trial < 15; ++trial) {
        const Nfa nfa = randomNfa(rng, 5);
        const RangeAnalysis ranges(nfa);
        const InputTrace text =
            randomTextTrace(rng, 200, "abcdefgh ");
        const ReferenceResult ref =
            referenceRun(nfa, text.symbols(), /*record_sets=*/true);
        for (std::size_t i = 0; i < text.size(); i += 13) {
            const Symbol s = text[i];
            const auto range =
                ranges.computeRange(s);
            for (const StateId q : ref.enabledAfter[i]) {
                if (nfa[q].start == StartType::AllInput)
                    continue;
                EXPECT_TRUE(std::binary_search(range.begin(),
                                               range.end(), q))
                    << "state " << q << " outside range of symbol "
                    << int(s);
            }
        }
    }
}

TEST(Analysis, AlwaysActiveStates)
{
    // .*abc : the leading star state is always active; 'a' follows an
    // always-active full-label state, so it is always active too.
    Nfa nfa;
    RegexPtr ast = expandRepeats(parseRegex(".*abc"));
    compileRegexInto(nfa, *ast, 1, /*anchored=*/true);
    nfa.finalize();
    const auto asg = alwaysActiveStates(nfa);
    EXPECT_EQ(asg.size(), 2u); // star position and 'a'

    // AllInput starts are always active by definition.
    const Nfa simple = compileRuleset({{"xy", 1}}, "s");
    const auto asg2 = alwaysActiveStates(simple);
    ASSERT_EQ(asg2.size(), 1u);
    EXPECT_EQ(simple[asg2[0]].start, StartType::AllInput);
}

TEST(Analysis, ParentsMatching)
{
    Nfa nfa;
    const auto a = nfa.addState(CharClass::fromString("ax"));
    const auto b = nfa.addState(CharClass::single('b'));
    const auto leaf = nfa.addState(CharClass::single('a'));
    nfa.addEdge(a, b);
    nfa.addEdge(b, leaf);
    nfa.finalize();
    EXPECT_EQ(parentsMatching(nfa, 'a'), (std::vector<StateId>{a}));
    EXPECT_EQ(parentsMatching(nfa, 'x'), (std::vector<StateId>{a}));
    EXPECT_EQ(parentsMatching(nfa, 'b'), (std::vector<StateId>{b}));
    // 'leaf' matches 'a' but has no successors: not a parent.
    EXPECT_EQ(parentsMatching(nfa, 'q'), (std::vector<StateId>{}));
}

TEST(Analysis, DegreeStats)
{
    Nfa nfa;
    const auto a = nfa.addState(CharClass::single('a'));
    const auto b = nfa.addState(CharClass::single('b'));
    nfa.addEdge(a, a);
    nfa.addEdge(a, b);
    nfa.finalize();
    const DegreeStats ds = degreeStats(nfa);
    EXPECT_DOUBLE_EQ(ds.avgOut, 1.0);
    EXPECT_EQ(ds.maxOut, 2u);
    EXPECT_EQ(ds.selfLoops, 1u);
}

} // namespace
} // namespace pap
