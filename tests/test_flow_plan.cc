/**
 * @file
 * Flow-plan construction tests: enumeration-path building per parent,
 * ASG stripping, the vertical-line packing invariant (at most one
 * path per connected component per flow), path coverage of the range,
 * deduplication, the Figure-9 statistics under each ablation, and
 * the plan table of a PreparedAutomaton.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "nfa/glushkov.h"
#include "obs/metrics.h"
#include "pap/flow_plan.h"
#include "pap/prepared.h"
#include "workload_helpers.h"

namespace pap {
namespace {

struct PlanFixture
{
    Nfa nfa;
    Components comps;
    std::vector<StateId> asg;

    explicit PlanFixture(const std::vector<RegexRule> &rules)
        : nfa(compileRuleset(rules, "plan"))
    {
        comps = connectedComponents(nfa);
        asg = alwaysActiveStates(nfa);
    }

    FlowPlan
    plan(Symbol boundary, const PapOptions &opt = {}) const
    {
        return buildFlowPlan(nfa, comps, asg, boundary, opt);
    }
};

TEST(FlowPlan, PathsPerParentAndSeeds)
{
    // "ab" and "ac" merged? No prefix merging here: two rules, two
    // components; boundary 'a' has two parents (the two heads).
    const PlanFixture f({{"ab", 1}, {"ac", 2}});
    const FlowPlan plan = f.plan('a');
    ASSERT_EQ(plan.paths.size(), 2u);
    for (const auto &path : plan.paths) {
        EXPECT_NE(path.parent, kInvalidState);
        EXPECT_EQ(path.startStates.size(), 1u);
    }
    // Different components -> one flow holds both paths.
    ASSERT_EQ(plan.flows.size(), 1u);
    EXPECT_EQ(plan.flows[0].pathIdx.size(), 2u);
    EXPECT_EQ(plan.flows[0].seed.size(), 2u);
    EXPECT_EQ(plan.flowsInRange, 2u);
    EXPECT_EQ(plan.flowsAfterCc, 1u);
    EXPECT_EQ(plan.flowsAfterParent, 1u);
}

TEST(FlowPlan, AtMostOnePathPerComponentPerFlow)
{
    Rng rng(6);
    for (int trial = 0; trial < 15; ++trial) {
        const Nfa nfa = randomNfa(rng, 8);
        const Components comps = connectedComponents(nfa);
        const auto asg = alwaysActiveStates(nfa);
        const FlowPlan plan = buildFlowPlan(
            nfa, comps, asg,
            static_cast<Symbol>('a' + rng.nextBelow(6)), {});
        for (const auto &flow : plan.flows) {
            std::set<ComponentId> seen;
            for (const auto idx : flow.pathIdx)
                EXPECT_TRUE(seen.insert(plan.paths[idx].cc).second)
                    << "two paths of one component share a flow";
            EXPECT_FALSE(flow.seed.empty());
            EXPECT_TRUE(std::is_sorted(flow.seed.begin(),
                                       flow.seed.end()));
        }
    }
}

TEST(FlowPlan, PathsCoverRangeMinusAsg)
{
    // Union of path start states == range \ ASG (coverage is what
    // makes the truth rule exact).
    Rng rng(7);
    for (int trial = 0; trial < 15; ++trial) {
        const Nfa nfa = randomNfa(rng, 8);
        const Components comps = connectedComponents(nfa);
        const auto asg = alwaysActiveStates(nfa);
        const RangeAnalysis ranges(nfa);
        const Symbol s = static_cast<Symbol>('a' + rng.nextBelow(6));
        const FlowPlan plan = buildFlowPlan(nfa, comps, asg, s, {});

        std::set<StateId> covered;
        for (const auto &path : plan.paths)
            covered.insert(path.startStates.begin(),
                           path.startStates.end());

        std::set<StateId> expect;
        const std::set<StateId> asg_set(asg.begin(), asg.end());
        for (const StateId q : ranges.computeRange(s))
            if (!asg_set.contains(q))
                expect.insert(q);
        EXPECT_EQ(covered, expect);
        EXPECT_EQ(plan.flowsInRange, expect.size());
    }
}

TEST(FlowPlan, AsgStatesAreStripped)
{
    // ".*abc" (anchored star head): the star state and 'a' are always
    // active and must not appear in any path.
    Nfa nfa;
    RegexPtr ast = expandRepeats(parseRegex(".*abc"));
    compileRegexInto(nfa, *ast, 1, true);
    nfa.finalize();
    const Components comps = connectedComponents(nfa);
    const auto asg = alwaysActiveStates(nfa);
    ASSERT_EQ(asg.size(), 2u);
    const FlowPlan plan = buildFlowPlan(nfa, comps, asg, 'a', {});
    for (const auto &path : plan.paths)
        for (const StateId q : path.startStates)
            EXPECT_FALSE(std::binary_search(asg.begin(), asg.end(), q));
}

TEST(FlowPlan, ParentMergeReducesPathCount)
{
    // One parent with three successors: parent merging gives one
    // path; disabled it gives three.
    Nfa nfa;
    const auto p = nfa.addState(CharClass::single('x'),
                                StartType::AllInput);
    for (int i = 0; i < 3; ++i) {
        const auto c = nfa.addState(CharClass::single('y'),
                                    StartType::None, true,
                                    static_cast<ReportCode>(i));
        nfa.addEdge(p, c);
    }
    nfa.finalize();
    const Components comps = connectedComponents(nfa);
    const auto asg = alwaysActiveStates(nfa);

    PapOptions with;
    const FlowPlan merged = buildFlowPlan(nfa, comps, asg, 'x', with);
    EXPECT_EQ(merged.paths.size(), 1u);
    EXPECT_EQ(merged.paths[0].startStates.size(), 3u);
    EXPECT_EQ(merged.flowsAfterParent, 1u);

    PapOptions without;
    without.enableParentMerging = false;
    const FlowPlan split = buildFlowPlan(nfa, comps, asg, 'x', without);
    EXPECT_EQ(split.paths.size(), 3u);
    // Same component: three flows.
    EXPECT_EQ(split.flowsAfterParent, 3u);
}

TEST(FlowPlan, CcMergingDisabledGivesOneFlowPerPath)
{
    const PlanFixture f({{"ab", 1}, {"cb", 2}, {"db", 3}});
    PapOptions opt;
    opt.enableCcMerging = false;
    const FlowPlan plan = f.plan('b', opt);
    // 'b' labels the tails (no successors) -> no parents except heads
    // matching 'b'? Heads are labeled a/c/d, so boundary 'a' instead:
    const FlowPlan plan_a = f.plan('a', opt);
    EXPECT_EQ(plan_a.flows.size(), plan_a.paths.size());
    EXPECT_EQ(plan_a.flowsAfterCc, plan_a.flowsInRange);
}

TEST(FlowPlan, DuplicateParentSuccessorsDeduplicate)
{
    // Two parents in one component with identical successor sets
    // collapse into one path.
    Nfa nfa;
    const auto p1 = nfa.addState(CharClass::single('x'),
                                 StartType::AllInput);
    const auto p2 = nfa.addState(CharClass::single('x'));
    const auto c = nfa.addState(CharClass::single('y'),
                                StartType::None, true, 1);
    nfa.addEdge(p1, c);
    nfa.addEdge(p2, c);
    nfa.addEdge(p1, p2); // keep everything one component
    nfa.finalize();
    const Components comps = connectedComponents(nfa);
    ASSERT_EQ(comps.count, 1u);
    const FlowPlan plan =
        buildFlowPlan(nfa, comps, alwaysActiveStates(nfa), 'x', {});
    // p1 -> {p2, c}, p2 -> {c}: two distinct paths; but boundary 'y'
    // has no parents with successors.
    EXPECT_EQ(plan.paths.size(), 2u);
    const FlowPlan plan_y =
        buildFlowPlan(nfa, comps, alwaysActiveStates(nfa), 'y', {});
    EXPECT_TRUE(plan_y.paths.empty());
    EXPECT_TRUE(plan_y.flows.empty());
}

TEST(FlowPlan, FlowLimitEnforcedViaOptions)
{
    // maxFlowsPerSegment is a fatal guard; just confirm a plan under
    // the limit builds (the fatal path exits the process and is
    // covered by a death test only in debug environments).
    const PlanFixture f({{"ab", 1}});
    PapOptions opt;
    opt.maxFlowsPerSegment = 8;
    const FlowPlan plan = f.plan('a', opt);
    EXPECT_LE(plan.flows.size(), 8u);
}

/** Field-by-field equality of two plans. */
void
expectSamePlan(const FlowPlan &a, const FlowPlan &b)
{
    ASSERT_EQ(a.paths.size(), b.paths.size());
    for (std::size_t i = 0; i < a.paths.size(); ++i) {
        EXPECT_EQ(a.paths[i].parent, b.paths[i].parent);
        EXPECT_EQ(a.paths[i].cc, b.paths[i].cc);
        EXPECT_EQ(a.paths[i].startStates, b.paths[i].startStates);
    }
    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t f = 0; f < a.flows.size(); ++f) {
        EXPECT_EQ(a.flows[f].id, b.flows[f].id);
        EXPECT_EQ(a.flows[f].pathIdx, b.flows[f].pathIdx);
        EXPECT_EQ(a.flows[f].seed, b.flows[f].seed);
    }
    EXPECT_EQ(a.flowsInRange, b.flowsInRange);
    EXPECT_EQ(a.flowsAfterCc, b.flowsAfterCc);
    EXPECT_EQ(a.flowsAfterParent, b.flowsAfterParent);
    EXPECT_EQ(a.boundarySymbol, b.boundarySymbol);
}

TEST(FlowPlanTable, BuildsEachSymbolOnceAsBuildFlowPlanWould)
{
    // PreparedAutomaton::plan keeps one table per merge-flag set. Per
    // flag, the set without it and the default set share one
    // preparation, interleaved merged, unmerged, merged: each plan is
    // built once and equals buildFlowPlan under its own flags.
    const PlanFixture f({{"ab.*cd", 1}, {"abx", 2}, {"c[de]f", 3}});
    const PapOptions merged;
    PapOptions no_cc, no_parent, no_asg;
    no_cc.enableCcMerging = false;
    no_parent.enableParentMerging = false;
    no_asg.enableAsgMerging = false;
    const auto built = [] {
        return obs::metrics().counter("prepared.plans.built");
    };
    for (const PapOptions *unmerged : {&no_cc, &no_parent, &no_asg}) {
        SCOPED_TRACE(unmerged == &no_cc       ? "no CC merging"
                     : unmerged == &no_parent ? "no parent merging"
                                              : "no ASG merging");
        const PreparedAutomaton prepared(f.nfa);
        const std::uint64_t before = built();

        const FlowPlan &a = prepared.plan('a', merged);
        EXPECT_EQ(&prepared.plan('a', merged), &a);
        EXPECT_EQ(built() - before, 1u);
        const FlowPlan &a_unmerged = prepared.plan('a', *unmerged);
        const FlowPlan &c_unmerged = prepared.plan('c', *unmerged);
        EXPECT_EQ(built() - before, 3u);
        EXPECT_EQ(&prepared.plan('a', merged), &a);
        const FlowPlan &c = prepared.plan('c', merged);
        EXPECT_EQ(&prepared.plan('a', *unmerged), &a_unmerged);
        EXPECT_EQ(&prepared.plan('c', *unmerged), &c_unmerged);
        EXPECT_EQ(built() - before, 4u);

        expectSamePlan(a, f.plan('a', merged));
        expectSamePlan(c, f.plan('c', merged));
        expectSamePlan(a_unmerged, f.plan('a', *unmerged));
        expectSamePlan(c_unmerged, f.plan('c', *unmerged));
    }
}

TEST(FlowPlanTable, ConcurrentFirstUsesShareOnePlanPerSymbol)
{
    const PlanFixture f({{"ab.*cd", 1}, {"abx", 2}, {"c[de]f", 3}});
    const PreparedAutomaton prepared(f.nfa);
    const std::string symbols = "abcdefxz";
    const std::uint64_t before =
        obs::metrics().counter("prepared.plans.built");
    constexpr int kThreads = 4;
    std::vector<std::vector<const FlowPlan *>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 50; ++round)
                for (const char sym : symbols)
                    seen[t].push_back(&prepared.plan(
                        static_cast<Symbol>(sym), PapOptions{}));
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(obs::metrics().counter("prepared.plans.built") - before,
              symbols.size());
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[t], seen[0]);
}

} // namespace
} // namespace pap
