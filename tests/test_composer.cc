/**
 * @file
 * Composer tests: the truth rule (path true iff its start states are
 * all in the previous segment's true final set), report filtering per
 * (flow, component), convergence-lineage attribution, and assembly of
 * the next segment's T.
 */

#include <gtest/gtest.h>

#include "nfa/glushkov.h"
#include "pap/composer.h"

namespace pap {
namespace {

TEST(Composer, GoldenSegmentIsAllTrue)
{
    SegmentRun run;
    run.segBegin = 0;
    run.segLen = 4;
    FlowRecord rec;
    rec.id = 0;
    rec.kind = FlowKind::Golden;
    rec.cause = DeathCause::RanToEnd;
    rec.finalSnapshot = {2, 5};
    rec.reports = {{1, 2, 10}, {3, 5, 11}, {1, 2, 10}};
    run.flows.push_back(rec);

    const SegmentTruth truth = composeGolden(run);
    EXPECT_EQ(truth.finalActive, (std::vector<StateId>{2, 5}));
    EXPECT_EQ(truth.trueReports.size(), 2u); // deduplicated
    EXPECT_EQ(truth.totalEntries, 3u);
    EXPECT_EQ(truth.aliveEnumFlowsAtEnd, 0u);
}

/** Two-rule machine used by the enumeration composition tests. */
struct ComposeFixture
{
    Nfa nfa = compileRuleset({{"abz", 1}, {"cdz", 2}}, "cmp");
    CompiledNfa cnfa{nfa};
    Components comps = connectedComponents(nfa);

    // State ids: rule 1 = {0:a 1:b 2:z}, rule 2 = {3:c 4:d 5:z}.
    FlowPlan plan;
    SegmentRun run;

    ComposeFixture()
    {
        plan.paths.push_back(EnumPath{0, comps.of[1], {1}});
        plan.paths.push_back(EnumPath{3, comps.of[4], {4}});
        plan.flows.push_back(FlowSpec{0, {0, 1}, {1, 4}});

        run.segBegin = 100;
        run.segLen = 10;

        FlowRecord rec;
        rec.id = 0;
        rec.kind = FlowKind::Enum;
        rec.cause = DeathCause::RanToEnd;
        rec.symbolsProcessed = 10;
        rec.finalSnapshot = {2, 5}; // both 'z' tails active
        rec.reports = {{105, 2, 1}, {106, 5, 2}};
        run.flows.push_back(rec);
    }
};

TEST(Composer, TruthRuleSubsetOfT)
{
    ComposeFixture f;
    // T contains state 1 (rule 1's 'b') but not 4.
    const SegmentTruth truth =
        composeEnum(f.cnfa, f.comps, f.plan, f.run, {1});
    ASSERT_EQ(truth.pathTrue.size(), 2u);
    EXPECT_TRUE(truth.pathTrue[0]);
    EXPECT_FALSE(truth.pathTrue[1]);
    ASSERT_EQ(truth.flowTrue.size(), 1u);
    EXPECT_TRUE(truth.flowTrue[0]);

    // Only rule 1's report survives the per-component filter.
    ASSERT_EQ(truth.trueReports.size(), 1u);
    EXPECT_EQ(truth.trueReports[0].code, 1u);
    EXPECT_EQ(truth.falseEntries, 1u);
    EXPECT_EQ(truth.totalEntries, 2u);

    // T_next only carries rule 1's component.
    EXPECT_EQ(truth.finalActive, (std::vector<StateId>{2}));
    EXPECT_EQ(truth.aliveEnumFlowsAtEnd, 1u);
}

TEST(Composer, EmptyTMakesEverythingFalse)
{
    ComposeFixture f;
    const SegmentTruth truth =
        composeEnum(f.cnfa, f.comps, f.plan, f.run, {});
    EXPECT_FALSE(truth.pathTrue[0]);
    EXPECT_FALSE(truth.pathTrue[1]);
    EXPECT_TRUE(truth.trueReports.empty());
    EXPECT_TRUE(truth.finalActive.empty());
    EXPECT_EQ(truth.falseEntries, 2u);
}

TEST(Composer, MultiStatePathNeedsAllStartsInT)
{
    ComposeFixture f;
    f.plan.paths[0].startStates = {1, 4}; // crosses both... same path
    const SegmentTruth partial =
        composeEnum(f.cnfa, f.comps, f.plan, f.run, {1});
    EXPECT_FALSE(partial.pathTrue[0]);
    const SegmentTruth full =
        composeEnum(f.cnfa, f.comps, f.plan, f.run, {1, 4});
    EXPECT_TRUE(full.pathTrue[0]);
}

TEST(Composer, AllInputStartsImplicitlyInT)
{
    ComposeFixture f;
    // State 0 ('a') is an AllInput start: a path containing it is
    // true even though engine snapshots never contain it.
    f.plan.paths[0].startStates = {0, 1};
    const SegmentTruth truth =
        composeEnum(f.cnfa, f.comps, f.plan, f.run, {1});
    EXPECT_TRUE(truth.pathTrue[0]);
}

TEST(Composer, ConvergedFlowInheritsSurvivorResults)
{
    ComposeFixture f;
    // Add a second flow that converged into flow 0 at local symbol 4.
    f.plan.paths.push_back(EnumPath{0, f.comps.of[1], {2}});
    f.plan.flows.push_back(FlowSpec{1, {2}, {2}});
    FlowRecord loser;
    loser.id = 1;
    loser.kind = FlowKind::Enum;
    loser.cause = DeathCause::Converged;
    loser.mergedInto = 0;
    loser.mergeSymbol = 4;
    loser.symbolsProcessed = 4;
    loser.reports = {{102, 2, 1}}; // emitted before merging
    f.run.flows.push_back(loser);

    // T makes ONLY the loser's path true (start state 2).
    const SegmentTruth truth =
        composeEnum(f.cnfa, f.comps, f.plan, f.run, {2});
    EXPECT_FALSE(truth.pathTrue[0]);
    EXPECT_FALSE(truth.pathTrue[1]);
    EXPECT_TRUE(truth.pathTrue[2]);

    // The loser's own pre-merge report is true; the survivor's report
    // at offset 105 (local 5, after the merge) is attributed to the
    // loser's lineage as well, so it is also true. The survivor's
    // rule-2 report stays false.
    std::vector<ReportCode> codes;
    for (const auto &e : truth.trueReports)
        codes.push_back(e.code);
    EXPECT_EQ(codes, (std::vector<ReportCode>{1, 1}));

    // T_next: survivor's final snapshot filtered to the loser's
    // component (rule 1), because only the loser's path was true.
    EXPECT_EQ(truth.finalActive, (std::vector<StateId>{2}));
}

TEST(Composer, SurvivorReportBeforeMergeIsNotAttributedToLoser)
{
    ComposeFixture f;
    f.plan.paths.push_back(EnumPath{0, f.comps.of[1], {2}});
    f.plan.flows.push_back(FlowSpec{1, {2}, {2}});
    FlowRecord loser;
    loser.id = 1;
    loser.kind = FlowKind::Enum;
    loser.cause = DeathCause::Converged;
    loser.mergedInto = 0;
    loser.mergeSymbol = 8; // merge AFTER the survivor's reports
    loser.symbolsProcessed = 8;
    f.run.flows.push_back(loser);

    const SegmentTruth truth =
        composeEnum(f.cnfa, f.comps, f.plan, f.run, {2});
    // Survivor's reports at local symbols 5 and 6 precede the merge:
    // the loser's truth cannot validate them.
    EXPECT_TRUE(truth.trueReports.empty());
}

TEST(Composer, AsgFlowAlwaysContributes)
{
    ComposeFixture f;
    FlowRecord asg;
    asg.id = 99;
    asg.kind = FlowKind::Asg;
    asg.cause = DeathCause::RanToEnd;
    asg.finalSnapshot = {1};
    asg.reports = {{109, 2, 1}};
    f.run.flows.push_back(asg);
    f.run.asgIndex = 1;

    const SegmentTruth truth =
        composeEnum(f.cnfa, f.comps, f.plan, f.run, {});
    // Enum flow contributes nothing; the ASG flow's report and final
    // state always do.
    ASSERT_EQ(truth.trueReports.size(), 1u);
    EXPECT_EQ(truth.trueReports[0].offset, 109u);
    EXPECT_EQ(truth.finalActive, (std::vector<StateId>{1}));
}

TEST(Composer, DeactivatedFlowContributesNothingToT)
{
    ComposeFixture f;
    f.run.flows[0].cause = DeathCause::Deactivated;
    f.run.flows[0].finalSnapshot.clear();
    f.run.flows[0].symbolsProcessed = 3;
    const SegmentTruth truth =
        composeEnum(f.cnfa, f.comps, f.plan, f.run, {1, 4});
    EXPECT_TRUE(truth.finalActive.empty());
    EXPECT_EQ(truth.aliveEnumFlowsAtEnd, 0u);
}

} // namespace
} // namespace pap
