/**
 * @file
 * Segment simulation tests: golden segments (the sequential run of
 * their slice, from any seed, polled or not), deactivation detection
 * (including the fine-grained checks before the first TDM step),
 * convergence merging, and the recorded flow metadata the composer
 * and timeline rely on.
 */

#include <gtest/gtest.h>

#include <string>

#include "engine/trace.h"
#include "nfa/glushkov.h"
#include "pap/segment_sim.h"
#include "workloads/benchmarks.h"

namespace pap {
namespace {

struct SimFixture
{
    Nfa nfa;
    CompiledNfa *cnfa = nullptr;
    Components comps;
    std::vector<StateId> asg;
    EngineScratch *scratch = nullptr;

    explicit SimFixture(const std::vector<RegexRule> &rules)
        : nfa(compileRuleset(rules, "sim"))
    {
        comps = connectedComponents(nfa);
        asg = alwaysActiveStates(nfa);
        cnfa = new CompiledNfa(nfa);
        scratch = new EngineScratch(nfa.size());
    }

    ~SimFixture()
    {
        delete cnfa;
        delete scratch;
    }
};

TEST(SegmentSim, GoldenSegmentMatchesSequentialActivity)
{
    SimFixture f({{"ab", 1}});
    const InputTrace t = InputTrace::fromString("abxab");
    const SegmentRun run = runGoldenSegment(
        *f.cnfa, f.cnfa->initialActive(), t.begin(), 0, t.size());
    ASSERT_EQ(run.flows.size(), 1u);
    const FlowRecord &rec = run.flows[0];
    EXPECT_EQ(rec.kind, FlowKind::Golden);
    EXPECT_EQ(rec.cause, DeathCause::RanToEnd);
    EXPECT_EQ(rec.symbolsProcessed, t.size());
    EXPECT_EQ(rec.reports.size(), 2u);
    EXPECT_EQ(rec.reports[0].offset, 1u);
    EXPECT_EQ(rec.reports[1].offset, 4u);
}

void
expectSameCounters(const EngineCounters &a, const EngineCounters &b)
{
    EXPECT_EQ(a.symbols, b.symbols);
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.enables, b.enables);
    EXPECT_EQ(a.succRows, b.succRows);
    EXPECT_EQ(a.bytesTouched, b.bytesTouched);
    EXPECT_EQ(a.shiftSteps, b.shiftSteps);
    EXPECT_EQ(a.densityOctiles, b.densityOctiles);
}

TEST(SegmentSim, GoldenSegmentIsTheSequentialRunOfItsSlice)
{
    // A Table-1 automaton whose .* latches carry activity across the
    // middle of the input, so the second slice starts from a live set.
    const Nfa nfa = buildBenchmark("Dotstar03");
    const InputTrace input = buildBenchmarkTrace(nfa, "Dotstar03", 16384);
    const CompiledNfa cnfa(nfa);
    const std::uint64_t mid = input.size() / 2;
    const std::vector<StateId> at_mid =
        runSequential(cnfa, cnfa.initialActive(), input.begin(), 0, mid)
            .finalActive;
    ASSERT_FALSE(at_mid.empty());

    struct Slice
    {
        const std::vector<StateId> &initial;
        std::uint64_t begin;
        std::uint64_t length;
    };
    const exec::CancellationToken live;
    for (const Slice &s : {Slice{cnfa.initialActive(), 0, mid},
                           Slice{at_mid, mid, input.size() - mid}}) {
        const SequentialResult seq = runSequential(
            cnfa, s.initial, input.ptr(s.begin), s.begin, s.length);
        for (const exec::CancellationToken *token :
             {static_cast<const exec::CancellationToken *>(nullptr),
              &live}) {
            const std::string what = "begin=" + std::to_string(s.begin) +
                                     (token ? " token" : "");
            const SegmentRun run =
                runGoldenSegment(cnfa, s.initial, input.ptr(s.begin),
                                 s.begin, s.length, nullptr, token);
            ASSERT_EQ(run.flows.size(), 1u) << what;
            const FlowRecord &rec = run.flows[0];
            EXPECT_EQ(rec.kind, FlowKind::Golden) << what;
            EXPECT_EQ(rec.finalSnapshot, seq.finalActive) << what;
            EXPECT_EQ(rec.reports.size(), seq.entries) << what;
            std::vector<ReportEvent> reports = rec.reports;
            sortAndDedupReports(reports);
            EXPECT_EQ(reports, seq.reports) << what;
            expectSameCounters(rec.counters, seq.counters);
        }
    }
}

TEST(SegmentSim, CancelledGoldenRunReturnsEarly)
{
    const Nfa nfa = buildBenchmark("Dotstar03");
    const InputTrace input = buildBenchmarkTrace(nfa, "Dotstar03", 16384);
    const CompiledNfa cnfa(nfa);
    exec::CancellationToken cancelled;
    cancelled.cancel();
    const SequentialResult seq =
        runSequential(cnfa, cnfa.initialActive(), input.begin(), 0,
                      input.size(), {}, &cancelled);
    EXPECT_LT(seq.counters.symbols, input.size());
    const SegmentRun run =
        runGoldenSegment(cnfa, cnfa.initialActive(), input.begin(), 0,
                         input.size(), nullptr, &cancelled);
    ASSERT_EQ(run.flows.size(), 1u);
    EXPECT_LT(run.flows[0].counters.symbols, input.size());
}

TEST(SegmentSim, EnumFlowDeactivatesAtEarlyCheck)
{
    SimFixture f({{"abcd", 1}});
    // Seed the 'b' state; input never contains 'b', so the flow dies
    // on the first symbol and the early check (granularity 16 by
    // default) detects it within the first TDM step.
    FlowPlan plan;
    plan.paths.push_back(EnumPath{0, f.comps.of[1], {1}});
    plan.flows.push_back(FlowSpec{0, {0}, {1}});

    const std::string text(600, 'x');
    const InputTrace t = InputTrace::fromString(text);
    PapOptions opt;
    opt.tdmQuantum = 125;
    const SegmentRun run =
        runEnumSegment(*f.cnfa, plan, f.asg, t.begin(), 0, t.size(),
                       opt, *f.scratch);
    // flows[0] is the ASG flow (AllInput start), flows[1] the enum.
    ASSERT_EQ(run.flows.size(), 2u);
    EXPECT_EQ(run.asgIndex, 0);
    const FlowRecord &asg = run.flows[0];
    EXPECT_EQ(asg.kind, FlowKind::Asg);
    EXPECT_EQ(asg.cause, DeathCause::RanToEnd);

    const FlowRecord &rec = run.flows[1];
    EXPECT_EQ(rec.kind, FlowKind::Enum);
    EXPECT_EQ(rec.cause, DeathCause::Deactivated);
    EXPECT_EQ(rec.symbolsProcessed, 16u); // first early check
    EXPECT_TRUE(rec.finalSnapshot.empty());
}

TEST(SegmentSim, DeactivationAtRoundBoundaryAfterFirstStep)
{
    SimFixture f({{"ab", 1}});
    FlowPlan plan;
    plan.paths.push_back(EnumPath{0, f.comps.of[1], {1}});
    plan.flows.push_back(FlowSpec{0, {0}, {1}});

    // 'b' stays alive while input is "bbbb..." (state 1 self-feeds?
    // no: 'b' has no successors, it dies right away after reporting).
    // Use a machine where the seed survives past the first TDM step:
    SimFixture g({{"b*c", 2}});
    // state 0 is 'b' star (self loop), seed it.
    FlowPlan plan_g;
    plan_g.paths.push_back(EnumPath{0, g.comps.of[0], {0}});
    plan_g.flows.push_back(FlowSpec{0, {0}, {0}});
    std::string text(200, 'b');
    text += std::string(200, 'x'); // kills the star at offset 200
    const InputTrace t = InputTrace::fromString(text);
    PapOptions opt;
    opt.tdmQuantum = 50;
    const SegmentRun run =
        runEnumSegment(*g.cnfa, plan_g, g.asg, t.begin(), 0, t.size(),
                       opt, *g.scratch);
    const FlowRecord &rec = run.flows.back();
    EXPECT_EQ(rec.cause, DeathCause::Deactivated);
    // Dies at 201 symbols; detected at the 250 round boundary.
    EXPECT_EQ(rec.symbolsProcessed, 250u);
}

TEST(SegmentSim, ConvergedFlowsMergeAtCheckPeriod)
{
    // Two flows seeded at the two 'b' positions of "(ab|cb)x*y":
    // after one 'b' both hold {x-star, y} and must merge at the first
    // convergence check.
    SimFixture f({{"(ab|cb)x*y", 1}});
    std::vector<StateId> b_states;
    for (StateId q = 0; q < f.nfa.size(); ++q)
        if (f.nfa[q].label.test('b'))
            b_states.push_back(q);
    ASSERT_EQ(b_states.size(), 2u);

    FlowPlan plan;
    plan.paths.push_back(
        EnumPath{b_states[0], f.comps.of[b_states[0]], {b_states[0]}});
    plan.paths.push_back(
        EnumPath{b_states[1], f.comps.of[b_states[1]], {b_states[1]}});
    // Same component: two flows.
    plan.flows.push_back(FlowSpec{0, {0}, {b_states[0]}});
    plan.flows.push_back(FlowSpec{1, {1}, {b_states[1]}});

    std::string text = "b";
    text += std::string(2000, 'x');
    const InputTrace t = InputTrace::fromString(text);
    PapOptions opt;
    opt.tdmQuantum = 20;
    opt.convergenceCheckPeriod = 10;
    const SegmentRun run =
        runEnumSegment(*f.cnfa, plan, f.asg, t.begin(), 0, t.size(),
                       opt, *f.scratch);

    const FlowRecord *winner = nullptr, *loser = nullptr;
    for (const auto &rec : run.flows) {
        if (rec.kind != FlowKind::Enum)
            continue;
        if (rec.cause == DeathCause::Converged)
            loser = &rec;
        else
            winner = &rec;
    }
    ASSERT_NE(winner, nullptr);
    ASSERT_NE(loser, nullptr);
    EXPECT_EQ(loser->mergedInto, winner->id);
    // Convergence fires at the first check: 10 rounds x 20 symbols.
    EXPECT_EQ(loser->mergeSymbol, 200u);
    EXPECT_EQ(loser->symbolsProcessed, 200u);
    EXPECT_EQ(winner->cause, DeathCause::RanToEnd);
    EXPECT_FALSE(winner->finalSnapshot.empty());
}

TEST(SegmentSim, ConvergenceDisabledKeepsFlowsApart)
{
    SimFixture f({{"(a|b)x*y", 1}});
    StateId head_a = kInvalidState, head_b = kInvalidState;
    for (StateId q = 0; q < f.nfa.size(); ++q) {
        if (f.nfa[q].label.test('a'))
            head_a = q;
        if (f.nfa[q].label.test('b'))
            head_b = q;
    }
    FlowPlan plan;
    plan.paths.push_back(
        EnumPath{head_a, f.comps.of[head_a], {head_a}});
    plan.paths.push_back(
        EnumPath{head_b, f.comps.of[head_b], {head_b}});
    plan.flows.push_back(FlowSpec{0, {0}, {head_a}});
    plan.flows.push_back(FlowSpec{1, {1}, {head_b}});

    std::string text = "ab";
    text += std::string(500, 'x');
    const InputTrace t = InputTrace::fromString(text);
    PapOptions opt;
    opt.tdmQuantum = 20;
    opt.enableConvergenceChecks = false;
    const SegmentRun run =
        runEnumSegment(*f.cnfa, plan, f.asg, t.begin(), 0, t.size(),
                       opt, *f.scratch);
    for (const auto &rec : run.flows)
        EXPECT_NE(rec.cause, DeathCause::Converged);
}

TEST(SegmentSim, ReportsCarryAbsoluteOffsets)
{
    SimFixture f({{"ab", 1}});
    FlowPlan plan;
    plan.paths.push_back(EnumPath{0, f.comps.of[1], {1}});
    plan.flows.push_back(FlowSpec{0, {0}, {1}});
    const InputTrace t = InputTrace::fromString("b");
    const SegmentRun run =
        runEnumSegment(*f.cnfa, plan, f.asg, t.begin(), 5000, t.size(),
                       PapOptions{}, *f.scratch);
    const FlowRecord &rec = run.flows.back();
    ASSERT_EQ(rec.reports.size(), 1u);
    EXPECT_EQ(rec.reports[0].offset, 5000u);
    EXPECT_EQ(run.segBegin, 5000u);
}

} // namespace
} // namespace pap
