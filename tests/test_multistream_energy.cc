/**
 * @file
 * Tests for the multi-stream flow multiplexer and the Section-5.3
 * energy model, plus the runner's energy/SVC accounting fields.
 */

#include <gtest/gtest.h>

#include "ap/ap_config.h"
#include "ap/energy.h"
#include "common/rng.h"
#include "nfa/glushkov.h"
#include "pap/multistream.h"
#include "pap/runner.h"
#include "workload_helpers.h"

namespace pap {
namespace {

TEST(MultiStream, EachStreamMatchesStandaloneRun)
{
    Rng rng(61);
    const Nfa nfa = randomNfa(rng, 5);
    std::vector<InputTrace> streams;
    for (int i = 0; i < 5; ++i)
        streams.push_back(
            randomTextTrace(rng, 1000 + rng.nextBelow(2000),
                            "abcdefgh "));
    const MultiStreamResult r =
        runMultiStream(nfa, streams, ApConfig::d480(1));
    ASSERT_TRUE(r.status.ok());
    ASSERT_EQ(r.reports.size(), streams.size());
    ASSERT_EQ(r.streamDone.size(), streams.size());
    for (std::size_t i = 0; i < streams.size(); ++i)
        EXPECT_EQ(r.reports[i], runSequential(nfa, streams[i]).reports)
            << "stream " << i;
}

TEST(MultiStream, ZeroQuantumIsInvalidInput)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    const std::vector<InputTrace> streams = {
        InputTrace::fromString("abab"), InputTrace::fromString("ba")};
    PapOptions opt;
    opt.tdmQuantum = 0;
    const MultiStreamResult r =
        runMultiStream(nfa, streams, ApConfig::d480(1), opt);
    EXPECT_EQ(r.status.code(), ErrorCode::InvalidInput);
    EXPECT_TRUE(r.reports.empty());
}

TEST(MultiStream, SingleStreamHasNoSwitchOverhead)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    const std::vector<InputTrace> streams = {
        InputTrace::fromString(std::string(1000, 'a'))};
    const MultiStreamResult r =
        runMultiStream(nfa, streams, ApConfig::d480(1));
    EXPECT_EQ(r.totalCycles, 1000u);
    EXPECT_EQ(r.switchCycles, 0u);
    EXPECT_DOUBLE_EQ(r.overheadRatio, 1.0);
}

TEST(MultiStream, OverheadBoundedBySwitchFraction)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    Rng rng(62);
    std::vector<InputTrace> streams;
    for (int i = 0; i < 8; ++i)
        streams.push_back(randomTextTrace(rng, 5000, "ab"));
    PapOptions opt;
    opt.tdmQuantum = 125;
    const MultiStreamResult r =
        runMultiStream(nfa, streams, ApConfig::d480(1), opt);
    const double bound =
        3.0 / 125.0 + 1e-9; // switch per quantum
    EXPECT_LE(r.overheadRatio, 1.0 + bound);
    EXPECT_GT(r.overheadRatio, 1.0);
}

TEST(MultiStream, RoundRobinFinishesShortStreamsFirst)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    std::vector<InputTrace> streams = {
        InputTrace::fromString(std::string(200, 'a')),
        InputTrace::fromString(std::string(4000, 'a'))};
    const MultiStreamResult r =
        runMultiStream(nfa, streams, ApConfig::d480(1));
    EXPECT_LT(r.streamDone[0], r.streamDone[1]);
    EXPECT_EQ(r.streamDone[1], r.totalCycles);
}

TEST(MultiStream, BoardSetsContextSwitchCost)
{
    // The board's timing owns the flow-switch cost: doubling it keeps
    // every report and switch count of a PAP run and of a multiplexed
    // one, and doubles the switch cycles they pay.
    const std::vector<RegexRule> rules = {{"abr.*kad", 1},
                                          {"abra", 2}};
    const Nfa nfa = compileRuleset(rules, "m");
    Rng rng(65);
    const InputTrace input = randomTextTrace(rng, 16384, "abrkd ");
    ApConfig board = ApConfig::d480(1);
    board.devicesPerRank = 4;
    board.halfCoresPerDevice = 1;
    ApConfig slow = board;
    slow.timing.contextSwitchCycles = 6;

    const PapResult r3 = runPap(nfa, input, board);
    const PapResult r6 = runPap(nfa, input, slow);
    ASSERT_TRUE(r3.verified);
    ASSERT_TRUE(r6.verified);
    EXPECT_EQ(r6.reports, r3.reports);
    EXPECT_GT(r3.contextSwitches, 0u);
    EXPECT_EQ(r6.contextSwitches, r3.contextSwitches);
    EXPECT_GT(r6.switchOverheadPct, r3.switchOverheadPct);

    std::vector<InputTrace> streams;
    for (int i = 0; i < 4; ++i)
        streams.push_back(randomTextTrace(rng, 3000, "abrkd "));
    const MultiStreamResult m3 = runMultiStream(nfa, streams, board);
    const MultiStreamResult m6 = runMultiStream(nfa, streams, slow);
    ASSERT_TRUE(m3.status.ok());
    ASSERT_TRUE(m6.status.ok());
    EXPECT_EQ(m6.reports, m3.reports);
    EXPECT_GT(m3.switchCycles, 0u);
    EXPECT_EQ(m6.switchCycles, 2 * m3.switchCycles);
}

TEST(Energy, BreakdownSumsAndScales)
{
    EnergyActivity a;
    a.cycles = 1000;
    a.blockCycles = 5000;
    a.transitions = 200;
    a.contextSwitches = 10;
    a.stateVectorUploads = 2;
    EnergyParams p;
    const EnergyBreakdown e = energyOf(a, p);
    EXPECT_DOUBLE_EQ(e.staticEnergy, 1000 * p.staticPerCycle);
    EXPECT_DOUBLE_EQ(e.dynamicRowEnergy, 5000 * p.rowActivation);
    EXPECT_DOUBLE_EQ(e.transitionEnergy, 200 * p.transitionWrite);
    EXPECT_DOUBLE_EQ(e.switchEnergy, 10 * p.contextSwitch);
    EXPECT_DOUBLE_EQ(e.uploadEnergy, 2 * p.stateVectorUpload);
    EXPECT_DOUBLE_EQ(e.total(),
                     e.staticEnergy + e.dynamicRowEnergy +
                         e.transitionEnergy + e.switchEnergy +
                         e.uploadEnergy);
}

TEST(Energy, RunnerExposesActivityCounters)
{
    const std::vector<RegexRule> rules = {{"abr.*kad", 1},
                                          {"abra", 2}};
    const Nfa nfa = compileRuleset(rules, "m");
    Rng rng(63);
    const InputTrace input = randomTextTrace(rng, 16384, "abrkd ");
    ApConfig board = ApConfig::d480(1);
    board.devicesPerRank = 4;
    board.halfCoresPerDevice = 1;
    const PapResult r = runPap(nfa, input, board);
    EXPECT_TRUE(r.verified);
    EXPECT_GE(r.flowTransitions, r.seqTransitions);
    EXPECT_GT(r.seqTransitions, 0u);
    EXPECT_NEAR(r.transitionRatio,
                static_cast<double>(r.flowTransitions) /
                    static_cast<double>(r.seqTransitions),
                1e-9);
    // The .* keeps false flows alive: switches and uploads happen.
    EXPECT_GT(r.contextSwitches, 0u);
    EXPECT_GT(r.stateVectorUploads, 0u);
    EXPECT_GT(r.flowSymbolCycles, input.size());
    EXPECT_GT(r.maxFlowsPerSegment, 0u);
    EXPECT_FALSE(r.svcOverflow);
}

TEST(Energy, SvcOverflowFlagged)
{
    // A board with a tiny SVC triggers the overflow diagnostic. Two
    // ".*" states in ONE component force two flows (paths of the same
    // component can never share a flow).
    const Nfa nfa = compileRuleset({{"ab.*cd.*ef", 1}}, "m");
    Rng rng(64);
    const InputTrace input = randomTextTrace(rng, 8192, "abcdefgh");
    ApConfig board = ApConfig::d480(1);
    board.devicesPerRank = 4;
    board.halfCoresPerDevice = 1;
    board.svcEntriesPerDevice = 1;
    const PapResult r = runPap(nfa, input, board);
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(r.svcOverflow);
}

} // namespace
} // namespace pap
