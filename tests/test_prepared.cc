/**
 * @file
 * The prepared entry points: one PreparedAutomaton run at several
 * rank counts and option settings, twice in a row, by two threads at
 * once, killed and resumed through the Nfa entry, and under
 * speculation, must give exactly what the Nfa entry points give.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "ap/ap_config.h"
#include "common/rng.h"
#include "nfa/glushkov.h"
#include "obs/metrics.h"
#include "pap/exec/checkpoint.h"
#include "pap/runner.h"
#include "pap/speculative.h"
#include "test_util.h"
#include "workload_helpers.h"

namespace pap {
namespace {

/** Several components, unanchored rules (AllInput starts: a
    non-empty ASG), an anchored one, and a latched rule whose activity
    spans segment boundaries. */
Nfa
preparedRuleset()
{
    return compileRuleset({{"ab.*cd", 1},
                           {"fgh", 2},
                           {"g[a-d]+h", 3},
                           {"cab", 4, true}},
                          "prepared");
}

InputTrace
preparedTrace()
{
    Rng rng(23);
    return randomTextTrace(rng, 24576, "abcdfgh ");
}

/** Reports, cycles, speedup, segmentation and per-segment facts. */
void
expectSameRun(const PapResult &a, const PapResult &b)
{
    ASSERT_TRUE(a.status.ok()) << a.status.toString();
    ASSERT_TRUE(b.status.ok()) << b.status.toString();
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_EQ(a.reports, b.reports);
    EXPECT_EQ(a.papCycles, b.papCycles);
    EXPECT_EQ(a.baselineCycles, b.baselineCycles);
    EXPECT_DOUBLE_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.numSegments, b.numSegments);
    EXPECT_EQ(a.boundarySymbol, b.boundarySymbol);
    EXPECT_EQ(a.boundaryRangeSize, b.boundaryRangeSize);
    EXPECT_EQ(a.flowTransitions, b.flowTransitions);
    EXPECT_EQ(a.flowSymbolCycles, b.flowSymbolCycles);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t j = 0; j < a.segments.size(); ++j) {
        const PapResult::SegmentDiag &x = a.segments[j];
        const PapResult::SegmentDiag &y = b.segments[j];
        EXPECT_EQ(x.begin, y.begin) << "segment " << j;
        EXPECT_EQ(x.length, y.length) << "segment " << j;
        EXPECT_EQ(x.flows, y.flows) << "segment " << j;
        EXPECT_EQ(x.deactivated, y.deactivated) << "segment " << j;
        EXPECT_EQ(x.converged, y.converged) << "segment " << j;
        EXPECT_EQ(x.ranToEnd, y.ranToEnd) << "segment " << j;
        EXPECT_EQ(x.truePaths, y.truePaths) << "segment " << j;
        EXPECT_EQ(x.totalPaths, y.totalPaths) << "segment " << j;
        EXPECT_EQ(x.tDone, y.tDone) << "segment " << j;
        EXPECT_EQ(x.tResolve, y.tResolve) << "segment " << j;
        EXPECT_EQ(x.entries, y.entries) << "segment " << j;
    }
}

TEST(PreparedAutomaton, EveryRunEqualsTheNfaEntry)
{
    const Nfa nfa = preparedRuleset();
    const InputTrace input = preparedTrace();
    const PreparedAutomaton prepared(nfa);
    ASSERT_FALSE(prepared.asg.empty());
    ASSERT_GT(prepared.comps.count, 1u);

    PapOptions quantum;
    quantum.tdmQuantum = 50;
    PapOptions unmerged;
    unmerged.enableCcMerging = false;
    unmerged.enableParentMerging = false;
    unmerged.enableAsgMerging = false;
    const struct
    {
        std::uint32_t ranks;
        PapOptions options;
    } calls[] = {{1, {}}, {4, {}}, {4, quantum}, {4, unmerged}};
    for (const auto &call : calls) {
        SCOPED_TRACE("ranks=" + std::to_string(call.ranks) +
                     " quantum=" +
                     std::to_string(call.options.tdmQuantum) +
                     " cc-merge=" +
                     std::to_string(call.options.enableCcMerging));
        const ApConfig board = ApConfig::d480(call.ranks);
        const PapResult from_nfa = runPap(nfa, input, board, call.options);
        ASSERT_GT(from_nfa.numSegments, 1u);
        expectSameRun(runPap(prepared, input, board, call.options),
                      from_nfa);
    }
}

TEST(PreparedAutomaton, SecondRunBuildsNoPlan)
{
    // The first run on a preparation builds its boundary symbols'
    // plans; a second run finds them there and equals the first.
    const Nfa nfa = preparedRuleset();
    const InputTrace input = preparedTrace();
    const PreparedAutomaton prepared(nfa);
    const ApConfig board = ApConfig::d480(4);
    const auto built = [] {
        return obs::metrics().counter("prepared.plans.built");
    };
    const std::uint64_t before = built();
    const PapResult first = runPap(prepared, input, board);
    ASSERT_GT(first.numSegments, 1u);
    const std::uint64_t after_first = built();
    EXPECT_GT(after_first, before);
    const PapResult second = runPap(prepared, input, board);
    EXPECT_EQ(built(), after_first);
    expectSameRun(second, first);
}

TEST(PreparedAutomaton, TwoThreadsShareOnePreparation)
{
    const Nfa nfa = preparedRuleset();
    const InputTrace input = preparedTrace();
    const PreparedAutomaton prepared(nfa);
    PapOptions opt;
    opt.threads = 2;
    PapResult results[2];
    std::thread runs[2];
    for (int t = 0; t < 2; ++t)
        runs[t] = std::thread([&, t] {
            results[t] = runPap(prepared, input, ApConfig::d480(4), opt);
        });
    for (auto &run : runs)
        run.join();
    expectSameRun(results[0], results[1]);
    expectSameRun(results[0], runPap(nfa, input, ApConfig::d480(4), opt));
}

TEST(PreparedAutomaton, KilledRunResumesThroughTheNfaEntry)
{
    const Nfa nfa = preparedRuleset();
    const InputTrace input = preparedTrace();
    const PreparedAutomaton prepared(nfa);
    const ApConfig board = ApConfig::d480(4);
    const std::string path = uniqueTempPath("prepared.ckpt");
    exec::removeCheckpoint(path);

    const PapResult clean = runPap(nfa, input, board);
    ASSERT_GE(clean.numSegments, 3u);

    PapOptions killed;
    killed.checkpointPath = path;
    killed.stopAfterSegment = 1;
    const PapResult dead = runPap(prepared, input, board, killed);
    EXPECT_EQ(dead.status.code(), ErrorCode::Cancelled);

    // The checkpoint identity is the automaton's digest, which both
    // entry points share.
    PapOptions resume;
    resume.checkpointPath = path;
    const PapResult resumed = runPap(nfa, input, board, resume);
    EXPECT_TRUE(resumed.resumedFromCheckpoint);
    EXPECT_EQ(resumed.resumedSegments, 2u);
    expectSameRun(resumed, clean);
    exec::removeCheckpoint(path);
}

TEST(PreparedAutomaton, SpeculationEqualsTheNfaEntry)
{
    const Nfa nfa = preparedRuleset();
    const InputTrace input = preparedTrace();
    const PreparedAutomaton prepared(nfa);
    SpeculationOptions opt;
    opt.warmupWindow = 64;
    const SpeculationResult a =
        runSpeculative(prepared, input, ApConfig::d480(4), opt);
    const SpeculationResult b =
        runSpeculative(nfa, input, ApConfig::d480(4), opt);
    ASSERT_GT(a.numSegments, 1u);
    EXPECT_TRUE(a.verified);
    EXPECT_EQ(a.reports, b.reports);
    EXPECT_EQ(a.numSegments, b.numSegments);
    EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.papCycles, b.papCycles);
    EXPECT_EQ(a.baselineCycles, b.baselineCycles);
    EXPECT_DOUBLE_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.verified, b.verified);
}

} // namespace
} // namespace pap
