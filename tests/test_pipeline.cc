/**
 * @file
 * Scheduling equivalence of pipelined composition: the composer
 * consumes segment i while later segments still execute, so a run
 * must be byte-identical — reports and every per-figure metric — for
 * any thread count, every fault kind, and any kill/resume point. Only wall-clock (and the pipeline census that
 * measures it) may differ.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ap/ap_config.h"
#include "common/error.h"
#include "common/rng.h"
#include "engine/trace.h"
#include "nfa/glushkov.h"
#include "pap/exec/checkpoint.h"
#include "pap/fault_injector.h"
#include "pap/multistream.h"
#include "pap/runner.h"
#include "pap/speculative.h"
#include "test_util.h"
#include "workload_helpers.h"

namespace pap {
namespace {

ApConfig
smallBoard(std::uint32_t half_cores)
{
    ApConfig cfg = ApConfig::d480(1);
    cfg.devicesPerRank = half_cores;
    cfg.halfCoresPerDevice = 1;
    return cfg;
}

struct Workload
{
    Nfa nfa;
    InputTrace input;
};

Workload
pipelineWorkload()
{
    Rng rng(77);
    return Workload{compileRuleset({{"ab.*cd", 1}, {"fgh", 2}}, "m"),
                    randomTextTrace(rng, 16384, "abcdfgh ")};
}

/** The per-figure facts of a run that must be scheduling-invariant. */
void
expectSameRun(const PapResult &a, const PapResult &b)
{
    EXPECT_EQ(a.reports, b.reports);
    EXPECT_EQ(a.papCycles, b.papCycles);
    EXPECT_EQ(a.baselineCycles, b.baselineCycles);
    EXPECT_DOUBLE_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.numSegments, b.numSegments);
    EXPECT_DOUBLE_EQ(a.flowsInRange, b.flowsInRange);
    EXPECT_DOUBLE_EQ(a.flowsAfterCc, b.flowsAfterCc);
    EXPECT_DOUBLE_EQ(a.flowsAfterParent, b.flowsAfterParent);
    EXPECT_DOUBLE_EQ(a.avgActiveFlows, b.avgActiveFlows);
    EXPECT_DOUBLE_EQ(a.switchOverheadPct, b.switchOverheadPct);
    EXPECT_DOUBLE_EQ(a.reportInflation, b.reportInflation);
    EXPECT_EQ(a.flowTransitions, b.flowTransitions);
    EXPECT_EQ(a.flowSymbolCycles, b.flowSymbolCycles);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.degraded, b.degraded);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t j = 0; j < a.segments.size(); ++j) {
        EXPECT_EQ(a.segments[j].begin, b.segments[j].begin);
        EXPECT_EQ(a.segments[j].length, b.segments[j].length);
        EXPECT_EQ(a.segments[j].flows, b.segments[j].flows);
        EXPECT_EQ(a.segments[j].deactivated,
                  b.segments[j].deactivated);
        EXPECT_EQ(a.segments[j].converged, b.segments[j].converged);
        EXPECT_EQ(a.segments[j].ranToEnd, b.segments[j].ranToEnd);
        EXPECT_EQ(a.segments[j].truePaths, b.segments[j].truePaths);
        EXPECT_EQ(a.segments[j].totalPaths, b.segments[j].totalPaths);
        EXPECT_EQ(a.segments[j].tDone, b.segments[j].tDone);
        EXPECT_EQ(a.segments[j].tResolve, b.segments[j].tResolve);
        EXPECT_EQ(a.segments[j].entries, b.segments[j].entries);
    }
}

// --- Clean runs: thread counts --------------------------------------

TEST(PipelineIdentity, CleanRunsMatchAcrossModesThreadsAndEngines)
{
    const Workload w = pipelineWorkload();
    const ApConfig board = smallBoard(8);
    PapOptions ref_opt;
    ref_opt.threads = 1;
    const PapResult ref = runPap(w.nfa, w.input, board, ref_opt);
    ASSERT_TRUE(ref.status.ok());
    ASSERT_TRUE(ref.verified);
    for (const std::uint32_t threads : {2u, 8u}) {
        PapOptions opt;
        opt.threads = threads;
        const PapResult r = runPap(w.nfa, w.input, board, opt);
        ASSERT_TRUE(r.status.ok());
        EXPECT_GT(r.pipelineWallMs, 0.0);
        EXPECT_GE(r.pipelineOccupancy, 0.0);
        EXPECT_LE(r.pipelineOccupancy, 1.0);
        expectSameRun(ref, r);
    }
}

// --- Fault injection: every kind, every thread count ----------------

TEST(PipelineIdentity, EveryFaultKindMatchesAcrossModes)
{
    const Workload w = pipelineWorkload();
    const ApConfig board = smallBoard(8);
    // Hardware kinds use a generous budget that never binds plus a
    // sub-1 rate, so the per-segment fault streams fire identically
    // regardless of scheduling; worker kinds are pure hashes of
    // (seed, kind, segment) and scheduling-invariant by construction.
    const char *const kSpecs[] = {
        "corrupt-sv:1000:0.25",      "evict-svc:1000:0.25",
        "drop-report:1000:0.25",     "truncate-report:1000:0.25",
        "drop-fiv:1000:0.25",        "stall-worker:1:0.5",
        "crash-worker:1:0.5",
    };
    for (const char *spec : kSpecs) {
        std::vector<PapResult> runs;
        for (const std::uint32_t threads : {1u, 2u, 8u}) {
            auto fi = FaultInjector::fromSpec(spec, 21).value();
            PapOptions opt;
            opt.threads = threads;
            // Each injected stall lasts one deadline; a healthy
            // attempt must never reach it, even under a sanitizer on
            // a busy host.
            opt.segmentDeadlineMs = 200.0;
            opt.faultInjector = &fi;
            runs.push_back(runPap(w.nfa, w.input, board, opt));
            ASSERT_TRUE(runs.back().status.ok())
                << spec << " threads " << threads;
        }
        expectSameRun(runs[0], runs[1]);
        expectSameRun(runs[0], runs[2]);
    }
}

// --- Checkpoint kill/resume ----------------------------------------

class PipelineCheckpoint : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = uniqueTempPath("pipeline.ckpt");
        exec::removeCheckpoint(path_);
    }
    void
    TearDown() override
    {
        exec::removeCheckpoint(path_);
    }

    std::string path_;
};

TEST_F(PipelineCheckpoint, EveryKillPointResumesIdenticallyUnderBothModes)
{
    const Workload w = pipelineWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult full = runPap(w.nfa, w.input, board);
    ASSERT_TRUE(full.status.ok());
    ASSERT_GE(full.numSegments, 3u);

    // Every frontier value, INCLUDING the fully-complete checkpoint
    // left by stopping after the last segment, whose resume is a pure
    // compose-from-checkpoint run. Kill/resume thread pairs cover a
    // same-width resume and a handoff to a wider pool (checkpoints
    // carry no scheduling state).
    const std::pair<std::uint32_t, std::uint32_t> kThreadPairs[] = {
        {2, 2},
        {1, 4},
    };
    for (std::uint32_t stop = 0; stop < full.numSegments; ++stop) {
        for (const auto &pair : kThreadPairs) {
            exec::removeCheckpoint(path_);
            PapOptions killed;
            killed.checkpointPath = path_;
            killed.stopAfterSegment = static_cast<std::int64_t>(stop);
            killed.threads = pair.first;
            const PapResult dead =
                runPap(w.nfa, w.input, board, killed);
            EXPECT_FALSE(dead.status.ok()) << "stop " << stop;
            EXPECT_EQ(dead.status.code(), ErrorCode::Cancelled)
                << "stop " << stop;

            PapOptions resume;
            resume.checkpointPath = path_;
            resume.threads = pair.second;
            const PapResult r = runPap(w.nfa, w.input, board, resume);
            ASSERT_TRUE(r.status.ok()) << "stop " << stop;
            EXPECT_TRUE(r.resumedFromCheckpoint) << "stop " << stop;
            EXPECT_EQ(r.resumedSegments, stop + 1) << "stop " << stop;
            expectSameRun(full, r);
        }
    }
}

TEST_F(PipelineCheckpoint, FullyCompleteCheckpointResumesAsPureCompose)
{
    const Workload w = pipelineWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult full = runPap(w.nfa, w.input, board);
    ASSERT_TRUE(full.status.ok());

    // Stop after the LAST segment: the run still exits Cancelled, but
    // the checkpoint frontier covers every segment.
    PapOptions killed;
    killed.checkpointPath = path_;
    killed.stopAfterSegment =
        static_cast<std::int64_t>(full.numSegments) - 1;
    const PapResult dead = runPap(w.nfa, w.input, board, killed);
    EXPECT_FALSE(dead.status.ok());
    EXPECT_EQ(dead.status.code(), ErrorCode::Cancelled);

    // The resume executes zero segments — composition runs purely
    // from checkpointed state — and still verifies byte-exactly.
    PapOptions resume;
    resume.checkpointPath = path_;
    const PapResult r = runPap(w.nfa, w.input, board, resume);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.resumedFromCheckpoint);
    EXPECT_EQ(r.resumedSegments, full.numSegments);
    EXPECT_TRUE(r.verified);
    expectSameRun(full, r);
}

// --- The other drivers ----------------------------------------------

TEST(PipelineIdentity, SpeculativeRunsMatchAcrossModes)
{
    const Workload w = pipelineWorkload();
    const ApConfig board = smallBoard(8);
    const SpeculationResult ref = runSpeculative(w.nfa, w.input, board);
    ASSERT_TRUE(ref.verified);
    for (const std::uint32_t threads : {2u, 8u}) {
        SpeculationOptions opt;
        opt.threads = threads;
        const SpeculationResult r =
            runSpeculative(w.nfa, w.input, board, opt);
        EXPECT_EQ(ref.reports, r.reports);
        EXPECT_EQ(ref.papCycles, r.papCycles);
        EXPECT_DOUBLE_EQ(ref.accuracy, r.accuracy);
        EXPECT_EQ(ref.verified, r.verified);
    }
}

TEST(PipelineIdentity, MultiStreamRunsMatchAcrossModes)
{
    Rng rng(7);
    const Nfa nfa = compileRuleset({{"ab+c", 1}, {"de", 2}}, "ms");
    std::vector<InputTrace> streams;
    for (int i = 0; i < 6; ++i)
        streams.push_back(randomTextTrace(rng, 4096, "abcde "));
    const ApConfig board = smallBoard(2);
    const MultiStreamResult ref = runMultiStream(nfa, streams, board);
    ASSERT_TRUE(ref.status.ok());
    for (const std::uint32_t threads : {2u, 8u}) {
        PapOptions opt;
        opt.threads = threads;
        const MultiStreamResult r =
            runMultiStream(nfa, streams, board, opt);
        ASSERT_TRUE(r.status.ok());
        EXPECT_EQ(ref.reports, r.reports);
        EXPECT_EQ(ref.totalCycles, r.totalCycles);
        EXPECT_EQ(ref.switchCycles, r.switchCycles);
        EXPECT_EQ(ref.streamDone, r.streamDone);
    }
    for (std::size_t i = 0; i < streams.size(); ++i)
        EXPECT_EQ(ref.reports[i], runSequential(nfa, streams[i]).reports)
            << "stream " << i;
}

} // namespace
} // namespace pap
