/**
 * @file
 * Resilience contract of host-parallel execution: byte-identical
 * results for every thread count (clean and under injected worker
 * faults), the watchdog -> retry -> sequential-oracle escalation, and
 * crash-consistent checkpoint/resume equivalence.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
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
robustWorkload()
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

// --- Thread-count determinism ---------------------------------------

TEST(ThreadDeterminism, CleanRunIsByteIdenticalAcrossThreads)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    PapOptions base;
    base.threads = 1;
    const PapResult ref = runPap(w.nfa, w.input, board, base);
    ASSERT_TRUE(ref.status.ok());
    ASSERT_TRUE(ref.verified);
    EXPECT_EQ(ref.threadsUsed, 1u);
    for (const std::uint32_t threads : {2u, 8u}) {
        PapOptions opt;
        opt.threads = threads;
        const PapResult r = runPap(w.nfa, w.input, board, opt);
        ASSERT_TRUE(r.status.ok());
        EXPECT_EQ(r.threadsUsed, threads);
        expectSameRun(ref, r);
    }
}

TEST(ThreadDeterminism, StallFaultsAreByteIdenticalAcrossThreads)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    std::vector<PapResult> runs;
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
        auto fi =
            FaultInjector::fromSpec("stall-worker:1:0.5", 21).value();
        PapOptions opt;
        opt.threads = threads;
        // Each injected stall lasts one deadline; a healthy attempt
        // must never reach it, even under a sanitizer on a busy host.
        opt.segmentDeadlineMs = 200.0;
        opt.retryBackoffBaseMs = 0;
        opt.faultInjector = &fi;
        runs.push_back(runPap(w.nfa, w.input, board, opt));
        ASSERT_TRUE(runs.back().status.ok());
        // Stalls are detected by the watchdog and healed by retry, so
        // the run still verifies.
        EXPECT_TRUE(runs.back().verified);
        EXPECT_GT(runs.back().segmentsRetried, 0u);
        EXPECT_EQ(fi.recovered(), fi.injected());
    }
    expectSameRun(runs[0], runs[1]);
    expectSameRun(runs[0], runs[2]);
    EXPECT_EQ(runs[0].segmentsRetried, runs[1].segmentsRetried);
    EXPECT_EQ(runs[0].segmentsRetried, runs[2].segmentsRetried);
}

TEST(ThreadDeterminism, CrashFaultsAreByteIdenticalAcrossThreads)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    std::vector<PapResult> runs;
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
        auto fi =
            FaultInjector::fromSpec("crash-worker:1:0.5", 33).value();
        PapOptions opt;
        opt.threads = threads;
        opt.retryBackoffBaseMs = 0;
        opt.faultInjector = &fi;
        runs.push_back(runPap(w.nfa, w.input, board, opt));
        ASSERT_TRUE(runs.back().status.ok());
        EXPECT_TRUE(runs.back().verified);
        EXPECT_GT(runs.back().segmentsRetried, 0u);
    }
    expectSameRun(runs[0], runs[1]);
    expectSameRun(runs[0], runs[2]);
}

// --- Watchdog -> retry -> oracle escalation --------------------------

TEST(Escalation, TransientCrashHealsByRetryWithoutDegrading)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult clean = runPap(w.nfa, w.input, board);

    // Budget 1: each selected segment crashes once, then retries
    // cleanly — no oracle fallback, no degradation.
    auto fi = FaultInjector::fromSpec("crash-worker:1", 5).value();
    PapOptions opt;
    opt.retryBackoffBaseMs = 0;
    opt.faultInjector = &fi;
    const PapResult r = runPap(w.nfa, w.input, board, opt);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.verified);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.segmentsRetried, r.numSegments);
    EXPECT_EQ(r.segmentsRecovered, 0u);
    EXPECT_EQ(fi.recovered(), fi.injected());
    expectSameRun(clean, r);
}

TEST(Escalation, PermanentCrashFallsBackToSegmentOracle)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult clean = runPap(w.nfa, w.input, board);

    // Budget 8 >= maxRetries + 1: the fault outlives every retry, so
    // the affected segments fall back to the sequential oracle.
    auto fi = FaultInjector::fromSpec("crash-worker:8", 5).value();
    PapOptions opt;
    opt.retryBackoffBaseMs = 0;
    opt.faultInjector = &fi;
    const PapResult r = runPap(w.nfa, w.input, board, opt);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.segmentsRecovered, r.numSegments);
    EXPECT_EQ(fi.detected(), fi.injected());
    EXPECT_EQ(fi.recovered(), fi.injected());
    // The oracle continuation reproduces the exact report stream.
    EXPECT_EQ(r.reports, clean.reports);
}

TEST(Escalation, WatchdogTimeoutEscalatesToOracleWhenStallPersists)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult clean = runPap(w.nfa, w.input, board);

    auto fi = FaultInjector::fromSpec("stall-worker:8:0.4", 5).value();
    PapOptions opt;
    opt.segmentDeadlineMs = 10.0;
    opt.maxSegmentRetries = 1;
    opt.retryBackoffBaseMs = 0;
    opt.faultInjector = &fi;
    const PapResult r = runPap(w.nfa, w.input, board, opt);
    ASSERT_TRUE(r.status.ok());
    EXPECT_GT(r.segmentsRecovered, 0u);
    EXPECT_LT(r.segmentsRecovered, r.numSegments);
    EXPECT_EQ(r.reports, clean.reports);
}

TEST(Escalation, NegativeDeadlineDisablesTheWatchdog)
{
    const Workload w = robustWorkload();
    PapOptions opt;
    opt.segmentDeadlineMs = -1.0;
    const PapResult r =
        runPap(w.nfa, w.input, smallBoard(8), opt);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.verified);
}

// --- Checkpoint / resume --------------------------------------------

class CheckpointResume : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = uniqueTempPath("resume.ckpt");
        exec::removeCheckpoint(path_);
    }
    void
    TearDown() override
    {
        exec::removeCheckpoint(path_);
    }

    bool
    checkpointExists() const
    {
        std::ifstream probe(path_, std::ios::binary);
        return probe.good();
    }

    std::string path_;
};

TEST_F(CheckpointResume, KilledRunResumesByteIdentically)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult full = runPap(w.nfa, w.input, board);
    ASSERT_TRUE(full.status.ok());
    ASSERT_GE(full.numSegments, 3u);

    // Kill the run after composing segment 1; the checkpoint must
    // survive on disk.
    PapOptions killed;
    killed.checkpointPath = path_;
    killed.stopAfterSegment = 1;
    const PapResult dead = runPap(w.nfa, w.input, board, killed);
    EXPECT_FALSE(dead.status.ok());
    EXPECT_EQ(dead.status.code(), ErrorCode::Cancelled);
    ASSERT_TRUE(checkpointExists());

    // Resume: segments 0..1 come from the checkpoint, the rest run.
    PapOptions resume;
    resume.checkpointPath = path_;
    const PapResult r = runPap(w.nfa, w.input, board, resume);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.resumedFromCheckpoint);
    EXPECT_EQ(r.resumedSegments, 2u);
    EXPECT_TRUE(r.verified);
    expectSameRun(full, r);
    // A completed run cleans its checkpoint up.
    EXPECT_FALSE(checkpointExists());
}

TEST_F(CheckpointResume, EveryKillPointResumesToTheSameResult)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult full = runPap(w.nfa, w.input, board);
    ASSERT_TRUE(full.status.ok());

    // Stopping after the last segment is a completed run, not a
    // kill, so only mid-chain kill points are exercised.
    for (std::uint32_t stop = 0; stop + 1 < full.numSegments; ++stop) {
        exec::removeCheckpoint(path_);
        PapOptions killed;
        killed.checkpointPath = path_;
        killed.stopAfterSegment = static_cast<std::int64_t>(stop);
        const PapResult dead = runPap(w.nfa, w.input, board, killed);
        EXPECT_FALSE(dead.status.ok()) << "stop " << stop;

        PapOptions resume;
        resume.checkpointPath = path_;
        const PapResult r = runPap(w.nfa, w.input, board, resume);
        ASSERT_TRUE(r.status.ok()) << "stop " << stop;
        EXPECT_EQ(r.resumedSegments, stop + 1) << "stop " << stop;
        expectSameRun(full, r);
    }
}

TEST_F(CheckpointResume, ResumeWithDifferentThreadCountStillMatches)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult full = runPap(w.nfa, w.input, board);

    PapOptions killed;
    killed.checkpointPath = path_;
    killed.stopAfterSegment = 0;
    killed.threads = 1;
    ASSERT_FALSE(runPap(w.nfa, w.input, board, killed).status.ok());

    PapOptions resume;
    resume.checkpointPath = path_;
    resume.threads = 4; // identity hash ignores execution knobs
    const PapResult r = runPap(w.nfa, w.input, board, resume);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.resumedFromCheckpoint);
    expectSameRun(full, r);
}

TEST_F(CheckpointResume, CorruptCheckpointFallsBackToFreshRun)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult full = runPap(w.nfa, w.input, board);

    PapOptions killed;
    killed.checkpointPath = path_;
    killed.stopAfterSegment = 1;
    ASSERT_FALSE(runPap(w.nfa, w.input, board, killed).status.ok());

    // Flip a payload byte: the CRC rejects the file and the run
    // starts fresh instead of resuming from damaged state.
    {
        std::fstream file(
            path_, std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(file.good());
        char byte = 0;
        file.seekg(32);
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0xff);
        file.seekp(32);
        file.write(&byte, 1);
    }
    PapOptions resume;
    resume.checkpointPath = path_;
    const PapResult r = runPap(w.nfa, w.input, board, resume);
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.resumedFromCheckpoint);
    expectSameRun(full, r);
}

TEST_F(CheckpointResume, ForeignCheckpointIsIgnored)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);

    // Checkpoint a run over a different input...
    Rng rng(123);
    const InputTrace other = randomTextTrace(rng, 16384, "abcdfgh ");
    PapOptions killed;
    killed.checkpointPath = path_;
    killed.stopAfterSegment = 0;
    ASSERT_FALSE(runPap(w.nfa, other, board, killed).status.ok());
    ASSERT_TRUE(checkpointExists());

    // ...then run the real input against it: the identity hash
    // mismatches, so the checkpoint is ignored, not applied.
    const PapResult full = runPap(w.nfa, w.input, board);
    PapOptions resume;
    resume.checkpointPath = path_;
    const PapResult r = runPap(w.nfa, w.input, board, resume);
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.resumedFromCheckpoint);
    expectSameRun(full, r);
}

TEST_F(CheckpointResume, ResumeUnderWorkerFaultsKeepsReportsExact)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult clean = runPap(w.nfa, w.input, board);

    auto kill_fi =
        FaultInjector::fromSpec("crash-worker:1:0.5", 21).value();
    PapOptions killed;
    killed.checkpointPath = path_;
    killed.stopAfterSegment = 1;
    killed.retryBackoffBaseMs = 0;
    killed.faultInjector = &kill_fi;
    ASSERT_FALSE(runPap(w.nfa, w.input, board, killed).status.ok());

    auto resume_fi =
        FaultInjector::fromSpec("crash-worker:1:0.5", 21).value();
    PapOptions resume;
    resume.checkpointPath = path_;
    resume.retryBackoffBaseMs = 0;
    resume.faultInjector = &resume_fi;
    const PapResult r = runPap(w.nfa, w.input, board, resume);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.resumedFromCheckpoint);
    EXPECT_EQ(r.reports, clean.reports);
}

// --- The other runners ----------------------------------------------

TEST(ThreadDeterminism, SpeculativeRunIsIdenticalAcrossThreads)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    SpeculationOptions base;
    base.threads = 1;
    const SpeculationResult ref =
        runSpeculative(w.nfa, w.input, board, base);
    for (const std::uint32_t threads : {2u, 8u}) {
        SpeculationOptions opt;
        opt.threads = threads;
        const SpeculationResult r =
            runSpeculative(w.nfa, w.input, board, opt);
        EXPECT_EQ(r.threadsUsed, threads);
        EXPECT_EQ(ref.reports, r.reports);
        EXPECT_EQ(ref.papCycles, r.papCycles);
        EXPECT_DOUBLE_EQ(ref.accuracy, r.accuracy);
        EXPECT_EQ(ref.verified, r.verified);
    }
}

TEST(ThreadDeterminism, MultiStreamRunIsIdenticalAcrossThreads)
{
    Rng rng(7);
    const Nfa nfa = compileRuleset({{"ab+c", 1}, {"de", 2}}, "ms");
    std::vector<InputTrace> streams;
    for (int i = 0; i < 6; ++i)
        streams.push_back(randomTextTrace(rng, 4096, "abcde "));
    const ApConfig board = smallBoard(2);
    PapOptions base;
    base.threads = 1;
    const MultiStreamResult ref =
        runMultiStream(nfa, streams, board, base);
    ASSERT_TRUE(ref.status.ok());
    for (const std::uint32_t threads : {2u, 8u}) {
        PapOptions opt;
        opt.threads = threads;
        const MultiStreamResult r =
            runMultiStream(nfa, streams, board, opt);
        ASSERT_TRUE(r.status.ok());
        EXPECT_EQ(r.threadsUsed, threads);
        EXPECT_EQ(ref.reports, r.reports);
        EXPECT_EQ(ref.totalCycles, r.totalCycles);
        EXPECT_EQ(ref.switchCycles, r.switchCycles);
        EXPECT_EQ(ref.streamDone, r.streamDone);
        EXPECT_EQ(ref.verified, r.verified);
    }
}

} // namespace
} // namespace pap
