/**
 * @file
 * Resilience contract of host-parallel execution: byte-identical
 * results for every thread count (clean and under injected worker
 * faults), the deadline -> retry -> sequential-oracle escalation,
 * crash-consistent checkpoint/resume equivalence, and the same
 * contracts on a 16K-state automaton.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ap/ap_config.h"
#include "common/charclass.h"
#include "common/error.h"
#include "common/file_lock.h"
#include "common/logging.h"
#include "common/rng.h"
#include "engine/reference_engine.h"
#include "engine/trace.h"
#include "nfa/analysis.h"
#include "nfa/glushkov.h"
#include "obs/metrics.h"
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

/**
 * A structured automaton of 16K+ states: chains of narrow
 * single-letter states, a sprinkling of always-on AllInput drivers
 * that keep re-seeding activity, a rare 'h' label that gives the
 * partitioner a small boundary range, and periodic reporting states.
 * Activity stays sparse (a few hundred of the states), as on the large
 * Table-1 automata.
 */
Nfa
largeSyntheticNfa(StateId states)
{
    Nfa nfa("large16k");
    const std::string letters = "abcdefg";
    for (StateId q = 0; q < states; ++q) {
        // Driver successors are the reporting states: they actually
        // fire (a driver re-enables them every cycle), unlike deep
        // chain positions that activity never reaches.
        const bool reporting = (q % 256) == 1;
        const ReportCode code =
            reporting ? static_cast<ReportCode>(1 + q % 31) : 0;
        if (q == 0) {
            nfa.addState(CharClass::single('a'), StartType::StartOfData,
                         reporting, code);
        } else if (q % 256 == 0) {
            // Always-on drivers: match every symbol, re-seed activity.
            nfa.addState(CharClass::all(), StartType::AllInput,
                         reporting, code);
        } else if (q % 1024 == 1) {
            // Rare label: the partitioner's small boundary range.
            nfa.addState(CharClass::single('h'), StartType::None,
                         reporting, code);
        } else {
            nfa.addState(CharClass::single(letters[q % 7]),
                         StartType::None, reporting, code);
        }
    }
    for (StateId q = 0; q < states; ++q) {
        // Chains that wrap within a 1024-state block keep activity
        // persistent without letting it saturate.
        const StateId block = q & ~StateId{1023};
        nfa.addEdge(q, block + ((q - block + 1) & 1023));
        if (q % 256 == 0) {
            // Self-loop keeps drivers alive in enum mode too, where
            // no start fold re-enables AllInput states.
            nfa.addEdge(q, q);
            if (q + 17 < states)
                nfa.addEdge(q, q + 17);
        }
    }
    nfa.finalize();
    return nfa;
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

TEST(ThreadDeterminism, OneThreadRunSharesAPoolOfTwoWithItsChecks)
{
    if (std::thread::hardware_concurrency() < 2)
        GTEST_SKIP() << "needs at least 2 hardware threads";
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    auto &m = obs::metrics();
    const std::uint64_t whole0 =
        m.counter("runner.verify.whole_input_runs");
    PapOptions one;
    one.threads = 1;
    const PapResult r = runPap(w.nfa, w.input, board, one);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.threadsUsed, 1u);
    EXPECT_EQ(m.gauge("exec.threads_used"), 1.0);
    // The segment worker plus the one a check pool of its own would
    // have taken, shared by segments and golden checks.
    EXPECT_EQ(m.gauge("exec.pool.threads"), 2.0);
    EXPECT_EQ(m.counter("runner.verify.whole_input_runs"), whole0);
    PapOptions all;
    all.threads = 0;
    expectSameRun(runPap(w.nfa, w.input, board, all), r);
}

TEST(ThreadDeterminism, SharedFaultBudgetsStrikeAlikeAtEveryThreadCount)
{
    // corrupt-sv:32 at rate 1 runs out of budget mid-run, so which
    // context switches it strikes depends on the order the segments
    // draw in: the run executes on one worker, in segment order.
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    std::vector<PapResult> runs;
    for (const std::uint32_t threads : {1u, 4u}) {
        auto fi = FaultInjector::fromSpec("corrupt-sv:32", 11).value();
        PapOptions opt;
        opt.threads = threads;
        opt.faultInjector = &fi;
        runs.push_back(runPap(w.nfa, w.input, board, opt));
        ASSERT_TRUE(runs.back().status.ok());
        EXPECT_EQ(fi.remaining(FaultKind::CorruptStateVector), 0u);
        EXPECT_EQ(obs::metrics().gauge("exec.pool.threads"), 1.0);
    }
    expectSameRun(runs[0], runs[1]);
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
        opt.faultInjector = &fi;
        runs.push_back(runPap(w.nfa, w.input, board, opt));
        ASSERT_TRUE(runs.back().status.ok());
        // Stalls trip their attempts' deadlines and are healed by
        // retry, so the run still verifies.
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
        opt.faultInjector = &fi;
        runs.push_back(runPap(w.nfa, w.input, board, opt));
        ASSERT_TRUE(runs.back().status.ok());
        EXPECT_TRUE(runs.back().verified);
        EXPECT_GT(runs.back().segmentsRetried, 0u);
    }
    expectSameRun(runs[0], runs[1]);
    expectSameRun(runs[0], runs[2]);
}

// --- Deadline -> retry -> oracle escalation --------------------------

TEST(Escalation, TransientCrashHealsByRetryWithoutDegrading)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult clean = runPap(w.nfa, w.input, board);

    // Budget 1: each selected segment crashes once, then retries
    // cleanly — no oracle fallback, no degradation.
    auto fi = FaultInjector::fromSpec("crash-worker:1", 5).value();
    PapOptions opt;
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

TEST_F(CheckpointResume, OldVersionCheckpointWarnsAndRunsFresh)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult full = runPap(w.nfa, w.input, board);

    PapOptions killed;
    killed.checkpointPath = path_;
    killed.stopAfterSegment = 1;
    ASSERT_FALSE(runPap(w.nfa, w.input, board, killed).status.ok());
    // A version-1 file: valid apart from its version field.
    patchCheckpointVersion(path_, 1);

    const LogLevel level = logLevel();
    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    PapOptions resume;
    resume.checkpointPath = path_;
    const PapResult r = runPap(w.nfa, w.input, board, resume);
    const std::string err = ::testing::internal::GetCapturedStderr();
    setLogLevel(level);
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.resumedFromCheckpoint);
    EXPECT_NE(err.find("unsupported version"), std::string::npos) << err;
    expectSameRun(full, r);
}

TEST_F(CheckpointResume, SecondRunOnTheSameCheckpointIsLocked)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult full = runPap(w.nfa, w.input, board);

    PapOptions killed;
    killed.checkpointPath = path_;
    killed.stopAfterSegment = 1;
    ASSERT_FALSE(runPap(w.nfa, w.input, board, killed).status.ok());
    ASSERT_TRUE(checkpointExists());

    PapOptions resume;
    resume.checkpointPath = path_;
    {
        // Another holder of the checkpoint. flock locks belong to the
        // open file description, so this conflicts with the run's own
        // acquisition even inside one process.
        auto other = FileLock::acquire(path_ + ".lock");
        ASSERT_TRUE(other.ok()) << other.status().toString();
        const PapResult r = runPap(w.nfa, w.input, board, resume);
        EXPECT_EQ(r.status.code(), ErrorCode::LockHeld)
            << r.status.toString();
        EXPECT_TRUE(r.reports.empty());
        // Refused before it ran anything: no sequential fields.
        EXPECT_EQ(r.seqReportEvents, 0u);
        EXPECT_EQ(r.baselineCycles, 0u);
        // The loser left the holder's checkpoint alone.
        auto kept = exec::loadCheckpoint(path_);
        ASSERT_TRUE(kept.ok()) << kept.status().toString();
        EXPECT_EQ(kept.value().nextSegment, 2u);
    }

    // Released: the next run owns the checkpoint and resumes from it.
    const PapResult r = runPap(w.nfa, w.input, board, resume);
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    EXPECT_TRUE(r.resumedFromCheckpoint);
    expectSameRun(full, r);
    EXPECT_FALSE(std::filesystem::exists(path_ + ".lock"));
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

TEST_F(CheckpointResume, ForeignAutomatonCheckpointIsIgnored)
{
    // Same name, same state count, one label apart, cut at the same
    // boundary symbol: only the automaton's structure tells the two
    // runs apart.
    const Workload w = robustWorkload();
    const Nfa foreign = compileRuleset({{"ab.*ce", 1}, {"fgh", 2}}, "m");
    ASSERT_EQ(foreign.size(), w.nfa.size());
    const ApConfig board = smallBoard(8);

    PapOptions killed;
    killed.checkpointPath = path_;
    killed.stopAfterSegment = 1;
    const PapResult dead = runPap(w.nfa, w.input, board, killed);
    ASSERT_FALSE(dead.status.ok());
    ASSERT_TRUE(checkpointExists());

    const PapResult clean = runPap(foreign, w.input, board);
    ASSERT_TRUE(clean.status.ok());
    ASSERT_EQ(clean.numSegments, dead.numSegments);
    ASSERT_EQ(clean.boundarySymbol, dead.boundarySymbol);
    PapOptions resume;
    resume.checkpointPath = path_;
    const PapResult r = runPap(foreign, w.input, board, resume);
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.resumedFromCheckpoint);
    EXPECT_TRUE(r.verified);
    EXPECT_FALSE(r.recovered);
    expectSameRun(clean, r);
}

TEST_F(CheckpointResume, EditedInputOfTheSameLengthIsIgnored)
{
    // Two symbols changed, at offsets a sparse sample of the input
    // would skip: the identity hashes every symbol.
    const Workload w = robustWorkload();
    InputTrace edited = w.input;
    for (const std::size_t at : {std::size_t{1}, std::size_t{257}})
        edited.symbols()[at] = edited[at] == 'a' ? 'b' : 'a';
    const ApConfig board = smallBoard(8);

    PapOptions killed;
    killed.checkpointPath = path_;
    killed.stopAfterSegment = 1;
    const PapResult dead = runPap(w.nfa, edited, board, killed);
    ASSERT_FALSE(dead.status.ok());
    ASSERT_TRUE(checkpointExists());

    const PapResult clean = runPap(w.nfa, w.input, board);
    ASSERT_TRUE(clean.status.ok());
    ASSERT_EQ(clean.numSegments, dead.numSegments);
    ASSERT_EQ(clean.boundarySymbol, dead.boundarySymbol);
    PapOptions resume;
    resume.checkpointPath = path_;
    const PapResult r = runPap(w.nfa, w.input, board, resume);
    ASSERT_TRUE(r.status.ok());
    EXPECT_FALSE(r.resumedFromCheckpoint);
    EXPECT_TRUE(r.verified);
    EXPECT_FALSE(r.recovered);
    expectSameRun(clean, r);
}

TEST_F(CheckpointResume, ResumeUnderWorkerFaultsKeepsReportsExact)
{
    const Workload w = robustWorkload();
    const ApConfig board = smallBoard(8);
    // A permanent spec: every attempt of a selected segment crashes,
    // so the segment is recovered from the oracle. Which segments
    // those are must not depend on where the run was killed.
    const auto faulted = [&](PapOptions opt) {
        auto fi = FaultInjector::fromSpec("crash-worker:3:0.4", 11).value();
        opt.faultInjector = &fi;
        return runPap(w.nfa, w.input, board, opt);
    };
    const PapResult full = faulted({});
    ASSERT_TRUE(full.status.ok());
    ASSERT_GT(full.segmentsRecovered, 0u);
    EXPECT_EQ(full.reports, runPap(w.nfa, w.input, board).reports);

    for (std::uint32_t stop = 0; stop + 1 < full.numSegments; ++stop) {
        exec::removeCheckpoint(path_);
        PapOptions killed;
        killed.checkpointPath = path_;
        killed.stopAfterSegment = static_cast<std::int64_t>(stop);
        ASSERT_FALSE(faulted(killed).status.ok()) << "stop " << stop;

        PapOptions resume;
        resume.checkpointPath = path_;
        const PapResult r = faulted(resume);
        ASSERT_TRUE(r.status.ok()) << "stop " << stop;
        EXPECT_TRUE(r.resumedFromCheckpoint) << "stop " << stop;
        expectSameRun(full, r);
        EXPECT_EQ(r.segmentsRetried, full.segmentsRetried)
            << "stop " << stop;
        EXPECT_EQ(r.segmentsRecovered, full.segmentsRecovered)
            << "stop " << stop;
    }
}

TEST_F(CheckpointResume, EvictRunResumesThroughTheLiveCache)
{
    // Chains "b c{L} z" of spread lifetimes over runs of 'c' cut at
    // 'b': with component merging off every enumeration segment plans
    // one flow per rule, so a capacity below that width makes the live
    // cache evict in the resumed segments as well as the executed ones.
    std::vector<RegexRule> rules;
    for (std::uint32_t i = 0; i < 16; ++i)
        rules.push_back({"bc{" + std::to_string(4 + (i * 37) % 100) + "}z",
                         static_cast<ReportCode>(i), false});
    const Nfa nfa = compileRuleset(rules, "chains");
    std::string text;
    while (text.size() < 8192) {
        text += 'b';
        text.append(255, 'c');
    }
    const InputTrace input = InputTrace::fromString(text);
    ApConfig board = smallBoard(8);
    board.svcEntriesPerDevice = 8;
    PapOptions opt;
    opt.enableCcMerging = false;
    const PapResult full = runPap(nfa, input, board, opt);
    ASSERT_TRUE(full.status.ok());
    ASSERT_GE(full.numSegments, 3u);
    ASSERT_LT(board.svcEntriesPerDevice, full.maxFlowsPerSegment);
    ASSERT_GT(full.svcEvictions, 0u);

    for (std::uint32_t stop = 0; stop + 1 < full.numSegments; ++stop) {
        exec::removeCheckpoint(path_);
        PapOptions killed = opt;
        killed.checkpointPath = path_;
        killed.stopAfterSegment = static_cast<std::int64_t>(stop);
        ASSERT_FALSE(runPap(nfa, input, board, killed).status.ok())
            << "stop " << stop;

        PapOptions resume = opt;
        resume.checkpointPath = path_;
        const PapResult r = runPap(nfa, input, board, resume);
        ASSERT_TRUE(r.status.ok()) << "stop " << stop;
        EXPECT_TRUE(r.resumedFromCheckpoint) << "stop " << stop;
        expectSameRun(full, r);
        EXPECT_EQ(r.svcEvictions, full.svcEvictions) << "stop " << stop;
        EXPECT_EQ(r.svcReuploads, full.svcReuploads) << "stop " << stop;
        EXPECT_EQ(r.svcLoadHits, full.svcLoadHits) << "stop " << stop;
        EXPECT_EQ(r.svcLoadMisses, full.svcLoadMisses) << "stop " << stop;
        EXPECT_EQ(r.svcReuploadCycles, full.svcReuploadCycles)
            << "stop " << stop;
    }
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
    }
    for (std::size_t i = 0; i < streams.size(); ++i)
        EXPECT_EQ(ref.reports[i], runSequential(nfa, streams[i]).reports)
            << "stream " << i;
}

// --- The 16K-state regime -------------------------------------------

Workload
largeWorkload(std::uint64_t seed)
{
    Rng rng(seed);
    return Workload{largeSyntheticNfa(16384),
                    randomTextTrace(rng, 16384, "abcdefgh")};
}

TEST(EngineDiff, DenseRangeSizesMatchRangeAnalysis)
{
    // The AllInput drivers match every symbol, so the label unions of
    // their successors are full; the sizes the partitioner reads must
    // still equal the literal definition for every symbol.
    const Nfa nfa = largeSyntheticNfa(16384);
    const RangeAnalysis ranges(nfa);
    std::uint64_t total = 0;
    for (int s = 0; s < kAlphabetSize; ++s) {
        const Symbol sym = static_cast<Symbol>(s);
        EXPECT_EQ(ranges.computeRange(sym).size(), ranges.rangeSize(sym))
            << "symbol " << s;
        total += ranges.rangeSize(sym);
    }
    EXPECT_GT(ranges.rangeSize('h'), 0u);
    EXPECT_LT(ranges.rangeSize('h'), ranges.rangeSize('a'));
    EXPECT_GT(total, 0u);
}

TEST(EngineDiffLarge, PapRunsAreByteIdenticalAt16KStates)
{
    // The composed reports equal the sequential run's and those of the
    // reference interpreter.
    const Workload w = largeWorkload(88);
    const PapResult r = runPap(w.nfa, w.input, smallBoard(8));
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.verified);
    EXPECT_FALSE(r.reports.empty());
    EXPECT_GT(r.numSegments, 1u);
    const SequentialResult seq = runSequential(w.nfa, w.input);
    EXPECT_EQ(r.reports, seq.reports);
    EXPECT_EQ(r.baselineCycles, seq.cycles);
    EXPECT_EQ(r.reports, referenceRun(w.nfa, w.input.symbols()).reports);
}

TEST(EngineDiffLarge, PipelineOverlapIsByteIdenticalAt16KStates)
{
    // Several host threads, so the composer consumes segments while
    // later ones still execute.
    const Workload w = largeWorkload(91);
    const ApConfig board = smallBoard(8);
    PapOptions serial;
    serial.threads = 1;
    PapOptions overlap;
    overlap.threads = 4;
    const PapResult a = runPap(w.nfa, w.input, board, serial);
    const PapResult b = runPap(w.nfa, w.input, board, overlap);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_EQ(b.threadsUsed, 4u);
    expectSameRun(a, b);
}

TEST(EngineDiffLarge, CheckpointResumeIsByteIdenticalAt16KStates)
{
    const Workload w = largeWorkload(93);
    const ApConfig board = smallBoard(8);
    const PapResult full = runPap(w.nfa, w.input, board);
    ASSERT_TRUE(full.status.ok());
    EXPECT_TRUE(full.verified);

    const std::string path = uniqueTempPath("large16k.ckpt");
    exec::removeCheckpoint(path);
    PapOptions opt;
    opt.checkpointPath = path;
    opt.stopAfterSegment = 1;
    const PapResult dead = runPap(w.nfa, w.input, board, opt);
    EXPECT_EQ(dead.status.code(), ErrorCode::Cancelled);
    // Resume from the checkpoint and run to completion.
    opt.stopAfterSegment = -1;
    const PapResult done = runPap(w.nfa, w.input, board, opt);
    exec::removeCheckpoint(path);
    ASSERT_TRUE(done.status.ok());
    EXPECT_TRUE(done.resumedFromCheckpoint);
    EXPECT_EQ(done.resumedSegments, 2u);
    EXPECT_TRUE(done.verified);
    expectSameRun(full, done);
}

} // namespace
} // namespace pap
