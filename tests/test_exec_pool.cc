/**
 * @file
 * Unit tests of the hardened-execution primitives: WorkerPool,
 * CancellationToken, Watchdog, the retry/deadline attempt ladder (on
 * its own and under a SegmentPipeline), and the checkpoint file format
 * (roundtrip, corruption, identity).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "pap/exec/cancellation.h"
#include "pap/exec/checkpoint.h"
#include "pap/exec/pipeline.h"
#include "pap/exec/watchdog.h"
#include "pap/exec/worker_pool.h"
#include "pap/fault_injector.h"
#include "test_util.h"

namespace pap {
namespace exec {
namespace {

// --- WorkerPool ------------------------------------------------------

TEST(WorkerPool, ResolvesThreadRequests)
{
    EXPECT_GE(WorkerPool::resolveThreads(0), 1u);
    EXPECT_EQ(WorkerPool::resolveThreads(1), 1u);
    EXPECT_EQ(WorkerPool::resolveThreads(8), 8u);
}

TEST(WorkerPool, RunsEveryTaskExactlyOnce)
{
    for (const std::uint32_t threads : {1u, 2u, 4u}) {
        WorkerPool pool(threads);
        EXPECT_EQ(pool.threadCount(), threads);
        std::vector<std::atomic<int>> hits(64);
        for (auto &h : hits)
            h.store(0);
        for (std::size_t i = 0; i < hits.size(); ++i)
            pool.submit([&hits, i] { hits[i].fetch_add(1); });
        pool.drain();
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(WorkerPool, DrainIsReusable)
{
    WorkerPool pool(2);
    std::atomic<int> n{0};
    pool.submit([&n] { n.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(n.load(), 1);
    pool.submit([&n] { n.fetch_add(1); });
    pool.submit([&n] { n.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(n.load(), 3);
}

TEST(WorkerPool, SubmitAfterStopIsRejected)
{
    WorkerPool pool(2);
    std::atomic<int> n{0};
    EXPECT_TRUE(pool.submit([&n] { n.fetch_add(1); }));
    pool.stop();
    // The contract: a submit that races or follows stop() returns
    // false instead of silently dropping the task (or aborting).
    EXPECT_FALSE(pool.submit([&n] { n.fetch_add(1); }));
    EXPECT_FALSE(pool.submit([&n] { n.fetch_add(1); }));
}

TEST(WorkerPool, DrainWaitsForRunningAndQueuedTasks)
{
    WorkerPool pool(1);
    std::atomic<int> done{0};
    CancellationToken release;
    // First task blocks the single worker; the second is queued
    // behind it. drain() must wait for BOTH (queued + running), not
    // just the queue to empty.
    pool.submit([&] {
        release.waitCancelledFor(std::chrono::milliseconds(10000));
        done.fetch_add(1);
    });
    pool.submit([&done] { done.fetch_add(1); });
    EXPECT_EQ(pool.pending(), 2u);
    std::thread releaser([&release] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        release.cancel();
    });
    pool.drain();
    EXPECT_EQ(done.load(), 2);
    EXPECT_EQ(pool.pending(), 0u);
    releaser.join();
}

TEST(WorkerPool, ConcurrentSubmitAndDrainNeverLosesTasks)
{
    // TSan regression for the drain()-vs-submit() contract: external
    // submitters race stop(); every accepted task must have fully run
    // by the time drain() returns, and rejected tasks must not run.
    for (int round = 0; round < 8; ++round) {
        WorkerPool pool(4);
        std::atomic<int> accepted{0};
        std::atomic<int> executed{0};
        std::vector<std::thread> submitters;
        std::atomic<bool> go{false};
        for (int t = 0; t < 4; ++t)
            submitters.emplace_back([&] {
                while (!go.load())
                    std::this_thread::yield();
                for (int i = 0; i < 64; ++i)
                    if (pool.submit(
                            [&executed] { executed.fetch_add(1); }))
                        accepted.fetch_add(1);
            });
        go.store(true);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        pool.stop();
        for (auto &s : submitters)
            s.join();
        pool.drain();
        EXPECT_EQ(executed.load(), accepted.load());
    }
}

// --- SegmentPipeline -------------------------------------------------

TEST(SegmentPipeline, AwaitReturnsWhileTheLastTaskIsStillBlocked)
{
    // What the schedule is for: the composer consumes task 0 while a
    // later task still executes, instead of waiting for all of them.
    SegmentPipeline::Options opt;
    opt.exec.threads = 2;
    constexpr std::size_t kTasks = 6;
    CancellationToken started, release;
    std::atomic<bool> last_done{false};
    SegmentPipeline pipe(
        opt, kTasks, [&](std::size_t i, const CancellationToken &) {
            if (i == kTasks - 1) {
                started.cancel();
                release.waitCancelledFor(std::chrono::milliseconds(10000));
                last_done.store(true);
            }
            return Status();
        });
    ASSERT_TRUE(started.waitCancelledFor(std::chrono::milliseconds(10000)));
    EXPECT_TRUE(pipe.await(0).status.ok());
    EXPECT_FALSE(last_done.load());
    release.cancel();
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_TRUE(pipe.await(i).status.ok());
    EXPECT_TRUE(last_done.load());
}

TEST(SegmentPipeline, ConstructorAdmitsEveryTaskWithoutAWindow)
{
    // No admission window: before the composer awaits anything, every
    // pool thread holds a task, and the rest start as threads free up.
    SegmentPipeline::Options opt;
    opt.exec.threads = 4;
    constexpr std::size_t kTasks = 6;
    std::atomic<int> started{0};
    CancellationToken all_busy, release;
    SegmentPipeline pipe(
        opt, kTasks, [&](std::size_t, const CancellationToken &) {
            if (started.fetch_add(1) + 1 == 4)
                all_busy.cancel();
            release.waitCancelledFor(std::chrono::milliseconds(10000));
            return Status();
        });
    ASSERT_TRUE(
        all_busy.waitCancelledFor(std::chrono::milliseconds(10000)));
    EXPECT_EQ(started.load(), 4);
    release.cancel();
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_TRUE(pipe.await(i).status.ok());
    EXPECT_EQ(started.load(), static_cast<int>(kTasks));
}

TEST(SegmentPipeline, AwaitReturnsSlotsInAnyOrderRequested)
{
    SegmentPipeline::Options opt;
    opt.exec.threads = 4;
    std::vector<int> slot(10, 0);
    SegmentPipeline pipe(opt, slot.size(),
                         [&](std::size_t i, const CancellationToken &) {
                             slot[i] = static_cast<int>(i) + 1;
                             return Status();
                         });
    for (std::size_t i = 0; i < slot.size(); ++i) {
        EXPECT_TRUE(pipe.await(i).status.ok());
        EXPECT_EQ(slot[i], static_cast<int>(i) + 1);
    }
}

TEST(SegmentPipeline, CancelRemainingStopsUnstartedTasks)
{
    SegmentPipeline::Options opt;
    opt.exec.threads = 1;
    CancellationToken release;
    std::atomic<int> ran{0};
    SegmentPipeline pipe(
        opt, 16, [&](std::size_t, const CancellationToken &) {
            ran.fetch_add(1);
            release.waitCancelledFor(std::chrono::milliseconds(10000));
            return Status();
        });
    pipe.cancelRemaining();
    release.cancel();
    // Every task was submitted, but the ones that had not started
    // must report Cancelled without having run.
    std::uint32_t cancelled = 0;
    for (std::size_t i = 0; i < 16; ++i) {
        const TaskReport &tr = pipe.await(i);
        if (!tr.status.ok() &&
            tr.status.code() == ErrorCode::Cancelled)
            ++cancelled;
    }
    EXPECT_GE(cancelled, 14u);
    EXPECT_LE(ran.load(), 2);
}

TEST(SegmentPipeline, DrainWaitsForPostedTasks)
{
    // A pipeline whose tasks were all composed before (first == count)
    // still runs posted tasks, and drain() returns only once they end.
    SegmentPipeline::Options opt;
    opt.exec.threads = 2;
    CancellationToken started, release;
    std::atomic<int> finished{0};
    SegmentPipeline pipe(
        opt, 3, [](std::size_t, const CancellationToken &) {
            return Status();
        },
        /*first=*/3);
    pipe.post([&] {
        started.cancel();
        release.waitCancelledFor(std::chrono::milliseconds(10000));
        finished.fetch_add(1);
    });
    pipe.post([&] { finished.fetch_add(1); });
    ASSERT_TRUE(started.waitCancelledFor(std::chrono::milliseconds(10000)));
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        release.cancel();
    });
    pipe.drain();
    EXPECT_EQ(finished.load(), 2);
    releaser.join();
}

// --- CancellationToken -----------------------------------------------

TEST(Cancellation, StickyAndObservable)
{
    CancellationToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_FALSE(
        token.waitCancelledFor(std::chrono::milliseconds(1)));
    token.cancel();
    token.cancel(); // idempotent
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(
        token.waitCancelledFor(std::chrono::milliseconds(1000)));
}

TEST(Cancellation, WaitWakesOnCrossThreadCancel)
{
    CancellationToken token;
    std::thread canceller([&token] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        token.cancel();
    });
    EXPECT_TRUE(
        token.waitCancelledFor(std::chrono::milliseconds(5000)));
    canceller.join();
}

// --- Watchdog --------------------------------------------------------

TEST(Watchdog, CancelsOverrunningAttempt)
{
    Watchdog dog;
    auto token = std::make_shared<CancellationToken>();
    dog.arm(token, Watchdog::Clock::now() +
                       std::chrono::milliseconds(5));
    EXPECT_TRUE(
        token->waitCancelledFor(std::chrono::milliseconds(5000)));
    EXPECT_EQ(dog.expiries(), 1u);
}

TEST(Watchdog, DisarmedAttemptIsNeverCancelled)
{
    Watchdog dog;
    auto token = std::make_shared<CancellationToken>();
    const Watchdog::Handle h = dog.arm(
        token,
        Watchdog::Clock::now() + std::chrono::milliseconds(50));
    dog.disarm(h);
    dog.disarm(h); // idempotent
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_FALSE(token->cancelled());
    EXPECT_EQ(dog.expiries(), 0u);
}

// --- Attempt ladder --------------------------------------------------

/** Run tasks [0, count) on a pipeline; their reports in index order. */
std::vector<TaskReport>
runAll(const HardenedExecOptions &options, std::size_t count,
       const TaskFn &fn)
{
    SegmentPipeline::Options popt;
    popt.exec = options;
    SegmentPipeline pipe(popt, count, fn);
    std::vector<TaskReport> reports;
    for (std::size_t i = 0; i < count; ++i)
        reports.push_back(pipe.await(i));
    return reports;
}

TEST(RunHardened, ReportsInIndexOrderForAnyThreadCount)
{
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
        HardenedExecOptions opt;
        opt.threads = threads;
        std::vector<std::size_t> slot(16, 0);
        const auto reports = runAll(
            opt, slot.size(),
            [&](std::size_t i, const CancellationToken &) {
                slot[i] = i + 1;
                return Status();
            });
        ASSERT_EQ(reports.size(), slot.size());
        for (std::size_t i = 0; i < slot.size(); ++i) {
            EXPECT_TRUE(reports[i].status.ok());
            EXPECT_EQ(reports[i].attempts, 1u);
            EXPECT_FALSE(reports[i].retried);
            EXPECT_EQ(slot[i], i + 1);
        }
    }
}

TEST(RunHardened, RetriesTransientFailureWithBackoff)
{
    HardenedExecOptions opt;
    opt.threads = 2;
    opt.maxRetries = 2;
    opt.backoffBaseMs = 1;
    opt.backoffCapMs = 2;
    std::vector<std::atomic<std::uint32_t>> tries(4);
    for (auto &t : tries)
        t.store(0);
    const auto reports = runAll(
        opt, tries.size(),
        [&](std::size_t i, const CancellationToken &) {
            // Odd tasks fail on their first attempt only.
            if (tries[i].fetch_add(1) == 0 && (i % 2) == 1)
                return Status::error(ErrorCode::HardwareFault,
                                     "transient");
            return Status();
        });
    for (std::size_t i = 0; i < reports.size(); ++i) {
        EXPECT_TRUE(reports[i].status.ok()) << "task " << i;
        if (i % 2 == 1) {
            EXPECT_TRUE(reports[i].retried);
            EXPECT_TRUE(reports[i].crashed);
            EXPECT_EQ(reports[i].attempts, 2u);
        } else {
            EXPECT_EQ(reports[i].attempts, 1u);
        }
    }
}

TEST(RunHardened, SurfacesTerminalFailureAfterRetriesExhaust)
{
    HardenedExecOptions opt;
    opt.maxRetries = 3;
    opt.backoffBaseMs = 0;
    const auto reports = runAll(
        opt, 1, [&](std::size_t, const CancellationToken &) {
            return Status::error(ErrorCode::HardwareFault,
                                 "permanent");
        });
    EXPECT_FALSE(reports[0].status.ok());
    EXPECT_EQ(reports[0].status.code(), ErrorCode::HardwareFault);
    EXPECT_EQ(reports[0].attempts, 4u);
    EXPECT_TRUE(reports[0].retried);
    EXPECT_TRUE(reports[0].crashed);
}

TEST(RunHardened, WatchdogCancelsStalledTaskThenRetrySucceeds)
{
    HardenedExecOptions opt;
    opt.maxRetries = 1;
    opt.deadlineMs = 10.0;
    opt.backoffBaseMs = 0;
    std::atomic<std::uint32_t> tries{0};
    const auto reports = runAll(
        opt, 1, [&](std::size_t, const CancellationToken &cancel) {
            if (tries.fetch_add(1) == 0) {
                // Stall: park until the watchdog cancels us.
                EXPECT_TRUE(cancel.waitCancelledFor(
                    std::chrono::milliseconds(10000)));
                return Status::error(ErrorCode::DeadlineExceeded,
                                     "cancelled");
            }
            return Status();
        });
    EXPECT_TRUE(reports[0].status.ok());
    EXPECT_TRUE(reports[0].timedOut);
    EXPECT_TRUE(reports[0].retried);
    EXPECT_EQ(reports[0].attempts, 2u);
}

TEST(RunHardened, CaughtExceptionBecomesHardwareFault)
{
    HardenedExecOptions opt;
    opt.maxRetries = 0;
    const auto reports = runAll(
        opt, 1,
        [&](std::size_t, const CancellationToken &) -> Status {
            throw std::runtime_error("boom");
        });
    EXPECT_FALSE(reports[0].status.ok());
    EXPECT_EQ(reports[0].status.code(), ErrorCode::HardwareFault);
    EXPECT_TRUE(reports[0].crashed);
}

TEST(RunHardened, InjectedStallRecoversOnRetry)
{
    auto made = FaultInjector::fromSpec("stall-worker:1", 11);
    ASSERT_TRUE(made.ok());
    FaultInjector fi = made.value();
    HardenedExecOptions opt;
    opt.threads = 2;
    opt.maxRetries = 2;
    opt.deadlineMs = 10.0;
    opt.backoffBaseMs = 0;
    opt.injector = &fi;
    const auto reports = runAll(
        opt, 6,
        [&](std::size_t, const CancellationToken &) {
            return Status();
        });
    std::uint32_t stalled = 0;
    for (const auto &r : reports) {
        EXPECT_TRUE(r.status.ok());
        if (r.faultsInjected > 0) {
            ++stalled;
            EXPECT_TRUE(r.timedOut);
            EXPECT_TRUE(r.retried);
        }
    }
    // With budget 1 and rate 1, every task stalls exactly on its
    // first attempt and recovers on the retry.
    EXPECT_EQ(stalled, 6u);
    EXPECT_EQ(fi.injected(), 6u);
    EXPECT_EQ(fi.detected(), 6u);
    EXPECT_EQ(fi.recovered(), 6u);
}

TEST(RunHardened, InjectedCrashBeyondRetriesIsTerminal)
{
    // Budget 5 faults every attempt (maxRetries+1 = 3 < 5), so the
    // task exhausts its retries and surfaces the crash.
    auto made = FaultInjector::fromSpec("crash-worker:5", 11);
    ASSERT_TRUE(made.ok());
    FaultInjector fi = made.value();
    HardenedExecOptions opt;
    opt.maxRetries = 2;
    opt.backoffBaseMs = 0;
    opt.injector = &fi;
    const auto reports = runAll(
        opt, 2,
        [&](std::size_t, const CancellationToken &) {
            return Status();
        });
    for (const auto &r : reports) {
        EXPECT_FALSE(r.status.ok());
        EXPECT_EQ(r.status.code(), ErrorCode::HardwareFault);
        EXPECT_TRUE(r.crashed);
        EXPECT_EQ(r.attempts, 3u);
        EXPECT_EQ(r.faultsInjected, 3u);
    }
    EXPECT_EQ(fi.recovered(), 0u);
    EXPECT_EQ(fi.detected(), 6u);
}

TEST(RunHardened, WorkerFaultSetIsThreadCountInvariant)
{
    std::vector<std::vector<std::uint32_t>> per_thread_faults;
    for (const std::uint32_t threads : {1u, 2u, 8u}) {
        auto made =
            FaultInjector::fromSpec("crash-worker:1:0.5", 99);
        ASSERT_TRUE(made.ok());
        FaultInjector fi = made.value();
        HardenedExecOptions opt;
        opt.threads = threads;
        opt.maxRetries = 1;
        opt.backoffBaseMs = 0;
        opt.injector = &fi;
        const auto reports = runAll(
            opt, 32,
            [&](std::size_t, const CancellationToken &) {
                return Status();
            });
        std::vector<std::uint32_t> faults;
        for (const auto &r : reports)
            faults.push_back(r.faultsInjected);
        per_thread_faults.push_back(std::move(faults));
    }
    EXPECT_EQ(per_thread_faults[0], per_thread_faults[1]);
    EXPECT_EQ(per_thread_faults[0], per_thread_faults[2]);
}

TEST(AttemptLadder, FaultsFollowTheSiteCoordinateNotTheTaskIndex)
{
    // Serve runs every chunk of a session at the session's fault
    // coordinate, each with its own jitter index: a selected session
    // has every attempt of every chunk faulted (the ladder into
    // quarantine), an unselected one none.
    auto made = FaultInjector::fromSpec("crash-worker:100:0.5", 99);
    ASSERT_TRUE(made.ok());
    FaultInjector fi = made.value();
    HardenedExecOptions opt;
    opt.maxRetries = 2;
    opt.backoffBaseMs = 0;
    opt.injector = &fi;
    Watchdog dog;
    constexpr std::uint64_t kSessions = 8, kChunks = 4;
    std::uint64_t faulted_sessions = 0;
    for (std::uint64_t session = 1; session <= kSessions; ++session) {
        std::vector<std::uint32_t> faults;
        for (std::uint64_t chunk = 0; chunk < kChunks; ++chunk) {
            AttemptSite site;
            site.faultCoord = session;
            site.jitterIndex =
                static_cast<std::size_t>(session ^ (chunk << 20));
            std::uint32_t ran = 0;
            const TaskReport r = runAttempts(
                opt, dog, site, [&](const CancellationToken &) {
                    ++ran;
                    return Status();
                });
            faults.push_back(r.faultsInjected);
            if (r.faultsInjected > 0) {
                EXPECT_EQ(r.faultsInjected, 3u);
                EXPECT_EQ(r.attempts, 3u);
                EXPECT_EQ(r.status.code(), ErrorCode::HardwareFault);
                EXPECT_EQ(ran, 0u);
            } else {
                EXPECT_TRUE(r.status.ok());
                EXPECT_EQ(r.attempts, 1u);
                EXPECT_EQ(ran, 1u);
            }
        }
        for (const std::uint32_t f : faults)
            EXPECT_EQ(f, faults.front())
                << "session " << session << ": one coordinate, one fate";
        faulted_sessions += faults.front() > 0 ? 1 : 0;
    }
    EXPECT_GT(faulted_sessions, 0u);
    EXPECT_LT(faulted_sessions, kSessions);
    EXPECT_EQ(fi.detected(), fi.injected());
    EXPECT_EQ(fi.recovered(), 0u);
}

// --- Checkpoint ------------------------------------------------------

CheckpointFrontier
sampleFrontier()
{
    CheckpointFrontier f;
    f.identity = 0xfeedbeefcafe1234ull;
    f.nextSegment = 2;
    f.finalActive = {3, 7, 42};
    f.reports = {{100, 5, 1}, {2040, 6, 2}};
    f.papEntries = 999;
    f.flowTransitions = 17;
    f.flowSymbolCycles = 123456;
    f.segmentsRetried = 1;
    f.segmentsRecovered = 1;
    f.rngState = {1, 2, 3, 4};
    for (std::uint32_t j = 0; j < 2; ++j) {
        SegmentCheckpoint cp;
        cp.timing.segLen = 8192;
        cp.timing.totalEntries = 11 + j;
        cp.timing.aliveEnumFlowsAtEnd = j;
        cp.timing.hasEnumFlows = j > 0;
        cp.timing.flows.push_back({FlowKind::Golden, 8192, true});
        cp.timing.flows.push_back({FlowKind::Enum, 4096 + j, false});
        cp.deactivated = 2;
        cp.converged = 1;
        cp.ranToEnd = 3;
        cp.truePaths = 1;
        cp.recovered = j;
        f.segments.push_back(cp);
    }
    return f;
}

void
expectFrontierEq(const CheckpointFrontier &a,
                 const CheckpointFrontier &b)
{
    EXPECT_EQ(a.identity, b.identity);
    EXPECT_EQ(a.nextSegment, b.nextSegment);
    EXPECT_EQ(a.finalActive, b.finalActive);
    ASSERT_EQ(a.reports.size(), b.reports.size());
    for (std::size_t i = 0; i < a.reports.size(); ++i) {
        EXPECT_EQ(a.reports[i].offset, b.reports[i].offset);
        EXPECT_EQ(a.reports[i].state, b.reports[i].state);
        EXPECT_EQ(a.reports[i].code, b.reports[i].code);
    }
    EXPECT_EQ(a.papEntries, b.papEntries);
    EXPECT_EQ(a.flowTransitions, b.flowTransitions);
    EXPECT_EQ(a.flowSymbolCycles, b.flowSymbolCycles);
    EXPECT_EQ(a.segmentsRetried, b.segmentsRetried);
    EXPECT_EQ(a.segmentsRecovered, b.segmentsRecovered);
    EXPECT_EQ(a.rngState, b.rngState);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t j = 0; j < a.segments.size(); ++j) {
        const auto &x = a.segments[j];
        const auto &y = b.segments[j];
        EXPECT_EQ(x.timing.segLen, y.timing.segLen);
        EXPECT_EQ(x.timing.totalEntries, y.timing.totalEntries);
        EXPECT_EQ(x.timing.aliveEnumFlowsAtEnd,
                  y.timing.aliveEnumFlowsAtEnd);
        EXPECT_EQ(x.timing.hasEnumFlows, y.timing.hasEnumFlows);
        ASSERT_EQ(x.timing.flows.size(), y.timing.flows.size());
        for (std::size_t k = 0; k < x.timing.flows.size(); ++k) {
            EXPECT_EQ(x.timing.flows[k].kind, y.timing.flows[k].kind);
            EXPECT_EQ(x.timing.flows[k].symbolsProcessed,
                      y.timing.flows[k].symbolsProcessed);
            EXPECT_EQ(x.timing.flows[k].isTrue,
                      y.timing.flows[k].isTrue);
        }
        EXPECT_EQ(x.deactivated, y.deactivated);
        EXPECT_EQ(x.converged, y.converged);
        EXPECT_EQ(x.ranToEnd, y.ranToEnd);
        EXPECT_EQ(x.truePaths, y.truePaths);
        EXPECT_EQ(x.recovered, y.recovered);
    }
}

class CheckpointFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = uniqueTempPath("ckpt.bin");
        removeCheckpoint(path_);
    }
    void
    TearDown() override
    {
        removeCheckpoint(path_);
    }
    std::string path_;
};

TEST_F(CheckpointFile, RoundTripsEveryField)
{
    const CheckpointFrontier f = sampleFrontier();
    ASSERT_TRUE(saveCheckpoint(path_, f).ok());
    auto loaded = loadCheckpoint(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    expectFrontierEq(f, loaded.value());
}

TEST_F(CheckpointFile, MissingFileIsInvalidInputNotCorrupt)
{
    auto loaded = loadCheckpoint(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), ErrorCode::InvalidInput);
}

TEST_F(CheckpointFile, FlippedByteIsDetectedByCrc)
{
    ASSERT_TRUE(saveCheckpoint(path_, sampleFrontier()).ok());
    {
        std::fstream file(
            path_, std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(file.good());
        file.seekp(40); // somewhere inside the payload
        char byte = 0;
        file.seekg(40);
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5a);
        file.seekp(40);
        file.write(&byte, 1);
    }
    auto loaded = loadCheckpoint(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), ErrorCode::CheckpointCorrupt);
}

TEST_F(CheckpointFile, TruncatedFileIsCorrupt)
{
    ASSERT_TRUE(saveCheckpoint(path_, sampleFrontier()).ok());
    std::ifstream in(path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 24u);
    std::ofstream out(path_,
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
    out.close();
    auto loaded = loadCheckpoint(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), ErrorCode::CheckpointCorrupt);
}

TEST_F(CheckpointFile, BadMagicIsCorrupt)
{
    ASSERT_TRUE(saveCheckpoint(path_, sampleFrontier()).ok());
    {
        std::fstream file(
            path_, std::ios::in | std::ios::out | std::ios::binary);
        file.seekp(0);
        file.write("NOTACKPT", 8);
    }
    auto loaded = loadCheckpoint(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), ErrorCode::CheckpointCorrupt);
}

TEST_F(CheckpointFile, OldVersionIsUnsupported)
{
    // A version-1 file (the layout with SVC batch fields) is rejected
    // for its version alone: the CRC covers only the payload, so
    // patching the header leaves the file otherwise valid.
    ASSERT_TRUE(saveCheckpoint(path_, sampleFrontier()).ok());
    patchCheckpointVersion(path_, 1);
    auto loaded = loadCheckpoint(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), ErrorCode::CheckpointCorrupt);
    EXPECT_NE(loaded.status().message().find("unsupported version"),
              std::string::npos)
        << loaded.status().message();
}

TEST_F(CheckpointFile, SaveIsAtomicOverAnExistingCheckpoint)
{
    CheckpointFrontier f = sampleFrontier();
    ASSERT_TRUE(saveCheckpoint(path_, f).ok());
    f.nextSegment = 3;
    f.segments.push_back(f.segments.back());
    ASSERT_TRUE(saveCheckpoint(path_, f).ok());
    auto loaded = loadCheckpoint(path_);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().nextSegment, 3u);
    EXPECT_EQ(loaded.value().segments.size(), 3u);
    // No stray tmp file left behind.
    std::ifstream tmp(path_ + ".tmp", std::ios::binary);
    EXPECT_FALSE(tmp.good());
}

TEST_F(CheckpointFile, RemoveDeletesTheFile)
{
    ASSERT_TRUE(saveCheckpoint(path_, sampleFrontier()).ok());
    removeCheckpoint(path_);
    std::ifstream probe(path_, std::ios::binary);
    EXPECT_FALSE(probe.good());
    removeCheckpoint(path_); // idempotent
}

} // namespace
} // namespace exec
} // namespace pap
