/**
 * @file
 * Dependency-aware segment pipeline: the scheduler under the PAP run
 * drivers. A SegmentPipeline fans index-addressed tasks out over a
 * WorkerPool, runs each through the hardened attempt ladder
 * (runAttempts: attempt deadline, capped-exponential retry,
 * fault-injection hooks, structured TaskReport per task) and hands
 * results to the caller one index at a time through await(), so a
 * composer stage can consume segment i while segments > i still
 * execute. Work posted beside the tasks (the runner's golden checks)
 * runs on the same workers, first-in first-out behind the tasks
 * queued before it; the pool's workers are the only threads a
 * pipeline starts.
 *
 * One schedule: the constructor submits every task and returns; the
 * caller composes in index order, each await(i) blocking until task i
 * has finished. Host composition (decode, FIV) thereby hides behind
 * the execution of later segments, as the paper's timeline models
 * (Section 3.4).
 *
 * Determinism contract: tasks write only to their own output slot;
 * every cross-task reduction belongs in the caller, folded in index
 * order as await() returns.
 *
 * Cancellation: cancelRemaining() cancels the in-flight attempts'
 * tokens and marks every not-yet-started task Cancelled without
 * running it; the destructor does the same before draining, so
 * abandoning a pipeline (checkpoint kill, early error return) is
 * bounded and safe.
 */

#ifndef PAP_PAP_EXEC_PIPELINE_H
#define PAP_PAP_EXEC_PIPELINE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "pap/exec/cancellation.h"
#include "pap/exec/worker_pool.h"
#include "pap/fault_injector.h"

namespace pap {
namespace obs {
class AttribLedger;
} // namespace obs

namespace exec {

/** Hardening knobs of one task's attempt ladder. */
struct HardenedExecOptions
{
    /** Pool width; pass through WorkerPool::resolveThreads first. */
    std::uint32_t threads = 1;
    /** Extra attempts after the first (0 disables retry). */
    std::uint32_t maxRetries = 2;
    /**
     * Deadline of each attempt, from its start, carried by its
     * CancellationToken; <= 0 sets none.
     */
    double deadlineMs = 0.0;
    /** First retry backoff; doubles per retry up to backoffCapMs. */
    std::uint32_t backoffBaseMs = 1;
    std::uint32_t backoffCapMs = 64;
    /**
     * Seed of the retry backoff's jitter: each backoff sleep keeps half
     * its capped-exponential delay and replaces the rest with a draw
     * from a pure hash of (jitterSeed, jitter index, retry), so
     * workers that fail in lockstep do not retry in lockstep. Timing
     * only — never observable in reports or metrics other than wall
     * clock, and never above the un-jittered delay.
     */
    std::uint64_t jitterSeed = 0;
    /** Optional injector consulted before every attempt. */
    FaultInjector *injector = nullptr;
};

/** Outcome of one task across all of its attempts. */
struct TaskReport
{
    /** OK, or the terminal failure after retries were exhausted. */
    Status status;
    /** Attempts made (>= 1 once the task ran). */
    std::uint32_t attempts = 0;
    /** True when any attempt after the first was needed. */
    bool retried = false;
    /** True when any attempt was cancelled or missed its deadline. */
    bool timedOut = false;
    /** True when any attempt crashed (injected or thrown). */
    bool crashed = false;
    /** Worker faults the injector fired across this task's attempts. */
    std::uint32_t faultsInjected = 0;
};

/** A task body: runs piece @p index, polling @p cancel cooperatively. */
using TaskFn =
    std::function<Status(std::size_t index,
                         const CancellationToken &cancel)>;

/** One attempt of a task, polling @p cancel cooperatively. */
using AttemptFn = std::function<Status(const CancellationToken &cancel)>;

/**
 * The backoff delay before retry @p retry (0-based) of the task with
 * jitter index @p index: base * 2^retry capped at backoffCapMs, with
 * everything above its half replaced by a draw from a pure hash of
 * (jitterSeed, index, retry). A pure function of its arguments: the
 * same tuple sleeps the same amount for every thread count and
 * scheduling order, and the jittered delay never exceeds the
 * un-jittered one.
 */
std::chrono::milliseconds retryBackoff(const HardenedExecOptions &options,
                                       std::size_t index,
                                       std::uint32_t retry);

/** Where one task sits on the attempt ladder. */
struct AttemptSite
{
    /** Coordinate of the injector's worker-fault draws. */
    std::uint64_t faultCoord = 0;
    /** Index the retry backoff's jitter is drawn for. */
    std::size_t jitterIndex = 0;
    /**
     * Optional ledger: retry backoff sleeps charge its aux bucket
     * "workers.retry_backoff".
     */
    obs::AttribLedger *attrib = nullptr;
    /**
     * Optional owner hook, called with each attempt's token before
     * the attempt starts and with null once it ends, so the owner can
     * cancel the live attempt. Returns false once the owner has
     * cancelled the task: no further attempt starts or retries.
     */
    std::function<bool(const std::shared_ptr<CancellationToken> &)>
        track;
};

/**
 * Run one task up its hardened attempt ladder and report the outcome.
 * Every attempt draws the injector's worker fault at
 * (site.faultCoord, attempt) and runs @p attempt on a fresh token
 * whose deadline is options.deadlineMs from the attempt's start (an
 * injected stall parks until that deadline, or 25 ms without one; an
 * injected crash or a thrown exception becomes
 * ErrorCode::HardwareFault). An attempt that ends past its deadline
 * counts in exec.watchdog.timeouts. A failed attempt retries after
 * retryBackoff(options, site.jitterIndex, retry) until
 * options.maxRetries is exhausted. The report's terminal status lets
 * the caller recover the task from the sequential oracle.
 */
TaskReport runAttempts(const HardenedExecOptions &options,
                       const AttemptSite &site, const AttemptFn &attempt);

class SegmentPipeline
{
  public:
    struct Options
    {
        /** Hardening knobs (threads, retry, deadline, injector). */
        HardenedExecOptions exec;
        /**
         * Optional attribution ledger (not owned). Worker-side time
         * that overlaps the caller's wall clock is charged to aux
         * buckets here: retry backoff sleeps ("workers.retry_backoff").
         */
        obs::AttribLedger *attrib = nullptr;
    };

    /**
     * Submit tasks [first, count) and return without waiting for any
     * of them. Indices below @p first (composed before, e.g. restored
     * from a checkpoint) never run and must not be awaited. Task i
     * draws its worker faults and retry jitter at i, so a resumed run
     * faults the same tasks as an unbroken one.
     */
    SegmentPipeline(const Options &options, std::size_t count, TaskFn fn,
                    std::size_t first = 0);

    /** Cancels whatever is still pending, then drains the pool. */
    ~SegmentPipeline();

    SegmentPipeline(const SegmentPipeline &) = delete;
    SegmentPipeline &operator=(const SegmentPipeline &) = delete;

    /**
     * Block until task @p index has finished and return its report
     * (valid until the pipeline is destroyed). The composer calls this
     * in index order; out-of-order awaits are legal and simply wait.
     */
    const TaskReport &await(std::size_t index);

    /**
     * Run @p task once on the pipeline's workers, after everything
     * queued before it and outside the attempt ladder: no fault draws,
     * no deadline, no retries, no cancellation. The task must not
     * throw; drain() and the destructor wait for it.
     */
    void post(std::function<void()> task);

    /** Block until every submitted and posted task has finished. */
    void drain();

    /**
     * Cancel every task that has not started (they report
     * ErrorCode::Cancelled without running) and cancel the tokens of
     * in-flight attempts (no further retries). Posted tasks still run.
     * Idempotent.
     */
    void cancelRemaining();

    /** await() calls that had to block (composer stalls). */
    std::uint64_t composerStalls() const;

    /** Total wall-clock time await() spent blocked, in ms. */
    double composerStallMs() const;

  private:
    void runTask(std::size_t index);

    Options opts_;
    TaskFn fn_;
    std::vector<TaskReport> reports_;
    /** Per-task trace flow ids (admission -> execution -> consume). */
    std::vector<std::uint64_t> flowIds_;
    std::unique_ptr<WorkerPool> pool_;

    mutable std::mutex mutex_;
    std::condition_variable doneCv_;
    std::vector<std::uint8_t> done_;
    /** Current attempt's token per in-flight task (for cancellation). */
    std::vector<std::shared_ptr<CancellationToken>> live_;
    /** Tasks submitted whose runTask has not finished. */
    std::size_t inflight_ = 0;
    bool cancelled_ = false;
    std::uint64_t stalls_ = 0;
    double stallMs_ = 0.0;
};

} // namespace exec
} // namespace pap

#endif // PAP_PAP_EXEC_PIPELINE_H
