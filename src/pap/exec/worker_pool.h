/**
 * @file
 * Fixed-size host worker pool for per-segment simulation. Workers pull
 * plain closures from one locked queue; the pool joins its threads on
 * destruction after draining. Scheduling order is unspecified, so
 * anything run on the pool must write only to its own output slot —
 * the segment pipeline (pipeline.h) merges results in index order to
 * keep runs deterministic for any thread count.
 *
 * Submit/drain contract: a task is *pending* from the moment submit()
 * accepts it until its closure returns, counted by one atomic
 * queued+running counter updated under the queue lock — a task can
 * never be "in neither count" between dequeue and execution, so
 * drain() returning means every previously accepted task has fully
 * finished. After stop() (or destruction begins), submit() rejects
 * new tasks by returning false instead of aborting or silently
 * dropping them; already queued tasks still run to completion.
 */

#ifndef PAP_PAP_EXEC_WORKER_POOL_H
#define PAP_PAP_EXEC_WORKER_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pap {
namespace exec {

class WorkerPool
{
  public:
    /** Start @p threads workers (>= 1; use resolveThreads first). */
    explicit WorkerPool(std::uint32_t threads);

    /** Drains the queue, then joins every worker. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Enqueue @p task; it runs on some worker, exactly once. Returns
     * false — and does not enqueue — once stop() has been called (or
     * destruction has begun).
     */
    bool submit(std::function<void()> task);

    /**
     * Reject all future submissions. Queued and running tasks still
     * complete (drain() observes them); idempotent.
     */
    void stop();

    /**
     * Block until every accepted task has finished (queued + running
     * count reaches zero). Tasks accepted concurrently with drain()
     * either complete before it returns or were submitted after the
     * count it observed hit zero.
     */
    void drain();

    /** Queued + running tasks right now (test/diagnostic hook). */
    std::size_t pending() const;

    std::uint32_t threadCount() const
    {
        return static_cast<std::uint32_t>(workers_.size());
    }

    /**
     * Resolve a user thread-count request: 0 means "one per hardware
     * thread" (never less than 1).
     */
    static std::uint32_t resolveThreads(std::uint32_t requested);

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    /** Accepted but not yet finished (queued + running). */
    std::size_t pending_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace exec
} // namespace pap

#endif // PAP_PAP_EXEC_WORKER_POOL_H
