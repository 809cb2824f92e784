/**
 * @file
 * Cooperative cancellation for hardened host-parallel execution. A
 * CancellationToken is shared between a worker running one attempt and
 * whoever may need to stop it. It trips when cancel() runs or, for a
 * token built with a deadline, once that deadline has passed: the
 * worker polls cancelled() at TDM-round granularity (each poll reads
 * the clock), and a stalled worker parks in waitCancelledFor(). No
 * thread watches the deadline. Cancellation is one-way and sticky;
 * every retry attempt gets a fresh token with a fresh deadline, so an
 * expired first attempt cannot poison its retry.
 */

#ifndef PAP_PAP_EXEC_CANCELLATION_H
#define PAP_PAP_EXEC_CANCELLATION_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>

namespace pap {
namespace exec {

class CancellationToken
{
  public:
    using Clock = std::chrono::steady_clock;

    /** A token that only cancel() trips. */
    CancellationToken() = default;
    /** A token that also trips once @p deadline has passed. */
    explicit CancellationToken(Clock::time_point deadline)
        : deadline_(deadline)
    {}
    CancellationToken(const CancellationToken &) = delete;
    CancellationToken &operator=(const CancellationToken &) = delete;

    /** Request cancellation. Idempotent, thread-safe. */
    void
    cancel()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            flag_.store(true, std::memory_order_release);
        }
        cv_.notify_all();
    }

    /**
     * True once cancel() has run or the deadline has passed. Cheap
     * enough to poll: an atomic load and a steady-clock read.
     */
    bool
    cancelled() const
    {
        return flag_.load(std::memory_order_acquire) ||
               Clock::now() >= deadline_;
    }

    /**
     * Block until cancel() runs, @p timeout elapses or the deadline
     * passes, whichever comes first. Returns cancelled(): true when
     * the token tripped (used by the injected stall-worker fault to
     * park until its deadline).
     */
    bool
    waitCancelledFor(std::chrono::nanoseconds timeout) const
    {
        const Clock::time_point now = Clock::now();
        // Compared before adding, so a far deadline cannot overflow.
        const Clock::time_point until =
            deadline_ - now < timeout ? deadline_ : now + timeout;
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait_until(lock, until, [this] {
            return flag_.load(std::memory_order_acquire);
        });
        return cancelled();
    }

  private:
    const Clock::time_point deadline_ = Clock::time_point::max();
    std::atomic<bool> flag_{false};
    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
};

} // namespace exec
} // namespace pap

#endif // PAP_PAP_EXEC_CANCELLATION_H
