/**
 * @file
 * Structured error model for recoverable failures.
 *
 * PAP_PANIC/PAP_FATAL remain the right tool for internal invariant
 * violations (PAPsim bugs). Everything a caller can reasonably react
 * to — bad user input, capacity exhaustion, verification divergence,
 * modeled hardware faults — is reported as a pap::Status (or a
 * pap::Result<T> when a value is produced on success) so the engine
 * can degrade gracefully instead of aborting the process.
 */

#ifndef PAP_COMMON_ERROR_H
#define PAP_COMMON_ERROR_H

#include <optional>
#include <string>
#include <utility>

#include "common/logging.h"

namespace pap {

/** Machine-readable classification of a recoverable failure. */
enum class ErrorCode : std::uint8_t
{
    Ok = 0,
    /** The caller asked for something malformed or impossible. */
    InvalidInput,
    /** A modeled hardware capacity was exceeded (SVC, buffers). */
    CapacityExceeded,
    /** A result diverged from its correctness oracle. */
    VerificationFailed,
    /** A (possibly injected) hardware fault corrupted machine state. */
    HardwareFault,
    /** An attempt's deadline expired before the work completed. */
    DeadlineExceeded,
    /** The operation was cancelled before it completed. */
    Cancelled,
    /** A checkpoint file is missing, truncated, or fails its CRC. */
    CheckpointCorrupt,
    /** A bounded resource (admission queue, session slots) is full. */
    ResourceExhausted,
    /** A stream kept failing after every recovery rung and was
        terminated to protect its siblings. */
    StreamQuarantined,
    /** On-disk state (a checkpoint, a serve checkpoint directory) is
        locked by another run or server. */
    LockHeld,
};

/** Stable name of an error code ("CapacityExceeded", ...). */
const char *errorCodeName(ErrorCode code);

/** Outcome of an operation: Ok, or a typed code plus a message. */
class Status
{
  public:
    /** Default-constructed status is Ok. */
    Status() = default;

    /** Build a failure status; @p args concatenate into the message. */
    template <typename... Args>
    static Status
    error(ErrorCode code, Args &&...args)
    {
        PAP_ASSERT(code != ErrorCode::Ok,
                   "Status::error needs a failure code");
        return Status(code,
                      detail::concat(std::forward<Args>(args)...));
    }

    bool ok() const { return code_ == ErrorCode::Ok; }
    ErrorCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "Ok" or "<CodeName>: <message>". */
    std::string toString() const;

  private:
    Status(ErrorCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    ErrorCode code_ = ErrorCode::Ok;
    std::string message_;
};

/**
 * A value of type @p T, or the Status explaining why there is none.
 * Converts implicitly from both so `return Status::error(...)` and
 * `return value` work symmetrically.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : value_(std::move(value)) {}

    Result(Status status) : status_(std::move(status))
    {
        PAP_ASSERT(!status_.ok(),
                   "Result error constructed from an Ok status");
    }

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }

    T &
    value()
    {
        PAP_ASSERT(ok(), "Result::value on error: ",
                   status_.toString());
        return *value_;
    }

    const T &
    value() const
    {
        PAP_ASSERT(ok(), "Result::value on error: ",
                   status_.toString());
        return *value_;
    }

    /** The value, or @p fallback when this result is an error. */
    T
    valueOr(T fallback) const
    {
        return ok() ? *value_ : std::move(fallback);
    }

  private:
    Status status_;
    std::optional<T> value_;
};

} // namespace pap

#endif // PAP_COMMON_ERROR_H
