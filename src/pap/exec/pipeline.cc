#include "pap/exec/pipeline.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "common/hash.h"
#include "obs/attrib.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace pap {
namespace exec {

namespace {

/**
 * Park an injected stall until the watchdog cancels it. Bounded even
 * with the watchdog disabled, so a stall fault can never hang a run.
 */
Status
parkStalled(const CancellationToken &token, bool watchdog_armed,
            double deadline_ms)
{
    const auto bound =
        watchdog_armed
            ? std::chrono::milliseconds(
                  static_cast<std::int64_t>(deadline_ms * 20.0) + 1000)
            : std::chrono::milliseconds(25);
    token.waitCancelledFor(bound);
    return Status::error(ErrorCode::DeadlineExceeded,
                         "injected worker stall");
}

} // namespace

std::chrono::milliseconds
retryBackoff(const HardenedExecOptions &options, std::size_t index,
             std::uint32_t retry)
{
    const std::uint32_t shift = std::min<std::uint32_t>(retry, 20);
    const std::uint64_t raw =
        static_cast<std::uint64_t>(options.backoffBaseMs) << shift;
    std::uint64_t delay =
        std::min<std::uint64_t>(raw, options.backoffCapMs);
    if (delay > 1) {
        const std::uint64_t half = delay / 2;
        const std::uint64_t draw = mix64(
            mix64(options.jitterSeed ^
                  (0x4a49 + static_cast<std::uint64_t>(index))) ^
            retry);
        delay = half + draw % (delay - half + 1);
    }
    return std::chrono::milliseconds(delay);
}

TaskReport
runAttempts(const HardenedExecOptions &options, Watchdog &watchdog,
            const AttemptSite &site, const AttemptFn &attempt_fn)
{
    // Without an owner hook nobody can cancel the task.
    const auto track = [&](const std::shared_ptr<CancellationToken> &t) {
        return !site.track || site.track(t);
    };
    TaskReport report;
    const std::uint32_t max_attempts = options.maxRetries + 1;
    for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
        auto token = std::make_shared<CancellationToken>();
        if (!track(token)) {
            if (report.attempts == 0)
                report.status = Status::error(
                    ErrorCode::Cancelled,
                    "pipeline cancelled before the task ran");
            break; // otherwise keep the last attempt's failure
        }
        ++report.attempts;
        auto fault = FaultInjector::WorkerFault::None;
        if (options.injector)
            fault = options.injector->onWorkerAttempt(site.faultCoord,
                                                      attempt);
        if (fault != FaultInjector::WorkerFault::None)
            ++report.faultsInjected;

        const bool armed = options.deadlineMs > 0.0;
        Watchdog::Handle handle = 0;
        if (armed)
            handle = watchdog.arm(
                token, Watchdog::Clock::now() +
                           std::chrono::microseconds(
                               static_cast<std::int64_t>(
                                   options.deadlineMs * 1000.0)));

        Status status;
        if (fault == FaultInjector::WorkerFault::Stall) {
            status = parkStalled(*token, armed, options.deadlineMs);
        } else if (fault == FaultInjector::WorkerFault::Crash) {
            status = Status::error(ErrorCode::HardwareFault,
                                   "injected worker crash");
        } else {
            try {
                status = attempt_fn(*token);
            } catch (const std::exception &e) {
                status = Status::error(ErrorCode::HardwareFault,
                                       "worker crashed: ", e.what());
            } catch (...) {
                status = Status::error(ErrorCode::HardwareFault,
                                       "worker crashed");
            }
        }
        if (armed)
            watchdog.disarm(handle);
        const bool live = track(nullptr);

        if (status.ok()) {
            // Faults on earlier attempts of this task were detected
            // (the attempt failed) and are now repaired by the
            // successful retry.
            if (options.injector && report.faultsInjected > 0 &&
                report.retried)
                options.injector->markRecovered(report.faultsInjected);
            report.status = Status();
            break;
        }

        if (status.code() == ErrorCode::DeadlineExceeded ||
            status.code() == ErrorCode::Cancelled)
            report.timedOut = true;
        if (status.code() == ErrorCode::HardwareFault)
            report.crashed = true;
        if (fault != FaultInjector::WorkerFault::None)
            options.injector->markDetected(1);

        report.status = status; // terminal unless a retry succeeds
        if (attempt + 1 < max_attempts && live) {
            report.retried = true;
            obs::metrics().add("exec.retry.attempts");
            obs::AttribLedger::Scope backoff(
                site.attrib, "workers.retry_backoff", /*aux=*/true);
            std::this_thread::sleep_for(
                retryBackoff(options, site.jitterIndex, attempt));
        }
    }
    return report;
}

SegmentPipeline::SegmentPipeline(const Options &options,
                                 std::size_t count, TaskFn fn,
                                 std::size_t first)
    : opts_(options), fn_(std::move(fn)), reports_(count),
      flowIds_(count, 0), done_(count, 0), live_(count)
{
    const std::uint32_t threads =
        std::max<std::uint32_t>(1, opts_.exec.threads);
    obs::metrics().setGauge("exec.pool.threads",
                            static_cast<double>(threads));
    pool_ = std::make_unique<WorkerPool>(threads);
    obs::TraceSink *sink = obs::tracer();
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = first; i < count; ++i) {
        if (sink) {
            // Admission marker: opens the segment's causal flow on
            // the admitting (composer) thread. The id travels to the
            // worker ('t') and back to the consume marker ('f').
            flowIds_[i] = obs::TraceSink::newFlowId();
            sink->begin("pipeline.admit", "pipeline");
            sink->flow('s', "segment", flowIds_[i]);
            sink->end({{"index", static_cast<double>(i)}});
            sink->counterEvent("pipeline.inflight",
                               static_cast<double>(inflight_ + 1));
        }
        ++inflight_;
        const bool accepted =
            pool_->submit([this, i] { runTask(i); });
        PAP_ASSERT(accepted, "pipeline pool rejected a submission");
    }
}

SegmentPipeline::~SegmentPipeline()
{
    cancelRemaining();
    pool_->drain();
}

const TaskReport &
SegmentPipeline::await(std::size_t index)
{
    PAP_ASSERT(index < reports_.size(),
               "await past the end of the pipeline");
    std::unique_lock<std::mutex> lock(mutex_);
    double waited_ms = 0.0;
    if (!done_[index]) {
        ++stalls_;
        const auto t0 = std::chrono::steady_clock::now();
        doneCv_.wait(lock, [&] { return done_[index] != 0; });
        waited_ms = obs::msSince(t0);
        stallMs_ += waited_ms;
    }
    if (obs::TraceSink *sink = obs::tracer()) {
        // Consume marker on the composer's track, closing the
        // segment's admission -> execution -> consume causal flow.
        sink->begin("pipeline.consume", "pipeline");
        if (flowIds_[index])
            sink->flow('f', "segment", flowIds_[index]);
        sink->end({{"index", static_cast<double>(index)},
                   {"stall_ms", waited_ms}});
    }
    return reports_[index];
}

void
SegmentPipeline::post(std::function<void()> task)
{
    const bool accepted = pool_->submit(std::move(task));
    PAP_ASSERT(accepted, "pipeline pool rejected a posted task");
}

void
SegmentPipeline::drain()
{
    pool_->drain();
}

void
SegmentPipeline::cancelRemaining()
{
    // Every task is already submitted: one that has not started sees
    // cancelled_ through its track hook and reports Cancelled without
    // running.
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled_ = true;
    for (auto &token : live_)
        if (token)
            token->cancel();
}

std::uint64_t
SegmentPipeline::composerStalls() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stalls_;
}

double
SegmentPipeline::composerStallMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stallMs_;
}

void
SegmentPipeline::runTask(std::size_t index)
{
    obs::TraceSink *const sink = obs::tracer();
    if (sink) {
        sink->begin("pipeline.task", "pipeline");
        if (flowIds_[index])
            sink->flow('t', "segment", flowIds_[index]);
    }
    AttemptSite site;
    site.faultCoord = index;
    site.jitterIndex = index;
    site.attrib = opts_.attrib;
    site.track = [this, index](const std::shared_ptr<CancellationToken>
                                   &token) {
        std::lock_guard<std::mutex> lock(mutex_);
        live_[index] = token;
        if (cancelled_ && token)
            token->cancel();
        return !cancelled_;
    };
    const TaskReport report = runAttempts(
        opts_.exec, watchdog_, site,
        [&](const CancellationToken &cancel) {
            return fn_(index, cancel);
        });
    auto &m = obs::metrics();
    m.add("exec.pool.tasks");
    m.observe("exec.task.attempts", static_cast<double>(report.attempts));
    if (!report.status.ok())
        m.add("exec.tasks.failed");
    std::size_t inflight = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        reports_[index] = report;
        done_[index] = 1;
        inflight = --inflight_;
    }
    if (sink) {
        sink->end({{"index", static_cast<double>(index)},
                   {"attempts", static_cast<double>(report.attempts)}});
        sink->counterEvent("pipeline.inflight",
                           static_cast<double>(inflight));
    }
    doneCv_.notify_all();
}

} // namespace exec
} // namespace pap
