#include "pap/run_common.h"

namespace pap {

exec::HardenedExecOptions
makeHardenedOptions(const PapOptions &options,
                    std::uint32_t threads_resolved,
                    std::uint64_t longest_unit)
{
    exec::HardenedExecOptions opt;
    opt.threads = threads_resolved;
    opt.maxRetries = options.maxSegmentRetries;
    opt.backoffBaseMs = options.retryBackoffBaseMs;
    opt.injector = options.faultInjector;
    if (options.faultInjector)
        opt.jitterSeed = options.faultInjector->seed();
    if (options.segmentDeadlineMs > 0.0) {
        opt.deadlineMs = options.segmentDeadlineMs;
    } else if (options.segmentDeadlineMs == 0.0) {
        // Auto deadline: generous enough that a healthy functional
        // simulation never trips it (10 us/symbol with a 5 s floor).
        opt.deadlineMs =
            5000.0 + 0.01 * static_cast<double>(longest_unit);
    } // negative: watchdog disabled (deadlineMs stays 0)
    return opt;
}

} // namespace pap
