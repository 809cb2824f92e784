#include "pap/run_common.h"

#include "obs/metrics.h"

namespace pap {

RunContext::RunContext(const Nfa &nfa, EngineKind kind)
    : cnfa(std::make_unique<const CompiledNfa>(nfa)), ctx(*cnfa, kind)
{
    auto &m = obs::metrics();
    m.add(ctx.kind() == EngineKind::Hybrid ? "engine.runs.hybrid"
                                           : "engine.runs.sparse");
    // Gauge encodings (last run wins): engine.backend 0 = sparse,
    // 1 = hybrid; engine.simd mirrors SimdLevel (0 = scalar, 1 = avx2,
    // 2 = avx512).
    m.setGauge("engine.backend", static_cast<double>(ctx.kind()));
    m.setGauge("engine.simd", static_cast<double>(ctx.simdLevel()));
}

exec::HardenedExecOptions
makeHardenedOptions(const PapOptions &options,
                    std::uint32_t threads_resolved,
                    std::uint64_t longest_unit)
{
    exec::HardenedExecOptions opt;
    opt.threads = threads_resolved;
    opt.maxRetries = options.maxSegmentRetries;
    opt.backoffBaseMs = options.retryBackoffBaseMs;
    opt.backoffCapMs = options.retryBackoffCapMs;
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
