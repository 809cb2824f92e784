#include "pap/run_common.h"

#include <algorithm>
#include <cstdlib>

#include "engine/functional_engine.h"
#include "obs/metrics.h"

namespace pap {

double
probeActiveDensity(const CompiledNfa &cnfa, const InputTrace &input)
{
    if (cnfa.size() > kDenseAutoMaxStates)
        return -1.0;
    FunctionalEngine engine(cnfa, /*starts=*/true);
    engine.reset(cnfa.initialActive(), 0);
    engine.run(input.begin(),
               std::min<std::size_t>(input.size(), kDensityProbeSymbols));
    return activeDensity(engine.counters(), cnfa.size());
}

RunContext::RunContext(const Nfa &nfa, EngineKind requested,
                       const InputTrace *density_probe)
    : cnfa(std::make_unique<const CompiledNfa>(nfa)),
      ctx(*cnfa, requested,
          requested == EngineKind::Auto && density_probe
              ? probeActiveDensity(*cnfa, *density_probe)
              : -1.0)
{
    auto &m = obs::metrics();
    switch (ctx.kind()) {
    case EngineKind::Dense:
        m.add("engine.runs.dense");
        break;
    case EngineKind::Hybrid:
        m.add("engine.runs.hybrid");
        break;
    default:
        m.add("engine.runs.sparse");
        break;
    }
    // Gauge encodings (last run wins): engine.backend 0 = sparse,
    // 1 = dense, 2 = hybrid; engine.simd mirrors SimdLevel (0 =
    // scalar, 1 = avx2, 2 = avx512).
    m.setGauge("engine.backend", static_cast<double>(ctx.kind()));
    m.setGauge("engine.simd", static_cast<double>(ctx.simdLevel()));
}

Result<PipelineMode>
parsePipelineMode(std::string_view text)
{
    if (text == "barrier")
        return PipelineMode::Barrier;
    if (text == "overlap")
        return PipelineMode::Overlap;
    if (text == "auto")
        return PipelineMode::Auto;
    return Status::error(ErrorCode::InvalidInput, "unknown pipeline '",
                         std::string(text),
                         "' (expected barrier, overlap, or auto)");
}

const char *
pipelineModeName(PipelineMode mode)
{
    switch (mode) {
    case PipelineMode::Barrier:
        return "barrier";
    case PipelineMode::Overlap:
        return "overlap";
    case PipelineMode::Auto:
        return "auto";
    }
    PAP_PANIC("invalid PipelineMode ", static_cast<int>(mode));
}

Result<PipelineMode>
resolvePipelineMode(PipelineMode requested)
{
    if (requested == PipelineMode::Auto) {
        if (const char *env = std::getenv("PAP_PIPELINE")) {
            const Result<PipelineMode> parsed = parsePipelineMode(env);
            if (!parsed.ok())
                return Status::error(ErrorCode::InvalidInput,
                                     "PAP_PIPELINE: ",
                                     parsed.status().message());
            requested = parsed.value();
        }
    }
    if (requested != PipelineMode::Auto)
        return requested;
    return PipelineMode::Barrier;
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
    opt.backoffJitter = options.retryBackoffJitter;
    opt.injector = options.faultInjector;
    if (options.faultInjector)
        opt.backoffJitterSeed = options.faultInjector->seed();
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
