/**
 * @file
 * Scaffolding shared by the run entry points (runner, speculative,
 * multistream): compiling the automaton, selecting the execution
 * backend, recording the selection, and building the hardened-driver
 * options from PapOptions. Hoisted here so every runner describes and
 * executes a run the same way.
 */

#ifndef PAP_PAP_RUN_COMMON_H
#define PAP_PAP_RUN_COMMON_H

#include <cstdint>
#include <memory>

#include "engine/compiled_nfa.h"
#include "engine/engine_backend.h"
#include "engine/trace.h"
#include "nfa/nfa.h"
#include "pap/exec/driver.h"
#include "pap/options.h"

namespace pap {

/** Symbols of the input prefix the Auto density probe executes. */
inline constexpr std::size_t kDensityProbeSymbols = 4096;

/**
 * Active density (activeDensity()) of a sparse run over the first
 * kDensityProbeSymbols symbols of @p input: the workload signal that
 * steers the Auto backend heuristic. Returns -1 (unknown) without
 * running anything when @p cnfa has more than kDenseAutoMaxStates
 * states, where density cannot change the choice.
 */
double probeActiveDensity(const CompiledNfa &cnfa, const InputTrace &input);

/**
 * Per-run compile-and-select context: owns the CompiledNfa (address-
 * stable, so the EngineContext referencing it survives moves) and the
 * backend selection. Constructing one records the selection into the
 * metrics registry (engine.backend gauge, engine.runs.* counters), so
 * each top-level run creates exactly one.
 */
class RunContext
{
  public:
    /**
     * Compile @p nfa and select the backend for @p requested. When
     * @p requested is Auto and @p density_probe is non-null, the Auto
     * heuristic is steered by probeActiveDensity() over that input;
     * otherwise the density is unknown.
     */
    explicit RunContext(const Nfa &nfa,
                        EngineKind requested = EngineKind::Sparse,
                        const InputTrace *density_probe = nullptr);

    /** The compiled automaton. */
    const CompiledNfa &compiled() const { return *cnfa; }

    /** The backend selection / engine factory. */
    const EngineContext &engines() const { return ctx; }

    /** Name of the selected backend ("sparse"/"dense"/"hybrid"). */
    const char *backendName() const { return ctx.backendName(); }

    /** Backend plus dispatched SIMD level, e.g. "hybrid+avx2". */
    const std::string &datapathName() const
    {
        return ctx.datapathName();
    }

    /**
     * OK, or the typed selection error (an invalid PAP_ENGINE value).
     * Run drivers must check this and fail the run with it instead of
     * silently executing on the fallback backend.
     */
    const Status &status() const { return ctx.status(); }

  private:
    std::unique_ptr<const CompiledNfa> cnfa;
    EngineContext ctx;
};

/** Parse "barrier" / "overlap" / "auto"; typed InvalidInput otherwise. */
Result<PipelineMode> parsePipelineMode(std::string_view text);

/** Stable name of @p mode ("barrier", "overlap", "auto"). */
const char *pipelineModeName(PipelineMode mode);

/**
 * Resolve @p requested to a concrete scheduling mode. Auto consults
 * PAP_PIPELINE — an invalid value is a typed InvalidInput error, like
 * an invalid --pipeline flag — then defaults to Barrier. A successful
 * result is never Auto.
 */
Result<PipelineMode> resolvePipelineMode(PipelineMode requested);

/**
 * Build the hardened-driver options every runner derives from
 * PapOptions: resolved thread count, retry/backoff knobs, injector,
 * and the watchdog deadline — explicit when positive, auto-derived
 * from @p longest_unit (the longest segment or stream, in symbols; a
 * generous 10 us/symbol with a 5 s floor) when zero, disabled when
 * negative.
 */
exec::HardenedExecOptions
makeHardenedOptions(const PapOptions &options,
                    std::uint32_t threads_resolved,
                    std::uint64_t longest_unit);

} // namespace pap

#endif // PAP_PAP_RUN_COMMON_H
