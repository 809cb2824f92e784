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
#include "nfa/nfa.h"
#include "pap/exec/pipeline.h"
#include "pap/options.h"

namespace pap {

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
    /** Compile @p nfa and build engines of kind @p kind over it. */
    explicit RunContext(const Nfa &nfa,
                        EngineKind kind = EngineKind::Sparse);

    /** The compiled automaton. */
    const CompiledNfa &compiled() const { return *cnfa; }

    /** The backend selection / engine factory. */
    const EngineContext &engines() const { return ctx; }

    /** Name of the selected backend ("sparse"/"hybrid"). */
    const char *backendName() const { return ctx.backendName(); }

    /** Backend plus dispatched SIMD level, e.g. "hybrid+avx2". */
    const std::string &datapathName() const
    {
        return ctx.datapathName();
    }

    /**
     * OK, or the typed selection error (an invalid PAP_SIMD value).
     * Run drivers must check this and fail the run with it instead of
     * silently executing on the fallback backend.
     */
    const Status &status() const { return ctx.status(); }

  private:
    std::unique_ptr<const CompiledNfa> cnfa;
    EngineContext ctx;
};

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
