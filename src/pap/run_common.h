/**
 * @file
 * Scaffolding shared by the run entry points (runner, speculative,
 * multistream) and serve: building the hardened-driver options from
 * PapOptions, so every runner executes a run the same way.
 */

#ifndef PAP_PAP_RUN_COMMON_H
#define PAP_PAP_RUN_COMMON_H

#include <cstdint>

#include "pap/exec/pipeline.h"
#include "pap/options.h"

namespace pap {

/**
 * Build the hardened-driver options every runner derives from
 * PapOptions: resolved thread count, retry count, injector, and the
 * attempt deadline — explicit when positive, auto-derived from
 * @p longest_unit (the longest segment or stream, in symbols; a
 * generous 10 us/symbol with a 5 s floor) when zero, disabled when
 * negative.
 */
exec::HardenedExecOptions
makeHardenedOptions(const PapOptions &options,
                    std::uint32_t threads_resolved,
                    std::uint64_t longest_unit);

} // namespace pap

#endif // PAP_PAP_RUN_COMMON_H
