/**
 * @file
 * The serve_ids workload: an in-process serve::Server serving the
 * Snort ruleset of the Table-1 registry to an open-loop generator.
 */

#ifndef PAPBENCH_SERVE_IDS_H
#define PAPBENCH_SERVE_IDS_H

#include "bench_util.h"

namespace papbench {

/** Run the serve_ids workload per @p args (untraced or traced). */
Outcome runServeIds(const Args &args);

} // namespace papbench

#endif // PAPBENCH_SERVE_IDS_H
