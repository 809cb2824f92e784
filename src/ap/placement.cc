#include "ap/placement.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace pap {

std::uint32_t
Placement::inputSegments(const ApConfig &config) const
{
    PAP_ASSERT(halfCoresPerCopy > 0, "placement not computed");
    return config.totalHalfCores() / halfCoresPerCopy;
}

Result<Placement>
placeAutomaton(const Nfa &nfa, const Components &comps,
               const ApConfig &config, std::uint32_t min_half_cores)
{
    Placement placement;
    placement.halfCoreOfComponent.assign(comps.count, 0);

    // First-fit decreasing over component sizes.
    std::vector<ComponentId> order(comps.count);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](ComponentId a, ComponentId b) {
                  return comps.sizes[a] > comps.sizes[b];
              });

    std::vector<std::uint32_t> used; // STEs per opened half-core
    for (const ComponentId cc : order) {
        const std::uint32_t need = comps.sizes[cc];
        if (need > config.stesPerHalfCore)
            return Status::error(ErrorCode::CapacityExceeded,
                                 "connected component of ", need,
                                 " states exceeds a half-core (",
                                 config.stesPerHalfCore, " STEs); '",
                                 nfa.name(), "' cannot be placed");
        bool placed = false;
        for (std::uint32_t hc = 0; hc < used.size(); ++hc) {
            if (used[hc] + need <= config.stesPerHalfCore) {
                used[hc] += need;
                placement.halfCoreOfComponent[cc] = hc;
                placed = true;
                break;
            }
        }
        if (!placed) {
            used.push_back(need);
            placement.halfCoreOfComponent[cc] =
                static_cast<std::uint32_t>(used.size() - 1);
        }
    }

    // Routing-constrained distribution: spread across at least the
    // requested number of half-cores.
    while (used.size() < std::max<std::uint32_t>(min_half_cores, 1))
        used.push_back(0);

    placement.halfCoresPerCopy = static_cast<std::uint32_t>(used.size());
    placement.stesPerHalfCore = std::move(used);

    if (placement.halfCoresPerCopy > config.totalHalfCores())
        return Status::error(ErrorCode::CapacityExceeded, "'",
                             nfa.name(), "' needs ",
                             placement.halfCoresPerCopy,
                             " half-cores but the board has ",
                             config.totalHalfCores());

    // Reporting-capacity check: each half-core sees half a device's
    // output regions.
    placement.reportStatesPerHalfCore.assign(
        placement.halfCoresPerCopy, 0);
    for (const StateId q : nfa.reportingStates()) {
        const std::uint32_t hc =
            placement.halfCoreOfComponent[comps.of[q]];
        ++placement.reportStatesPerHalfCore[hc];
    }
    const std::uint32_t report_capacity =
        config.outputRegionsPerDevice * config.reportElementsPerRegion /
        config.halfCoresPerDevice;
    for (std::uint32_t hc = 0; hc < placement.halfCoresPerCopy; ++hc) {
        if (placement.reportStatesPerHalfCore[hc] > report_capacity)
            warn("'", nfa.name(), "' half-core ", hc, " has ",
                 placement.reportStatesPerHalfCore[hc],
                 " reporting states, exceeding the ", report_capacity,
                 " reporting-element capacity");
    }
    return placement;
}

} // namespace pap
