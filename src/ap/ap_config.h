/**
 * @file
 * Configuration and published timing constants of the Micron D480
 * Automata Processor (Sections 2.1 and 4.2 of the paper).
 *
 * Geometry: a board has up to 4 ranks; a rank has 8 D480 devices; a
 * device has 2 half-cores of 24,576 STEs each (organized as 96 blocks
 * of 256 STEs). State transitions never cross half-cores, so the
 * half-core is the unit of input-segment parallelism.
 */

#ifndef PAP_AP_AP_CONFIG_H
#define PAP_AP_AP_CONFIG_H

#include <cstdint>

#include "common/types.h"

namespace pap {

/** Published latencies, in AP symbol cycles unless noted. */
struct ApTiming
{
    /** Wall-clock length of one symbol cycle. */
    double symbolCycleNs = 7.5;
    /**
     * Flow context switch: write the old state vector to the SVC,
     * read the new one, load mask register and counters (Section 3.2).
     */
    Cycles contextSwitchCycles = 3;
    /** Transfer of the 59,936-bit state vector to the host. */
    Cycles stateVectorUploadCycles = 1668;
    /** Transfer of the 512-bit Flow Invalidation Vector to the AP. */
    Cycles fivDownloadCycles = 15;
};

/** Geometry and capacity of one AP board configuration. */
struct ApConfig
{
    std::uint32_t ranks = 4;
    std::uint32_t devicesPerRank = 8;
    std::uint32_t halfCoresPerDevice = 2;
    std::uint32_t stesPerHalfCore = 24576;
    std::uint32_t blocksPerHalfCore = 96;
    std::uint32_t stesPerBlock = 256;
    /** State Vector Cache entries (flows) per device. */
    std::uint32_t svcEntriesPerDevice = 512;
    std::uint32_t outputRegionsPerDevice = 6;
    std::uint32_t reportElementsPerRegion = 1024;
    std::uint32_t countersPerDevice = 768;
    std::uint32_t booleanElementsPerDevice = 2304;
    /** Bits in one flow state vector. */
    std::uint32_t stateVectorBits = 59936;
    ApTiming timing;

    /** Total independent half-cores on the board. */
    std::uint32_t
    totalHalfCores() const
    {
        return ranks * devicesPerRank * halfCoresPerDevice;
    }

    /** Total STE capacity. */
    std::uint64_t
    totalStes() const
    {
        return static_cast<std::uint64_t>(totalHalfCores()) *
               stesPerHalfCore;
    }

    /** A D480 board with @p ranks ranks (1..4). */
    static ApConfig d480(std::uint32_t ranks);
};

} // namespace pap

#endif // PAP_AP_AP_CONFIG_H
