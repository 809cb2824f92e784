/**
 * @file
 * Range-guided input partitioning (Section 3.1): the input stream is
 * cut into roughly equal segments whose boundaries fall on a
 * frequently occurring symbol with a small range, so the next
 * segment enumerates as few candidate start states as possible.
 */

#ifndef PAP_PAP_PARTITIONER_H
#define PAP_PAP_PARTITIONER_H

#include <cstdint>
#include <vector>

#include "engine/trace.h"
#include "nfa/analysis.h"

namespace pap {

/** Outcome of the offline boundary-symbol profiling. */
struct PartitionProfile
{
    /** Chosen boundary symbol. */
    Symbol symbol = 0;
    /** Its range size (enumeration candidates before merging). */
    std::uint32_t rangeSize = 0;
    /** Its occurrences in the profiled input. */
    std::uint64_t frequency = 0;
};

/**
 * Choose the partition symbol: among symbols frequent enough to cut
 * @p segments roughly equal pieces (at least 4 occurrences per cut,
 * measured on a prefix sample), pick the one with the smallest range.
 * Falls back to the most frequent symbol when none qualifies.
 */
PartitionProfile choosePartitionSymbol(const RangeAnalysis &ranges,
                                       const InputTrace &input,
                                       std::uint32_t segments);

/**
 * Cut @p input into @p segments half-open slices of roughly equal
 * size. Each cut is moved to the nearest occurrence of
 * @p boundary_symbol within a bounded window so segments end right
 * after the boundary symbol; if no occurrence is near, the cut stays
 * put (still correct: enumeration always uses the actual last symbol
 * of the preceding segment). Fewer segments are returned when the
 * input is too short to give every segment at least one symbol.
 */
std::vector<Segment> partitionInput(const InputTrace &input,
                                    Symbol boundary_symbol,
                                    std::uint32_t segments);

} // namespace pap

#endif // PAP_PAP_PARTITIONER_H
