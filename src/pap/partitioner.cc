#include "pap/partitioner.h"

#include <algorithm>
#include <array>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace pap {

PartitionProfile
choosePartitionSymbol(const RangeAnalysis &ranges,
                      const InputTrace &input, std::uint32_t segments)
{
    PAP_ASSERT(segments >= 1, "need at least one segment");
    PAP_TRACE_SCOPE("partition.profile");

    // Profile symbol frequencies on a bounded prefix sample.
    const std::size_t sample =
        std::min<std::size_t>(input.size(), 1u << 20);
    std::array<std::uint64_t, kAlphabetSize> freq{};
    for (std::size_t i = 0; i < sample; ++i)
        ++freq[input[i]];

    // A symbol qualifies if it occurs often enough that every cut has
    // an occurrence nearby: at least 4 per segment on the sample.
    const std::uint64_t need = 4ull * segments;

    PartitionProfile best;
    bool found = false;
    for (int s = 0; s < kAlphabetSize; ++s) {
        if (freq[s] < need)
            continue;
        const std::uint32_t r = ranges.rangeSize(static_cast<Symbol>(s));
        if (!found || r < best.rangeSize ||
            (r == best.rangeSize && freq[s] > best.frequency)) {
            best.symbol = static_cast<Symbol>(s);
            best.rangeSize = r;
            best.frequency = freq[s];
            found = true;
        }
    }
    if (!found) {
        // Fall back to the most frequent symbol regardless of range.
        const auto it = std::max_element(freq.begin(), freq.end());
        best.symbol = static_cast<Symbol>(it - freq.begin());
        best.rangeSize = ranges.rangeSize(best.symbol);
        best.frequency = *it;
        obs::metrics().add("partition.fallback_symbol");
        warn("no frequent small-range symbol found; partitioning on "
             "the most frequent symbol instead");
    }
    return best;
}

std::vector<Segment>
partitionInput(const InputTrace &input, Symbol boundary_symbol,
               std::uint32_t segments)
{
    PAP_ASSERT(segments >= 1, "need at least one segment");
    PAP_TRACE_SCOPE("partition.cut");
    const std::uint64_t len = input.size();
    if (len < segments)
        segments = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(len));

    // Snap each nominal cut to the nearest boundary-symbol occurrence
    // within a window (the pre-processing of Section 4.1 compares only
    // a bounded neighbourhood of each cut).
    const std::uint64_t nominal = len / segments;
    const std::uint64_t window = std::max<std::uint64_t>(nominal / 4, 1);

    std::vector<Segment> out;
    std::uint64_t begin = 0;
    for (std::uint32_t i = 0; i + 1 < segments; ++i) {
        const std::uint64_t target = (i + 1) * len / segments;
        std::uint64_t cut = target;
        // Scan outward for a position whose *last consumed symbol*
        // (input[cut - 1]) is the boundary symbol.
        bool snapped = false;
        for (std::uint64_t d = 0; d < window; ++d) {
            if (target > d && target - d > begin &&
                input[target - d - 1] == boundary_symbol) {
                cut = target - d;
                snapped = true;
                break;
            }
            if (target + d < len && target + d > begin &&
                input[target + d - 1] == boundary_symbol) {
                cut = target + d;
                snapped = true;
                break;
            }
        }
        obs::metrics().add(snapped ? "partition.cuts.snapped"
                                   : "partition.cuts.unsnapped");
        if (cut <= begin || cut >= len)
            continue; // degenerate; merge into neighbour
        out.push_back(Segment{begin, cut});
        begin = cut;
    }
    out.push_back(Segment{begin, len});
    return out;
}

} // namespace pap
