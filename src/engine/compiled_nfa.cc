#include "engine/compiled_nfa.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace pap {

namespace {

/** One round of transpose64: swap the off-diagonal J x J blocks. */
template <unsigned J>
inline void
swapBlocks(std::uint64_t *a, std::uint64_t mask)
{
    for (unsigned base = 0; base < 64; base += 2 * J)
        for (unsigned k = base; k < base + J; ++k) {
            const std::uint64_t t = ((a[k] >> J) ^ a[k + J]) & mask;
            a[k] ^= t << J;
            a[k + J] ^= t;
        }
}

/**
 * Transpose a 64x64 bit matrix in place: bit j of a[i] moves to bit i
 * of a[j] (Hacker's Delight 7-3, least-significant bit first).
 */
void
transpose64(std::uint64_t *a)
{
    swapBlocks<32>(a, 0x00000000FFFFFFFFull);
    swapBlocks<16>(a, 0x0000FFFF0000FFFFull);
    swapBlocks<8>(a, 0x00FF00FF00FF00FFull);
    swapBlocks<4>(a, 0x0F0F0F0F0F0F0F0Full);
    swapBlocks<2>(a, 0x3333333333333333ull);
    swapBlocks<1>(a, 0x5555555555555555ull);
}

/** The offset t - q of the edge q -> t. */
std::int64_t
edgeOffset(StateId q, StateId t)
{
    return static_cast<std::int64_t>(t) - static_cast<std::int64_t>(q);
}

/**
 * Edge counts per offset, within 4096 of zero. Farther offsets stay
 * exceptions: none is common in the Table-1 automata (the largest
 * common one is Fermi's +1400).
 */
class OffsetCensus
{
  public:
    explicit OffsetCensus(std::size_t states)
        : span(static_cast<std::int64_t>(std::min<std::size_t>(states, 4096))),
          edges(static_cast<std::size_t>(2 * span), 0)
    {
    }

    void
    add(StateId q, StateId t)
    {
        const std::int64_t d = edgeOffset(q, t);
        if (d >= -span && d < span)
            ++edges[static_cast<std::size_t>(d + span)];
    }

    /**
     * Up to @p max offsets with at least @p min_edges edges each, most
     * edges first; ties go to the smaller offset, so the choice is a
     * pure function of the automaton.
     */
    std::vector<std::int64_t>
    top(std::size_t max, std::uint64_t min_edges) const
    {
        std::vector<std::int64_t> offsets;
        for (std::int64_t d = -span; d < span; ++d) {
            const std::uint32_t n = edges[static_cast<std::size_t>(d + span)];
            if (n > 0 && n >= min_edges)
                offsets.push_back(d);
        }
        std::sort(offsets.begin(), offsets.end(),
                  [&](std::int64_t a, std::int64_t b) {
                      return count(a) != count(b) ? count(a) > count(b)
                                                  : a < b;
                  });
        if (offsets.size() > max)
            offsets.resize(max);
        return offsets;
    }

  private:
    std::uint32_t
    count(std::int64_t d) const
    {
        return edges[static_cast<std::size_t>(d + span)];
    }

    std::int64_t span;
    std::vector<std::uint32_t> edges;
};

/**
 * Fills the symbol-major match rows from the labels, 64 states at a
 * time: each 64-symbol quarter of the block's labels is a 64x64 bit
 * matrix whose transpose is the block's word in 64 consecutive rows.
 * A quarter no label of the block touches (most labels are a few
 * printable symbols) is skipped. Setting the rows bit by bit was
 * slower even for literal-byte labels.
 */
class MatchRowBuilder
{
  public:
    MatchRowBuilder(std::uint64_t *rows, std::size_t words)
        : rows(rows), words(words)
    {
    }

    void
    add(StateId q, const CharClass &label)
    {
        for (int quarter = 0; quarter < 4; ++quarter) {
            block[quarter][q & 63] = label.word(quarter);
            pending[quarter] |= label.word(quarter);
        }
    }

    /** Write block @p w and start the next one. */
    void
    flush(std::size_t w)
    {
        for (int quarter = 0; quarter < 4; ++quarter) {
            if (!pending[quarter])
                continue;
            std::uint64_t *a = block[quarter];
            transpose64(a);
            for (std::size_t j = 0; j < 64; ++j)
                rows[(64 * quarter + j) * words + w] = a[j];
            std::fill(a, a + 64, 0);
            pending[quarter] = 0;
        }
    }

  private:
    std::uint64_t *rows;
    std::size_t words;
    std::uint64_t block[4][64] = {};
    std::uint64_t pending[4] = {};
};

} // namespace

CompiledNfa::CompiledNfa(const Nfa &source_nfa) : nfa(source_nfa)
{
    PAP_ASSERT(nfa.finalized(), "CompiledNfa from unfinalized NFA");
    const std::size_t n = nfa.size();
    wordCount = (n + 63) / 64;
    matchRows.assign(kAlphabetSize * wordCount, 0);
    reportCodes.assign(n, kNoReport);
    reportBits = BitVector(n);
    allInputBits = BitVector(n);
    rowOffset.assign(n + 1, 0);
    targets.reserve(nfa.edgeCount());

    // One pass over the states: flags, CSR rows, the offset census
    // and the match rows.
    OffsetCensus census(n);
    MatchRowBuilder match_rows(matchRows.data(), wordCount);
    for (StateId q = 0; q < n; ++q) {
        const auto &s = nfa[q];
        if (s.reporting) {
            PAP_ASSERT(s.reportCode != kNoReport,
                       "report code ", s.reportCode, " is reserved");
            reportCodes[q] = s.reportCode;
            reportBits.set(q);
        }
        if (s.start == StartType::AllInput)
            allInputBits.set(q);
        if (s.start == StartType::StartOfData)
            startOfDataStates.push_back(q);
        rowOffset[q] = static_cast<std::uint32_t>(targets.size());
        targets.insert(targets.end(), s.succ.begin(), s.succ.end());
        for (const StateId t : s.succ)
            census.add(q, t);
        match_rows.add(q, s.label);
        if ((q & 63) == 63 || q + 1 == n)
            match_rows.flush(q >> 6);
    }
    rowOffset[n] = static_cast<std::uint32_t>(targets.size());

    // A class costs one pass over the words on every shift step, an
    // exception edge one bit scatter per match of its source, so a
    // class must cover at least one edge per word.
    buildShiftClasses(census.top(kMaxShiftClasses, wordCount));

    // Per-symbol AllInput start activity. Successors that are
    // themselves AllInput starts are dropped: when start machinery is
    // live they are re-enabled every cycle anyway, and keeping them
    // out of the active set avoids double reporting.
    for (const StateId q : nfa.startStates()) {
        const auto &s = nfa[q];
        if (s.start != StartType::AllInput)
            continue;
        s.label.forEachSymbol([&](Symbol sym) {
            ++startMatches[sym];
            if (s.reporting)
                startReportsBySymbol[sym].push_back(
                    StartReport{q, s.reportCode});
            for (const StateId t : s.succ)
                if (!isAllInputStart(t))
                    startNext[sym].push_back(t);
        });
    }
    for (auto &v : startNext) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }
}

/**
 * Build one class per offset in @p offsets, and mark the states with
 * an edge no class covers.
 */
void
CompiledNfa::buildShiftClasses(const std::vector<std::int64_t> &offsets)
{
    const std::size_t n = nfa.size();
    for (const std::int64_t d : offsets)
        classes.push_back(ShiftClass{d, BitVector(n)});
    // An edge is an exception when no class has its offset.
    const auto class_of = [&](StateId q, StateId t) -> ShiftClass * {
        const std::int64_t d = edgeOffset(q, t);
        for (ShiftClass &k : classes)
            if (k.offset == d)
                return &k;
        return nullptr;
    };
    exceptionBits = BitVector(n);
    for (StateId q = 0; q < n; ++q) {
        for (std::uint32_t e = rowOffset[q]; e < rowOffset[q + 1]; ++e) {
            if (ShiftClass *k = class_of(q, targets[e]))
                k->sources.set(q);
            else
                exceptionBits.set(q);
        }
    }
}

} // namespace pap
