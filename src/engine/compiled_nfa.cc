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
    buildStartPairs();
}

/**
 * Split each symbol's start successors by label width, and index the
 * narrow ones by the next symbol: one block of offsets per symbol p
 * with a narrow successor, whose span s lists the narrow successors
 * of p that match s. A narrow state adds at most kNarrowLabelSymbols
 * entries per symbol that enables it.
 */
void
CompiledNfa::buildStartPairs()
{
    const std::size_t n = nfa.size();
    // Per edge from an AllInput start: which successors are narrow,
    // then the symbols that enable each (its starts' labels).
    narrowBits = BitVector(n);
    const auto for_each_start_edge = [&](auto &&f) {
        for (const StateId q : nfa.startStates())
            if (isAllInputStart(q))
                for (const StateId t : nfa[q].succ)
                    if (!isAllInputStart(t))
                        f(q, t);
    };
    for_each_start_edge([&](StateId, StateId t) {
        if (nfa[t].label.count() <= kNarrowLabelSymbols)
            narrowBits.set(t);
    });
    narrowRank.assign(wordCount, 0);
    std::uint32_t rank = 0;
    for (std::size_t w = 0; w < wordCount; ++w) {
        narrowRank[w] = rank;
        rank += static_cast<std::uint32_t>(
            popcount64(narrowBits.rawWords()[w]));
    }
    narrowEnablers.assign(rank, CharClass{});
    coverBits = narrowBits;
    coverBits |= allInputBits;
    for_each_start_edge([&](StateId q, StateId t) {
        if (narrowBits.test(t))
            narrowEnablers[narrowSlot(t)] |= nfa[q].label;
    });

    pairBlock.fill(kNoPairBlock);
    std::uint32_t blocks = 0;
    for (int p = 0; p < kAlphabetSize; ++p) {
        for (const StateId t : startNext[p])
            (narrowBits.test(t) ? narrowNext : wideNext)[p].push_back(t);
        if (!narrowNext[p].empty())
            pairBlock[p] = blocks++;
    }
    // Visit every entry (p, s, t) once per pass, narrow states in
    // state order, so each span comes out ascending and each label is
    // read once per pass: span (p, s) of @p table is p's block at s.
    constexpr std::size_t kSpan = kAlphabetSize + 1;
    const auto for_each_entry = [&](std::uint32_t *table, auto &&f) {
        narrowBits.forEachSet([&](std::size_t q) {
            const auto t = static_cast<StateId>(q);
            const CharClass &label = nfa[t].label;
            narrowEnablers[narrowSlot(t)].forEachSymbol([&](Symbol p) {
                std::uint32_t *block = table + pairBlock[p] * kSpan;
                label.forEachSymbol([&](Symbol s) { f(block, s, t); });
            });
        });
    };
    // Count span s at block[s + 1]; the running sum then turns every
    // block into the offsets of its spans.
    pairOffsets.assign(blocks * kSpan, 0);
    for_each_entry(pairOffsets.data(),
                   [](std::uint32_t *block, Symbol s, StateId) {
                       ++block[s + 1];
                   });
    std::uint32_t at = 0;
    for (std::uint32_t &offset : pairOffsets) {
        at += offset;
        offset = at;
    }
    pairStates.resize(at);
    std::vector<std::uint32_t> cursor = pairOffsets;
    for_each_entry(cursor.data(),
                   [&](std::uint32_t *block, Symbol s, StateId t) {
                       pairStates[block[s]++] = t;
                   });
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
