/**
 * @file
 * Execution-oriented flattening of an Nfa: CSR successor arrays,
 * symbol-major match rows, the offset classes and masks of the shift
 * datapath, and per-symbol pre-computation of the activity
 * contributed by AllInput start states. Immutable; shared by any
 * number of engine instances (one per flow).
 *
 * The start pre-computation goes one symbol further for *narrow*
 * start successors, whose label holds at most kNarrowLabelSymbols
 * symbols: a symbol-pair table lists, for each symbol p and next
 * symbol s, the narrow states the AllInput starts enable after p
 * whose label holds s. A start-enabled sparse step reads the states
 * that match from there instead of listing and probing every state
 * the starts enabled (FunctionalEngine).
 */

#ifndef PAP_ENGINE_COMPILED_NFA_H
#define PAP_ENGINE_COMPILED_NFA_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "common/charclass.h"
#include "common/types.h"
#include "nfa/nfa.h"

namespace pap {

/** A start-state match precomputed for one symbol. */
struct StartReport
{
    StateId state;
    ReportCode code;
};

/**
 * The edges q -> q + offset of every source state q set in @p sources.
 * A shift step moves all of them with one shifted OR of the matched
 * set.
 */
struct ShiftClass
{
    std::int64_t offset = 0;
    BitVector sources;
};

/**
 * Population count without a library call: the x86-64 baseline the
 * project builds for has no popcnt instruction, and std::popcount
 * there calls into libgcc once per word.
 */
inline std::uint64_t
popcount64(std::uint64_t x)
{
    x = x - ((x >> 1) & 0x5555555555555555ull);
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
    return (x * 0x0101010101010101ull) >> 56;
}

/** Immutable compiled form of a homogeneous NFA. */
class CompiledNfa
{
  public:
    /** Most offset classes a compiled automaton keeps. */
    static constexpr std::size_t kMaxShiftClasses = 4;

    /**
     * Most symbols a start successor's label holds to be narrow (kept
     * in the symbol-pair table). The table holds at most this many
     * entries per member of some startEnables(p), plus one block of
     * kAlphabetSize + 1 offsets per symbol with a narrow successor.
     * Measured on the 19 Table-1 automata (seed 5, single-threaded
     * start-enabled runs over the benchmark-of-record traces, 4-vCPU
     * Xeon): at 8 the tables hold 390-2,200 entries on the Regex
     * suite, 7,751 on Snort, 8,152 on ClamAV, 12,544 on Hamming and
     * 100,018 on Fermi, and 16 builds the same tables on all 19. At 4
     * the Ranges, TCP, PowerEN1, Dotstar, Snort and Fermi tables lose
     * states, and Ranges1 read 17-19 ms against 10-16 and Snort 8-11
     * against 5-9; at 2 Protomata read 47 ms against 19-27. With no
     * bound Hamming's table grew to 3.2 M entries (10 ms to build),
     * Levenshtein's to 1.1 M and ClamAV's to 443 K, for no faster run.
     */
    static constexpr int kNarrowLabelSymbols = 8;

    /** Flatten @p nfa (which must be finalized). Keeps a reference. */
    explicit CompiledNfa(const Nfa &nfa);

    /** Number of states. */
    std::size_t size() const { return reportCodes.size(); }

    /** 64-bit words in a state bitset: ceil(size() / 64). */
    std::size_t words() const { return wordCount; }

    /** Label of state @p q (read from the source automaton). */
    const CharClass &label(StateId q) const { return nfa[q].label; }

    /** Bitset of the states whose label contains @p s. */
    const std::uint64_t *
    matchRow(Symbol s) const
    {
        return matchRows.data() + static_cast<std::size_t>(s) * wordCount;
    }

    /** True if @p q reports on match. */
    bool reporting(StateId q) const { return reportCodes[q] != kNoReport; }

    /** Report code of @p q (only meaningful if reporting(q)). */
    ReportCode reportCode(StateId q) const { return reportCodes[q]; }

    /** True if @p q is an AllInput start (re-enabled every cycle). */
    bool
    isAllInputStart(StateId q) const
    {
        return (allInputBits.rawWords()[q >> 6] >> (q & 63)) & 1;
    }

    /** Successors of @p q as a contiguous span. */
    std::pair<const StateId *, const StateId *>
    successors(StateId q) const
    {
        return {targets.data() + rowOffset[q],
                targets.data() + rowOffset[q + 1]};
    }

    /** The offset classes, most edges first (at most kMaxShiftClasses). */
    const std::vector<ShiftClass> &shiftClasses() const { return classes; }

    /**
     * Bitset of the states with an edge no shift class covers: a shift
     * step walks their whole successor row.
     */
    const BitVector &exceptionMask() const { return exceptionBits; }

    /** Bitset of the reporting states. */
    const BitVector &reportMask() const { return reportBits; }

    /** Bitset of the AllInput starts. */
    const BitVector &allInputMask() const { return allInputBits; }

    /**
     * States enabled for the next cycle because an AllInput start
     * matched symbol @p s.
     */
    const std::vector<StateId> &startEnables(Symbol s) const
    {
        return startNext[s];
    }

    /** The members of startEnables(@p p) with a narrow label. */
    const std::vector<StateId> &narrowStartEnables(Symbol p) const
    {
        return narrowNext[p];
    }

    /** The members of startEnables(@p p) with a wide label. */
    const std::vector<StateId> &wideStartEnables(Symbol p) const
    {
        return wideNext[p];
    }

    /**
     * The members of narrowStartEnables(@p p) whose label holds @p s,
     * ascending: the symbol-pair table. Empty unless some narrow
     * start successor is enabled after @p p.
     */
    std::pair<const StateId *, const StateId *>
    startPairs(Symbol p, Symbol s) const
    {
        if (pairBlock[p] == kNoPairBlock)
            return {nullptr, nullptr};
        const std::uint32_t *off =
            pairOffsets.data() +
            static_cast<std::size_t>(pairBlock[p]) * (kAlphabetSize + 1);
        return {pairStates.data() + off[s], pairStates.data() + off[s + 1]};
    }

    /** Entries of the symbol-pair table. */
    std::size_t startPairCount() const { return pairStates.size(); }

    /**
     * True iff the start machinery keeps @p q active after symbol
     * @p s without listing it, so a start-enabled sparse step does not
     * list @p q when an edge reaches it on @p s: @p q is an AllInput
     * start, or in narrowStartEnables(@p s). One bit per state rules
     * out most states before the test on @p q's enabling symbols.
     */
    bool
    coveredByStarts(StateId q, Symbol s) const
    {
        return ((coverBits.rawWords()[q >> 6] >> (q & 63)) & 1) &&
               (isAllInputStart(q) || narrowEnablers[narrowSlot(q)].test(s));
    }

    /** Reports emitted by AllInput starts when symbol @p s arrives. */
    const std::vector<StartReport> &startReports(Symbol s) const
    {
        return startReportsBySymbol[s];
    }

    /** AllInput starts whose label matches @p s (transition count). */
    std::uint32_t startMatchCount(Symbol s) const
    {
        return startMatches[s];
    }

    /** Initially active states: StartOfData starts. */
    const std::vector<StateId> &initialActive() const
    {
        return startOfDataStates;
    }

  private:
    void buildShiftClasses(const std::vector<std::int64_t> &offsets);
    void buildStartPairs();

    /** Index of narrow start successor @p q in narrowEnablers. */
    std::size_t
    narrowSlot(StateId q) const
    {
        const std::uint64_t below = narrowBits.rawWords()[q >> 6] &
                                    ((std::uint64_t{1} << (q & 63)) - 1);
        return narrowRank[q >> 6] + popcount64(below);
    }

    const Nfa &nfa;
    std::size_t wordCount = 0;
    /** kAlphabetSize rows of wordCount words, symbol-major. */
    std::vector<std::uint64_t> matchRows;
    std::vector<ReportCode> reportCodes;
    BitVector reportBits;
    BitVector allInputBits;
    std::vector<std::uint32_t> rowOffset;
    std::vector<StateId> targets;
    std::vector<ShiftClass> classes;
    BitVector exceptionBits;
    std::array<std::vector<StateId>, kAlphabetSize> startNext;
    std::array<std::vector<StateId>, kAlphabetSize> narrowNext;
    std::array<std::vector<StateId>, kAlphabetSize> wideNext;
    /** Per symbol p, its block of pairOffsets, or kNoPairBlock. */
    std::array<std::uint32_t, kAlphabetSize> pairBlock{};
    /** kAlphabetSize + 1 offsets into pairStates per block. */
    std::vector<std::uint32_t> pairOffsets;
    std::vector<StateId> pairStates;
    /** The narrow start successors of any symbol. */
    BitVector narrowBits;
    /** narrowBits and the AllInput starts: coveredByStarts' filter. */
    BitVector coverBits;
    /** Per word of narrowBits, the set bits in the words before it. */
    std::vector<std::uint32_t> narrowRank;
    /** Per narrow start successor, ascending: the symbols p after
        which the starts enable it. */
    std::vector<CharClass> narrowEnablers;
    std::array<std::vector<StartReport>, kAlphabetSize>
        startReportsBySymbol;
    std::array<std::uint32_t, kAlphabetSize> startMatches{};
    std::vector<StateId> startOfDataStates;

    static constexpr ReportCode kNoReport =
        static_cast<ReportCode>(-1);
    static constexpr std::uint32_t kNoPairBlock =
        static_cast<std::uint32_t>(-1);
};

} // namespace pap

#endif // PAP_ENGINE_COMPILED_NFA_H
