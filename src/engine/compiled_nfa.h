/**
 * @file
 * Execution-oriented flattening of an Nfa: CSR successor arrays,
 * symbol-major match rows, the offset classes and masks of the shift
 * datapath, and per-symbol pre-computation of the activity
 * contributed by AllInput start states. Immutable; shared by any
 * number of engine instances (one per flow).
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

/** Immutable compiled form of a homogeneous NFA. */
class CompiledNfa
{
  public:
    /** Most offset classes a compiled automaton keeps. */
    static constexpr std::size_t kMaxShiftClasses = 4;

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
    std::array<std::vector<StartReport>, kAlphabetSize>
        startReportsBySymbol;
    std::array<std::uint32_t, kAlphabetSize> startMatches{};
    std::vector<StateId> startOfDataStates;

    static constexpr ReportCode kNoReport =
        static_cast<ReportCode>(-1);
};

} // namespace pap

#endif // PAP_ENGINE_COMPILED_NFA_H
