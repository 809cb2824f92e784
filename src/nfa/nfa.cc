#include "nfa/nfa.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace pap {

StateId
Nfa::addState(const CharClass &label, StartType start, bool reporting,
              ReportCode code)
{
    isFinalized = false;
    states.push_back(NfaState{label, start, reporting, code, {}});
    return static_cast<StateId>(states.size() - 1);
}

void
Nfa::addEdge(StateId from, StateId to)
{
    PAP_ASSERT(from < states.size(), "bad edge source ", from);
    PAP_ASSERT(to < states.size(), "bad edge target ", to);
    isFinalized = false;
    states[from].succ.push_back(to);
}

void
Nfa::finalize()
{
    numEdges = 0;
    startList.clear();
    reportList.clear();
    for (StateId id = 0; id < states.size(); ++id) {
        auto &s = states[id];
        std::sort(s.succ.begin(), s.succ.end());
        s.succ.erase(std::unique(s.succ.begin(), s.succ.end()),
                     s.succ.end());
        numEdges += s.succ.size();
        if (s.start != StartType::None)
            startList.push_back(id);
        if (s.reporting)
            reportList.push_back(id);
    }
    isFinalized = true;
}

std::size_t
Nfa::edgeCount() const
{
    PAP_ASSERT(isFinalized, "edgeCount() before finalize()");
    return numEdges;
}

NfaState &
Nfa::mutableState(StateId id)
{
    PAP_ASSERT(id < states.size(), "bad state id ", id);
    isFinalized = false;
    return states[id];
}

const std::vector<StateId> &
Nfa::startStates() const
{
    PAP_ASSERT(isFinalized, "startStates() before finalize()");
    return startList;
}

const std::vector<StateId> &
Nfa::reportingStates() const
{
    PAP_ASSERT(isFinalized, "reportingStates() before finalize()");
    return reportList;
}

bool
Nfa::hasSelfLoop(StateId id) const
{
    PAP_ASSERT(id < states.size(), "bad state id ", id);
    const auto &succ = states[id].succ;
    if (isFinalized)
        return std::binary_search(succ.begin(), succ.end(), id);
    return std::find(succ.begin(), succ.end(), id) != succ.end();
}

StateId
Nfa::append(const Nfa &other)
{
    const StateId offset = static_cast<StateId>(states.size());
    isFinalized = false;
    for (const auto &s : other.states) {
        states.push_back(s);
        for (auto &t : states.back().succ)
            t += offset;
    }
    return offset;
}

void
Nfa::validate() const
{
    PAP_ASSERT(isFinalized, "validate() before finalize()");
    for (StateId id = 0; id < states.size(); ++id) {
        const auto &s = states[id];
        for (const StateId t : s.succ)
            PAP_ASSERT(t < states.size(),
                       "state ", id, " has dangling edge to ", t);
        PAP_ASSERT(std::is_sorted(s.succ.begin(), s.succ.end()),
                   "state ", id, " has unsorted successors");
        // Empty-label states can arise from degenerate patterns such
        // as x{0,0}; they never match and are therefore harmless.
    }
}

std::uint64_t
automatonDigest(const Nfa &nfa)
{
    // "SERV": the seed serve identities were first written with.
    std::uint64_t h = 0x53455256ull;
    for (const char c : nfa.name())
        h = hashCombine(h, static_cast<std::uint64_t>(c));
    h = hashCombine(h, nfa.size());
    for (StateId q = 0; q < nfa.size(); ++q) {
        const NfaState &st = nfa[q];
        for (int w = 0; w < 4; ++w)
            h = hashCombine(h, st.label.word(w));
        h = hashCombine(h, static_cast<std::uint64_t>(st.start));
        h = hashCombine(h, (std::uint64_t{st.reporting} << 32) |
                               st.reportCode);
        for (const StateId t : st.succ)
            h = hashCombine(h, t);
    }
    return h;
}

} // namespace pap
