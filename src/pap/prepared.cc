#include "pap/prepared.h"

namespace pap {

PreparedAutomaton::PreparedAutomaton(const Nfa &nfa)
    : nfa(nfa), cnfa(nfa), comps(connectedComponents(nfa)),
      asg(alwaysActiveStates(nfa))
{
}

} // namespace pap
