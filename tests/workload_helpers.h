/**
 * @file
 * Shared helpers for tests: random automata and random traces, and a
 * chain automaton of any size.
 */

#ifndef PAP_TESTS_WORKLOAD_HELPERS_H
#define PAP_TESTS_WORKLOAD_HELPERS_H

#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/trace.h"
#include "nfa/glushkov.h"
#include "nfa/nfa.h"

namespace pap {

/** A trace of random symbols drawn from @p alphabet. */
inline InputTrace
randomTextTrace(Rng &rng, std::size_t len, const std::string &alphabet)
{
    std::vector<Symbol> data(len);
    for (auto &s : data)
        s = static_cast<Symbol>(static_cast<unsigned char>(
            alphabet[rng.nextBelow(alphabet.size())]));
    return InputTrace(std::move(data));
}

/** A random regex pattern over a small alphabet. */
inline std::string
randomPattern(Rng &rng)
{
    static const char *atoms[] = {"a",  "b",   "c",    "d",    "e",
                                  "f",  "g",   "h",    ".",    "[ab]",
                                  "[c-f]", "[^ab]", "(ab|cd)", "\\n"};
    static const char *quants[] = {"", "", "", "*", "+", "?", "{1,3}"};
    std::string out;
    const int parts = 2 + static_cast<int>(rng.nextBelow(6));
    for (int i = 0; i < parts; ++i) {
        out += atoms[rng.nextBelow(std::size(atoms))];
        out += quants[rng.nextBelow(std::size(quants))];
    }
    return out;
}

/** A random multi-rule automaton. */
inline Nfa
randomNfa(Rng &rng, int max_patterns)
{
    std::vector<RegexRule> rules;
    const int n = 1 + static_cast<int>(rng.nextBelow(max_patterns));
    for (int i = 0; i < n; ++i)
        rules.push_back(RegexRule{randomPattern(rng),
                                  static_cast<ReportCode>(i),
                                  rng.nextBool(0.2)});
    return compileRuleset(rules, "random");
}

/**
 * A chain of @p states 'a' states, from an AllInput start to a
 * reporting end: one connected component of @p states states.
 */
inline Nfa
chainNfa(std::size_t states)
{
    Nfa nfa("chain");
    for (std::size_t i = 0; i < states; ++i)
        nfa.addState(CharClass::single('a'),
                     i == 0 ? StartType::AllInput : StartType::None,
                     /*reporting=*/i + 1 == states, /*code=*/1);
    for (std::size_t i = 0; i + 1 < states; ++i)
        nfa.addEdge(static_cast<StateId>(i), static_cast<StateId>(i + 1));
    nfa.finalize();
    return nfa;
}

} // namespace pap

#endif // PAP_TESTS_WORKLOAD_HELPERS_H
