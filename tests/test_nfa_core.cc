/**
 * @file
 * Nfa container tests: building, finalize invariants, append,
 * self-loops, text serialization round trips, and the structural
 * digest.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "nfa/builders.h"
#include "nfa/nfa.h"
#include "nfa/nfa_io.h"
#include "workload_helpers.h"

namespace pap {
namespace {

Nfa
tinyMachine()
{
    Nfa nfa("tiny");
    const StateId a =
        nfa.addState(CharClass::single('a'), StartType::AllInput);
    const StateId b = nfa.addState(CharClass::single('b'),
                                   StartType::None, true, 5);
    nfa.addEdge(a, b);
    nfa.addEdge(a, b); // duplicate, removed by finalize
    nfa.addEdge(b, b); // self loop
    nfa.finalize();
    return nfa;
}

TEST(NfaCore, FinalizeDeduplicatesAndSorts)
{
    const Nfa nfa = tinyMachine();
    EXPECT_EQ(nfa.size(), 2u);
    EXPECT_EQ(nfa.edgeCount(), 2u); // a->b once, b->b
    EXPECT_EQ(nfa[0].succ, (std::vector<StateId>{1}));
    EXPECT_TRUE(nfa.hasSelfLoop(1));
    EXPECT_FALSE(nfa.hasSelfLoop(0));
    EXPECT_EQ(nfa.startStates(), (std::vector<StateId>{0}));
    EXPECT_EQ(nfa.reportingStates(), (std::vector<StateId>{1}));
}

TEST(NfaCore, MutationClearsFinalized)
{
    Nfa nfa = tinyMachine();
    EXPECT_TRUE(nfa.finalized());
    nfa.mutableState(0).reporting = true;
    EXPECT_FALSE(nfa.finalized());
    nfa.finalize();
    EXPECT_EQ(nfa.reportingStates().size(), 2u);
}

TEST(NfaCore, AppendOffsetsIds)
{
    Nfa a = tinyMachine();
    const Nfa b = tinyMachine();
    const StateId offset = a.append(b);
    EXPECT_EQ(offset, 2u);
    a.finalize();
    EXPECT_EQ(a.size(), 4u);
    EXPECT_EQ(a[2].succ, (std::vector<StateId>{3}));
    EXPECT_EQ(a.startStates().size(), 2u);
}

TEST(NfaCore, ValidatePassesOnWellFormed)
{
    const Nfa nfa = tinyMachine();
    nfa.validate(); // must not panic
}

TEST(NfaIo, RoundTripTiny)
{
    const Nfa nfa = tinyMachine();
    std::stringstream ss;
    saveNfa(nfa, ss);
    const Nfa back = loadNfa(ss);
    ASSERT_EQ(back.size(), nfa.size());
    EXPECT_EQ(back.name(), "tiny");
    for (StateId q = 0; q < nfa.size(); ++q) {
        EXPECT_EQ(back[q].label, nfa[q].label);
        EXPECT_EQ(back[q].start, nfa[q].start);
        EXPECT_EQ(back[q].reporting, nfa[q].reporting);
        EXPECT_EQ(back[q].reportCode, nfa[q].reportCode);
        EXPECT_EQ(back[q].succ, nfa[q].succ);
    }
}

TEST(NfaIo, RoundTripRandomMachines)
{
    Rng rng(9);
    for (int trial = 0; trial < 10; ++trial) {
        const Nfa nfa = randomNfa(rng, 5);
        std::stringstream ss;
        saveNfa(nfa, ss);
        const Nfa back = loadNfa(ss);
        ASSERT_EQ(back.size(), nfa.size());
        for (StateId q = 0; q < nfa.size(); ++q) {
            ASSERT_EQ(back[q].label, nfa[q].label);
            ASSERT_EQ(back[q].succ, nfa[q].succ);
        }
    }
}

TEST(NfaIo, RejectsMalformedInput)
{
    auto load = [](const std::string &text) {
        std::stringstream ss(text);
        return loadNfa(ss);
    };
    EXPECT_THROW(load("garbage"), std::runtime_error);
    EXPECT_THROW(load("papsim-nfa 1\nnope"), std::runtime_error);
    EXPECT_THROW(load("papsim-nfa 1\nname x\nstates 2\nend\n"),
                 std::runtime_error);
    // Edge to a nonexistent state.
    std::string bad = "papsim-nfa 1\nname x\nstates 1\ns 0 ";
    bad += std::string(64, '0');
    bad += " 0 0 0\ne 0 5\nend\n";
    EXPECT_THROW(load(bad), std::runtime_error);
}

// --- Structural digest ---------------------------------------------

/**
 * The digest as serve checkpoints and manifests have always carried
 * it: each label word rebuilt from 64 test() calls, folded with the
 * literal hash-combine formula. automatonDigest must keep equal to it,
 * or checkpoints written before it stop resuming.
 */
std::uint64_t
bitByBitDigest(const Nfa &nfa)
{
    const auto mix = [](std::uint64_t h, std::uint64_t v) {
        h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
        h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
        h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
        return h ^ (h >> 31);
    };
    std::uint64_t h = 0x53455256ull;
    for (const char c : nfa.name())
        h = mix(h, static_cast<std::uint64_t>(c));
    h = mix(h, nfa.size());
    for (StateId q = 0; q < nfa.size(); ++q) {
        const NfaState &st = nfa[q];
        for (unsigned w = 0; w < 4; ++w) {
            std::uint64_t bits = 0;
            for (unsigned b = 0; b < 64; ++b)
                if (st.label.test(static_cast<Symbol>(w * 64 + b)))
                    bits |= std::uint64_t{1} << b;
            h = mix(h, bits);
        }
        h = mix(h, static_cast<std::uint64_t>(st.start));
        h = mix(h, (std::uint64_t{st.reporting} << 32) | st.reportCode);
        for (const StateId t : st.succ)
            h = mix(h, t);
    }
    return h;
}

TEST(NfaDigest, MatchesTheBitByBitFold)
{
    std::vector<Nfa> machines = {
        tinyMachine(),
        compileRuleset({{"ab.*cd", 1}, {"fgh", 2}}, "m"),
        compileRuleset({{"[^a]x.+y", 3}}, "wide"),
        buildHamming("needle", 2, 9, "hamming"),
    };
    Rng rng(5);
    for (int i = 0; i < 4; ++i)
        machines.push_back(randomNfa(rng, 6));
    for (const Nfa &nfa : machines)
        EXPECT_EQ(automatonDigest(nfa), bitByBitDigest(nfa)) << nfa.name();
}

TEST(NfaDigest, SeparatesAutomataOfEqualNameAndSize)
{
    // Same name, same state count, one label apart.
    const Nfa a = compileRuleset({{"ab.*cd", 1}, {"fgh", 2}}, "m");
    const Nfa b = compileRuleset({{"ab.*ce", 1}, {"fgh", 2}}, "m");
    ASSERT_EQ(a.size(), b.size());
    EXPECT_NE(automatonDigest(a), automatonDigest(b));
    // Same structure, another report code.
    const Nfa c = compileRuleset({{"ab.*cd", 1}, {"fgh", 3}}, "m");
    ASSERT_EQ(a.size(), c.size());
    EXPECT_NE(automatonDigest(a), automatonDigest(c));
    EXPECT_EQ(automatonDigest(a),
              automatonDigest(
                  compileRuleset({{"ab.*cd", 1}, {"fgh", 2}}, "m")));
}

} // namespace
} // namespace pap
