/**
 * @file
 * End-to-end property tests: the composed parallel execution must
 * produce exactly the sequential report set, for arbitrary automata,
 * inputs, segment counts, and optimization subsets. This exercises
 * ranges, enumeration, CC/parent/ASG merging, convergence,
 * deactivation, FIV, and report dedup together.
 */

#include <gtest/gtest.h>

#include "ap/ap_config.h"
#include "common/rng.h"
#include "nfa/glushkov.h"
#include "pap/runner.h"
#include "workload_helpers.h"

namespace pap {
namespace {

/** Board with a configurable number of half-cores for testing. */
ApConfig
tinyBoard(std::uint32_t half_cores)
{
    ApConfig cfg = ApConfig::d480(1);
    cfg.devicesPerRank = half_cores;
    cfg.halfCoresPerDevice = 1;
    return cfg;
}

PapOptions
testOptions()
{
    PapOptions opt;
    opt.tdmQuantum = 16; // small quanta exercise many rounds
    return opt;
}

TEST(PapEquivalence, SimpleRulesetManySegments)
{
    const std::vector<RegexRule> rules = {
        {"abra", 1}, {"cad(ab)+ra", 2}, {"a.c", 3}, {"[x-z]{2,4}q", 4}};
    const Nfa nfa = compileRuleset(rules, "simple");
    Rng rng(7);
    const InputTrace input = randomTextTrace(rng, 4096, "abcdqrxyz ");
    for (const std::uint32_t hc : {2u, 3u, 8u}) {
        const PapResult r =
            runPap(nfa, input, tinyBoard(hc), testOptions());
        EXPECT_TRUE(r.verified);
        EXPECT_EQ(r.numSegments, hc);
    }
}

TEST(PapEquivalence, RandomAutomataSweep)
{
    Rng rng(1234);
    for (int trial = 0; trial < 30; ++trial) {
        const Nfa nfa = randomNfa(rng, /*max_patterns=*/6);
        const InputTrace input =
            randomTextTrace(rng, 1024 + rng.nextBelow(2048),
                            "abcdefgh\n ");
        PapOptions opt = testOptions();
        opt.tdmQuantum = 8 + static_cast<std::uint32_t>(
            rng.nextBelow(64));
        const PapResult r = runPap(
            nfa, input,
            tinyBoard(2 + static_cast<std::uint32_t>(rng.nextBelow(7))),
            opt);
        EXPECT_TRUE(r.verified) << "trial " << trial;
    }
}

TEST(PapEquivalence, EveryOptimizationDisabledInTurn)
{
    const std::vector<RegexRule> rules = {
        {"foo(bar)*", 10}, {"ba+z", 11}, {"q[uv]x", 12}, {"hello", 13}};
    const Nfa nfa = compileRuleset(rules, "ablate");
    Rng rng(99);
    const InputTrace input =
        randomTextTrace(rng, 6000, "fobarzquvxhel ");

    for (int knob = 0; knob < 6; ++knob) {
        PapOptions opt = testOptions();
        switch (knob) {
          case 0: opt.enableCcMerging = false; break;
          case 1: opt.enableParentMerging = false; break;
          case 2: opt.enableAsgMerging = false; break;
          case 3: opt.enableConvergenceChecks = false; break;
          case 4: opt.enableDeactivationChecks = false; break;
          case 5: opt.enableFiv = false; break;
        }
        const PapResult r = runPap(nfa, input, tinyBoard(4), opt);
        EXPECT_TRUE(r.verified) << "knob " << knob;
    }
}

TEST(PapEquivalence, AnchoredRulesOnlyMatchInFirstSegment)
{
    const std::vector<RegexRule> rules = {{"head", 1, /*anchored=*/true},
                                          {"tail", 2}};
    const Nfa nfa = compileRuleset(rules, "anchored");
    const std::string text = "headxxxxtailyyyyheadzzzztail";
    // Repeat to make the input long enough for several segments.
    std::string big;
    for (int i = 0; i < 40; ++i)
        big += text;
    const InputTrace input = InputTrace::fromString(big);
    const PapResult r = runPap(nfa, input, tinyBoard(4), testOptions());
    EXPECT_TRUE(r.verified);
    // The anchored rule fires once, at offset 3.
    std::uint64_t anchored_hits = 0;
    for (const auto &e : r.reports)
        if (e.code == 1)
            ++anchored_hits;
    EXPECT_EQ(anchored_hits, 1u);
}

TEST(PapEquivalence, SpeedupNeverBelowOne)
{
    Rng rng(5);
    const Nfa nfa = randomNfa(rng, 5);
    const InputTrace input = randomTextTrace(rng, 8192, "abcdefgh ");
    const PapResult r = runPap(nfa, input, tinyBoard(8), testOptions());
    EXPECT_TRUE(r.verified);
    EXPECT_GE(r.speedup, 1.0);
    EXPECT_LE(r.speedup, static_cast<double>(r.idealSpeedup) + 1e-9);
}

} // namespace
} // namespace pap
