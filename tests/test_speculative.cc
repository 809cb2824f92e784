/**
 * @file
 * Speculative parallelization tests: correctness (composed reports
 * equal the sequential run regardless of prediction accuracy),
 * subset property of predictions, accuracy behaviour on memoryless
 * vs. long-lived automata, and the golden cap.
 */

#include <gtest/gtest.h>

#include "ap/ap_config.h"
#include "common/rng.h"
#include "nfa/glushkov.h"
#include "pap/speculative.h"
#include "workload_helpers.h"

namespace pap {
namespace {

ApConfig
tinyBoard(std::uint32_t half_cores)
{
    ApConfig cfg = ApConfig::d480(1);
    cfg.devicesPerRank = half_cores;
    cfg.halfCoresPerDevice = 1;
    return cfg;
}

TEST(Speculative, VerifiesOnRandomAutomata)
{
    Rng rng(404);
    for (int trial = 0; trial < 20; ++trial) {
        const Nfa nfa = randomNfa(rng, 6);
        const InputTrace input =
            randomTextTrace(rng, 2048 + rng.nextBelow(4096),
                            "abcdefgh\n ");
        SpeculationOptions opt;
        opt.warmupWindow =
            16 + static_cast<std::uint32_t>(rng.nextBelow(200));
        const SpeculationResult r = runSpeculative(
            nfa, input,
            tinyBoard(2 + static_cast<std::uint32_t>(rng.nextBelow(7))),
            opt);
        EXPECT_TRUE(r.verified) << "trial " << trial;
        EXPECT_GE(r.accuracy, 0.0);
        EXPECT_LE(r.accuracy, 1.0);
        EXPECT_GE(r.speedup, 1.0);
    }
}

TEST(Speculative, UnplaceableAutomatonIsCapacityExceeded)
{
    // A 25,000-state component exceeds a half-core: no speculation.
    const Nfa nfa = chainNfa(25000);
    const InputTrace input =
        InputTrace::fromString(std::string(4096, 'a'));
    const SpeculationResult r =
        runSpeculative(nfa, input, ApConfig::d480(4));
    EXPECT_EQ(r.status.code(), ErrorCode::CapacityExceeded)
        << r.status.toString();
    EXPECT_TRUE(r.reports.empty());
    EXPECT_FALSE(r.verified);
}

TEST(Speculative, MemorylessPatternsPredictPerfectly)
{
    // Short exact-match patterns carry no state across a warmup
    // window longer than the longest pattern: accuracy 1.0.
    const Nfa nfa =
        compileRuleset({{"abc", 1}, {"bcd", 2}, {"dd", 3}}, "mless");
    Rng rng(5);
    const InputTrace input = randomTextTrace(rng, 1 << 16, "abcd ");
    SpeculationOptions opt;
    opt.warmupWindow = 64;
    const SpeculationResult r =
        runSpeculative(nfa, input, tinyBoard(8), opt);
    EXPECT_TRUE(r.verified);
    EXPECT_DOUBLE_EQ(r.accuracy, 1.0);
    // Perfect speculation approaches ideal up to warmup + upload.
    EXPECT_GT(r.speedup, 0.6 * r.idealSpeedup);
}

TEST(Speculative, LatchedStarStateDefeatsSpeculation)
{
    // Once "begin" latches the .* state, every later segment's true
    // start set contains it, but a bounded warmup window started
    // after the latch can never predict it.
    const Nfa nfa =
        compileRuleset({{"begin.*end", 1}}, "latch");
    std::string text = "begin";
    text += std::string(8000, 'x');
    text += "end";
    const InputTrace input = InputTrace::fromString(text);
    SpeculationOptions opt;
    opt.warmupWindow = 32;
    const SpeculationResult r =
        runSpeculative(nfa, input, tinyBoard(8), opt);
    EXPECT_TRUE(r.verified);
    // Only segment 0 predicts correctly.
    EXPECT_NEAR(r.accuracy, 1.0 / r.numSegments, 1e-9);
    ASSERT_EQ(r.reports.size(), 1u);
    EXPECT_EQ(r.reports[0].offset, text.size() - 1);
}

TEST(Speculative, SingleSegmentFallsBackToSequential)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    const InputTrace input = InputTrace::fromString("abab");
    const SpeculationResult r =
        runSpeculative(nfa, input, tinyBoard(4));
    EXPECT_EQ(r.numSegments, 1u);
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);
    EXPECT_TRUE(r.verified);
}

TEST(Speculative, WiderWindowNeverLowersAccuracy)
{
    Rng rng(17);
    const Nfa nfa = compileRuleset(
        {{"ab(cd)+e", 1}, {"fgh{1,4}i", 2}, {"jkl", 3}}, "m");
    const InputTrace input = randomTextTrace(rng, 16384,
                                             "abcdefghijkl ");
    double prev = -1.0;
    for (const std::uint32_t window : {8u, 64u, 512u}) {
        SpeculationOptions opt;
        opt.warmupWindow = window;
        const SpeculationResult r =
            runSpeculative(nfa, input, tinyBoard(8), opt);
        EXPECT_TRUE(r.verified);
        EXPECT_GE(r.accuracy + 1e-12, prev) << "window " << window;
        prev = r.accuracy;
    }
}

} // namespace
} // namespace pap
