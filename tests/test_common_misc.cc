/**
 * @file
 * Tests for the RNG, the hash mixer, numeric helpers, and table
 * formatting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "common/file_lock.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "test_util.h"

namespace pap {
namespace {

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto x = a.next();
        EXPECT_EQ(x, b.next());
        (void)c.next();
    }
    Rng a2(42), c2(43);
    EXPECT_NE(a2.next(), c2.next());
}

TEST(Hash, MixerMatchesSplitMix64)
{
    // The published first outputs of SplitMix64 seeded with 0: fault
    // draws, retry jitter and RNG streams are fixed by this mixer.
    EXPECT_EQ(mix64(0), 0xE220A8397B1DCDAFull);
    EXPECT_EQ(mix64(kSplitMix64Gamma), 0x6E789E6AA1B965F4ull);
    EXPECT_EQ(hashCombine(0, 0), mix64(0));
}

TEST(Rng, NextBelowInBounds)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextBelow(1), 0u);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(2);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo && saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliRoughlyCalibrated)
{
    Rng rng(4);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(5);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
    std::vector<int> orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Stats, MeanGeomeanMinMax)
{
    const std::vector<double> xs = {1.0, 2.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::mean(xs), 7.0 / 3.0);
    EXPECT_NEAR(stats::geomean(xs), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats::minOf(xs), 1.0);
    EXPECT_DOUBLE_EQ(stats::maxOf(xs), 4.0);
    EXPECT_DOUBLE_EQ(stats::mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stats::geomean({}), 0.0);
}

TEST(Stats, Percentile)
{
    const std::vector<double> xs = {10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 10.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 40.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 50), 25.0);
}

TEST(Table, AlignsColumnsAndCountsRows)
{
    Table t({"Name", "Value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "12345"});
    EXPECT_EQ(t.rowCount(), 2u);
    const std::string s = t.toString();
    EXPECT_NE(s.find("Name"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(s.find("-----"), std::string::npos);
}

TEST(Table, Formatting)
{
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtCount(0), "0");
    EXPECT_EQ(fmtCount(999), "999");
    EXPECT_EQ(fmtCount(1000), "1,000");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
}

TEST(FileLock, SecondHolderFailsUntilReleased)
{
    const std::string path = uniqueTempPath("state.lock");
    {
        auto first = FileLock::acquire(path);
        ASSERT_TRUE(first.ok()) << first.status().toString();
        // Two opens in one process are two open file descriptions, so
        // they conflict like two processes would.
        const auto second = FileLock::acquire(path);
        ASSERT_FALSE(second.ok());
        EXPECT_EQ(second.status().code(), ErrorCode::LockHeld);
        EXPECT_TRUE(std::filesystem::exists(path));
    }
    // The holder removes the lock file when it lets go.
    EXPECT_FALSE(std::filesystem::exists(path));
    auto again = FileLock::acquire(path);
    EXPECT_TRUE(again.ok()) << again.status().toString();
}

} // namespace
} // namespace pap
