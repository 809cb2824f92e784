/**
 * @file
 * AP hardware model tests: board geometry and placement (bin
 * packing, routing hints, capacity checks). The State Vector Cache
 * has its own file, test_svc_policy.cc.
 */

#include <gtest/gtest.h>

#include "ap/ap_config.h"
#include "ap/placement.h"
#include "nfa/glushkov.h"
#include "workload_helpers.h"
#include "workloads/domain_gen.h"

namespace pap {
namespace {

TEST(ApConfig, D480Geometry)
{
    const ApConfig one = ApConfig::d480(1);
    EXPECT_EQ(one.totalHalfCores(), 16u);
    EXPECT_EQ(one.totalStes(), 16ull * 24576);
    const ApConfig four = ApConfig::d480(4);
    EXPECT_EQ(four.totalHalfCores(), 64u);
    EXPECT_EQ(four.svcEntriesPerDevice, 512u);
    EXPECT_DOUBLE_EQ(four.timing.symbolCycleNs, 7.5);
    EXPECT_EQ(four.timing.contextSwitchCycles, 3u);
    EXPECT_EQ(four.timing.stateVectorUploadCycles, 1668u);
    EXPECT_EQ(four.timing.fivDownloadCycles, 15u);
}

TEST(Placement, SmallMachineUsesOneHalfCore)
{
    const Nfa nfa = compileRuleset({{"abc", 1}, {"def", 2}}, "m");
    const Components comps = connectedComponents(nfa);
    const Placement p =
        placeAutomaton(nfa, comps, ApConfig::d480(1)).value();
    EXPECT_EQ(p.halfCoresPerCopy, 1u);
    EXPECT_EQ(p.inputSegments(ApConfig::d480(1)), 16u);
    EXPECT_EQ(p.inputSegments(ApConfig::d480(4)), 64u);
    EXPECT_EQ(p.stesPerHalfCore[0], nfa.size());
}

TEST(Placement, RoutingHintForcesExtraHalfCores)
{
    const Nfa nfa = compileRuleset({{"abc", 1}}, "m");
    const Components comps = connectedComponents(nfa);
    const Placement p =
        placeAutomaton(nfa, comps, ApConfig::d480(1), 3).value();
    EXPECT_EQ(p.halfCoresPerCopy, 3u);
    EXPECT_EQ(p.inputSegments(ApConfig::d480(1)), 5u);
    EXPECT_EQ(p.inputSegments(ApConfig::d480(4)), 21u);
}

TEST(Placement, ComponentLargerThanAHalfCoreIsCapacityExceeded)
{
    // 25,000 states in one component: above the 24,576 STEs of a
    // half-core, which transitions cannot leave.
    const Nfa nfa = chainNfa(25000);
    const Components comps = connectedComponents(nfa);
    ASSERT_EQ(comps.count, 1u);
    const Result<Placement> p =
        placeAutomaton(nfa, comps, ApConfig::d480(4));
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), ErrorCode::CapacityExceeded);
}

TEST(Placement, BinPacksComponents)
{
    // 45k single-component states of ~9 each need two half-cores.
    const Nfa nfa = buildSpm(5025, 7, 1);
    const Components comps = connectedComponents(nfa);
    const Placement p =
        placeAutomaton(nfa, comps, ApConfig::d480(4)).value();
    EXPECT_EQ(p.halfCoresPerCopy, 2u);
    std::uint64_t total = 0;
    for (const auto used : p.stesPerHalfCore) {
        EXPECT_LE(used, ApConfig::d480(4).stesPerHalfCore);
        total += used;
    }
    EXPECT_EQ(total, nfa.size());
    // Components map into existing half-cores.
    for (const auto hc : p.halfCoreOfComponent)
        EXPECT_LT(hc, p.halfCoresPerCopy);
}

} // namespace
} // namespace pap
