/**
 * @file
 * AP hardware model tests: board geometry, placement (bin packing,
 * routing hints, capacity checks) and the output report buffer. The
 * State Vector Cache has its own file, test_svc_policy.cc.
 */

#include <gtest/gtest.h>

#include "ap/ap_config.h"
#include "ap/placement.h"
#include "ap/report_buffer.h"
#include "nfa/glushkov.h"
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
    const Placement p = placeAutomaton(nfa, comps, ApConfig::d480(1));
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
        placeAutomaton(nfa, comps, ApConfig::d480(1), 3);
    EXPECT_EQ(p.halfCoresPerCopy, 3u);
    EXPECT_EQ(p.inputSegments(ApConfig::d480(1)), 5u);
    EXPECT_EQ(p.inputSegments(ApConfig::d480(4)), 21u);
}

TEST(Placement, BinPacksComponents)
{
    // 45k single-component states of ~9 each need two half-cores.
    const Nfa nfa = buildSpm(5025, 7, 1);
    const Components comps = connectedComponents(nfa);
    const Placement p = placeAutomaton(nfa, comps, ApConfig::d480(4));
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

TEST(ReportBuffer, TracksFlowAttribution)
{
    ReportBuffer buffer;
    buffer.push(3, ReportEvent{10, 1, 100});
    buffer.push(5, {ReportEvent{11, 2, 101}, ReportEvent{12, 3, 102}});
    EXPECT_EQ(buffer.totalEvents(), 3u);
    EXPECT_EQ(buffer.droppedEvents(), 0u);
    EXPECT_EQ(buffer.eventsFromFlow(3), 1u);
    EXPECT_EQ(buffer.eventsFromFlow(5), 2u);
    EXPECT_EQ(buffer.eventsFromFlow(9), 0u);
    EXPECT_EQ(buffer.entries()[1].event.code, 101u);
}

TEST(ReportBuffer, BoundedCapacityDropsAndAccounts)
{
    ReportBuffer buffer(2);
    EXPECT_EQ(buffer.capacity(), 2u);
    EXPECT_EQ(buffer.push(1, ReportEvent{10, 1, 100}), 0u);
    // Batch push that straddles the boundary: one accepted, one dropped.
    EXPECT_EQ(
        buffer.push(2, {ReportEvent{11, 2, 101}, ReportEvent{12, 3, 102}}),
        1u);
    EXPECT_TRUE(buffer.full());
    EXPECT_EQ(buffer.push(3, ReportEvent{13, 4, 103}), 1u);
    EXPECT_EQ(buffer.entries().size(), 2u);
    EXPECT_EQ(buffer.droppedEvents(), 2u);
    EXPECT_EQ(buffer.totalEvents(), 4u);
    // The retained prefix preserves arrival order.
    EXPECT_EQ(buffer.entries()[0].event.code, 100u);
    EXPECT_EQ(buffer.entries()[1].event.code, 101u);

    // Draining frees space; the drop count is cumulative.
    buffer.clear();
    EXPECT_FALSE(buffer.full());
    EXPECT_EQ(buffer.push(4, ReportEvent{14, 5, 104}), 0u);
    EXPECT_EQ(buffer.droppedEvents(), 2u);
}

} // namespace
} // namespace pap
