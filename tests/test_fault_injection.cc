/**
 * @file
 * The hardened-execution contract: deterministic fault injection, the
 * fault matrix (every kind injected -> detected -> recovered with
 * byte-identical final reports), and the SVC-overflow policies, whose
 * evicting default leaves reports unchanged.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ap/ap_config.h"
#include "common/error.h"
#include "common/rng.h"
#include "nfa/glushkov.h"
#include "obs/metrics.h"
#include "pap/fault_injector.h"
#include "pap/runner.h"
#include "workload_helpers.h"

namespace pap {
namespace {

ApConfig
smallBoard(std::uint32_t half_cores)
{
    ApConfig cfg = ApConfig::d480(1);
    cfg.devicesPerRank = half_cores;
    cfg.halfCoresPerDevice = 1;
    return cfg;
}

struct Workload
{
    Nfa nfa;
    InputTrace input;
};

Workload
faultWorkload()
{
    Rng rng(91);
    return Workload{compileRuleset({{"ab.*cd", 1}, {"fgh", 2}}, "m"),
                    randomTextTrace(rng, 16384, "abcdfgh ")};
}

// --- Spec parsing ----------------------------------------------------

TEST(FaultSpec, ParsesKindsCountsAndRates)
{
    auto made =
        FaultInjector::fromSpec("corrupt-sv:3:0.5,drop-fiv", 7);
    ASSERT_TRUE(made.ok());
    FaultInjector &fi = made.value();
    EXPECT_EQ(fi.remaining(FaultKind::CorruptStateVector), 3u);
    EXPECT_EQ(fi.remaining(FaultKind::DropFiv), 1u);
    EXPECT_EQ(fi.remaining(FaultKind::DropReport), 0u);
    EXPECT_EQ(fi.injected(), 0u);
}

TEST(FaultSpec, AllArmsEveryHardwareKind)
{
    auto made = FaultInjector::fromSpec("all:4", 7);
    ASSERT_TRUE(made.ok());
    for (std::size_t k = 0; k < kWorkerFaultFirst; ++k)
        EXPECT_EQ(made.value().remaining(static_cast<FaultKind>(k)),
                  4u);
    // The host worker kinds only arm when named explicitly, so "all"
    // keeps its classic hardware-fault semantics.
    for (std::size_t k = kWorkerFaultFirst; k < kFaultKindCount; ++k)
        EXPECT_EQ(made.value().remaining(static_cast<FaultKind>(k)),
                  0u);
}

TEST(FaultSpec, WorkerKindsArmExplicitly)
{
    auto made =
        FaultInjector::fromSpec("stall-worker:2,crash-worker:3:0.5", 7);
    ASSERT_TRUE(made.ok());
    EXPECT_EQ(made.value().remaining(FaultKind::StallWorker), 2u);
    EXPECT_EQ(made.value().remaining(FaultKind::CrashWorker), 3u);
    EXPECT_EQ(made.value().remaining(FaultKind::DropFiv), 0u);
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    for (const char *bad :
         {"bogus", "corrupt-sv:x", "corrupt-sv:1:2.0",
          "corrupt-sv:1:0", "corrupt-sv:1:-1", "", ",", "all:"}) {
        auto made = FaultInjector::fromSpec(bad, 1);
        EXPECT_FALSE(made.ok()) << "spec '" << bad << "'";
        EXPECT_EQ(made.status().code(), ErrorCode::InvalidInput)
            << "spec '" << bad << "'";
    }
}

// --- Determinism -----------------------------------------------------

TEST(FaultInjection, SameSeedSameDecisions)
{
    const auto decisions = [](std::uint64_t seed) {
        auto fi =
            FaultInjector::fromSpec("corrupt-sv:5:0.3,evict-svc:5:0.3,"
                                    "drop-fiv:3:0.5",
                                    seed)
                .value();
        std::vector<int> out;
        for (FlowId f = 0; f < 200; ++f)
            out.push_back(static_cast<int>(fi.onContextSwitch(f)));
        for (int i = 0; i < 8; ++i)
            out.push_back(fi.onFivDownload() ? 1 : 0);
        return out;
    };
    EXPECT_EQ(decisions(42), decisions(42));
    EXPECT_NE(decisions(42), decisions(43));
}

TEST(FaultInjection, CorruptVectorTogglesExactlyOneState)
{
    FaultInjector fi(5);
    for (int round = 0; round < 32; ++round) {
        std::vector<StateId> v = {1, 3, 5};
        fi.corruptVector(v, 8);
        // One state toggled: size changes by one, stays sorted and
        // unique, and every member is in range.
        EXPECT_TRUE(v.size() == 2 || v.size() == 4);
        EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
        EXPECT_EQ(std::adjacent_find(v.begin(), v.end()), v.end());
        for (const StateId q : v)
            EXPECT_LT(q, 8u);
    }
}

TEST(FaultInjection, ReportDrainLosesTheSameEntriesInAnyEmissionOrder)
{
    // The engine's list and shift datapaths emit one step's reports in
    // different orders (discovery order vs state order). The same seed
    // must drop and truncate the same entries for either order, and
    // keep duplicates, whose count is the modeled report cost.
    const std::vector<ReportEvent> state_order = {
        {7, 2, 1}, {7, 5, 1}, {7, 9, 2}, {7, 9, 2}, {7, 12, 3},
        {8, 1, 1}, {8, 4, 2}, {8, 30, 2}, {9, 6, 1}, {9, 11, 4}};
    std::vector<ReportEvent> discovery_order = {
        state_order[4], state_order[1], state_order[3], state_order[0],
        state_order[2], state_order[7], state_order[5], state_order[6],
        state_order[9], state_order[8]};
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        auto a = FaultInjector::fromSpec(
                     "drop-report:1:1.0,truncate-report:1:1.0", seed)
                     .value();
        auto b = FaultInjector::fromSpec(
                     "drop-report:1:1.0,truncate-report:1:1.0", seed)
                     .value();
        std::vector<ReportEvent> kept_a = state_order;
        std::vector<ReportEvent> kept_b = discovery_order;
        const std::uint64_t lost_a = a.onReportDrain(kept_a, 3);
        const std::uint64_t lost_b = b.onReportDrain(kept_b, 3);
        EXPECT_GE(lost_a, 1u) << "seed " << seed;
        EXPECT_EQ(lost_a, lost_b) << "seed " << seed;
        EXPECT_EQ(kept_a.size() + lost_a, state_order.size());
        EXPECT_EQ(kept_a, kept_b) << "seed " << seed;
    }
}

TEST(FaultInjection, BudgetAndRateGateInjection)
{
    auto fi = FaultInjector::fromSpec("evict-svc:2", 9).value();
    int fired = 0;
    for (FlowId f = 0; f < 50; ++f)
        if (fi.onContextSwitch(f) == FaultInjector::SvAction::Evict)
            ++fired;
    EXPECT_EQ(fired, 2); // rate 1.0: budget drains immediately
    EXPECT_EQ(fi.remaining(FaultKind::EvictSvcEntry), 0u);
    EXPECT_EQ(fi.injected(), 2u);
    EXPECT_EQ(fi.injected(FaultKind::EvictSvcEntry), 2u);
}

// --- The fault matrix ------------------------------------------------

class FaultMatrix : public ::testing::TestWithParam<const char *>
{};

TEST_P(FaultMatrix, DetectedRecoveredAndByteIdentical)
{
    const Workload w = faultWorkload();
    const ApConfig board = smallBoard(8);

    PapOptions clean_opt;
    const PapResult clean = runPap(w.nfa, w.input, board, clean_opt);
    ASSERT_TRUE(clean.verified);

    const std::string spec = std::string(GetParam()) + ":32";
    auto fi = FaultInjector::fromSpec(spec, 11).value();
    PapOptions opt;
    opt.faultInjector = &fi;
    const PapResult r = runPap(w.nfa, w.input, board, opt);

    EXPECT_GT(fi.injected(), 0u) << spec;
    // The oracle caught the damage and repaired the result...
    EXPECT_FALSE(r.verified);
    EXPECT_TRUE(r.recovered);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(fi.detected(), fi.injected());
    EXPECT_EQ(fi.recovered(), fi.injected());
    // ...so the final reports are byte-identical to the fault-free run.
    EXPECT_EQ(r.reports, clean.reports);
    // Recovery replays the golden execution: never slower than 1.0x,
    // never faster either.
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FaultMatrix,
                         ::testing::Values("corrupt-sv", "evict-svc",
                                           "drop-report",
                                           "truncate-report",
                                           "drop-fiv"),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (auto &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(FaultInjection, FaultFreeInjectorChangesNothing)
{
    const Workload w = faultWorkload();
    const ApConfig board = smallBoard(8);
    const PapResult clean = runPap(w.nfa, w.input, board);

    FaultInjector fi(3); // armed with nothing
    PapOptions opt;
    opt.faultInjector = &fi;
    const PapResult r = runPap(w.nfa, w.input, board, opt);
    EXPECT_EQ(fi.injected(), 0u);
    EXPECT_TRUE(r.verified);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.reports, clean.reports);
    EXPECT_EQ(r.papCycles, clean.papCycles);
}

TEST(FaultInjection, MetricsRecordTheLoop)
{
    const Workload w = faultWorkload();
    obs::metrics().clear();
    auto fi = FaultInjector::fromSpec("corrupt-sv:32", 11).value();
    PapOptions opt;
    opt.faultInjector = &fi;
    const PapResult r = runPap(w.nfa, w.input, smallBoard(8), opt);
    ASSERT_TRUE(r.recovered);
    obs::MetricsRegistry &m = obs::metrics();
    EXPECT_EQ(m.counter("faults.injected"), fi.injected());
    EXPECT_EQ(m.counter("faults.injected.corrupt_sv"), fi.injected());
    EXPECT_EQ(m.counter("faults.detected"), fi.detected());
    EXPECT_EQ(m.counter("faults.recovered"), fi.recovered());
    EXPECT_EQ(m.counter("runner.verification_divergence"), 1u);
    EXPECT_EQ(m.counter("runner.recoveries"), 1u);
    EXPECT_EQ(m.counter("runner.degraded_runs"), 1u);
    obs::metrics().clear();
}

// --- SVC overflow policies -------------------------------------------

/**
 * Two-star one-component rule: segments need 2 enumeration flows plus
 * the ASG flow, so an SVC with fewer entries forces the overflow path.
 */
Workload
overflowWorkload()
{
    Rng rng(64);
    return Workload{compileRuleset({{"ab.*cd.*ef", 1}}, "m"),
                    randomTextTrace(rng, 8192, "abcdefgh")};
}

TEST(SvcOverflow, OverflowingRunMatchesRoomyRun)
{
    // SVC capacity is a timing-only fact: an overflowing plan runs
    // whole and the timeline's live cache evicts, so the reports (and
    // the composed entry census) match a run whose plan fits.
    const Workload w = overflowWorkload();
    ApConfig roomy = smallBoard(4);
    ApConfig tight = smallBoard(4);
    tight.svcEntriesPerDevice = 2; // the ASG flow + 1 of 2 enum flows

    const PapResult whole = runPap(w.nfa, w.input, roomy);
    const PapResult evicting = runPap(w.nfa, w.input, tight);

    ASSERT_TRUE(evicting.status.ok());
    EXPECT_TRUE(evicting.svcOverflow);
    EXPECT_EQ(evicting.svcBatches, 1u);
    EXPECT_GT(evicting.svcEvictions, 0u);
    EXPECT_FALSE(evicting.degraded);
    EXPECT_TRUE(evicting.verified);
    EXPECT_EQ(evicting.reports, whole.reports);
    EXPECT_EQ(evicting.papReportEvents, whole.papReportEvents);
    EXPECT_FALSE(whole.svcOverflow);
    EXPECT_EQ(whole.svcLoadHits + whole.svcLoadMisses, 0u);
    // Re-uploads only ever add cycles.
    EXPECT_GE(evicting.papCycles, whole.papCycles);
}

TEST(SvcOverflow, SequentialFallbackPolicyDegrades)
{
    const Workload w = overflowWorkload();
    ApConfig tight = smallBoard(4);
    tight.svcEntriesPerDevice = 2;
    PapOptions opt;
    opt.overflowPolicy = OverflowPolicy::SequentialFallback;
    const PapResult r = runPap(w.nfa, w.input, tight, opt);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.svcOverflow);
    EXPECT_TRUE(r.degraded);
    EXPECT_TRUE(r.verified);
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);
    const SequentialResult seq = runSequential(w.nfa, w.input);
    EXPECT_EQ(r.reports, seq.reports);
}

TEST(SvcOverflow, FailPolicyReturnsCapacityExceeded)
{
    const Workload w = overflowWorkload();
    ApConfig tight = smallBoard(4);
    tight.svcEntriesPerDevice = 2;
    PapOptions opt;
    opt.overflowPolicy = OverflowPolicy::Fail;
    const PapResult r = runPap(w.nfa, w.input, tight, opt);
    EXPECT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), ErrorCode::CapacityExceeded);
    EXPECT_FALSE(r.verified);
    EXPECT_TRUE(r.reports.empty());
    // Refused before it ran anything: no sequential fields.
    EXPECT_EQ(r.seqReportEvents, 0u);
    EXPECT_EQ(r.baselineCycles, 0u);
}

TEST(SvcOverflow, BatchingSurvivesFaultInjection)
{
    // Eviction and recovery compose: an overflowing run with faults
    // still ends byte-identical to the fault-free roomy run.
    const Workload w = overflowWorkload();
    ApConfig tight = smallBoard(4);
    tight.svcEntriesPerDevice = 2;
    const PapResult clean =
        runPap(w.nfa, w.input, smallBoard(4));

    auto fi = FaultInjector::fromSpec("all:8", 13).value();
    PapOptions opt;
    opt.faultInjector = &fi;
    const PapResult r = runPap(w.nfa, w.input, tight, opt);
    ASSERT_TRUE(r.status.ok());
    EXPECT_GT(fi.injected(), 0u);
    EXPECT_EQ(r.reports, clean.reports);
    EXPECT_EQ(fi.detected(), fi.recovered());
}

// --- Status/Result plumbing ------------------------------------------

TEST(StatusResult, BasicContract)
{
    Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.code(), ErrorCode::Ok);
    EXPECT_EQ(ok.toString(), "Ok");

    const Status bad =
        Status::error(ErrorCode::CapacityExceeded, "need ", 3, " slots");
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.code(), ErrorCode::CapacityExceeded);
    EXPECT_EQ(bad.message(), "need 3 slots");
    EXPECT_EQ(bad.toString(), "CapacityExceeded: need 3 slots");

    Result<int> value(17);
    EXPECT_TRUE(value.ok());
    EXPECT_EQ(value.value(), 17);
    EXPECT_EQ(value.valueOr(0), 17);

    Result<int> error(Status::error(ErrorCode::InvalidInput, "nope"));
    EXPECT_FALSE(error.ok());
    EXPECT_EQ(error.status().code(), ErrorCode::InvalidInput);
    EXPECT_EQ(error.valueOr(-1), -1);
}

} // namespace
} // namespace pap
