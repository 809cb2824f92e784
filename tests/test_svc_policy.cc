/**
 * @file
 * The State Vector Cache's residency model and the evicting overflow
 * path: the eviction order (cheapest restore cost, then most recently
 * touched), re-upload classification, pinning, the hit/miss counters,
 * the capacity boundary of the live cache (a fitting plan is never
 * simulated), byte identity of reports across capacities and thread
 * counts, and a pin of the modeled cycles and cache counters.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ap/ap_config.h"
#include "ap/state_vector_cache.h"
#include "nfa/glushkov.h"
#include "pap/runner.h"

namespace pap {
namespace {

// --- Eviction order --------------------------------------------------

TEST(SvcPolicy, CostAwareEvictsCheapestThenMostRecent)
{
    StateVectorCache svc(3);
    ASSERT_TRUE(svc.admit(0, 500).ok());
    ASSERT_TRUE(svc.admit(1, 100).ok()); // cheapest: about to die
    ASSERT_TRUE(svc.admit(2, 900).ok());
    EXPECT_EQ(svc.admit(3, 700).value().victim, 1u);
    EXPECT_TRUE(svc.load(0, 2000)); // flow 0 now costs the most
    EXPECT_EQ(svc.admit(4, 800).value().victim, 3u);

    // Equal costs: the most recently touched entry goes (under the
    // cyclic TDM schedule it is the farthest from its next access).
    StateVectorCache q(2);
    ASSERT_TRUE(q.admit(0, 100).ok());
    ASSERT_TRUE(q.admit(1, 100).ok());
    EXPECT_TRUE(q.load(0, 100));
    EXPECT_EQ(q.admit(2, 100).value().victim, 0u);
}

TEST(SvcPolicy, VictimIsDeterministic)
{
    // Every admission and touch takes a fresh tick, so equal costs
    // fall back to recency and the choice never depends on admission
    // ids or container order.
    StateVectorCache svc(3);
    ASSERT_TRUE(svc.admit(9, 50).ok());
    ASSERT_TRUE(svc.admit(3, 50).ok());
    ASSERT_TRUE(svc.admit(7, 50).ok());
    // The last admitted (7) was "touched" most recently.
    EXPECT_EQ(svc.admit(5, 50).value().victim, 7u);
}

TEST(SvcPolicy, AllPinnedHasNoVictim)
{
    StateVectorCache svc(2);
    ASSERT_TRUE(svc.admit(0, 0, /*pinned=*/true).ok());
    ASSERT_TRUE(svc.admit(1, 0, /*pinned=*/true).ok());
    const auto full = svc.admit(2, 0);
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.status().code(), ErrorCode::CapacityExceeded);
    EXPECT_FALSE(svc.resident(2));

    // Unpinning by invalidation frees a slot for an unpinned entry,
    // which is then the only possible victim.
    EXPECT_TRUE(svc.invalidate(1));
    ASSERT_TRUE(svc.admit(2, 0).ok());
    EXPECT_EQ(svc.admit(3, 0).value().victim, 2u);
}

// --- Cache units -----------------------------------------------------

TEST(StateVectorCache, ExactCapacityBoundary)
{
    // The D480 SVC holds exactly 512 contexts: the 512th flow fits,
    // the 513th evicts one.
    StateVectorCache svc(512);
    for (FlowId f = 0; f < 512; ++f) {
        const auto adm = svc.admit(f, 1000 + f);
        ASSERT_TRUE(adm.ok()) << "flow " << f;
        EXPECT_EQ(adm.value().victim, kInvalidFlow) << "flow " << f;
    }
    EXPECT_EQ(svc.counters().evictions, 0u);

    const auto spill = svc.admit(512, 5000);
    ASSERT_TRUE(spill.ok());
    EXPECT_EQ(spill.value().victim, 0u); // the cheapest restore
    EXPECT_TRUE(svc.resident(512));
    EXPECT_FALSE(svc.resident(0));
    EXPECT_EQ(svc.counters().evictions, 1u);

    // A deliberate drop opens a slot without another eviction.
    EXPECT_TRUE(svc.invalidate(1));
    ASSERT_TRUE(svc.admit(513, 5000).ok());
    EXPECT_EQ(svc.counters().evictions, 1u);
}

TEST(StateVectorCache, SaveLoadInvalidate)
{
    StateVectorCache svc(4);
    ASSERT_TRUE(svc.admit(0, 10).ok());
    ASSERT_TRUE(svc.admit(1, 10).ok());
    EXPECT_TRUE(svc.resident(0));
    EXPECT_TRUE(svc.load(0, 10));
    EXPECT_TRUE(svc.invalidate(1));
    EXPECT_FALSE(svc.resident(1));
    EXPECT_FALSE(svc.load(1, 10));
    EXPECT_EQ(svc.counters().loadHits, 1u);
    EXPECT_EQ(svc.counters().loadMisses, 1u);
}

TEST(SvcEvict, EvictionAndReuploadClassification)
{
    StateVectorCache svc(2);
    ASSERT_TRUE(svc.admit(0, 10).ok());
    ASSERT_TRUE(svc.admit(1, 20).ok());

    // Third admission evicts the cheaper victim (flow 0).
    const auto adm = svc.admit(2, 30).value();
    EXPECT_EQ(adm.victim, 0u);
    EXPECT_FALSE(adm.reupload); // first-ever admission: compulsory
    EXPECT_FALSE(svc.resident(0));
    EXPECT_EQ(svc.counters().evictions, 1u);
    EXPECT_EQ(svc.counters().reuploads, 0u);

    // Bringing flow 0 back is a re-upload (victim: flow 1, now the
    // cheapest resident).
    const auto back = svc.admit(0, 40).value();
    EXPECT_TRUE(back.reupload);
    EXPECT_EQ(back.victim, 1u);
    EXPECT_EQ(svc.counters().evictions, 2u);
    EXPECT_EQ(svc.counters().reuploads, 1u);
}

TEST(SvcEvict, InvalidateIsNotAnEviction)
{
    StateVectorCache svc(2);
    ASSERT_TRUE(svc.admit(0, 10).ok());
    EXPECT_TRUE(svc.invalidate(0)); // deliberate drop (flow died)
    // The same id coming back is a fresh compulsory admission.
    EXPECT_FALSE(svc.admit(0, 10).value().reupload);
    EXPECT_EQ(svc.counters().evictions, 0u);
    EXPECT_EQ(svc.counters().reuploads, 0u);
}

TEST(SvcEvict, PinnedEntriesAreNeverVictims)
{
    StateVectorCache svc(2);
    ASSERT_TRUE(svc.admit(0, 0, /*pinned=*/true).ok());
    ASSERT_TRUE(svc.admit(1, 100).ok());
    for (FlowId f = 2; f < 6; ++f) {
        const auto adm = svc.admit(f, 100 - f).value();
        EXPECT_NE(adm.victim, kInvalidFlow);
        EXPECT_NE(adm.victim, 0u) << "pinned flow evicted";
    }
    EXPECT_TRUE(svc.resident(0));

    // All residents pinned: admission fails recoverably.
    StateVectorCache tiny(1);
    ASSERT_TRUE(tiny.admit(0, 0, /*pinned=*/true).ok());
    const auto full = tiny.admit(1, 0);
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.status().code(), ErrorCode::CapacityExceeded);
}

TEST(SvcCounters, InvalidateMissesAreCountedSeparately)
{
    StateVectorCache svc(4);
    ASSERT_TRUE(svc.admit(0, 10).ok());
    EXPECT_TRUE(svc.invalidate(0));
    // Not resident any more: a second drop is a miss, and neither it
    // nor a drop of an unknown id counts as an access or an eviction.
    EXPECT_FALSE(svc.invalidate(0));
    EXPECT_FALSE(svc.invalidate(42));
    EXPECT_EQ(svc.counters().loadHits + svc.counters().loadMisses, 0u);
    EXPECT_EQ(svc.counters().evictions, 0u);
}

TEST(SvcCounters, LoadsSplitIntoHitsAndMisses)
{
    StateVectorCache svc(4);
    ASSERT_TRUE(svc.admit(0, 10).ok());
    EXPECT_TRUE(svc.load(0, 10));
    EXPECT_TRUE(svc.load(0, 10));
    EXPECT_FALSE(svc.load(9, 10));
    EXPECT_EQ(svc.counters().loadHits, 2u);
    EXPECT_EQ(svc.counters().loadMisses, 1u);
}

// --- End-to-end runs -------------------------------------------------

/** A board small enough to give a handful of segments. */
ApConfig
tinyBoard(std::uint32_t half_cores)
{
    ApConfig cfg = ApConfig::d480(1);
    cfg.devicesPerRank = half_cores;
    cfg.halfCoresPerDevice = 1;
    return cfg;
}

/**
 * A ruleset of @p count independent "b c{L} z" chains with lifetimes
 * spread over @p max_len, and a trace of 'c' runs separated by 'b'
 * boundaries. Every segment boundary lands on 'b' (the only other
 * symbol present), whose range is one path per rule, so enumeration
 * segments plan ~count flows; disabling component merging keeps them
 * distinct. Lifetime of a rule's flow is ~L symbols, so capacities
 * below the flow count create real replacement pressure with a skew
 * the eviction order can exploit.
 */
Nfa
chainRules(std::uint32_t count, std::uint32_t max_len)
{
    std::vector<RegexRule> rules;
    for (std::uint32_t i = 0; i < count; ++i) {
        // Deterministic lifetime spread: short and long chains
        // interleaved, so victim quality matters.
        const std::uint32_t len = 4 + (i * 37) % max_len;
        rules.push_back(
            {"bc{" + std::to_string(len) + "}z",
             static_cast<ReportCode>(i), false});
    }
    return compileRuleset(rules, "chains");
}

InputTrace
chainTrace(std::size_t len, std::size_t run)
{
    std::string text;
    text.reserve(len);
    while (text.size() < len) {
        text += 'b';
        text.append(std::min(run, len - text.size()), 'c');
    }
    return InputTrace::fromString(text);
}

TEST(EvictRun, CapacityBoundaryUnderEvict)
{
    const Nfa nfa = chainRules(16, 100);
    const InputTrace input = chainTrace(4096, 255);

    PapOptions opt;
    opt.enableCcMerging = false;
    const PapResult probe = runPap(nfa, input, tinyBoard(4), opt);
    ASSERT_TRUE(probe.verified);
    ASSERT_GT(probe.maxFlowsPerSegment, 0u);
    // Default capacity is the D480's 512-entry SVC; 16 flows + the
    // ASG flow fit with room to spare, and a plan that fits can never
    // evict, so the live cache is not simulated at all.
    EXPECT_EQ(probe.svcCapacity, 512u);
    EXPECT_FALSE(probe.svcOverflow);
    EXPECT_EQ(probe.svcEvictions, 0u);
    EXPECT_EQ(probe.svcReuploads, 0u);
    EXPECT_EQ(probe.svcLoadHits + probe.svcLoadMisses, 0u);

    // Exactly flows + 1 ASG contexts: still no lookups (the 512th
    // flow of the paper's cache fits; only the 513th spills).
    ApConfig fits = tinyBoard(4);
    fits.svcEntriesPerDevice = probe.maxFlowsPerSegment + 1;
    const PapResult f = runPap(nfa, input, fits, opt);
    ASSERT_TRUE(f.verified);
    EXPECT_FALSE(f.svcOverflow);
    EXPECT_EQ(f.svcLoadHits + f.svcLoadMisses, 0u);
    EXPECT_EQ(f.papCycles, probe.papCycles);

    // One context short: the cache must evict.
    ApConfig spills = tinyBoard(4);
    spills.svcEntriesPerDevice = probe.maxFlowsPerSegment;
    const PapResult s = runPap(nfa, input, spills, opt);
    ASSERT_TRUE(s.verified);
    EXPECT_TRUE(s.svcOverflow);
    EXPECT_GT(s.svcEvictions, 0u);
    EXPECT_LT(s.svcHitRate, 1.0);
    // And the reports are untouched by the pressure.
    EXPECT_EQ(s.reports, probe.reports);
    EXPECT_EQ(f.reports, probe.reports);
}

TEST(EvictRun, ReportsAreByteIdenticalAcrossPoliciesAndThreads)
{
    // SVC capacity only moves the modeled clock: every capacity, from
    // a roomy cache to one that holds only the pinned ASG flow, and
    // every thread count composes the same reports.
    const Nfa nfa = chainRules(20, 120);
    const InputTrace input = chainTrace(8192, 511);

    PapOptions ref_opt;
    ref_opt.enableCcMerging = false;
    const PapResult ref = runPap(nfa, input, tinyBoard(4), ref_opt);
    ASSERT_TRUE(ref.verified);
    ASSERT_FALSE(ref.svcOverflow);

    for (const std::uint32_t capacity : {8u, 2u, 1u}) {
        for (const std::uint32_t threads : {1u, 4u}) {
            ApConfig board = tinyBoard(4);
            board.svcEntriesPerDevice = capacity; // 20 flows + ASG
            PapOptions opt = ref_opt;
            opt.threads = threads;
            const PapResult r = runPap(nfa, input, board, opt);
            const std::string what = std::to_string(capacity) +
                                     " contexts, " +
                                     std::to_string(threads) + " threads";
            ASSERT_TRUE(r.verified) << what;
            EXPECT_TRUE(r.svcOverflow) << what;
            EXPECT_FALSE(r.degraded) << what;
            EXPECT_EQ(r.reports, ref.reports) << what;
            EXPECT_EQ(r.papReportEvents, ref.papReportEvents) << what;
            EXPECT_EQ(r.seqReportEvents, ref.seqReportEvents) << what;
            EXPECT_GT(r.svcLoadHits + r.svcLoadMisses, 0u) << what;
        }
    }
}

TEST(EvictRun, ModeledCyclesAndCountersArePinned)
{
    // Figures from the linear-scan victim search this cache's ordered
    // set replaced: the same order must give the same timeline.
    PapOptions opt;
    opt.enableCcMerging = false;
    ApConfig board = tinyBoard(4);
    board.svcEntriesPerDevice = 8;
    const PapResult r = runPap(chainRules(20, 120),
                               chainTrace(8192, 511), board, opt);
    ASSERT_TRUE(r.verified);
    EXPECT_EQ(r.papCycles, 5277u);
    EXPECT_EQ(r.svcEvictions, 39u);
    EXPECT_EQ(r.svcReuploads, 0u);
    EXPECT_EQ(r.svcLoadHits, 48u);
    EXPECT_EQ(r.svcLoadMisses, 63u);

    // Skewed lifetimes at half the flows' capacity re-upload contexts;
    // the golden cap hides papCycles, so pin the segment landmarks.
    board.svcEntriesPerDevice = 24;
    const PapResult s = runPap(chainRules(48, 350),
                               chainTrace(16384, 511), board, opt);
    ASSERT_TRUE(s.verified);
    EXPECT_EQ(s.svcEvictions, 96u);
    EXPECT_EQ(s.svcReuploads, 21u);
    EXPECT_EQ(s.svcLoadHits, 204u);
    EXPECT_EQ(s.svcLoadMisses, 168u);
    EXPECT_EQ(s.svcReuploadCycles, 21u * 1668u);
    const std::vector<Cycles> t_done = {4097, 26450, 26450, 26449};
    const std::vector<Cycles> t_resolve = {5765, 28150, 28182, 28214};
    ASSERT_EQ(s.segments.size(), t_done.size());
    for (std::size_t j = 0; j < t_done.size(); ++j) {
        EXPECT_EQ(s.segments[j].tDone, t_done[j]) << "segment " << j;
        EXPECT_EQ(s.segments[j].tResolve, t_resolve[j]) << "segment " << j;
    }
}

} // namespace
} // namespace pap
