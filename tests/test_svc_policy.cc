/**
 * @file
 * State Vector Cache replacement policies and OverflowPolicy::Evict:
 * per-policy eviction order, re-upload classification, pinning, the
 * counter split (load_hits/load_misses, invalidate_misses), the typed
 * non-resident equal/isZero contract (the fault-matrix scenario: an
 * eviction landing between a save and a convergence check must be
 * recoverable, not fatal), capacity-boundary behavior under Evict,
 * cost-aware beating LRU on a skewed-lifetime workload, and byte
 * identity of reports across every overflow policy x replacement
 * policy x thread-count combination.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ap/ap_config.h"
#include "ap/state_vector_cache.h"
#include "ap/svc_policy.h"
#include "nfa/glushkov.h"
#include "pap/runner.h"

namespace pap {
namespace {

// --- Policy units ----------------------------------------------------

TEST(SvcPolicy, ParseNames)
{
    EXPECT_EQ(parseSvcPolicy("lru").value(), SvcPolicyKind::Lru);
    EXPECT_EQ(parseSvcPolicy("fifo").value(), SvcPolicyKind::Fifo);
    EXPECT_EQ(parseSvcPolicy("cost").value(), SvcPolicyKind::CostAware);
    const auto bad = parseSvcPolicy("mru");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidInput);
    EXPECT_STREQ(svcPolicyName(SvcPolicyKind::CostAware), "cost");
}

TEST(SvcPolicy, LruEvictsLeastRecentlyTouched)
{
    auto p = makeSvcPolicy(SvcPolicyKind::Lru);
    p->admit(0, 0, false);
    p->admit(1, 0, false);
    p->admit(2, 0, false);
    p->touch(0); // order now 1 < 2 < 0
    EXPECT_EQ(p->victim().value(), 1u);
    p->touch(1);
    EXPECT_EQ(p->victim().value(), 2u);
}

TEST(SvcPolicy, FifoIgnoresTouches)
{
    auto p = makeSvcPolicy(SvcPolicyKind::Fifo);
    p->admit(5, 0, false);
    p->admit(6, 0, false);
    p->touch(5);
    p->touch(5);
    EXPECT_EQ(p->victim().value(), 5u); // earliest admitted, still
    p->remove(5);
    EXPECT_EQ(p->victim().value(), 6u);
}

TEST(SvcPolicy, CostAwareEvictsCheapestThenMostRecent)
{
    auto p = makeSvcPolicy(SvcPolicyKind::CostAware);
    p->admit(0, 500, false);
    p->admit(1, 100, false); // cheapest: about to die
    p->admit(2, 900, false);
    EXPECT_EQ(p->victim().value(), 1u);
    p->setCost(1, 2000);
    EXPECT_EQ(p->victim().value(), 0u); // now flow 0 is cheapest

    // Equal costs: the most recently touched entry goes (under the
    // cyclic TDM schedule it is the farthest from its next access).
    auto q = makeSvcPolicy(SvcPolicyKind::CostAware);
    q->admit(0, 100, false);
    q->admit(1, 100, false);
    q->touch(0);
    EXPECT_EQ(q->victim().value(), 0u);
}

TEST(SvcPolicy, VictimIsDeterministic)
{
    // Admission order is a total tie-break for LRU and FIFO (ticks
    // are unique), and cost ties fall back to recency: the choice
    // never depends on hash-map iteration order.
    for (const auto kind : {SvcPolicyKind::Lru, SvcPolicyKind::Fifo}) {
        auto p = makeSvcPolicy(kind);
        p->admit(9, 0, false);
        p->admit(3, 0, false);
        p->admit(7, 0, false);
        EXPECT_EQ(p->victim().value(), 9u);
    }
    auto c = makeSvcPolicy(SvcPolicyKind::CostAware);
    c->admit(9, 50, false);
    c->admit(3, 50, false);
    c->admit(7, 50, false);
    // Equal cost, MRU tie-break: the last admitted (7) was "touched"
    // most recently by its admission.
    EXPECT_EQ(c->victim().value(), 7u);
}

TEST(SvcPolicy, AllPinnedHasNoVictim)
{
    auto p = makeSvcPolicy(SvcPolicyKind::Lru);
    p->admit(0, 0, true);
    p->admit(1, 0, true);
    const auto v = p->victim();
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.status().code(), ErrorCode::CapacityExceeded);
    p->admit(2, 0, false);
    EXPECT_EQ(p->victim().value(), 2u); // the only unpinned entry
}

// --- Cache units -----------------------------------------------------

TEST(SvcEvict, EvictionAndReuploadClassification)
{
    StateVectorCache svc(2, SvcPolicyKind::Lru);
    EXPECT_TRUE(svc.saveEvicting(0, {1}).ok());
    EXPECT_TRUE(svc.saveEvicting(1, {2}).ok());

    // Third admission evicts the LRU victim (flow 0).
    const auto adm = svc.saveEvicting(2, {3}).value();
    EXPECT_TRUE(adm.evicted);
    EXPECT_EQ(adm.victim, 0u);
    EXPECT_FALSE(adm.reupload); // first-ever admission: compulsory
    EXPECT_FALSE(svc.resident(0));
    EXPECT_TRUE(svc.evictedSinceAdmission(0));
    EXPECT_EQ(svc.counters().get("svc.evictions"), 1u);
    EXPECT_EQ(svc.counters().get("svc.reuploads"), 0u);

    // Bringing flow 0 back is a re-upload (victim: flow 1, now LRU).
    const auto back = svc.saveEvicting(0, {1}).value();
    EXPECT_TRUE(back.reupload);
    EXPECT_TRUE(back.evicted);
    EXPECT_EQ(back.victim, 1u);
    EXPECT_FALSE(svc.evictedSinceAdmission(0));
    EXPECT_EQ(svc.counters().get("svc.evictions"), 2u);
    EXPECT_EQ(svc.counters().get("svc.reuploads"), 1u);
}

TEST(SvcEvict, InvalidateIsNotAnEviction)
{
    StateVectorCache svc(2, SvcPolicyKind::Lru);
    EXPECT_TRUE(svc.saveEvicting(0, {1}).ok());
    EXPECT_TRUE(svc.invalidate(0)); // deliberate drop (flow died)
    // The same id coming back is a fresh compulsory admission.
    EXPECT_FALSE(svc.saveEvicting(0, {1}).value().reupload);
    EXPECT_EQ(svc.counters().get("svc.reuploads"), 0u);
}

TEST(SvcEvict, PinnedEntriesAreNeverVictims)
{
    StateVectorCache svc(2, SvcPolicyKind::Lru);
    EXPECT_TRUE(svc.saveEvicting(0, {1}, 0, /*pinned=*/true).ok());
    EXPECT_TRUE(svc.saveEvicting(1, {2}).ok());
    for (FlowId f = 2; f < 6; ++f) {
        const auto adm = svc.saveEvicting(f, {f}).value();
        EXPECT_TRUE(adm.evicted);
        EXPECT_NE(adm.victim, 0u) << "pinned flow evicted";
    }
    EXPECT_TRUE(svc.resident(0));

    // All residents pinned: admission fails recoverably.
    StateVectorCache tiny(1, SvcPolicyKind::CostAware);
    EXPECT_TRUE(tiny.saveEvicting(0, {1}, 0, true).ok());
    const auto full = tiny.saveEvicting(1, {2});
    ASSERT_FALSE(full.ok());
    EXPECT_EQ(full.status().code(), ErrorCode::CapacityExceeded);
    EXPECT_EQ(tiny.counters().get("svc.save_rejects"), 1u);
}

TEST(SvcCounters, InvalidateMissesAreCountedSeparately)
{
    StateVectorCache svc(4);
    EXPECT_TRUE(svc.save(0, {1}).ok());
    EXPECT_TRUE(svc.invalidate(0));
    // Not resident any more: must not inflate svc.invalidates.
    EXPECT_FALSE(svc.invalidate(0));
    EXPECT_FALSE(svc.invalidate(42));
    EXPECT_EQ(svc.counters().get("svc.invalidates"), 1u);
    EXPECT_EQ(svc.counters().get("svc.invalidate_misses"), 2u);
}

TEST(SvcCounters, LoadsSplitIntoHitsAndMisses)
{
    StateVectorCache svc(4);
    EXPECT_TRUE(svc.save(0, {1}).ok());
    EXPECT_TRUE(svc.load(0).ok());
    EXPECT_TRUE(svc.load(0).ok());
    EXPECT_FALSE(svc.load(9).ok());
    EXPECT_EQ(svc.counters().get("svc.load_hits"), 2u);
    EXPECT_EQ(svc.counters().get("svc.load_misses"), 1u);
    // svc.loads stays the sum, so existing dashboards keep working.
    EXPECT_EQ(svc.counters().get("svc.loads"), 3u);
}

TEST(SvcFaultMatrix, NonResidentCompareIsRecoverable)
{
    // The fault-matrix scenario behind the contract: an eviction (or
    // an injected evict-svc fault) lands between a flow's save and a
    // convergence check against it. The comparator must answer with a
    // typed error the scheduler can react to, not abort the process.
    StateVectorCache svc(2, SvcPolicyKind::Lru);
    EXPECT_TRUE(svc.saveEvicting(0, {1, 2}).ok());
    EXPECT_TRUE(svc.saveEvicting(1, {1, 2}).ok());
    EXPECT_TRUE(svc.equal(0, 1).value());

    EXPECT_TRUE(svc.saveEvicting(2, {3}).ok()); // evicts flow 0
    const auto cmp = svc.equal(0, 1);
    ASSERT_FALSE(cmp.ok());
    EXPECT_EQ(cmp.status().code(), ErrorCode::InvalidInput);
    EXPECT_EQ(svc.counters().get("svc.compare_misses"), 1u);

    const auto zero = svc.isZero(0);
    ASSERT_FALSE(zero.ok());
    EXPECT_EQ(zero.status().code(), ErrorCode::InvalidInput);
    EXPECT_EQ(svc.counters().get("svc.zero_check_misses"), 1u);

    // Recovery: re-uploading the vectors makes both answerable again
    // (restoring 0 evicts 1, the LRU victim, so 1 needs its own
    // re-upload before the comparison can be retried).
    EXPECT_TRUE(svc.saveEvicting(0, {1, 2}).value().reupload);
    EXPECT_TRUE(svc.saveEvicting(1, {1, 2}).value().reupload);
    EXPECT_TRUE(svc.equal(0, 1).value());
    EXPECT_FALSE(svc.isZero(0).value());
}

// --- End-to-end Evict runs -------------------------------------------

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
 * the cost-aware policy can exploit.
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
    opt.overflowPolicy = OverflowPolicy::Evict;
    const PapResult probe = runPap(nfa, input, tinyBoard(4), opt);
    ASSERT_TRUE(probe.verified);
    ASSERT_GT(probe.maxFlowsPerSegment, 0u);
    // Default capacity is the D480's 512-entry SVC; 16 flows + the
    // ASG flow fit with room to spare, so the live cache never evicts.
    EXPECT_EQ(probe.svcCapacity, 512u);
    EXPECT_EQ(probe.svcEvictions, 0u);
    EXPECT_EQ(probe.svcReuploads, 0u);
    // The live cache did run (compulsory misses at least).
    EXPECT_GT(probe.svcLoadHits + probe.svcLoadMisses, 0u);

    // Exactly flows + 1 ASG contexts: still no eviction (the 512th
    // flow of the paper's cache fits; only the 513th spills).
    PapOptions fits = opt;
    fits.svcCapacity = probe.maxFlowsPerSegment + 1;
    const PapResult f = runPap(nfa, input, tinyBoard(4), fits);
    ASSERT_TRUE(f.verified);
    EXPECT_EQ(f.svcEvictions, 0u);
    EXPECT_EQ(f.svcReuploads, 0u);

    // One context short: the policy must evict.
    PapOptions spills = opt;
    spills.svcCapacity = probe.maxFlowsPerSegment;
    const PapResult s = runPap(nfa, input, tinyBoard(4), spills);
    ASSERT_TRUE(s.verified);
    EXPECT_GT(s.svcEvictions, 0u);
    EXPECT_LT(s.svcHitRate, 1.0);
    // And the reports are untouched by the pressure.
    EXPECT_EQ(s.reports, probe.reports);
    EXPECT_EQ(f.reports, probe.reports);
}

TEST(EvictRun, CostAwareBeatsLruOnSkewedLifetimes)
{
    // Lifetimes spread 4..354 symbols with capacity for about half
    // the flows: LRU thrashes the cyclic TDM access pattern while the
    // cost-aware policy sacrifices dying flows, keeps the long-lived
    // ones resident, and pays fewer 1668-cycle re-uploads.
    // 'b' every 512 symbols keeps it frequent enough that the
    // partitioner picks it as the boundary (one flow per rule); the
    // 511-symbol 'c' runs are longer than any chain, so lifetimes are
    // the rule lengths.
    const Nfa nfa = chainRules(48, 350);
    const InputTrace input = chainTrace(16384, 511);

    PapOptions base;
    base.enableCcMerging = false;
    base.overflowPolicy = OverflowPolicy::Evict;
    base.svcCapacity = 24;

    PapOptions lru = base;
    lru.svcPolicy = SvcPolicyKind::Lru;
    PapOptions cost = base;
    cost.svcPolicy = SvcPolicyKind::CostAware;

    const PapResult rl = runPap(nfa, input, tinyBoard(4), lru);
    const PapResult rc = runPap(nfa, input, tinyBoard(4), cost);
    ASSERT_TRUE(rl.verified);
    ASSERT_TRUE(rc.verified);
    EXPECT_GT(rl.svcReuploads, 0u); // the workload does thrash LRU
    EXPECT_LT(rc.svcReuploads, rl.svcReuploads);
    EXPECT_GT(rc.svcHitRate, rl.svcHitRate);
    EXPECT_LE(rc.papCycles, rl.papCycles);
    // Same functional answer regardless of who was evicted when.
    EXPECT_EQ(rc.reports, rl.reports);
}

TEST(EvictRun, ReportsAreByteIdenticalAcrossPoliciesAndThreads)
{
    const Nfa nfa = chainRules(20, 120);
    const InputTrace input = chainTrace(8192, 511);

    PapOptions ref_opt;
    ref_opt.enableCcMerging = false;
    ref_opt.svcCapacity = 8; // overflows: 20 flows through 8 contexts
    ref_opt.overflowPolicy = OverflowPolicy::Batch;
    const PapResult ref = runPap(nfa, input, tinyBoard(4), ref_opt);
    ASSERT_TRUE(ref.verified);
    ASSERT_GT(ref.svcBatches, 1u); // the batch path really batched

    for (const auto policy :
         {OverflowPolicy::Batch, OverflowPolicy::Evict}) {
        for (const auto kind :
             {SvcPolicyKind::Lru, SvcPolicyKind::Fifo,
              SvcPolicyKind::CostAware}) {
            for (const std::uint32_t threads : {1u, 4u}) {
                PapOptions opt = ref_opt;
                opt.overflowPolicy = policy;
                opt.svcPolicy = kind;
                opt.threads = threads;
                const PapResult r =
                    runPap(nfa, input, tinyBoard(4), opt);
                const std::string what =
                    std::string(policy == OverflowPolicy::Evict
                                    ? "evict"
                                    : "batch") +
                    "/" + svcPolicyName(kind) + "/t" +
                    std::to_string(threads);
                ASSERT_TRUE(r.verified) << what;
                EXPECT_EQ(r.reports, ref.reports) << what;
                EXPECT_EQ(r.papReportEvents, ref.papReportEvents)
                    << what;
                EXPECT_EQ(r.seqReportEvents, ref.seqReportEvents)
                    << what;
                if (policy == OverflowPolicy::Evict) {
                    EXPECT_GT(r.svcEvictions, 0u) << what;
                }
            }
        }
    }
}

} // namespace
} // namespace pap
