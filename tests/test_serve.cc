/**
 * @file
 * Robustness contract of the serve subsystem: per-stream results are
 * byte-identical to one-shot runs for any chunking and thread count,
 * admission sheds with typed errors at the configured caps, faulty
 * streams ride the deadline -> retry -> oracle ladder (and quarantine)
 * without touching siblings, hot swaps keep in-flight streams on
 * their generation, and drain/resume round-trips through PAPCKPT.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "common/rng.h"
#include "nfa/glushkov.h"
#include "obs/metrics.h"
#include "pap/exec/pipeline.h"
#include "pap/fault_injector.h"
#include "pap/runner.h"
#include "serve/fair_queue.h"
#include "serve/manifest.h"
#include "serve/server.h"
#include "test_util.h"
#include "workload_helpers.h"

namespace pap {
namespace serve {
namespace {

Nfa
serveRuleset()
{
    return compileRuleset(
        {{"ab.*cd", 1}, {"fgh", 2}, {"h[af]+g", 3}}, "serve-rules");
}

Nfa
otherRuleset()
{
    return compileRuleset({{"abc", 7}, {"dd+", 8}}, "other-rules");
}

InputTrace
serveTrace(std::size_t len, std::uint64_t seed)
{
    Rng rng(seed);
    return randomTextTrace(rng, len, "abcdfgh ");
}

std::vector<ReportEvent>
sequentialReports(const Nfa &nfa, const InputTrace &trace)
{
    return runSequential(nfa, trace).reports;
}

ServeOptions
smallOptions()
{
    ServeOptions opt;
    opt.threads = 2;
    opt.chunkSymbols = 512;
    opt.boundaryLookback = 64;
    return opt;
}

/** Open, feed in @p piece-sized slices, finish. */
Result<SessionReport>
streamAll(Server &server, const std::string &tenant,
          const InputTrace &trace, std::size_t piece)
{
    const Result<SessionId> opened = server.open(tenant);
    if (!opened.ok())
        return opened.status();
    for (std::size_t at = 0; at < trace.size(); at += piece) {
        const std::size_t len = std::min(piece, trace.size() - at);
        const Status fed =
            server.feed(opened.value(), trace.ptr(at), len);
        if (!fed.ok())
            return fed;
    }
    return server.finish(opened.value());
}

// ---------------------------------------------------------------------
// FairQueue

TEST(FairQueue, EqualWeightsAlternate)
{
    FairQueue q;
    for (std::uint64_t i = 0; i < 4; ++i) {
        q.push("a", {1, i});
        q.push("b", {2, i});
    }
    std::vector<std::uint64_t> order;
    while (auto t = q.pop())
        order.push_back(t->session);
    ASSERT_EQ(order.size(), 8u);
    // Strict alternation: neither tenant is ever served twice in a
    // row while the other has work.
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_NE(order[i], order[i - 1]) << "at pop " << i;
}

TEST(FairQueue, WeightsSetShares)
{
    FairQueue q;
    q.setWeight("heavy", 2.0);
    for (std::uint64_t i = 0; i < 30; ++i) {
        q.push("heavy", {1, i});
        q.push("light", {2, i});
    }
    std::size_t heavy = 0, light = 0;
    for (int i = 0; i < 15; ++i) {
        const auto t = q.pop();
        ASSERT_TRUE(t.has_value());
        (t->session == 1 ? heavy : light) += 1;
    }
    EXPECT_EQ(heavy, 10u);
    EXPECT_EQ(light, 5u);
}

TEST(FairQueue, TinyWeightStaysWorkConserving)
{
    FairQueue q;
    q.setWeight("slow", 1e-6);
    q.push("slow", {1, 0});
    const auto t = q.pop();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->session, 1u);
    EXPECT_TRUE(q.empty());
}

TEST(FairQueue, EraseSessionDropsOnlyThatStream)
{
    FairQueue q;
    q.push("a", {1, 0});
    q.push("a", {2, 0});
    q.push("a", {1, 1});
    q.push("b", {3, 0});
    q.eraseSession(1);
    EXPECT_EQ(q.size(), 2u);
    std::vector<std::uint64_t> left;
    while (auto t = q.pop())
        left.push_back(t->session);
    EXPECT_EQ(left, (std::vector<std::uint64_t>{2, 3}));
}

// ---------------------------------------------------------------------
// Retry backoff (satellite: seeded jitter)

TEST(RetryBackoff, JitterIsDeterministicAndBounded)
{
    exec::HardenedExecOptions opt;
    opt.backoffBaseMs = 1;
    opt.backoffCapMs = 64;
    opt.jitterSeed = 42;
    for (std::uint32_t retry = 0; retry < 12; ++retry) {
        for (std::size_t index = 0; index < 8; ++index) {
            const auto a = exec::retryBackoff(opt, index, retry);
            const auto b = exec::retryBackoff(opt, index, retry);
            EXPECT_EQ(a, b) << "same inputs must draw the same delay";
            const std::uint64_t determ = std::min<std::uint64_t>(
                static_cast<std::uint64_t>(opt.backoffBaseMs)
                    << std::min(retry, 20u),
                opt.backoffCapMs);
            EXPECT_LE(static_cast<std::uint64_t>(a.count()), determ);
            EXPECT_GE(static_cast<std::uint64_t>(a.count()),
                      determ > 1 ? determ / 2 : determ);
        }
    }
}

TEST(RetryBackoff, DifferentSeedsDecorrelate)
{
    exec::HardenedExecOptions a, b;
    a.backoffCapMs = b.backoffCapMs = 1024;
    a.backoffBaseMs = b.backoffBaseMs = 1024;
    a.jitterSeed = 1;
    b.jitterSeed = 2;
    int differ = 0;
    for (std::size_t index = 0; index < 16; ++index)
        differ += exec::retryBackoff(a, index, 0) !=
                  exec::retryBackoff(b, index, 0);
    EXPECT_GT(differ, 0) << "seed must influence the draw";
}

// ---------------------------------------------------------------------
// Correctness: serve == one-shot

TEST(Serve, ReportsMatchSequentialForAnyFeedGranularity)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(16384, 11);
    const auto expected = sequentialReports(nfa, trace);
    for (const std::size_t piece : {std::size_t(16384),
                                    std::size_t(4096),
                                    std::size_t(37)}) {
        Server server(smallOptions(), nfa);
        ASSERT_TRUE(server.status().ok());
        const auto report = streamAll(server, "t", trace, piece);
        ASSERT_TRUE(report.ok()) << report.status().toString();
        EXPECT_EQ(report.value().reports, expected)
            << "feed piece " << piece;
        EXPECT_EQ(report.value().symbols, trace.size());
        EXPECT_GT(report.value().chunks, 1u);
    }
}

TEST(Serve, ReportsMatchForAnyThreadCountAndChunk)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(12000, 23);
    const auto expected = sequentialReports(nfa, trace);
    for (const std::uint32_t threads : {1u, 4u}) {
        for (const std::uint32_t chunk : {256u, 2048u}) {
            ServeOptions opt = smallOptions();
            opt.threads = threads;
            opt.chunkSymbols = chunk;
            Server server(opt, nfa);
            const auto report = streamAll(server, "t", trace, 1000);
            ASSERT_TRUE(report.ok()) << report.status().toString();
            EXPECT_EQ(report.value().reports, expected)
                << threads << " threads, chunk " << chunk;
        }
    }
}

TEST(Serve, ConcurrentStreamsAreIndependent)
{
    const Nfa nfa = serveRuleset();
    ServeOptions opt = smallOptions();
    opt.threads = 4;
    Server server(opt, nfa);
    std::vector<InputTrace> traces;
    std::vector<std::vector<ReportEvent>> expected;
    for (std::uint64_t i = 0; i < 6; ++i) {
        traces.push_back(serveTrace(6000 + 700 * i, 100 + i));
        expected.push_back(sequentialReports(nfa, traces.back()));
    }
    std::vector<std::thread> clients;
    std::vector<Status> failures(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i)
        clients.emplace_back([&, i] {
            const auto report = streamAll(
                server, "tenant" + std::to_string(i % 3), traces[i],
                777);
            if (!report.ok()) {
                failures[i] = report.status();
                return;
            }
            if (report.value().reports != expected[i])
                failures[i] = Status::error(ErrorCode::InvalidInput,
                                            "report mismatch");
        });
    for (auto &c : clients)
        c.join();
    for (std::size_t i = 0; i < failures.size(); ++i)
        EXPECT_TRUE(failures[i].ok())
            << "stream " << i << ": " << failures[i].toString();
    EXPECT_EQ(server.stats().completed, traces.size());
}

TEST(Serve, BuildsOneFlowPlanPerRulesetAndBoundarySymbol)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(16384, 91);
    const auto expected = sequentialReports(nfa, trace);
    ServeOptions opt = smallOptions();
    opt.threads = 4;
    Server server(opt, nfa);
    const auto built = [] {
        return obs::metrics().counter("prepared.plans.built");
    };
    const std::uint64_t built0 = built();

    const auto first = streamAll(server, "t", trace, 1000);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    EXPECT_EQ(first.value().reports, expected);
    // One plan per distinct chunk-boundary symbol: at least one, at
    // most the trace's 8-symbol alphabet, far fewer than the chunks.
    const std::uint64_t plans = built() - built0;
    EXPECT_GE(plans, 1u);
    EXPECT_LE(plans, 8u);
    EXPECT_GT(first.value().chunks, 4 * plans);

    // The chunker cuts the same trace at the same symbols, so
    // concurrent sessions on the same ruleset reuse every plan.
    std::vector<std::thread> clients;
    std::vector<Status> failures(3);
    for (std::size_t i = 0; i < failures.size(); ++i)
        clients.emplace_back([&, i] {
            const auto report = streamAll(server, "t", trace, 700);
            if (!report.ok())
                failures[i] = report.status();
            else if (report.value().reports != expected)
                failures[i] = Status::error(ErrorCode::InvalidInput,
                                            "report mismatch");
        });
    for (auto &c : clients)
        c.join();
    for (const Status &f : failures)
        EXPECT_TRUE(f.ok()) << f.toString();
    EXPECT_EQ(built() - built0, plans);

    // A swapped-in generation is a new ruleset with its own table.
    ASSERT_TRUE(server.swap(nfa).ok());
    ASSERT_TRUE(streamAll(server, "t", trace, 1000).ok());
    EXPECT_EQ(built() - built0, 2 * plans);
}

TEST(Serve, EmptyStreamCompletesWithNoReports)
{
    Server server(smallOptions(), serveRuleset());
    const auto id = server.open("t");
    ASSERT_TRUE(id.ok());
    const auto report = server.finish(id.value());
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_TRUE(report.value().reports.empty());
    EXPECT_EQ(report.value().symbols, 0u);
}

// ---------------------------------------------------------------------
// Admission control

TEST(Serve, AdmissionShedsTypedAtGlobalCap)
{
    ServeOptions opt = smallOptions();
    opt.maxSessions = 2;
    Server server(opt, serveRuleset());
    const auto a = server.open("t1");
    const auto b = server.open("t2");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    const auto c = server.open("t3");
    ASSERT_FALSE(c.ok());
    EXPECT_EQ(c.status().code(), ErrorCode::ResourceExhausted);
    EXPECT_EQ(server.stats().shed, 1u);
    // Finishing a stream frees its slot.
    ASSERT_TRUE(server.finish(a.value()).ok());
    EXPECT_TRUE(server.open("t3").ok());
}

TEST(Serve, AdmissionShedsTypedAtTenantCap)
{
    ServeOptions opt = smallOptions();
    opt.tenantSessionCap = 1;
    Server server(opt, serveRuleset());
    ASSERT_TRUE(server.open("alice").ok());
    const auto second = server.open("alice");
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), ErrorCode::ResourceExhausted);
    // Another tenant is unaffected by alice's cap.
    EXPECT_TRUE(server.open("bob").ok());
}

TEST(Serve, DrainingShedsNewSessions)
{
    Server server(smallOptions(), serveRuleset());
    ASSERT_TRUE(server.drain().ok());
    const auto opened = server.open("t");
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), ErrorCode::ResourceExhausted);
}

TEST(Serve, SessionDeadlineExpiresTyped)
{
    ServeOptions opt = smallOptions();
    opt.sessionDeadlineMs = 5.0;
    Server server(opt, serveRuleset());
    const auto id = server.open("t");
    ASSERT_TRUE(id.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const Symbol byte = 'a';
    const Status fed = server.feed(id.value(), &byte, 1);
    ASSERT_FALSE(fed.ok());
    EXPECT_EQ(fed.code(), ErrorCode::DeadlineExceeded);
}

// ---------------------------------------------------------------------
// Fault ladder

TEST(Serve, StalledChunksRecoverViaOracleAndBackpressureHolds)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(256, 5);
    const auto expected = sequentialReports(nfa, trace);

    auto injector = FaultInjector::fromSpec("stall-worker:100000:1.0", 9);
    ASSERT_TRUE(injector.ok());
    ServeOptions opt;
    opt.threads = 1;
    opt.sessionWindow = 1;
    opt.chunkSymbols = 64;
    opt.boundaryLookback = 8;
    opt.quarantineAfter = 1000; // recovery, not quarantine, today
    opt.pap.segmentDeadlineMs = 15.0;
    opt.pap.faultInjector = &injector.value();
    Server server(opt, nfa);

    const auto id = server.open("t");
    ASSERT_TRUE(id.ok());
    bool saw_backpressure = false;
    for (std::size_t at = 0; at < trace.size(); at += 64) {
        for (;;) {
            const auto fed =
                server.tryFeed(id.value(), trace.ptr(at), 64);
            ASSERT_TRUE(fed.ok()) << fed.status().toString();
            if (fed.value())
                break;
            saw_backpressure = true;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }
    const auto report = server.finish(id.value());
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report.value().reports, expected);
    EXPECT_GT(report.value().chunksRecovered, 0u);
    EXPECT_TRUE(saw_backpressure)
        << "a 1-chunk window over stalling workers must push back";
    EXPECT_GT(injector.value().recovered(), 0u);
}

TEST(Serve, QuarantineIsolatesPoisonedStreams)
{
    const Nfa nfa = serveRuleset();
    // rate selects sessions by a pure hash of (seed, session id), so
    // with session ids 1..6 this seed deterministically poisons some
    // streams and leaves others clean.
    auto injector =
        FaultInjector::fromSpec("crash-worker:1000000:0.4", 3);
    ASSERT_TRUE(injector.ok());
    ServeOptions opt = smallOptions();
    opt.threads = 4;
    opt.quarantineAfter = 2;
    opt.pap.faultInjector = &injector.value();
    Server server(opt, nfa);

    std::vector<InputTrace> traces;
    std::vector<SessionId> ids;
    for (std::uint64_t i = 0; i < 6; ++i) {
        traces.push_back(serveTrace(4000, 300 + i));
        const auto id = server.open("tenant" + std::to_string(i));
        ASSERT_TRUE(id.ok());
        ids.push_back(id.value());
    }
    int quarantined = 0, clean = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        Status fed;
        for (std::size_t at = 0;
             at < traces[i].size() && fed.ok(); at += 512)
            fed = server.feed(ids[i], traces[i].ptr(at),
                              std::min<std::size_t>(
                                  512, traces[i].size() - at));
        const auto report = server.finish(ids[i]);
        const Status st = report.ok() ? Status() : report.status();
        if (!fed.ok() || !st.ok()) {
            const ErrorCode code =
                fed.ok() ? st.code() : fed.code();
            EXPECT_EQ(code, ErrorCode::StreamQuarantined)
                << "stream " << i << " failed untyped";
            ++quarantined;
        } else {
            // A sibling of a quarantined stream must stay exact.
            EXPECT_EQ(report.value().reports,
                      sequentialReports(nfa, traces[i]))
                << "stream " << i;
            ++clean;
        }
    }
    EXPECT_GT(quarantined, 0) << "pick another fault seed";
    EXPECT_GT(clean, 0) << "pick another fault seed";
    EXPECT_EQ(server.stats().quarantined,
              static_cast<std::uint64_t>(quarantined));
}

TEST(Serve, DisconnectFaultAbortsOnlyVictims)
{
    const Nfa nfa = serveRuleset();
    auto injector =
        FaultInjector::fromSpec("disconnect-client:2:0.4", 17);
    ASSERT_TRUE(injector.ok());
    ServeOptions opt = smallOptions();
    opt.pap.faultInjector = &injector.value();
    Server server(opt, nfa);

    int dropped = 0, completed = 0;
    for (std::uint64_t i = 0; i < 8; ++i) {
        const InputTrace trace = serveTrace(3000, 500 + i);
        const auto report = streamAll(server, "t", trace, 700);
        if (report.ok()) {
            EXPECT_EQ(report.value().reports,
                      sequentialReports(nfa, trace));
            ++completed;
        } else {
            EXPECT_EQ(report.status().code(), ErrorCode::Cancelled);
            ++dropped;
        }
    }
    EXPECT_GT(dropped, 0) << "pick another fault seed";
    EXPECT_GT(completed, 0) << "pick another fault seed";
    EXPECT_LE(dropped, 2) << "budget must cap disconnects";
    EXPECT_EQ(server.stats().aborted,
              static_cast<std::uint64_t>(dropped));
}

// ---------------------------------------------------------------------
// Hot swap

TEST(Serve, SwapKeepsInFlightStreamsOnTheirGeneration)
{
    const Nfa first = serveRuleset();
    const Nfa second = otherRuleset();
    const InputTrace trace_a = serveTrace(8000, 41);
    Rng rng(42);
    const InputTrace trace_b = randomTextTrace(rng, 8000, "abcd ");

    Server server(smallOptions(), first);
    const auto a = server.open("t");
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(
        server.feed(a.value(), trace_a.ptr(0), 4000).ok());

    const auto swapped = server.swap(second);
    ASSERT_TRUE(swapped.ok()) << swapped.status().toString();
    EXPECT_EQ(swapped.value(), 2u);
    EXPECT_EQ(server.generation(), 2u);

    const auto b = server.open("t");
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(server
                    .feed(b.value(), trace_b.ptr(0), trace_b.size())
                    .ok());
    ASSERT_TRUE(
        server.feed(a.value(), trace_a.ptr(4000), 4000).ok());

    const auto report_a = server.finish(a.value());
    const auto report_b = server.finish(b.value());
    ASSERT_TRUE(report_a.ok());
    ASSERT_TRUE(report_b.ok());
    // The pre-swap stream finished on the ruleset it opened with.
    EXPECT_EQ(report_a.value().generation, 1u);
    EXPECT_EQ(report_a.value().reports,
              sequentialReports(first, trace_a));
    EXPECT_EQ(report_b.value().generation, 2u);
    EXPECT_EQ(report_b.value().reports,
              sequentialReports(second, trace_b));
}

TEST(Serve, SwapDuringStreamFaultBumpsGenerationHarmlessly)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(8000, 77);
    auto injector =
        FaultInjector::fromSpec("swap-during-stream:3:1.0", 1);
    ASSERT_TRUE(injector.ok());
    ServeOptions opt = smallOptions();
    opt.pap.faultInjector = &injector.value();
    Server server(opt, nfa);
    const auto report = streamAll(server, "t", trace, 1024);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report.value().reports, sequentialReports(nfa, trace));
    EXPECT_GT(server.generation(), 1u)
        << "the injected swap must reinstall a new generation";
}

// ---------------------------------------------------------------------
// SVC overflow

TEST(Serve, SvcOverflowStreamMatchesSequentialAfterResume)
{
    // Every chunk after the first needs 2 enumeration flows plus the
    // ASG flow: three contexts, more than a 2-entry SVC holds. SVC
    // capacity never splits a plan, and serve models no timing, so
    // the chunks run their whole plans, as a one-shot run does at any
    // capacity.
    Rng rng(64);
    const Nfa nfa = compileRuleset({{"ab.*cd.*ef", 1}}, "m");
    const InputTrace trace = randomTextTrace(rng, 8192, "abcdefgh");
    const auto expected = sequentialReports(nfa, trace);
    const UniqueTempDir scratch("serve_svc_pap");
    ServeOptions opt = smallOptions();
    opt.checkpointDir = scratch.path();
    obs::MetricsRegistry &m = obs::metrics();
    const auto enum_flows0 = m.counter("segment_sim.flows.enum");
    const auto enum_chunks0 = m.counter("segment_sim.flows.asg");
    {
        Server server(opt, nfa);
        const auto id = server.open("t", "k");
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(
            server.feed(id.value(), trace.ptr(0), trace.size()).ok());
        ASSERT_TRUE(server.drain().ok());
    }
    // Every enumeration chunk ran its ASG flow beside at least its
    // two enumeration flows.
    const auto enum_chunks =
        m.counter("segment_sim.flows.asg") - enum_chunks0;
    EXPECT_GT(enum_chunks, 0u);
    EXPECT_GE(m.counter("segment_sim.flows.enum") - enum_flows0,
              2 * enum_chunks)
        << "a chunk's plan was split";

    Server server(opt, nfa);
    const auto resumed = server.resume("t", "k");
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    EXPECT_EQ(resumed.value().offset, trace.size());
    const auto report = server.finish(resumed.value().id);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report.value().reports, expected);
}

// ---------------------------------------------------------------------
// Drain / checkpoint / resume

TEST(Serve, DrainCheckpointResumeRoundTrip)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(10000, 61);
    const auto expected = sequentialReports(nfa, trace);
    // At interval 1 periodic saves are still queued when drain()
    // saves; its final save must land last.
    for (const std::uint32_t interval : {0u, 1u}) {
        SCOPED_TRACE("checkpointIntervalChunks " +
                     std::to_string(interval));
        const UniqueTempDir scratch("serve_ckpt" +
                                    std::to_string(interval));
        ServeOptions opt = smallOptions();
        opt.checkpointDir = scratch.path();
        opt.checkpointIntervalChunks = interval;
        std::uint64_t offset = 0;
        {
            Server server(opt, nfa);
            const auto id = server.open("t", "k");
            ASSERT_TRUE(id.ok());
            ASSERT_TRUE(
                server.feed(id.value(), trace.ptr(0), 6000).ok());
            ASSERT_TRUE(server.drain().ok());
            EXPECT_EQ(server.stats().checkpointed, 1u);
            // The drained session is terminal with a typed error.
            const auto report = server.finish(id.value());
            ASSERT_FALSE(report.ok());
            EXPECT_EQ(report.status().code(), ErrorCode::Cancelled);
        }
        {
            Server server(opt, nfa);
            const auto resumed = server.resume("t", "k");
            ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
            offset = resumed.value().offset;
            EXPECT_EQ(offset, 6000u)
                << "drain must flush and compose every fed symbol";
            ASSERT_TRUE(server
                            .feed(resumed.value().id, trace.ptr(offset),
                                  trace.size() - offset)
                            .ok());
            const auto report = server.finish(resumed.value().id);
            ASSERT_TRUE(report.ok()) << report.status().toString();
            EXPECT_EQ(report.value().reports, expected)
                << "resumed stream must equal the unbroken run";
            EXPECT_EQ(report.value().resumedSymbols, offset);
            EXPECT_EQ(server.stats().resumed, 1u);
        }
    }
}

/** What a drained keyed stream's checkpoint spends on its chunks. */
struct ChunkBytes
{
    /** The file less the same frontier saved without chunk records. */
    std::uintmax_t bytes = 0;
    std::size_t chunks = 0;
    /** Enumeration flows the stream's chunks ran. */
    std::uint64_t enumFlows = 0;
};

/** Drain one keyed stream of @p trace through @p nfa into @p dir. */
ChunkBytes
chunkBytes(const Nfa &nfa, const InputTrace &trace, const std::string &dir)
{
    ServeOptions opt = smallOptions();
    opt.checkpointDir = dir;
    const auto flows0 = obs::metrics().counter("segment_sim.flows.enum");
    {
        Server server(opt, nfa);
        const auto id = server.open("t", "k");
        EXPECT_TRUE(id.ok());
        EXPECT_TRUE(server.feed(id.value(), trace.ptr(0), trace.size()).ok());
        EXPECT_TRUE(server.drain().ok());
    }
    ChunkBytes out;
    out.enumFlows =
        obs::metrics().counter("segment_sim.flows.enum") - flows0;
    const std::string path = dir + "/t-k.papckpt";
    auto frontier = exec::loadCheckpoint(path);
    EXPECT_TRUE(frontier.ok()) << frontier.status().toString();
    if (!frontier.ok())
        return out;
    out.chunks = frontier.value().segments.size();
    frontier.value().segments.clear();
    const std::string bare = dir + "/bare.papckpt";
    EXPECT_TRUE(exec::saveCheckpoint(bare, frontier.value()).ok());
    out.bytes = std::filesystem::file_size(path) -
                std::filesystem::file_size(bare);
    return out;
}

TEST(Serve, CheckpointBytesPerChunkDoNotDependOnFlowCount)
{
    // A resume reads only each composed chunk's length, so a chunk's
    // record keeps no per-flow timing: every chunk adds the same bytes
    // to a keyed stream's checkpoint, however many flows its plan runs.
    const UniqueTempDir scratch("serve_ckpt_bytes");
    const InputTrace trace = serveTrace(8000, 67);
    const ChunkBytes few = chunkBytes(otherRuleset(), trace, scratch.path());
    const ChunkBytes many = chunkBytes(serveRuleset(), trace, scratch.path());
    ASSERT_GT(few.chunks, 4u);
    ASSERT_GT(many.chunks, 4u);
    ASSERT_LT(few.enumFlows * many.chunks, many.enumFlows * few.chunks)
        << "the two rulesets must run different flow counts per chunk";
    EXPECT_EQ(few.bytes % few.chunks, 0u);
    EXPECT_EQ(many.bytes % many.chunks, 0u);
    EXPECT_EQ(few.bytes / few.chunks, many.bytes / many.chunks);
}

TEST(Serve, ResumesFromACheckpointThatKeepsFlowRecords)
{
    // A checkpoint whose chunks carry flow records (the runPap layout)
    // still loads, and the stream resumes byte-identically.
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(10000, 61);
    const UniqueTempDir scratch("serve_ckpt_flows");
    ServeOptions opt = smallOptions();
    opt.checkpointDir = scratch.path();
    {
        Server server(opt, nfa);
        const auto id = server.open("t", "k");
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(server.feed(id.value(), trace.ptr(0), 6000).ok());
        ASSERT_TRUE(server.drain().ok());
    }
    const std::string path = scratch.path() + "/t-k.papckpt";
    auto frontier = exec::loadCheckpoint(path);
    ASSERT_TRUE(frontier.ok()) << frontier.status().toString();
    for (exec::SegmentCheckpoint &cp : frontier.value().segments)
        cp.timing.flows.assign(3, FlowTimingInfo{FlowKind::Enum,
                                                 cp.timing.segLen, false});
    ASSERT_TRUE(exec::saveCheckpoint(path, frontier.value()).ok());

    Server server(opt, nfa);
    const auto resumed = server.resume("t", "k");
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    const std::uint64_t offset = resumed.value().offset;
    EXPECT_EQ(offset, 6000u);
    ASSERT_TRUE(server
                    .feed(resumed.value().id, trace.ptr(offset),
                          trace.size() - offset)
                    .ok());
    const auto report = server.finish(resumed.value().id);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report.value().reports, sequentialReports(nfa, trace));
}

TEST(Serve, ResumeRejectsForeignCheckpoint)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(4000, 71);
    const UniqueTempDir scratch("serve_ckpt2");
    const std::string &dir = scratch.path();
    ServeOptions opt = smallOptions();
    opt.checkpointDir = dir;
    {
        Server server(opt, nfa);
        const auto id = server.open("t", "k2");
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(
            server.feed(id.value(), trace.ptr(0), trace.size()).ok());
        ASSERT_TRUE(server.drain().ok());
    }
    // A daemon serving a different ruleset must refuse the checkpoint
    // instead of silently composing garbage on top of it.
    Server other(opt, otherRuleset());
    const std::uint64_t admitted_before =
        obs::metrics().counter("serve.sessions.admitted");
    const auto resumed = other.resume("t", "k2");
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), ErrorCode::InvalidInput);
    // The failed resume must not leak its admission slot, nor count
    // an admission in the metrics that the stats do not count.
    EXPECT_EQ(other.stats().openSessions, 0u);
    EXPECT_EQ(obs::metrics().counter("serve.sessions.admitted") -
                  admitted_before,
              other.stats().admitted);
}

TEST(Serve, ResumeWithoutCheckpointDirIsTyped)
{
    Server server(smallOptions(), serveRuleset());
    const auto resumed = server.resume("t", "k");
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), ErrorCode::InvalidInput);
}

// ---------------------------------------------------------------------
// Hard-crash tolerance: manifest journal, periodic checkpoints, and
// cold-start recovery. "Crash" below means destroying the Server
// without drain() — the destructor journals nothing, exactly like a
// kill -9 from the manifest's point of view.

TEST(Manifest, RoundTripReplayAndCompaction)
{
    const UniqueTempDir scratch("serve_manifest1");
    const std::string &dir = scratch.path();
    const std::string path = dir + "/" + kManifestFileName;

    {
        auto journal = ManifestJournal::open(path);
        ASSERT_TRUE(journal.ok()) << journal.status().toString();
        ManifestRecord admit;
        admit.kind = ManifestRecordKind::Admit;
        admit.identity = 0xABCDu;
        admit.generation = 3;
        admit.tenant = "t";
        admit.key = "k";
        ASSERT_TRUE(journal.value().append(admit).ok());
        ManifestRecord ckpt;
        ckpt.kind = ManifestRecordKind::CheckpointWritten;
        ckpt.symbols = 4096;
        ckpt.chunks = 8;
        ckpt.tenant = "t";
        ckpt.key = "k";
        ASSERT_TRUE(journal.value().append(ckpt).ok());
        ManifestRecord admit2 = admit;
        admit2.key = "done";
        ASSERT_TRUE(journal.value().append(admit2).ok());
        ManifestRecord complete;
        complete.kind = ManifestRecordKind::Complete;
        complete.tenant = "t";
        complete.key = "done";
        ASSERT_TRUE(journal.value().append(complete).ok());
        journal.value().close();
    }

    auto replay = replayManifest(path);
    ASSERT_TRUE(replay.ok()) << replay.status().toString();
    EXPECT_EQ(replay.value().records, 4u);
    EXPECT_EQ(replay.value().torn, 0u);
    EXPECT_EQ(replay.value().completed, 1u);
    EXPECT_EQ(replay.value().maxGeneration, 3u);
    ASSERT_EQ(replay.value().live.size(), 1u);
    const auto &live = replay.value().live.at({"t", "k"});
    EXPECT_EQ(live.identity, 0xABCDu);
    EXPECT_EQ(live.symbols, 4096u);
    EXPECT_TRUE(live.checkpointed);

    // Compaction reproduces the same live set from fewer records.
    ASSERT_TRUE(compactManifest(path, replay.value()).ok());
    auto compacted = replayManifest(path);
    ASSERT_TRUE(compacted.ok());
    ASSERT_EQ(compacted.value().live.size(), 1u);
    const auto &kept = compacted.value().live.at({"t", "k"});
    EXPECT_EQ(kept.identity, live.identity);
    EXPECT_EQ(kept.symbols, live.symbols);
    EXPECT_EQ(kept.chunks, live.chunks);
    EXPECT_TRUE(kept.checkpointed);
    EXPECT_EQ(compacted.value().maxGeneration, 3u);
    EXPECT_EQ(compacted.value().completed, 0u);
}

TEST(Manifest, TornTailStopsReplayAtLastGoodRecord)
{
    const UniqueTempDir scratch("serve_manifest2");
    const std::string &dir = scratch.path();
    const std::string path = dir + "/" + kManifestFileName;
    {
        auto journal = ManifestJournal::open(path);
        ASSERT_TRUE(journal.ok());
        ManifestRecord admit;
        admit.kind = ManifestRecordKind::Admit;
        admit.tenant = "t";
        admit.key = "k";
        ASSERT_TRUE(journal.value().append(admit).ok());
        journal.value().close();
    }
    // A crash mid-append leaves a partial frame at the tail; replay
    // must surface the good prefix and flag the tear, not misparse.
    {
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const unsigned char torn[3] = {2, 0x40, 0x13};
        ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
        std::fclose(f);
    }
    auto replay = replayManifest(path);
    ASSERT_TRUE(replay.ok()) << replay.status().toString();
    EXPECT_EQ(replay.value().records, 1u);
    EXPECT_EQ(replay.value().torn, 1u);
    EXPECT_EQ(replay.value().live.count({"t", "k"}), 1u);
}

TEST(Serve, PeriodicCheckpointCrashResumeRoundTrip)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(10000, 83);
    const auto expected = sequentialReports(nfa, trace);
    ServeOptions opt = smallOptions();
    const UniqueTempDir scratch("serve_crash1");
    opt.checkpointDir = scratch.path();
    opt.checkpointIntervalChunks = 1;
    {
        Server server(opt, nfa);
        const auto id = server.open("t", "pk");
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(server.feed(id.value(), trace.ptr(0), 6000).ok());
        // The writer runs off the hot path; wait for one durable save.
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (server.stats().periodicCheckpoints == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_GT(server.stats().periodicCheckpoints, 0u);
        // Crash: no drain, no journaled completion.
    }
    Server server(opt, nfa);
    EXPECT_EQ(server.stats().sessionsResumable, 1u);
    const auto resumed = server.resume("t", "pk");
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    const std::uint64_t offset = resumed.value().offset;
    EXPECT_GT(offset, 0u) << "a periodic checkpoint must bound replay";
    EXPECT_LE(offset, 6000u);
    ASSERT_TRUE(server
                    .feed(resumed.value().id, trace.ptr(offset),
                          trace.size() - offset)
                    .ok());
    const auto report = server.finish(resumed.value().id);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report.value().reports, expected)
        << "recovered stream must equal the unbroken run";
    EXPECT_EQ(report.value().resumedSymbols, offset);
    EXPECT_EQ(server.stats().sessionsRecovered, 1u);
}

TEST(Serve, CrashBeforeFirstCheckpointResumesFresh)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(4000, 89);
    const auto expected = sequentialReports(nfa, trace);
    ServeOptions opt = smallOptions();
    const UniqueTempDir scratch("serve_crash2");
    opt.checkpointDir = scratch.path();
    // No periodic interval: the crash lands before any checkpoint,
    // so only the manifest's Admit record knows the session.
    {
        Server server(opt, nfa);
        const auto id = server.open("t", "fresh");
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(server.feed(id.value(), trace.ptr(0), 2000).ok());
    }
    Server server(opt, nfa);
    EXPECT_EQ(server.stats().sessionsResumable, 1u);
    const auto resumed = server.resume("t", "fresh");
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    EXPECT_EQ(resumed.value().offset, 0u)
        << "no checkpoint -> replay from the start";
    ASSERT_TRUE(server
                    .feed(resumed.value().id, trace.ptr(0),
                          trace.size())
                    .ok());
    const auto report = server.finish(resumed.value().id);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report.value().reports, expected);
    EXPECT_EQ(server.stats().sessionsRecovered, 1u);
}

TEST(Serve, OldVersionCheckpointIsRemovedAndResumesFresh)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(4000, 91);
    const auto expected = sequentialReports(nfa, trace);
    ServeOptions opt = smallOptions();
    const UniqueTempDir scratch("serve_old_ckpt");
    opt.checkpointDir = scratch.path();
    const std::string ckpt = opt.checkpointDir + "/t-old.papckpt";
    {
        Server server(opt, nfa);
        const auto id = server.open("t", "old");
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(server.feed(id.value(), trace.ptr(0), 2000).ok());
        ASSERT_TRUE(server.drain().ok());
    }
    ASSERT_TRUE(exec::loadCheckpoint(ckpt).ok());
    // A version-1 file: valid apart from its version field.
    patchCheckpointVersion(ckpt, 1);

    Server server(opt, nfa);
    EXPECT_FALSE(std::filesystem::exists(ckpt))
        << "cold start keeps an unloadable checkpoint";
    const auto resumed = server.resume("t", "old");
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    EXPECT_EQ(resumed.value().offset, 0u);
    ASSERT_TRUE(server
                    .feed(resumed.value().id, trace.ptr(0),
                          trace.size())
                    .ok());
    const auto report = server.finish(resumed.value().id);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report.value().reports, expected);
}

TEST(Serve, SecondServerOnOneCheckpointDirIsLocked)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(4000, 93);
    const auto expected = sequentialReports(nfa, trace);
    ServeOptions opt = smallOptions();
    const UniqueTempDir scratch("serve_lock");
    opt.checkpointDir = scratch.path();
    {
        Server first(opt, nfa);
        ASSERT_TRUE(first.status().ok()) << first.status().toString();
        // One process, two servers: flock locks belong to the open
        // file description, so the second one is refused too.
        Server second(opt, nfa);
        EXPECT_EQ(second.status().code(), ErrorCode::LockHeld)
            << second.status().toString();
        EXPECT_EQ(second.open("t", "k").status().code(),
                  ErrorCode::LockHeld);

        // The holder's manifest and checkpoints were left alone.
        const auto id = first.open("t", "k");
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(first.feed(id.value(), trace.ptr(0), 2000).ok());
        ASSERT_TRUE(first.drain().ok());
    }
    // The first server is gone, so the directory is free again.
    Server server(opt, nfa);
    ASSERT_TRUE(server.status().ok()) << server.status().toString();
    const auto resumed = server.resume("t", "k");
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    EXPECT_EQ(resumed.value().offset, 2000u);
    ASSERT_TRUE(server
                    .feed(resumed.value().id, trace.ptr(2000),
                          trace.size() - 2000)
                    .ok());
    const auto report = server.finish(resumed.value().id);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report.value().reports, expected);
}

TEST(Serve, KeyedOpenIsJournaledWhenItReturns)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(4000, 109);
    ServeOptions opt = smallOptions();
    const UniqueTempDir scratch("serve_admit");
    opt.checkpointDir = scratch.path();
    const std::string mpath = opt.checkpointDir + "/" + kManifestFileName;
    const auto journaledLive = [&] {
        const auto replay = replayManifest(mpath);
        return replay.ok() && replay.value().live.count({"t", "k"}) == 1;
    };
    {
        Server server(opt, nfa);
        const auto id = server.open("t", "k");
        ASSERT_TRUE(id.ok()) << id.status().toString();
        EXPECT_TRUE(journaledLive())
            << "OPEN answered before its Admit record was durable";
        ASSERT_TRUE(server.feed(id.value(), trace.ptr(0), 2000).ok());
        ASSERT_TRUE(server.drain().ok());
    }
    // Without a journal the next boot keeps the checkpoint but knows
    // no live session: only resume's own Admit can list it.
    ASSERT_EQ(std::remove(mpath.c_str()), 0);
    Server server(opt, nfa);
    ASSERT_FALSE(journaledLive());
    const auto resumed = server.resume("t", "k");
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    EXPECT_EQ(resumed.value().offset, 2000u);
    EXPECT_TRUE(journaledLive())
        << "RESUME answered before its Admit record was durable";
}

TEST(Serve, GenerationsStayMonotoneAcrossACrash)
{
    const Nfa nfa = serveRuleset();
    ServeOptions opt = smallOptions();
    const UniqueTempDir scratch("serve_swap_gen");
    opt.checkpointDir = scratch.path();
    const std::string mpath = opt.checkpointDir + "/" + kManifestFileName;
    {
        Server server(opt, nfa);
        ASSERT_TRUE(server.swap(otherRuleset()).ok());
        const auto replay = replayManifest(mpath);
        ASSERT_TRUE(replay.ok()) << replay.status().toString();
        EXPECT_EQ(replay.value().maxGeneration, 2u)
            << "SWAP answered before its record was durable";
        const auto swapped = server.swap(nfa);
        ASSERT_TRUE(swapped.ok()) << swapped.status().toString();
        EXPECT_EQ(swapped.value(), 3u);
        // Crash: no drain.
    }
    Server server(opt, nfa);
    EXPECT_EQ(server.generation(), 4u)
        << "a restart must continue above every journaled swap";
}

TEST(Serve, TornManifestTailToleratedOnBoot)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(10000, 97);
    const auto expected = sequentialReports(nfa, trace);
    ServeOptions opt = smallOptions();
    const UniqueTempDir scratch("serve_crash3");
    opt.checkpointDir = scratch.path();
    {
        Server server(opt, nfa);
        const auto id = server.open("t", "tk");
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(server.feed(id.value(), trace.ptr(0), 6000).ok());
        ASSERT_TRUE(server.drain().ok());
    }
    // Tear the journal tail, as a crash mid-append would.
    {
        const std::string mpath =
            opt.checkpointDir + "/" + kManifestFileName;
        std::FILE *f = std::fopen(mpath.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const unsigned char torn[5] = {1, 0xFF, 0x00, 0x00, 0x00};
        ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
        std::fclose(f);
    }
    Server server(opt, nfa);
    EXPECT_EQ(server.stats().journalTorn, 1u);
    const auto resumed = server.resume("t", "tk");
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    EXPECT_EQ(resumed.value().offset, 6000u);
    ASSERT_TRUE(server
                    .feed(resumed.value().id, trace.ptr(6000),
                          trace.size() - 6000)
                    .ok());
    const auto report = server.finish(resumed.value().id);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().reports, expected);
}

TEST(Serve, TornManifestWriteFaultDegradesGracefully)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(4000, 101);
    const auto expected = sequentialReports(nfa, trace);
    auto made = FaultInjector::fromSpec("torn-manifest-write:1:1.0", 5);
    ASSERT_TRUE(made.ok()) << made.status().toString();
    FaultInjector injector = std::move(made.value());
    ServeOptions opt = smallOptions();
    const UniqueTempDir scratch("serve_crash4");
    opt.checkpointDir = scratch.path();
    opt.pap.faultInjector = &injector;

    Server server(opt, nfa);
    const auto id = server.open("t", "torn");
    ASSERT_TRUE(id.ok()) << "a lost journal append must not shed the "
                            "session";
    ASSERT_TRUE(
        server.feed(id.value(), trace.ptr(0), trace.size()).ok());
    const auto report = server.finish(id.value());
    ASSERT_TRUE(report.ok()) << report.status().toString();
    EXPECT_EQ(report.value().reports, expected);
    EXPECT_GE(injector.injected(FaultKind::TornManifestWrite), 1u);
}

TEST(Serve, CrashAtCheckpointFaultLeavesRecoverableState)
{
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(10000, 103);
    const auto expected = sequentialReports(nfa, trace);
    auto made = FaultInjector::fromSpec("crash-at-checkpoint:1:1.0", 7);
    ASSERT_TRUE(made.ok());
    FaultInjector injector = std::move(made.value());
    ServeOptions opt = smallOptions();
    const UniqueTempDir scratch("serve_crash5");
    opt.checkpointDir = scratch.path();
    // One periodic trigger only (11 chunks fed, interval 8), so the
    // injected crash tears the sole checkpoint write.
    opt.checkpointIntervalChunks = 8;
    opt.pap.faultInjector = &injector;
    const std::string tmp_path =
        opt.checkpointDir + "/t-ck.papckpt.tmp";
    {
        Server server(opt, nfa);
        const auto id = server.open("t", "ck");
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(server.feed(id.value(), trace.ptr(0), 6000).ok());
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        while (injector.injected(FaultKind::CrashAtCheckpoint) == 0 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ASSERT_GE(injector.injected(FaultKind::CrashAtCheckpoint), 1u);
        // Crash with the torn temp file on disk.
    }
    EXPECT_EQ(::access(tmp_path.c_str(), F_OK), 0)
        << "the injected crash must leave its torn .tmp behind";
    ServeOptions clean = opt;
    clean.pap.faultInjector = nullptr;
    Server server(clean, nfa);
    EXPECT_EQ(server.stats().staleTmpCleaned, 1u);
    EXPECT_NE(::access(tmp_path.c_str(), F_OK), 0);
    // No durable checkpoint made it: recovery re-admits fresh.
    const auto resumed = server.resume("t", "ck");
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    EXPECT_EQ(resumed.value().offset, 0u);
    ASSERT_TRUE(server
                    .feed(resumed.value().id, trace.ptr(0),
                          trace.size())
                    .ok());
    const auto report = server.finish(resumed.value().id);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().reports, expected);
}

TEST(Serve, StaleTmpFilesSweptOnBoot)
{
    ServeOptions opt = smallOptions();
    const UniqueTempDir scratch("serve_crash6");
    opt.checkpointDir = scratch.path();
    const std::string junk = opt.checkpointDir + "/junk.papckpt.tmp";
    {
        std::FILE *f = std::fopen(junk.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("half-written checkpoint", f);
        std::fclose(f);
    }
    Server server(opt, serveRuleset());
    EXPECT_EQ(server.stats().staleTmpCleaned, 1u);
    EXPECT_NE(::access(junk.c_str(), F_OK), 0);
}

TEST(Serve, ResumeRejectsCheckpointFromSwappedGeneration)
{
    const Nfa original = serveRuleset();
    const Nfa swapped = otherRuleset();
    const InputTrace trace = serveTrace(4000, 107);
    ServeOptions opt = smallOptions();
    const UniqueTempDir scratch("serve_crash7");
    opt.checkpointDir = scratch.path();
    {
        Server server(opt, original);
        const auto gen = server.swap(swapped);
        ASSERT_TRUE(gen.ok()) << gen.status().toString();
        // The keyed session binds the post-swap generation; its drain
        // checkpoint is a `swapped`-ruleset frontier.
        const auto id = server.open("t", "sw");
        ASSERT_TRUE(id.ok());
        ASSERT_TRUE(server.feed(id.value(), trace.ptr(0), 2000).ok());
        ASSERT_TRUE(server.drain().ok());
    }
    // A restart serving the pre-swap ruleset must refuse the foreign
    // checkpoint typed instead of composing on the wrong automaton.
    {
        Server server(opt, original);
        const auto resumed = server.resume("t", "sw");
        ASSERT_FALSE(resumed.ok());
        EXPECT_EQ(resumed.status().code(), ErrorCode::InvalidInput);
        EXPECT_EQ(server.stats().openSessions, 0u);
    }
    // Booted with the ruleset the checkpoint was written under, the
    // same file resumes cleanly.
    Server server(opt, swapped);
    const auto resumed = server.resume("t", "sw");
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    EXPECT_EQ(resumed.value().offset, 2000u);
    ASSERT_TRUE(server
                    .feed(resumed.value().id, trace.ptr(2000),
                          trace.size() - 2000)
                    .ok());
    const auto report = server.finish(resumed.value().id);
    ASSERT_TRUE(report.ok()) << report.status().toString();
}

TEST(Serve, ZeroQuantumIsInvalidInput)
{
    // A chunk's TDM rounds never advance by a zero quantum: the
    // constructor refuses it, and the inert server runs no chunk.
    const Nfa nfa = serveRuleset();
    const InputTrace trace = serveTrace(4096, 97);
    ServeOptions opt = smallOptions();
    opt.pap.tdmQuantum = 0;
    Server server(opt, nfa);
    EXPECT_EQ(server.status().code(), ErrorCode::InvalidInput)
        << server.status().toString();
    const auto report = streamAll(server, "t", trace, trace.size());
    EXPECT_EQ(report.status().code(), ErrorCode::InvalidInput);
}

} // namespace
} // namespace serve
} // namespace pap
