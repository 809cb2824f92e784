/**
 * @file
 * Performance-attribution ledger: unit semantics of AttribLedger
 * (charge, Scope, finalize residual, JSON), and the run-level
 * invariant that the wall buckets of a PAP run sum to its measured
 * wall time — across both pipeline modes, both engine backends,
 * thread counts 1..4, every injected fault kind, device-latency
 * emulation, and checkpointing. Also covers the engine introspection
 * totals PapResult carries alongside the ledger.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "ap/ap_config.h"
#include "common/rng.h"
#include "engine/trace.h"
#include "nfa/glushkov.h"
#include "obs/attrib.h"
#include "obs/metrics.h"
#include "pap/fault_injector.h"
#include "pap/runner.h"
#include "test_util.h"
#include "workload_helpers.h"
#include "workloads/benchmarks.h"

namespace pap {
namespace {

// --- Ledger unit semantics -----------------------------------------

TEST(AttribLedger, ChargesAccumulateAndClampBadValues)
{
    obs::AttribLedger ledger;
    ledger.chargeWall("a", 1.5);
    ledger.chargeWall("a", 2.5);
    ledger.chargeAux("x", 3.0);
    // Negative and non-finite charges clamp to zero instead of
    // corrupting the sum-to-wall invariant.
    ledger.chargeWall("a", -7.0);
    ledger.chargeWall("a", std::numeric_limits<double>::quiet_NaN());
    ledger.chargeAux("x", std::numeric_limits<double>::infinity());

    const obs::AttribSnapshot s = ledger.snapshot();
    EXPECT_DOUBLE_EQ(s.bucket("a").ms, 4.0);
    EXPECT_FALSE(s.bucket("a").aux);
    EXPECT_DOUBLE_EQ(s.bucket("x").ms, 3.0);
    EXPECT_TRUE(s.bucket("x").aux);
    EXPECT_DOUBLE_EQ(ledger.wallChargedMs(), 4.0);
}

TEST(AttribLedger, ScopeChargesOnceAndNullLedgerIsNoop)
{
    obs::AttribLedger ledger;
    {
        obs::AttribLedger::Scope s(&ledger, "timed");
        s.stop();
        s.stop(); // idempotent: charges exactly once
    }
    const double once = ledger.snapshot().bucket("timed").ms;
    EXPECT_GE(once, 0.0);

    {
        obs::AttribLedger::Scope aux(&ledger, "aux.timed",
                                     /*aux=*/true);
    }
    EXPECT_TRUE(ledger.snapshot().bucket("aux.timed").aux);

    // Null ledger: every Scope operation is a no-op.
    obs::AttribLedger::Scope null_scope(nullptr, "nowhere");
    null_scope.stop();
}

TEST(AttribLedger, FinalizeChargesResidualToOther)
{
    obs::AttribLedger ledger;
    ledger.chargeWall("work", 2.0);
    ledger.chargeAux("overlap", 100.0); // aux never enters the sum
    ledger.finalize(10.0);

    const obs::AttribSnapshot s = ledger.snapshot();
    EXPECT_DOUBLE_EQ(s.wallMs, 10.0);
    EXPECT_DOUBLE_EQ(s.bucket("other").ms, 8.0);
    EXPECT_DOUBLE_EQ(s.wallChargedMs(), 10.0);
    EXPECT_DOUBLE_EQ(ledger.measuredWallMs(), 10.0);

    // Over-charged ledger (timer noise): the residual clamps at zero
    // rather than going negative.
    obs::AttribLedger over;
    over.chargeWall("work", 12.0);
    over.finalize(10.0);
    EXPECT_DOUBLE_EQ(over.snapshot().bucket("other").ms, 0.0);
}

TEST(AttribLedger, JsonIsWellFormedAndNonFiniteSafe)
{
    obs::AttribSnapshot s;
    s.wallMs = std::numeric_limits<double>::infinity();
    s.buckets.push_back({"ok", 1.25, false});
    s.buckets.push_back(
        {"bad", std::numeric_limits<double>::quiet_NaN(), false});
    s.buckets.push_back({"side", 0.5, true});

    const std::string json = obs::attribToJson(s);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"wall_ms\""), std::string::npos);
    EXPECT_NE(json.find("\"buckets\""), std::string::npos);
    EXPECT_NE(json.find("\"aux\""), std::string::npos);
    EXPECT_NE(json.find("\"ok\": 1.25"), std::string::npos);
    EXPECT_NE(json.find("\"side\": 0.5"), std::string::npos);
    // Non-finite values serialize as 0, never as nan/inf literals
    // (which are not JSON).
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find("inf"), std::string::npos);
}

// --- The run-level invariant ---------------------------------------

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
attribWorkload()
{
    Rng rng(77);
    return Workload{compileRuleset({{"ab.*cd", 1}, {"fgh", 2}}, "m"),
                    randomTextTrace(rng, 16384, "abcdfgh ")};
}

/**
 * The tested invariant: the wall buckets (with the "other" residual)
 * sum to the measured wall time. By construction they match exactly
 * up to fp addition; the 5%-or-0.5ms tolerance only absorbs rounding
 * on very short runs.
 */
void
expectSumsToWall(const PapResult &r, const std::string &what)
{
    const obs::AttribSnapshot &a = r.attrib;
    ASSERT_GT(a.wallMs, 0.0) << what;
    EXPECT_NEAR(a.wallChargedMs(), a.wallMs,
                std::max(0.05 * a.wallMs, 0.5))
        << what;
}

bool
hasBucket(const obs::AttribSnapshot &a, const std::string &name)
{
    return std::any_of(a.buckets.begin(), a.buckets.end(),
                       [&](const obs::AttribBucket &b) {
                           return b.name == name;
                       });
}

TEST(AttribRun, SumsToWallAcrossModesEnginesAndThreads)
{
    const Workload w = attribWorkload();
    const ApConfig cfg = smallBoard(8);
    for (const PipelineMode mode :
         {PipelineMode::Barrier, PipelineMode::Overlap}) {
        for (const EngineKind engine :
             {EngineKind::Sparse, EngineKind::Dense}) {
            for (const std::uint32_t threads : {1u, 2u, 3u, 4u}) {
                PapOptions opt;
                opt.pipeline = mode;
                opt.engine = engine;
                opt.threads = threads;
                const PapResult r =
                    runPap(w.nfa, w.input, cfg, opt);
                ASSERT_TRUE(r.status.ok()) << r.status.toString();
                char what[96];
                std::snprintf(what, sizeof(what),
                              "mode=%d engine=%d threads=%u",
                              static_cast<int>(mode),
                              static_cast<int>(engine), threads);
                expectSumsToWall(r, what);
                // The phase buckets a healthy multi-segment run must
                // charge on its composer thread, including its wait
                // for the concurrent sequential oracle.
                for (const char *name :
                     {"analyze", "partition", "plan", "device.execute",
                      "compose.decode", "baseline.wait", "verify",
                      "timeline"}) {
                    EXPECT_TRUE(hasBucket(r.attrib, name))
                        << what << " missing " << name;
                    EXPECT_FALSE(r.attrib.bucket(name).aux)
                        << what << " " << name;
                }
                // Worker-side execution and the oracle's own time
                // overlap the composer: always aux charges.
                for (const char *name : {"workers.execute", "baseline"}) {
                    EXPECT_TRUE(r.attrib.bucket(name).aux)
                        << what << " " << name;
                    EXPECT_GT(r.attrib.bucket(name).ms, 0.0)
                        << what << " " << name;
                }
            }
        }
    }
}

TEST(AttribRun, SumsToWallOnTable1Workloads)
{
    const ApConfig cfg = ApConfig::d480(1);
    for (const auto &info : benchmarkRegistry()) {
        const Nfa nfa = buildBenchmark(info.name);
        // Short traces: the invariant under test is structural (the
        // ledger partitions the wall clock), not throughput-shaped.
        const InputTrace input =
            buildBenchmarkTrace(nfa, info.name, 512);
        for (const PipelineMode mode :
             {PipelineMode::Barrier, PipelineMode::Overlap}) {
            for (const EngineKind engine :
                 {EngineKind::Sparse, EngineKind::Dense}) {
                PapOptions opt;
                opt.threads = 2;
                opt.pipeline = mode;
                opt.engine = engine;
                opt.routingMinHalfCores = info.paper.halfCores;
                const PapResult r = runPap(nfa, input, cfg, opt);
                ASSERT_TRUE(r.status.ok())
                    << info.name << ": " << r.status.toString();
                expectSumsToWall(
                    r, info.name + " mode=" +
                           std::to_string(static_cast<int>(mode)) +
                           " engine=" +
                           std::to_string(static_cast<int>(engine)));
            }
        }
    }
}

TEST(AttribRun, EngineCountersAreBackendInvariantWhereContracted)
{
    const Workload w = attribWorkload();
    const ApConfig cfg = smallBoard(8);
    PapOptions opt;
    opt.threads = 2;

    opt.engine = EngineKind::Sparse;
    const PapResult sparse = runPap(w.nfa, w.input, cfg, opt);
    opt.engine = EngineKind::Dense;
    const PapResult dense = runPap(w.nfa, w.input, cfg, opt);
    ASSERT_TRUE(sparse.status.ok());
    ASSERT_TRUE(dense.status.ok());

    // The density histogram derives from the contract-fixed active
    // set, and succRows counts matched states — both must agree
    // between backends even though the datapath-cost counters differ.
    EXPECT_EQ(sparse.engineDensityOctiles, dense.engineDensityOctiles);
    EXPECT_EQ(sparse.engineSuccRows, dense.engineSuccRows);

    // One histogram entry per flow step: the octiles sum to the
    // flow-symbol total.
    std::uint64_t octile_steps = 0;
    for (const std::uint64_t n : sparse.engineDensityOctiles)
        octile_steps += n;
    EXPECT_EQ(octile_steps, sparse.flowSymbolCycles);

    // Datapath cost is backend-specific but always populated.
    EXPECT_GT(sparse.engineMaskWords, 0u);
    EXPECT_GT(dense.engineMaskWords, 0u);
    EXPECT_GT(sparse.engineBytesTouched, 0u);
    EXPECT_GT(dense.engineBytesTouched, 0u);
    EXPECT_GT(sparse.engineBytesPerSymbol, 0.0);
    EXPECT_GT(dense.engineBytesPerSymbol, 0.0);

    // recordRunMetrics folded the same numbers into the registry.
    EXPECT_GT(obs::metrics().gauge("attrib.wall_ms"), 0.0);
    EXPECT_GT(obs::metrics().counter("engine.counters.bytes_touched"),
              0u);
}

TEST(AttribRun, SumsToWallUnderEveryFaultKind)
{
    const Workload w = attribWorkload();
    const ApConfig cfg = smallBoard(8);
    for (const char *kind :
         {"corrupt-sv", "evict-svc", "drop-report", "truncate-report",
          "drop-fiv", "stall-worker", "crash-worker"}) {
        auto made =
            FaultInjector::fromSpec(std::string(kind) + ":3", 7);
        ASSERT_TRUE(made.ok()) << kind;
        FaultInjector injector = std::move(made.value());
        PapOptions opt;
        opt.threads = 2;
        opt.faultInjector = &injector;
        opt.segmentDeadlineMs = 50.0; // bound injected stalls
        const PapResult r = runPap(w.nfa, w.input, cfg, opt);
        ASSERT_TRUE(r.status.ok()) << kind;
        expectSumsToWall(r, kind);
        // A degraded run must show where the damage cost time: retry
        // backoff sleeps on the workers and/or oracle recovery on the
        // composer.
        if (r.segmentsRetried > 0) {
            EXPECT_GT(r.attrib.bucket("workers.retry_backoff").ms,
                      0.0)
                << kind;
        }
        if (r.segmentsRecovered > 0) {
            EXPECT_GT(r.attrib.bucket("compose.recover").ms, 0.0)
                << kind;
        }
    }
}

TEST(AttribRun, EmulationAndOverlapChargeTheirBuckets)
{
    const Workload w = attribWorkload();
    const ApConfig cfg = smallBoard(8);
    PapOptions opt;
    opt.threads = 2;
    opt.emulateDeviceNsPerSymbol = 500.0;

    opt.pipeline = PipelineMode::Barrier;
    const PapResult barrier = runPap(w.nfa, w.input, cfg, opt);
    ASSERT_TRUE(barrier.status.ok());
    expectSumsToWall(barrier, "emu barrier");
    // The modeled host Tcpu is slept out on the composer thread.
    EXPECT_GT(barrier.attrib.bucket("compose.emulation").ms, 0.0);
    // In barrier mode the whole device execution happens inside the
    // pipeline constructor, on the composer's wall clock.
    EXPECT_GT(barrier.attrib.bucket("device.execute").ms, 1.0);

    opt.pipeline = PipelineMode::Overlap;
    const PapResult overlap = runPap(w.nfa, w.input, cfg, opt);
    ASSERT_TRUE(overlap.status.ok());
    expectSumsToWall(overlap, "emu overlap");
    // In overlap mode the composer instead waits in await(): the
    // pipeline.stall bucket absorbs the device time.
    EXPECT_TRUE(hasBucket(overlap.attrib, "pipeline.stall"));
    EXPECT_GT(overlap.attrib.bucket("pipeline.stall").ms +
                  overlap.attrib.bucket("device.execute").ms,
              1.0);
}

TEST(AttribRun, CheckpointingChargesIoBucket)
{
    const Workload w = attribWorkload();
    const ApConfig cfg = smallBoard(8);
    const std::string path = uniqueTempPath("attrib_ckpt.bin");
    PapOptions opt;
    opt.threads = 2;
    opt.checkpointPath = path;
    const PapResult r = runPap(w.nfa, w.input, cfg, opt);
    ASSERT_TRUE(r.status.ok());
    expectSumsToWall(r, "checkpointing");
    EXPECT_TRUE(hasBucket(r.attrib, "checkpoint.io"));
    std::remove(path.c_str());
}

} // namespace
} // namespace pap
