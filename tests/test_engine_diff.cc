/**
 * @file
 * Differential tests of the EngineBackend implementations: the sparse
 * FunctionalEngine (reference), the dense BitsetEngine, and the
 * HybridEngine must be observationally identical — same sorted
 * reports, snapshots, state hashes, and counters — on random automata
 * and random inputs, at every SIMD dispatch level the host can
 * execute, and whole PAP runs must be byte-identical (reports, cycle
 * counts, checkpoint files) regardless of the backend.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ap/ap_config.h"
#include "common/charclass.h"
#include "common/error.h"
#include "common/rng.h"
#include "engine/bitset_engine.h"
#include "engine/compiled_nfa.h"
#include "engine/dense_nfa.h"
#include "engine/engine_backend.h"
#include "engine/functional_engine.h"
#include "engine/hybrid_engine.h"
#include "engine/simd.h"
#include "engine/trace.h"
#include "nfa/analysis.h"
#include "nfa/glushkov.h"
#include "pap/exec/checkpoint.h"
#include "pap/run_common.h"
#include "pap/runner.h"
#include "test_util.h"
#include "workload_helpers.h"
#include "workloads/benchmarks.h"

namespace pap {
namespace {

/** All three backends over one automaton, stepped in lockstep. */
struct EngineTrio
{
    CompiledNfa cnfa;
    DenseNfa dnfa;
    EngineScratch scratch;
    FunctionalEngine sparse;
    BitsetEngine dense;
    HybridEngine hybrid;

    EngineTrio(const Nfa &nfa, bool starts,
               SimdLevel simd = currentSimdLevel())
        : cnfa(nfa), dnfa(cnfa), scratch(nfa.size()),
          sparse(cnfa, starts, &scratch), dense(dnfa, starts, simd),
          hybrid(dnfa, starts, simd)
    {
    }

    void
    reset(const std::vector<StateId> &seed, std::uint64_t base = 0)
    {
        sparse.reset(seed, base);
        dense.reset(seed, base);
        hybrid.reset(seed, base);
    }

    void
    step(Symbol s)
    {
        sparse.step(s);
        dense.step(s);
        hybrid.step(s);
    }

    void
    run(const Symbol *data, std::size_t len)
    {
        sparse.run(data, len);
        dense.run(data, len);
        hybrid.run(data, len);
    }

    /** The full equivalence contract at the current instant. */
    void
    expectSameObservableState(const char *where) const
    {
        for (const EngineBackend *other :
             {static_cast<const EngineBackend *>(&dense),
              static_cast<const EngineBackend *>(&hybrid)}) {
            EXPECT_EQ(sparse.activeCount(), other->activeCount())
                << where;
            EXPECT_EQ(sparse.snapshot(), other->snapshot()) << where;
            EXPECT_EQ(sparse.stateHash(), other->stateHash()) << where;
            EXPECT_EQ(sparse.dead(), other->dead()) << where;
            EXPECT_EQ(sparse.cursor(), other->cursor()) << where;
            EXPECT_TRUE(sparse.sameActiveSet(*other)) << where;
            EXPECT_TRUE(other->sameActiveSet(sparse)) << where;
            const EngineCounters &a = sparse.counters();
            const EngineCounters &b = other->counters();
            EXPECT_EQ(a.symbols, b.symbols) << where;
            EXPECT_EQ(a.matches, b.matches) << where;
            EXPECT_EQ(a.enables, b.enables) << where;
        }
        // Word-packed peers also word-compare against each other.
        EXPECT_TRUE(dense.sameActiveSet(hybrid)) << where;
        EXPECT_TRUE(hybrid.sameActiveSet(dense)) << where;
    }
};

std::vector<ReportEvent>
sortedReports(std::vector<ReportEvent> raw)
{
    sortAndDedupReports(raw);
    return raw;
}

TEST(EngineDiff, FuzzAllBackendsAgreeStepByStep)
{
    Rng rng(1234);
    for (int iter = 0; iter < 40; ++iter) {
        const Nfa nfa = randomNfa(rng, 4);
        const InputTrace t =
            randomTextTrace(rng, 256 + rng.nextBelow(512), "abcdefgh\n ");
        for (const bool starts : {true, false}) {
            EngineTrio p(nfa, starts);
            // Enum mode seeds a random state subset; start mode seeds
            // the initial active set like a fresh flow.
            std::vector<StateId> seed = p.cnfa.initialActive();
            if (!starts) {
                seed.clear();
                for (StateId q = 0; q < nfa.size(); ++q)
                    if (rng.nextBool(0.25))
                        seed.push_back(q);
            }
            p.reset(seed);
            p.expectSameObservableState("after reset");
            for (std::uint64_t i = 0; i < t.size(); ++i) {
                p.step(t.begin()[i]);
                // Full-state compares every few symbols keep the fuzz
                // loop fast without losing divergence localization.
                if (i % 17 == 0)
                    p.expectSameObservableState("mid-run");
            }
            p.expectSameObservableState("after run");
            const auto expected = sortedReports(p.sparse.takeReports());
            EXPECT_EQ(expected, sortedReports(p.dense.takeReports()))
                << "iter " << iter << " starts " << starts;
            EXPECT_EQ(expected, sortedReports(p.hybrid.takeReports()))
                << "iter " << iter << " starts " << starts;
        }
    }
}

TEST(EngineDiff, EverySimdLevelMatchesScalarInLockstep)
{
    // The word-packed kernels must be bit-exact across dispatch
    // levels: run the scalar trio and a vectorized trio side by side
    // for every level the host supports (clamp-down makes requesting
    // an unsupported level impossible by construction).
    Rng rng(4321);
    for (int lvl = static_cast<int>(SimdLevel::Avx2);
         lvl <= static_cast<int>(detectSimdLevel()); ++lvl) {
        const SimdLevel level = static_cast<SimdLevel>(lvl);
        for (int iter = 0; iter < 8; ++iter) {
            const Nfa nfa = randomNfa(rng, 4);
            const InputTrace t =
                randomTextTrace(rng, 512, "abcdefgh\n ");
            for (const bool starts : {true, false}) {
                EngineTrio scalar(nfa, starts, SimdLevel::Scalar);
                EngineTrio vec(nfa, starts, level);
                scalar.reset(scalar.cnfa.initialActive());
                vec.reset(vec.cnfa.initialActive());
                for (std::uint64_t i = 0; i < t.size(); ++i) {
                    scalar.step(t.begin()[i]);
                    vec.step(t.begin()[i]);
                    if (i % 31 != 0)
                        continue;
                    EXPECT_EQ(scalar.dense.stateHash(),
                              vec.dense.stateHash())
                        << simdLevelName(level);
                    EXPECT_EQ(scalar.hybrid.stateHash(),
                              vec.hybrid.stateHash())
                        << simdLevelName(level);
                }
                scalar.expectSameObservableState("scalar trio");
                vec.expectSameObservableState("vector trio");
                EXPECT_EQ(scalar.dense.snapshot(), vec.dense.snapshot());
                EXPECT_EQ(scalar.hybrid.snapshot(),
                          vec.hybrid.snapshot());
                EXPECT_EQ(sortedReports(scalar.dense.takeReports()),
                          sortedReports(vec.dense.takeReports()))
                    << simdLevelName(level);
                EXPECT_EQ(sortedReports(scalar.hybrid.takeReports()),
                          sortedReports(vec.hybrid.takeReports()))
                    << simdLevelName(level);
            }
        }
    }
}

TEST(EngineDiff, RunBulkMatchesStepwise)
{
    Rng rng(99);
    const Nfa nfa = randomNfa(rng, 3);
    const InputTrace t = randomTextTrace(rng, 2048, "abcdefgh");
    EngineTrio p(nfa, true);
    p.reset(p.cnfa.initialActive());
    p.run(t.begin(), t.size());
    p.expectSameObservableState("after bulk run");
    const auto expected = sortedReports(p.sparse.takeReports());
    EXPECT_EQ(expected, sortedReports(p.dense.takeReports()));
    EXPECT_EQ(expected, sortedReports(p.hybrid.takeReports()));
}

TEST(EngineDiff, OverwriteActiveAppliesSameFiltering)
{
    // overwriteActive must drop AllInput starts when start machinery
    // is live, identically on both backends.
    Rng rng(7);
    const Nfa nfa = compileRuleset({{".*ab", 1}, {"cd", 2}}, "m");
    const InputTrace t = randomTextTrace(rng, 512, "abcd");
    for (const bool starts : {true, false}) {
        EngineTrio p(nfa, starts);
        p.reset(p.cnfa.initialActive());
        p.run(t.begin(), 100);
        std::vector<StateId> all;
        for (StateId q = 0; q < nfa.size(); ++q)
            all.push_back(q);
        p.sparse.overwriteActive(all);
        p.dense.overwriteActive(all);
        p.hybrid.overwriteActive(all);
        p.expectSameObservableState("after overwrite");
        p.run(t.begin() + 100, t.size() - 100);
        p.expectSameObservableState("after overwrite + run");
    }
}

TEST(EngineDiff, DenseRangeSizesMatchRangeAnalysis)
{
    Rng rng(31);
    for (int iter = 0; iter < 10; ++iter) {
        const Nfa nfa = randomNfa(rng, 4);
        const CompiledNfa cnfa(nfa);
        const DenseNfa dnfa(cnfa);
        const RangeAnalysis ranges(nfa);
        EXPECT_EQ(dnfa.rangeSizes(), ranges.rangeSizes())
            << "iter " << iter;
    }
}

// --- Whole-run equivalence ------------------------------------------

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
diffWorkload(std::uint64_t seed)
{
    Rng rng(seed);
    return Workload{randomNfa(rng, 4),
                    randomTextTrace(rng, 16384, "abcdefgh ")};
}

/** The figure-level facts that must be backend-invariant. */
void
expectSameRun(const PapResult &a, const PapResult &b)
{
    EXPECT_EQ(a.reports, b.reports);
    EXPECT_EQ(a.papCycles, b.papCycles);
    EXPECT_EQ(a.baselineCycles, b.baselineCycles);
    EXPECT_DOUBLE_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.numSegments, b.numSegments);
    EXPECT_DOUBLE_EQ(a.flowsInRange, b.flowsInRange);
    EXPECT_DOUBLE_EQ(a.avgActiveFlows, b.avgActiveFlows);
    EXPECT_DOUBLE_EQ(a.switchOverheadPct, b.switchOverheadPct);
    EXPECT_EQ(a.flowTransitions, b.flowTransitions);
    EXPECT_EQ(a.flowSymbolCycles, b.flowSymbolCycles);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t j = 0; j < a.segments.size(); ++j) {
        EXPECT_EQ(a.segments[j].begin, b.segments[j].begin);
        EXPECT_EQ(a.segments[j].length, b.segments[j].length);
        EXPECT_EQ(a.segments[j].flows, b.segments[j].flows);
        EXPECT_EQ(a.segments[j].deactivated,
                  b.segments[j].deactivated);
        EXPECT_EQ(a.segments[j].converged, b.segments[j].converged);
        EXPECT_EQ(a.segments[j].ranToEnd, b.segments[j].ranToEnd);
        EXPECT_EQ(a.segments[j].tDone, b.segments[j].tDone);
        EXPECT_EQ(a.segments[j].tResolve, b.segments[j].tResolve);
    }
}

TEST(EngineDiff, PapRunsAreByteIdenticalAcrossBackends)
{
    for (const std::uint64_t seed : {11u, 22u, 33u}) {
        const Workload w = diffWorkload(seed);
        const ApConfig board = smallBoard(8);
        PapOptions sparse_opt;
        sparse_opt.engine = EngineKind::Sparse;
        PapOptions dense_opt;
        dense_opt.engine = EngineKind::Dense;
        PapOptions hybrid_opt;
        hybrid_opt.engine = EngineKind::Hybrid;
        const PapResult a = runPap(w.nfa, w.input, board, sparse_opt);
        const PapResult b = runPap(w.nfa, w.input, board, dense_opt);
        const PapResult c = runPap(w.nfa, w.input, board, hybrid_opt);
        ASSERT_TRUE(a.status.ok()) << "seed " << seed;
        ASSERT_TRUE(b.status.ok()) << "seed " << seed;
        ASSERT_TRUE(c.status.ok()) << "seed " << seed;
        EXPECT_TRUE(a.verified);
        EXPECT_TRUE(b.verified);
        EXPECT_TRUE(c.verified);
        EXPECT_EQ(a.engineBackend, "sparse");
        EXPECT_EQ(b.engineBackend, "dense");
        EXPECT_EQ(c.engineBackend, "hybrid");
        expectSameRun(a, b);
        expectSameRun(a, c);
    }
}

TEST(EngineDiff, SequentialRunsAgreeAcrossBackends)
{
    const Workload w = diffWorkload(5);
    PapOptions sparse_opt;
    sparse_opt.engine = EngineKind::Sparse;
    PapOptions dense_opt;
    dense_opt.engine = EngineKind::Dense;
    PapOptions hybrid_opt;
    hybrid_opt.engine = EngineKind::Hybrid;
    const SequentialResult a = runSequential(w.nfa, w.input, sparse_opt);
    const SequentialResult b = runSequential(w.nfa, w.input, dense_opt);
    const SequentialResult c = runSequential(w.nfa, w.input, hybrid_opt);
    EXPECT_EQ(a.engineBackend, "sparse");
    EXPECT_EQ(b.engineBackend, "dense");
    EXPECT_EQ(c.engineBackend, "hybrid");
    EXPECT_EQ(a.reports, b.reports);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.matches, b.matches);
    EXPECT_EQ(a.reports, c.reports);
    EXPECT_EQ(a.cycles, c.cycles);
    EXPECT_EQ(a.matches, c.matches);
    // The sparse oracle measures the feedback signal Auto uses.
    EXPECT_GT(a.activeDensity, 0.0);
}

TEST(EngineDiff, CheckpointFilesAreByteIdenticalAcrossBackends)
{
    const Workload w = diffWorkload(44);
    const ApConfig board = smallBoard(8);
    const auto checkpoint_bytes = [&](EngineKind kind) {
        const std::string path =
            uniqueTempPath(std::string(engineKindName(kind)) + ".ckpt");
        exec::removeCheckpoint(path);
        PapOptions opt;
        opt.engine = kind;
        opt.checkpointPath = path;
        opt.stopAfterSegment = 1;
        const PapResult dead = runPap(w.nfa, w.input, board, opt);
        EXPECT_EQ(dead.status.code(), ErrorCode::Cancelled);
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good());
        std::ostringstream bytes;
        bytes << in.rdbuf();
        exec::removeCheckpoint(path);
        return bytes.str();
    };
    const std::string sparse_ckpt = checkpoint_bytes(EngineKind::Sparse);
    const std::string dense_ckpt = checkpoint_bytes(EngineKind::Dense);
    const std::string hybrid_ckpt = checkpoint_bytes(EngineKind::Hybrid);
    ASSERT_FALSE(sparse_ckpt.empty());
    EXPECT_EQ(sparse_ckpt, dense_ckpt);
    EXPECT_EQ(sparse_ckpt, hybrid_ckpt);
}

// --- Backend selection ----------------------------------------------

TEST(EngineSelect, ParseEngineKind)
{
    EXPECT_EQ(parseEngineKind("sparse").value(), EngineKind::Sparse);
    EXPECT_EQ(parseEngineKind("dense").value(), EngineKind::Dense);
    EXPECT_EQ(parseEngineKind("hybrid").value(), EngineKind::Hybrid);
    EXPECT_EQ(parseEngineKind("auto").value(), EngineKind::Auto);
    const Result<EngineKind> bad = parseEngineKind("bogus");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidInput);
}

TEST(EngineSelect, EngineKindNames)
{
    EXPECT_STREQ(engineKindName(EngineKind::Sparse), "sparse");
    EXPECT_STREQ(engineKindName(EngineKind::Dense), "dense");
    EXPECT_STREQ(engineKindName(EngineKind::Hybrid), "hybrid");
    EXPECT_STREQ(engineKindName(EngineKind::Auto), "auto");
}

TEST(EngineSelect, ResolveHonorsExplicitRequestAndThreshold)
{
    ::unsetenv("PAP_ENGINE");
    // Explicit requests ignore the heuristic entirely.
    EXPECT_EQ(resolveEngineKind(EngineKind::Sparse, 1).value(),
              EngineKind::Sparse);
    EXPECT_EQ(resolveEngineKind(EngineKind::Dense, 1u << 20).value(),
              EngineKind::Dense);
    EXPECT_EQ(resolveEngineKind(EngineKind::Hybrid, 1).value(),
              EngineKind::Hybrid);
    EXPECT_EQ(resolveEngineKind(EngineKind::Hybrid, 1u << 20).value(),
              EngineKind::Hybrid);
    // Auto: dense up to the size threshold, hybrid beyond it — the
    // tile-skipping datapath replaces the old fall-back-to-sparse
    // cliff at 16K+ states.
    EXPECT_EQ(resolveEngineKind(EngineKind::Auto,
                                kDenseAutoMaxStates).value(),
              EngineKind::Dense);
    EXPECT_EQ(resolveEngineKind(EngineKind::Auto,
                                kDenseAutoMaxStates + 1).value(),
              EngineKind::Hybrid);
}

TEST(EngineSelect, ResolveConsultsMeasuredDensity)
{
    ::unsetenv("PAP_ENGINE");
    // Small automata stay dense only when the measured active density
    // clears the threshold; sparse activity routes them to hybrid.
    EXPECT_EQ(resolveEngineKind(EngineKind::Auto, kDenseAutoMaxStates,
                                kDenseAutoMinDensity).value(),
              EngineKind::Dense);
    EXPECT_EQ(resolveEngineKind(EngineKind::Auto, kDenseAutoMaxStates,
                                0.9).value(),
              EngineKind::Dense);
    EXPECT_EQ(resolveEngineKind(EngineKind::Auto, kDenseAutoMaxStates,
                                0.09).value(),
              EngineKind::Hybrid);
    // No measurement (negative hint) keeps the size-only behavior.
    EXPECT_EQ(resolveEngineKind(EngineKind::Auto, kDenseAutoMaxStates,
                                -1.0).value(),
              EngineKind::Dense);
    // Beyond the size threshold density cannot rescue dense.
    EXPECT_EQ(resolveEngineKind(EngineKind::Auto,
                                kDenseAutoMaxStates + 1, 0.9).value(),
              EngineKind::Hybrid);
    // Explicit requests ignore density like they ignore size.
    EXPECT_EQ(resolveEngineKind(EngineKind::Dense, 64, 0.0).value(),
              EngineKind::Dense);
    EXPECT_EQ(resolveEngineKind(EngineKind::Sparse, 64, 0.9).value(),
              EngineKind::Sparse);
}

TEST(EngineSelect, ResolveConsultsEnvironmentOnlyForAuto)
{
    ::setenv("PAP_ENGINE", "sparse", 1);
    EXPECT_EQ(resolveEngineKind(EngineKind::Auto, 4).value(),
              EngineKind::Sparse);
    EXPECT_EQ(resolveEngineKind(EngineKind::Dense, 4).value(),
              EngineKind::Dense);
    ::setenv("PAP_ENGINE", "dense", 1);
    EXPECT_EQ(resolveEngineKind(EngineKind::Auto, 1u << 20).value(),
              EngineKind::Dense);
    ::unsetenv("PAP_ENGINE");
}

TEST(EngineSelect, PrefixProbeMatchesFullTraceDensityOnTable1)
{
    // runPap steers Auto with a density probe over the input's prefix
    // (the full sequential run now executes concurrently and finishes
    // too late). On every Table-1 automaton the probe must pick the
    // backend the full trace's measured density picks.
    ::unsetenv("PAP_ENGINE");
    PapOptions sparse;
    sparse.engine = EngineKind::Sparse;
    for (const auto &info : benchmarkRegistry()) {
        const Nfa nfa = buildBenchmark(info.name);
        const InputTrace input =
            buildBenchmarkTrace(nfa, info.name, 4 * kDensityProbeSymbols);
        const CompiledNfa cnfa(nfa);
        const double probe = probeActiveDensity(cnfa, input);
        // Above the size threshold density cannot change the choice,
        // so the probe does not run.
        EXPECT_EQ(probe < 0.0, cnfa.size() > kDenseAutoMaxStates)
            << info.name;
        const SequentialResult full = runSequential(nfa, input, sparse);
        EXPECT_EQ(
            resolveEngineKind(EngineKind::Auto, cnfa.size(), probe).value(),
            resolveEngineKind(EngineKind::Auto, cnfa.size(),
                              full.activeDensity)
                .value())
            << info.name << ": probe density " << probe
            << ", full-trace density " << full.activeDensity;
    }
}

TEST(EngineSelect, InvalidEnvironmentIsATypedError)
{
    // An invalid PAP_ENGINE value fails exactly like an invalid
    // --engine flag: a typed InvalidInput error, never a silent
    // fallback to the threshold (and never for explicit requests,
    // which don't consult the environment at all).
    ::setenv("PAP_ENGINE", "wat", 1);
    const Result<EngineKind> bad = resolveEngineKind(EngineKind::Auto, 4);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidInput);
    EXPECT_NE(bad.status().message().find("PAP_ENGINE"),
              std::string::npos);
    EXPECT_NE(bad.status().message().find("wat"), std::string::npos);
    EXPECT_EQ(resolveEngineKind(EngineKind::Sparse, 4).value(),
              EngineKind::Sparse);
    ::unsetenv("PAP_ENGINE");
}

TEST(EngineSelect, ContextCarriesSelectionErrorAndStaysUsable)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    const CompiledNfa cnfa(nfa);
    ::setenv("PAP_ENGINE", "bogus", 1);
    const EngineContext ctx(cnfa, EngineKind::Auto);
    EXPECT_FALSE(ctx.status().ok());
    EXPECT_EQ(ctx.status().code(), ErrorCode::InvalidInput);
    // The context itself stays constructed on the sparse fallback so
    // callers can decide how to surface the error.
    EXPECT_FALSE(ctx.dense());
    EXPECT_STREQ(ctx.backendName(), "sparse");
    ::unsetenv("PAP_ENGINE");
    const EngineContext good(cnfa, EngineKind::Auto);
    EXPECT_TRUE(good.status().ok());
}

TEST(EngineSelect, RunnersFailTypedOnInvalidEnvironment)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    const InputTrace input(
        std::vector<Symbol>(64, static_cast<Symbol>('a')));
    ::setenv("PAP_ENGINE", "nope", 1);
    const SequentialResult seq = runSequential(nfa, input);
    EXPECT_FALSE(seq.status.ok());
    EXPECT_EQ(seq.status.code(), ErrorCode::InvalidInput);
    EXPECT_TRUE(seq.reports.empty());
    const PapResult par =
        runPap(nfa, input, ApConfig::d480(1), PapOptions{});
    EXPECT_FALSE(par.status.ok());
    EXPECT_EQ(par.status.code(), ErrorCode::InvalidInput);
    ::unsetenv("PAP_ENGINE");
}

TEST(EngineSelect, ContextReportsSelectedBackend)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    const CompiledNfa cnfa(nfa);
    ::unsetenv("PAP_ENGINE");
    const EngineContext sparse(cnfa, EngineKind::Sparse);
    EXPECT_FALSE(sparse.dense());
    EXPECT_STREQ(sparse.backendName(), "sparse");
    EXPECT_EQ(sparse.denseNfa(), nullptr);
    const EngineContext dense(cnfa, EngineKind::Dense);
    EXPECT_TRUE(dense.dense());
    EXPECT_STREQ(dense.backendName(), "dense");
    ASSERT_NE(dense.denseNfa(), nullptr);
    EXPECT_EQ(dense.denseNfa()->size(), cnfa.size());
    const EngineContext hybrid(cnfa, EngineKind::Hybrid);
    EXPECT_EQ(hybrid.kind(), EngineKind::Hybrid);
    EXPECT_STREQ(hybrid.backendName(), "hybrid");
    ASSERT_NE(hybrid.denseNfa(), nullptr);
    // The datapath tag is the backend name plus the dispatched SIMD
    // level ("hybrid+avx2"), or the bare name on a scalar host.
    const std::string tag = hybrid.datapathName();
    if (hybrid.simdLevel() == SimdLevel::Scalar)
        EXPECT_EQ(tag, "hybrid");
    else
        EXPECT_EQ(tag, std::string("hybrid+") +
                           simdLevelName(hybrid.simdLevel()));
    EXPECT_EQ(std::string(sparse.datapathName()), "sparse");
}

// --- SIMD dispatch selection ----------------------------------------

TEST(SimdSelect, ParseSimdLevel)
{
    EXPECT_EQ(parseSimdLevel("off").value(), SimdLevel::Scalar);
    EXPECT_EQ(parseSimdLevel("scalar").value(), SimdLevel::Scalar);
    EXPECT_EQ(parseSimdLevel("avx2").value(), SimdLevel::Avx2);
    EXPECT_EQ(parseSimdLevel("avx512").value(), SimdLevel::Avx512);
    EXPECT_EQ(parseSimdLevel("auto").value(), detectSimdLevel());
    const Result<SimdLevel> bad = parseSimdLevel("sse9");
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidInput);
}

TEST(SimdSelect, SimdLevelNames)
{
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx512), "avx512");
}

TEST(SimdSelect, ResolveHonorsEnvironmentAndClampsToHost)
{
    ::setenv("PAP_SIMD", "off", 1);
    EXPECT_EQ(resolveSimdLevel().value(), SimdLevel::Scalar);
    // A pinned level the host cannot execute clamps DOWN to the probe
    // instead of failing, so CI matrix entries stay portable.
    ::setenv("PAP_SIMD", "avx512", 1);
    EXPECT_LE(resolveSimdLevel().value(), detectSimdLevel());
    ::setenv("PAP_SIMD", "auto", 1);
    EXPECT_EQ(resolveSimdLevel().value(), detectSimdLevel());
    ::unsetenv("PAP_SIMD");
    EXPECT_EQ(resolveSimdLevel().value(), detectSimdLevel());
    EXPECT_EQ(currentSimdLevel(), detectSimdLevel());
}

TEST(SimdSelect, InvalidEnvironmentIsATypedError)
{
    ::setenv("PAP_SIMD", "bogus", 1);
    const Result<SimdLevel> bad = resolveSimdLevel();
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidInput);
    EXPECT_NE(bad.status().message().find("PAP_SIMD"),
              std::string::npos);
    // currentSimdLevel() collapses the error to the probe for callers
    // without a status channel.
    EXPECT_EQ(currentSimdLevel(), detectSimdLevel());
    // The typed error reaches run drivers through EngineContext.
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    const CompiledNfa cnfa(nfa);
    const EngineContext ctx(cnfa, EngineKind::Dense);
    EXPECT_FALSE(ctx.status().ok());
    EXPECT_EQ(ctx.status().code(), ErrorCode::InvalidInput);
    const InputTrace input(
        std::vector<Symbol>(64, static_cast<Symbol>('a')));
    const SequentialResult seq = runSequential(nfa, input);
    EXPECT_FALSE(seq.status.ok());
    EXPECT_EQ(seq.status.code(), ErrorCode::InvalidInput);
    const PapResult par =
        runPap(nfa, input, ApConfig::d480(1), PapOptions{});
    EXPECT_FALSE(par.status.ok());
    EXPECT_EQ(par.status.code(), ErrorCode::InvalidInput);
    ::unsetenv("PAP_SIMD");
}

TEST(SimdSelect, ScalarPinDropsTheDatapathSuffix)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    const CompiledNfa cnfa(nfa);
    ::setenv("PAP_SIMD", "off", 1);
    const EngineContext ctx(cnfa, EngineKind::Dense);
    EXPECT_TRUE(ctx.status().ok());
    EXPECT_EQ(ctx.simdLevel(), SimdLevel::Scalar);
    EXPECT_EQ(std::string(ctx.datapathName()), "dense");
    ::unsetenv("PAP_SIMD");
}

// --- Large automata: the 16K-state regime ---------------------------

/**
 * A structured automaton big enough to cross the dense-auto size
 * threshold: chains of narrow single-letter states, a sprinkling of
 * always-on AllInput drivers that keep re-seeding activity, a rare
 * 'h' label that gives the partitioner a small boundary range, and
 * periodic reporting states. Activity stays sparse (a few hundred of
 * 16K+ states), which is exactly the regime the hybrid tile-skipping
 * datapath exists for.
 */
Nfa
largeSyntheticNfa(StateId states)
{
    Nfa nfa("large16k");
    const std::string letters = "abcdefg";
    for (StateId q = 0; q < states; ++q) {
        // Driver successors are the reporting states: they actually
        // fire (a driver re-enables them every cycle), unlike deep
        // chain positions that activity never reaches.
        const bool reporting = (q % 256) == 1;
        const ReportCode code =
            reporting ? static_cast<ReportCode>(1 + q % 31) : 0;
        if (q == 0) {
            nfa.addState(CharClass::single('a'), StartType::StartOfData,
                         reporting, code);
        } else if (q % 256 == 0) {
            // Always-on drivers: match every symbol, re-seed activity.
            nfa.addState(CharClass::all(), StartType::AllInput,
                         reporting, code);
        } else if (q % 1024 == 1) {
            // Rare label: the partitioner's small boundary range.
            nfa.addState(CharClass::single('h'), StartType::None,
                         reporting, code);
        } else {
            nfa.addState(CharClass::single(letters[q % 7]),
                         StartType::None, reporting, code);
        }
    }
    for (StateId q = 0; q < states; ++q) {
        // Chains that wrap within a 1024-state block keep activity
        // persistent without letting it saturate.
        const StateId block = q & ~StateId{1023};
        nfa.addEdge(q, block + ((q - block + 1) & 1023));
        if (q % 256 == 0) {
            // Self-loop keeps drivers alive in enum mode too, where
            // no start fold re-enables AllInput states.
            nfa.addEdge(q, q);
            if (q + 17 < states)
                nfa.addEdge(q, q + 17);
        }
    }
    nfa.finalize();
    return nfa;
}

TEST(EngineDiffLarge, TrioAgreesAt16KStates)
{
    const Nfa nfa = largeSyntheticNfa(16384);
    Rng rng(77);
    const InputTrace t = randomTextTrace(rng, 2048, "abcdefgh");
    for (const bool starts : {true, false}) {
        EngineTrio p(nfa, starts);
        // Start mode seeds like a fresh run; enum mode (no start
        // fold) seeds the self-looping drivers plus a state spread,
        // like a flow plan would.
        std::vector<StateId> seed = p.cnfa.initialActive();
        if (!starts)
            for (StateId q = 0; q < nfa.size(); q += 128)
                seed.push_back(q);
        p.reset(seed);
        for (std::uint64_t i = 0; i < t.size(); ++i) {
            p.step(t.begin()[i]);
            if (i % 64 == 0)
                p.expectSameObservableState("16K mid-run");
        }
        p.expectSameObservableState("16K after run");
        const auto expected = sortedReports(p.sparse.takeReports());
        EXPECT_FALSE(expected.empty());
        EXPECT_EQ(expected, sortedReports(p.dense.takeReports()));
        EXPECT_EQ(expected, sortedReports(p.hybrid.takeReports()));
    }
}

TEST(EngineDiffLarge, AutoResolvesToHybridAt16KStates)
{
    ::unsetenv("PAP_ENGINE");
    const Nfa nfa = largeSyntheticNfa(16384);
    const CompiledNfa cnfa(nfa);
    const EngineContext ctx(cnfa, EngineKind::Auto);
    ASSERT_TRUE(ctx.status().ok());
    EXPECT_EQ(ctx.kind(), EngineKind::Hybrid);
}

TEST(EngineDiffLarge, PapRunsAreByteIdenticalAt16KStates)
{
    // The auto leg asserts the size heuristic, so a CI matrix entry
    // pinning PAP_ENGINE must not override it here.
    ::unsetenv("PAP_ENGINE");
    const Nfa nfa = largeSyntheticNfa(16384);
    Rng rng(88);
    const InputTrace input = randomTextTrace(rng, 16384, "abcdefgh");
    const ApConfig board = smallBoard(8);
    PapOptions sparse_opt;
    sparse_opt.engine = EngineKind::Sparse;
    PapOptions hybrid_opt;
    hybrid_opt.engine = EngineKind::Hybrid;
    PapOptions auto_opt;
    auto_opt.engine = EngineKind::Auto;
    const PapResult a = runPap(nfa, input, board, sparse_opt);
    const PapResult b = runPap(nfa, input, board, hybrid_opt);
    const PapResult c = runPap(nfa, input, board, auto_opt);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    ASSERT_TRUE(c.status.ok());
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_TRUE(c.verified);
    EXPECT_EQ(a.engineBackend, "sparse");
    EXPECT_EQ(b.engineBackend, "hybrid");
    // Auto must pick hybrid above the size threshold.
    EXPECT_EQ(c.engineBackend, "hybrid");
    expectSameRun(a, b);
    expectSameRun(a, c);
    EXPECT_FALSE(a.reports.empty());
}

TEST(EngineDiffLarge, PipelineOverlapIsByteIdenticalAt16KStates)
{
    const Nfa nfa = largeSyntheticNfa(16384);
    Rng rng(91);
    const InputTrace input = randomTextTrace(rng, 16384, "abcdefgh");
    const ApConfig board = smallBoard(8);
    // Several host threads, so the composer consumes segments while
    // later ones still execute.
    PapOptions sparse_opt;
    sparse_opt.engine = EngineKind::Sparse;
    sparse_opt.threads = 4;
    PapOptions hybrid_opt;
    hybrid_opt.engine = EngineKind::Hybrid;
    hybrid_opt.threads = 4;
    const PapResult a = runPap(nfa, input, board, sparse_opt);
    const PapResult b = runPap(nfa, input, board, hybrid_opt);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    expectSameRun(a, b);
}

TEST(EngineDiffLarge, CheckpointResumeIsByteIdenticalAt16KStates)
{
    const Nfa nfa = largeSyntheticNfa(16384);
    Rng rng(93);
    const InputTrace input = randomTextTrace(rng, 16384, "abcdefgh");
    const ApConfig board = smallBoard(8);
    const auto run_with_stop = [&](EngineKind kind) {
        const std::string path =
            uniqueTempPath(std::string(engineKindName(kind)) + ".ckpt");
        exec::removeCheckpoint(path);
        PapOptions opt;
        opt.engine = kind;
        opt.checkpointPath = path;
        opt.stopAfterSegment = 1;
        const PapResult dead = runPap(nfa, input, board, opt);
        EXPECT_EQ(dead.status.code(), ErrorCode::Cancelled);
        // Resume from the checkpoint and run to completion.
        opt.stopAfterSegment = -1;
        const PapResult done = runPap(nfa, input, board, opt);
        EXPECT_TRUE(done.status.ok());
        exec::removeCheckpoint(path);
        return done;
    };
    const PapResult a = run_with_stop(EngineKind::Sparse);
    const PapResult b = run_with_stop(EngineKind::Hybrid);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    expectSameRun(a, b);
}

} // namespace
} // namespace pap
