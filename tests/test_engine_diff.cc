/**
 * @file
 * Differential tests of the EngineBackend implementations: the sparse
 * FunctionalEngine (reference) and the HybridEngine must be
 * observationally identical — same sorted reports, snapshots, state
 * hashes, and counters — on random automata and random inputs, at
 * every SIMD dispatch level the host can execute, and whole PAP runs
 * must be byte-identical (reports, cycle counts, checkpoint files)
 * regardless of the backend.
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
#include "pap/runner.h"
#include "serve/ruleset_registry.h"
#include "serve/server.h"
#include "test_util.h"
#include "workload_helpers.h"
#include "workloads/benchmarks.h"

namespace pap {
namespace {

/** Both backends over one automaton, stepped in lockstep. */
struct EnginePair
{
    CompiledNfa cnfa;
    DenseNfa dnfa;
    EngineScratch scratch;
    FunctionalEngine sparse;
    HybridEngine hybrid;

    EnginePair(const Nfa &nfa, bool starts,
               SimdLevel simd = currentSimdLevel())
        : cnfa(nfa), dnfa(cnfa), scratch(nfa.size()),
          sparse(cnfa, starts, &scratch), hybrid(dnfa, starts, simd)
    {
    }

    void
    reset(const std::vector<StateId> &seed, std::uint64_t base = 0)
    {
        sparse.reset(seed, base);
        hybrid.reset(seed, base);
    }

    void
    step(Symbol s)
    {
        sparse.step(s);
        hybrid.step(s);
    }

    void
    run(const Symbol *data, std::size_t len)
    {
        sparse.run(data, len);
        hybrid.run(data, len);
    }

    /** The full equivalence contract at the current instant. */
    void
    expectSameObservableState(const char *where) const
    {
        EXPECT_EQ(sparse.activeCount(), hybrid.activeCount()) << where;
        EXPECT_EQ(sparse.snapshot(), hybrid.snapshot()) << where;
        EXPECT_EQ(sparse.stateHash(), hybrid.stateHash()) << where;
        EXPECT_EQ(sparse.dead(), hybrid.dead()) << where;
        EXPECT_EQ(sparse.cursor(), hybrid.cursor()) << where;
        EXPECT_TRUE(sparse.sameActiveSet(hybrid)) << where;
        EXPECT_TRUE(hybrid.sameActiveSet(sparse)) << where;
        const EngineCounters &a = sparse.counters();
        const EngineCounters &b = hybrid.counters();
        EXPECT_EQ(a.symbols, b.symbols) << where;
        EXPECT_EQ(a.matches, b.matches) << where;
        EXPECT_EQ(a.enables, b.enables) << where;
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
            EnginePair p(nfa, starts);
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
            EXPECT_EQ(sortedReports(p.sparse.takeReports()),
                      sortedReports(p.hybrid.takeReports()))
                << "iter " << iter << " starts " << starts;
        }
    }
}

TEST(EngineDiff, EverySimdLevelMatchesScalarInLockstep)
{
    // The word-packed kernels must be bit-exact across dispatch
    // levels: run the scalar pair and a vectorized pair side by side
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
                EnginePair scalar(nfa, starts, SimdLevel::Scalar);
                EnginePair vec(nfa, starts, level);
                scalar.reset(scalar.cnfa.initialActive());
                vec.reset(vec.cnfa.initialActive());
                for (std::uint64_t i = 0; i < t.size(); ++i) {
                    scalar.step(t.begin()[i]);
                    vec.step(t.begin()[i]);
                    if (i % 31 != 0)
                        continue;
                    EXPECT_EQ(scalar.hybrid.stateHash(),
                              vec.hybrid.stateHash())
                        << simdLevelName(level);
                }
                scalar.expectSameObservableState("scalar pair");
                vec.expectSameObservableState("vector pair");
                EXPECT_EQ(scalar.hybrid.snapshot(),
                          vec.hybrid.snapshot());
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
    EnginePair p(nfa, true);
    p.reset(p.cnfa.initialActive());
    p.run(t.begin(), t.size());
    p.expectSameObservableState("after bulk run");
    EXPECT_EQ(sortedReports(p.sparse.takeReports()),
              sortedReports(p.hybrid.takeReports()));
}

TEST(EngineDiff, OverwriteActiveAppliesSameFiltering)
{
    // overwriteActive must drop AllInput starts when start machinery
    // is live, identically on both backends.
    Rng rng(7);
    const Nfa nfa = compileRuleset({{".*ab", 1}, {"cd", 2}}, "m");
    const InputTrace t = randomTextTrace(rng, 512, "abcd");
    for (const bool starts : {true, false}) {
        EnginePair p(nfa, starts);
        p.reset(p.cnfa.initialActive());
        p.run(t.begin(), 100);
        std::vector<StateId> all;
        for (StateId q = 0; q < nfa.size(); ++q)
            all.push_back(q);
        p.sparse.overwriteActive(all);
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
        PapOptions hybrid_opt;
        hybrid_opt.engine = EngineKind::Hybrid;
        const PapResult a = runPap(w.nfa, w.input, board, sparse_opt);
        const PapResult b = runPap(w.nfa, w.input, board, hybrid_opt);
        ASSERT_TRUE(a.status.ok()) << "seed " << seed;
        ASSERT_TRUE(b.status.ok()) << "seed " << seed;
        EXPECT_TRUE(a.verified);
        EXPECT_TRUE(b.verified);
        EXPECT_EQ(a.engineBackend, "sparse");
        EXPECT_EQ(b.engineBackend, "hybrid");
        expectSameRun(a, b);
    }
}

TEST(EngineDiff, SequentialRunsAgreeAcrossBackends)
{
    const Workload w = diffWorkload(5);
    PapOptions sparse_opt;
    sparse_opt.engine = EngineKind::Sparse;
    PapOptions hybrid_opt;
    hybrid_opt.engine = EngineKind::Hybrid;
    const SequentialResult a = runSequential(w.nfa, w.input, sparse_opt);
    const SequentialResult b = runSequential(w.nfa, w.input, hybrid_opt);
    EXPECT_EQ(a.engineBackend, "sparse");
    EXPECT_EQ(b.engineBackend, "hybrid");
    EXPECT_EQ(a.reports, b.reports);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.matches, b.matches);
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
    const std::string hybrid_ckpt = checkpoint_bytes(EngineKind::Hybrid);
    ASSERT_FALSE(sparse_ckpt.empty());
    EXPECT_EQ(sparse_ckpt, hybrid_ckpt);
}

// --- Backend selection ----------------------------------------------

TEST(EngineSelect, ParseEngineKind)
{
    EXPECT_EQ(parseEngineKind("sparse").value(), EngineKind::Sparse);
    EXPECT_EQ(parseEngineKind("hybrid").value(), EngineKind::Hybrid);
    // "dense" and "auto" are unknown values like any other.
    for (const char *bad_name : {"dense", "auto", "bogus"}) {
        const Result<EngineKind> bad = parseEngineKind(bad_name);
        ASSERT_FALSE(bad.ok()) << bad_name;
        EXPECT_EQ(bad.status().code(), ErrorCode::InvalidInput)
            << bad_name;
    }
}

TEST(EngineSelect, EngineKindNames)
{
    EXPECT_STREQ(engineKindName(EngineKind::Sparse), "sparse");
    EXPECT_STREQ(engineKindName(EngineKind::Hybrid), "hybrid");
}

TEST(EngineSelect, DefaultBackendIsHybrid)
{
    // Every entry point runs the word-packed hybrid backend unless the
    // caller asks for the sparse reference.
    const Nfa nfa = compileRuleset({{"ab", 1}, {"cd", 2}}, "m");
    Rng rng(3);
    const InputTrace input = randomTextTrace(rng, 4096, "abcd");
    const SequentialResult seq = runSequential(nfa, input);
    ASSERT_TRUE(seq.status.ok());
    EXPECT_EQ(seq.engineBackend, "hybrid");
    const PapResult par = runPap(nfa, input, smallBoard(8), PapOptions{});
    ASSERT_TRUE(par.status.ok());
    EXPECT_EQ(par.engineBackend, "hybrid");
    serve::RulesetRegistry registry(serve::ServeOptions{}.pap.engine);
    const auto ruleset = registry.install(nfa);
    ASSERT_TRUE(ruleset.ok());
    EXPECT_STREQ(ruleset.value()->engines->backendName(), "hybrid");
}

TEST(EngineSelect, ContextCarriesSelectionErrorAndStaysUsable)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    const CompiledNfa cnfa(nfa);
    ::setenv("PAP_SIMD", "bogus", 1);
    const EngineContext ctx(cnfa, EngineKind::Hybrid);
    ::unsetenv("PAP_SIMD");
    EXPECT_FALSE(ctx.status().ok());
    EXPECT_EQ(ctx.status().code(), ErrorCode::InvalidInput);
    // The context itself stays constructed on the sparse fallback at
    // the scalar level so callers can decide how to surface the error.
    EXPECT_EQ(ctx.kind(), EngineKind::Sparse);
    EXPECT_STREQ(ctx.backendName(), "sparse");
    EXPECT_EQ(ctx.simdLevel(), SimdLevel::Scalar);
    EXPECT_EQ(ctx.denseNfa(), nullptr);
    const auto engine = ctx.make(/*starts=*/true);
    engine->reset(cnfa.initialActive(), 0);
    const std::vector<Symbol> ab = {static_cast<Symbol>('a'),
                                    static_cast<Symbol>('b')};
    engine->run(ab.data(), ab.size());
    EXPECT_EQ(engine->reports().size(), 1u);
    const EngineContext good(cnfa, EngineKind::Hybrid);
    EXPECT_TRUE(good.status().ok());
    EXPECT_STREQ(good.backendName(), "hybrid");
}

TEST(EngineSelect, ContextReportsSelectedBackend)
{
    const Nfa nfa = compileRuleset({{"ab", 1}}, "m");
    const CompiledNfa cnfa(nfa);
    const EngineContext sparse(cnfa, EngineKind::Sparse);
    EXPECT_EQ(sparse.kind(), EngineKind::Sparse);
    EXPECT_STREQ(sparse.backendName(), "sparse");
    EXPECT_EQ(sparse.denseNfa(), nullptr);
    const EngineContext hybrid(cnfa, EngineKind::Hybrid);
    EXPECT_EQ(hybrid.kind(), EngineKind::Hybrid);
    EXPECT_STREQ(hybrid.backendName(), "hybrid");
    ASSERT_NE(hybrid.denseNfa(), nullptr);
    EXPECT_EQ(hybrid.denseNfa()->size(), cnfa.size());
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
    const EngineContext ctx(cnfa, EngineKind::Hybrid);
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
    const EngineContext ctx(cnfa, EngineKind::Hybrid);
    EXPECT_TRUE(ctx.status().ok());
    EXPECT_EQ(ctx.simdLevel(), SimdLevel::Scalar);
    EXPECT_EQ(std::string(ctx.datapathName()), "hybrid");
    ::unsetenv("PAP_SIMD");
}

// --- Large automata: the 16K-state regime ---------------------------

/**
 * A structured automaton in the 16K-state regime: chains of narrow
 * single-letter states, a sprinkling of
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
        EnginePair p(nfa, starts);
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
        EXPECT_EQ(expected, sortedReports(p.hybrid.takeReports()));
    }
}

TEST(EngineDiffLarge, PapRunsAreByteIdenticalAt16KStates)
{
    const Nfa nfa = largeSyntheticNfa(16384);
    Rng rng(88);
    const InputTrace input = randomTextTrace(rng, 16384, "abcdefgh");
    const ApConfig board = smallBoard(8);
    PapOptions sparse_opt;
    sparse_opt.engine = EngineKind::Sparse;
    PapOptions hybrid_opt;
    hybrid_opt.engine = EngineKind::Hybrid;
    const PapResult a = runPap(nfa, input, board, sparse_opt);
    const PapResult b = runPap(nfa, input, board, hybrid_opt);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_EQ(a.engineBackend, "sparse");
    EXPECT_EQ(b.engineBackend, "hybrid");
    expectSameRun(a, b);
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
