/**
 * @file
 * Golden checks: runPap verifies segment by segment. Each segment's
 * check is a start-enabled sequential run from the composed true set
 * entering it; when every check ends on the composed set leaving its
 * segment, the checks together stand in for the whole-input sequential
 * run, and runner.verify.whole_input_runs stays put. These tests pin
 * that the sequential fields are the whole-input run's on the Table-1
 * automata, that an AllInput start held in a composed set does not
 * send verification to the whole input, that faults are repaired
 * whichever route catches them, and that a resumed run verifies
 * through one more check, over its restored prefix, which also vouches
 * for the restored frontier set.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "ap/ap_config.h"
#include "common/rng.h"
#include "engine/compiled_nfa.h"
#include "nfa/glushkov.h"
#include "obs/metrics.h"
#include "pap/exec/checkpoint.h"
#include "pap/fault_injector.h"
#include "pap/runner.h"
#include "test_util.h"
#include "workload_helpers.h"
#include "workloads/benchmarks.h"

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

std::uint64_t
wholeInputRuns()
{
    return obs::metrics().counter("runner.verify.whole_input_runs");
}

/**
 * The sequential fields of @p r against the whole-input sequential run
 * @p seq of the same input.
 */
void
expectSequentialFields(const PapResult &r, const SequentialResult &seq,
                       const std::string &what)
{
    EXPECT_TRUE(r.verified) << what;
    EXPECT_FALSE(r.recovered) << what;
    EXPECT_EQ(r.reports, seq.reports) << what;
    EXPECT_EQ(r.seqReportEvents, seq.reports.size()) << what;
    EXPECT_EQ(r.seqTransitions, seq.counters.matches) << what;
    EXPECT_EQ(r.baselineCycles, seq.cycles) << what;
    if (r.numSegments > 1) {
        const std::uint64_t seq_matches = seq.counters.matches;
        EXPECT_DOUBLE_EQ(r.transitionRatio,
                         seq_matches
                             ? static_cast<double>(r.flowTransitions) /
                                   static_cast<double>(seq_matches)
                             : 1.0)
            << what;
        EXPECT_DOUBLE_EQ(
            r.reportInflation,
            seq.reports.empty()
                ? (r.papReportEvents
                       ? static_cast<double>(r.papReportEvents)
                       : 1.0)
                : static_cast<double>(r.papReportEvents) /
                      static_cast<double>(seq.reports.size()))
            << what;
    }
}

TEST(GoldenChecks, Table1RunsVerifyThroughTheChecks)
{
    const std::uint64_t before = wholeInputRuns();
    for (const auto &info : benchmarkRegistry()) {
        const Nfa nfa = buildBenchmark(info.name);
        const InputTrace input = buildBenchmarkTrace(nfa, info.name, 4096);
        const SequentialResult seq = runSequential(nfa, input);
        const PreparedAutomaton prepared(nfa);
        for (const std::uint32_t ranks : {1u, 4u}) {
            for (const std::uint32_t threads : {1u, 4u}) {
                PapOptions opt;
                opt.threads = threads;
                opt.routingMinHalfCores = info.paper.halfCores;
                const PapResult r = runPap(prepared, input,
                                           ApConfig::d480(ranks), opt);
                const std::string what = info.name + " ranks=" +
                                         std::to_string(ranks) +
                                         " threads=" +
                                         std::to_string(threads);
                ASSERT_TRUE(r.status.ok()) << what;
                expectSequentialFields(r, seq, what);
            }
        }
    }
    EXPECT_EQ(wholeInputRuns(), before);
}

/**
 * "(ab*)+": the 'a' state is an AllInput start and the target of edges
 * from itself and from 'b', so an enumeration flow that matches either
 * keeps it in its active set, and the composed true set can hold it.
 */
struct AllInputLoop
{
    Nfa nfa = compileRuleset({{"(ab*)+", 1}}, "loop");
    InputTrace input;

    AllInputLoop()
    {
        Rng rng(5);
        input = randomTextTrace(rng, 16384, "ab");
    }
};

TEST(GoldenChecks, AllInputStartInTheComposedSetStillVerifies)
{
    const AllInputLoop w;
    const ApConfig board = smallBoard(8);

    // Stop after each segment in turn and read the composed true set
    // off the checkpoint: some segment must leave an AllInput start
    // in it, or this test shows nothing.
    const std::string path = uniqueTempPath("allinput.ckpt");
    const CompiledNfa cnfa(w.nfa);
    bool held = false;
    const PapResult full = runPap(w.nfa, w.input, board);
    ASSERT_GT(full.numSegments, 2u);
    for (std::uint32_t stop = 0; stop + 1 < full.numSegments && !held;
         ++stop) {
        PapOptions killed;
        killed.checkpointPath = path;
        killed.stopAfterSegment = static_cast<std::int64_t>(stop);
        runPap(w.nfa, w.input, board, killed);
        const auto frontier = exec::loadCheckpoint(path);
        ASSERT_TRUE(frontier.ok()) << frontier.status().toString();
        for (const StateId q : frontier.value().finalActive)
            held = held || cnfa.isAllInputStart(q);
        exec::removeCheckpoint(path);
    }
    ASSERT_TRUE(held) << "no composed set held an AllInput start";

    const std::uint64_t before = wholeInputRuns();
    for (const std::uint32_t threads : {1u, 4u}) {
        PapOptions opt;
        opt.threads = threads;
        const PapResult r = runPap(w.nfa, w.input, board, opt);
        ASSERT_TRUE(r.status.ok());
        expectSequentialFields(r, runSequential(w.nfa, w.input),
                               "threads=" + std::to_string(threads));
    }
    EXPECT_EQ(wholeInputRuns(), before);
}

/** A fault kind and the whole-input runs its verification takes. */
struct ComposedSetFault
{
    const char *kind;
    std::uint64_t wholeInputRuns;
};

/**
 * Print the fault by its kind: gtest's default dumps the struct's
 * bytes, which hold the address of @c kind, so under address-space
 * randomisation the test's listed name would change from run to run.
 */
void
PrintTo(const ComposedSetFault &f, std::ostream *os)
{
    *os << f.kind;
}

class GoldenCheckFaults : public ::testing::TestWithParam<ComposedSetFault>
{};

/**
 * Faults that strike the composition are detected and repaired from
 * the sequential reports, at speedup 1, whichever route catches them.
 * A corrupted state vector damages a composed set, so a check
 * disagrees and verification runs the whole input. A dropped FIV here
 * loses enumeration reports but leaves every composed set true, so the
 * checks agree and their concatenated reports expose the loss.
 */
TEST_P(GoldenCheckFaults, DetectedAndRepaired)
{
    Rng rng(91);
    const Nfa nfa = compileRuleset({{"ab.*cd", 1}, {"fgh", 2}}, "m");
    const InputTrace input = randomTextTrace(rng, 16384, "abcdfgh ");
    const ApConfig board = smallBoard(8);
    const PapResult clean = runPap(nfa, input, board);
    ASSERT_TRUE(clean.verified);

    auto fi = FaultInjector::fromSpec(
                  std::string(GetParam().kind) + ":32", 11)
                  .value();
    PapOptions opt;
    opt.faultInjector = &fi;
    const std::uint64_t before = wholeInputRuns();
    const PapResult r = runPap(nfa, input, board, opt);
    EXPECT_EQ(wholeInputRuns(), before + GetParam().wholeInputRuns);
    EXPECT_GT(fi.injected(), 0u);
    EXPECT_FALSE(r.verified);
    EXPECT_TRUE(r.recovered);
    EXPECT_EQ(r.reports, clean.reports);
    EXPECT_EQ(r.seqReportEvents, clean.seqReportEvents);
    EXPECT_EQ(r.seqTransitions, clean.seqTransitions);
    EXPECT_EQ(r.baselineCycles, clean.baselineCycles);
    EXPECT_DOUBLE_EQ(r.speedup, 1.0);
}

INSTANTIATE_TEST_SUITE_P(ComposedSetFaults, GoldenCheckFaults,
                         ::testing::Values(ComposedSetFault{"drop-fiv", 0},
                                           ComposedSetFault{"corrupt-sv",
                                                            1}),
                         [](const auto &info) {
                             std::string name = info.param.kind;
                             for (auto &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

/** A run to kill and resume: three or more segments on a small board. */
struct ResumeCase
{
    Nfa nfa = compileRuleset({{"ab.*cd", 1}, {"fgh", 2}}, "m");
    InputTrace input;
    ApConfig board = smallBoard(8);
    std::string path = uniqueTempPath("resume.ckpt");

    ResumeCase()
    {
        Rng rng(77);
        input = randomTextTrace(rng, 16384, "abcdfgh ");
        exec::removeCheckpoint(path);
    }
    ~ResumeCase() { exec::removeCheckpoint(path); }

    /** Run with the checkpoint, stopping after segment @p stop. */
    PapResult kill(std::int64_t stop, std::uint32_t threads) const
    {
        PapOptions opt;
        opt.threads = threads;
        opt.checkpointPath = path;
        opt.stopAfterSegment = stop;
        return runPap(nfa, input, board, opt);
    }

    PapResult resume(std::uint32_t threads) const
    {
        PapOptions opt;
        opt.threads = threads;
        opt.checkpointPath = path;
        return runPap(nfa, input, board, opt);
    }
};

void
expectSameRun(const PapResult &r, const PapResult &full,
              const std::string &what)
{
    EXPECT_TRUE(r.verified) << what;
    EXPECT_EQ(r.reports, full.reports) << what;
    EXPECT_EQ(r.papCycles, full.papCycles) << what;
    EXPECT_EQ(r.baselineCycles, full.baselineCycles) << what;
    EXPECT_EQ(r.seqReportEvents, full.seqReportEvents) << what;
    EXPECT_EQ(r.seqTransitions, full.seqTransitions) << what;
    EXPECT_DOUBLE_EQ(r.transitionRatio, full.transitionRatio) << what;
    EXPECT_DOUBLE_EQ(r.reportInflation, full.reportInflation) << what;
    EXPECT_DOUBLE_EQ(r.speedup, full.speedup) << what;
}

TEST(GoldenChecks, ResumedRunVerifiesThroughThePrefixCheck)
{
    const ResumeCase c;
    const PapResult full = runPap(c.nfa, c.input, c.board);
    ASSERT_TRUE(full.verified);
    ASSERT_GE(full.numSegments, 3u);

    for (const std::uint32_t threads : {1u, 4u}) {
        // Killed after segment 1, and after the last segment, whose
        // resume composes nothing and checks the whole input as its
        // prefix.
        for (const std::int64_t stop :
             {std::int64_t{1}, std::int64_t{full.numSegments} - 1}) {
            const std::string what = "threads=" + std::to_string(threads) +
                                     " stop=" + std::to_string(stop);
            const std::uint64_t before = wholeInputRuns();
            const PapResult dead = c.kill(stop, threads);
            EXPECT_EQ(dead.status.code(), ErrorCode::Cancelled) << what;
            // A killed run still carries the sequential fields.
            EXPECT_EQ(dead.seqReportEvents, full.seqReportEvents) << what;

            const PapResult r = c.resume(threads);
            ASSERT_TRUE(r.status.ok()) << what;
            EXPECT_TRUE(r.resumedFromCheckpoint) << what;
            EXPECT_EQ(r.resumedSegments, stop + 1) << what;
            EXPECT_EQ(wholeInputRuns(), before) << what;
            expectSameRun(r, full, what);
        }
    }
}

TEST(GoldenChecks, ATamperedFrontierSetSendsTheResumeToTheWholeInput)
{
    // A restored final set that is not the true one: the prefix check
    // ends elsewhere, so verification runs the whole input, and the
    // run's answer is still the sequential one.
    const ResumeCase c;
    const PapResult full = runPap(c.nfa, c.input, c.board);
    ASSERT_TRUE(full.verified);
    c.kill(1, 1);
    auto frontier = exec::loadCheckpoint(c.path);
    ASSERT_TRUE(frontier.ok()) << frontier.status().toString();
    exec::CheckpointFrontier tampered = frontier.value();
    const CompiledNfa cnfa(c.nfa);
    tampered.finalActive.clear();
    for (StateId q = 0; q < c.nfa.size(); ++q)
        if (!cnfa.isAllInputStart(q))
            tampered.finalActive.push_back(q);
    ASSERT_NE(tampered.finalActive, frontier.value().finalActive);
    ASSERT_TRUE(exec::saveCheckpoint(c.path, tampered).ok());

    const std::uint64_t before = wholeInputRuns();
    const PapResult r = c.resume(4);
    ASSERT_TRUE(r.status.ok());
    EXPECT_TRUE(r.resumedFromCheckpoint);
    EXPECT_EQ(wholeInputRuns(), before + 1);
    EXPECT_EQ(r.reports, full.reports);
    EXPECT_EQ(r.seqReportEvents, full.seqReportEvents);
    EXPECT_EQ(r.seqTransitions, full.seqTransitions);
}

} // namespace
} // namespace pap
