/**
 * @file
 * papsim — command-line front end to the PAPsim library.
 *
 * Subcommands:
 *   compile  <rules.txt> <out.nfa> [--anchored] [--prefix-merge]
 *       Compile a ruleset file (one regex per line; lines starting
 *       with '#' are comments) into a papsim NFA file.
 *   analyze  <in.nfa>
 *       Print states, edges, components, ranges, ASG size, and the
 *       AP footprint of an automaton.
 *   gentrace <in.nfa> <out.bin> <length> [--pm=P] [--seed=N]
 *              [--alphabet=CHARS]
 *       Generate a p_m-model input trace for an automaton.
 *   run      <in.nfa> <trace.bin> [--ranks=N] [--sequential]
 *              [--quantum=N] [--spec[=WINDOW]] [--max-reports=N]
 *              [--metrics-json=PATH] [--trace-out=PATH] [--profile]
 *       Execute a trace sequentially, with the Parallel Automata
 *       Processor framework (default), or speculatively. The
 *       observability flags dump the metrics registry as JSON, write
 *       a Chrome trace_event file (chrome://tracing / Perfetto), and
 *       print a per-phase wall-time profile.
 *   convert  <in> <out>
 *       Convert between the papsim text format (.nfa) and ANML
 *       (.anml); all commands accept either by extension.
 *   bench    <name>
 *       Build a registered Table-1 benchmark and print its profile.
 *   serve    <in.nfa> --socket=PATH [daemon flags]
 *       Run the streaming daemon: many concurrent client streams
 *       against one hot-swappable ruleset over a Unix socket, with
 *       admission control, per-tenant fair scheduling, backpressure,
 *       and graceful drain on SIGTERM (checkpointing keyed streams).
 *   stream   <socket> <tenant> <trace.bin> [--key=K] [--resume]
 *       Stream a trace to a running daemon and print the report in
 *       `run` format; --resume continues stream K from its drain
 *       checkpoint.
 *   ctl      <socket> ping|stats|drain|swap <nfa>|weight <t> <w>
 *       Poke a running daemon.
 */

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ap/ap_config.h"
#include "ap/placement.h"
#include "common/logging.h"
#include "common/table.h"
#include "nfa/analysis.h"
#include "obs/attrib.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "nfa/anml.h"
#include "nfa/glushkov.h"
#include "nfa/nfa_io.h"
#include "nfa/prefix_merge.h"
#include "pap/fault_injector.h"
#include "pap/runner.h"
#include "pap/speculative.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "workloads/benchmarks.h"
#include "workloads/trace_gen.h"

using namespace pap;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: papsim <command> [args]\n"
        "  compile  <rules.txt> <out.nfa> [--anchored] [--prefix-merge]\n"
        "  analyze  <in.nfa>\n"
        "  gentrace <in.nfa> <out.bin> <length> [--pm=P] [--seed=N]\n"
        "           [--alphabet=CHARS]\n"
        "  run      <in.nfa> <trace.bin> [--ranks=N] [--sequential]\n"
        "           [--quantum=N] [--spec[=WINDOW]] [--max-reports=N]\n"
        "           [--verbose] [--metrics-json=PATH]\n"
        "           [--trace-out=PATH] [--profile] [--attrib[=json]]\n"
        "           [--overflow=evict|sequential|fail]\n"
        "           [--svc-capacity=N]\n"
        "           [--threads=N] [--checkpoint=PATH]\n"
        "           [--deadline-ms=X] [--max-retries=N]\n"
        "           [--stop-after-segment=N]\n"
        "           [--inject-faults=SPEC] [--fault-seed=N]\n"
        "           --threads=0 uses one thread per hardware thread;\n"
        "           PAP_THREADS sets the default when the flag is\n"
        "           absent.\n"
        "           SPEC: kind[:count[:rate]],... with kinds\n"
        "           corrupt-sv evict-svc drop-report truncate-report\n"
        "           drop-fiv stall-worker crash-worker all\n"
        "           --attrib prints the run's wall-time attribution\n"
        "           ledger (PAP runs only); --attrib=json emits it as\n"
        "           JSON on stdout.\n"
        "  convert  <in.(nfa|anml)> <out.(nfa|anml)>\n"
        "  bench    <name>\n"
        "  serve    <in.nfa> --socket=PATH [--threads=N]\n"
        "           [--max-sessions=N] [--tenant-cap=N] [--window=N]\n"
        "           [--chunk=N] [--lookback=N] [--quarantine-after=N]\n"
        "           [--session-deadline-ms=X] [--checkpoint-dir=DIR]\n"
        "           [--checkpoint-interval=N] [--deadline-ms=X]\n"
        "           [--max-retries=N] [--inject-faults=SPEC]\n"
        "           [--fault-seed=N] [--metrics-json=PATH]\n"
        "           serve-mode SPEC adds the stream fault kinds\n"
        "           disconnect-client slow-client swap-during-stream\n"
        "           and the durability kinds torn-manifest-write\n"
        "           crash-at-checkpoint\n"
        "  stream   <socket> <tenant> <trace.bin|-> [--key=K]\n"
        "           [--resume] [--checkpoint-interval=N]\n"
        "           [--max-reports=N]\n"
        "           '-' streams stdin incrementally as it arrives;\n"
        "           --checkpoint-interval overrides the daemon's\n"
        "           periodic-checkpoint cadence for this stream\n"
        "  ctl      <socket> ping|stats|drain|swap <nfa>|\n"
        "           weight <tenant> <w>\n");
    return 2;
}

/** Print a CLI error and return the conventional failure exit code. */
int
fail(const std::string &msg)
{
    std::fprintf(stderr, "papsim: error: %s\n", msg.c_str());
    return 1;
}

/** True when @p path exists and is readable. */
bool
readableFile(const std::string &path)
{
    std::ifstream probe(path, std::ios::binary);
    return static_cast<bool>(probe);
}

/** Strict full-string unsigned parse (strtoull alone accepts trash). */
bool
parseU64(const std::string &s, std::uint64_t *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long val = std::strtoull(s.c_str(), &end, 0);
    if (errno != 0 || end == s.c_str() || *end != '\0')
        return false;
    *out = val;
    return true;
}

bool
parseU32(const std::string &s, std::uint32_t *out)
{
    std::uint64_t wide = 0;
    if (!parseU64(s, &wide) || wide > 0xffffffffull)
        return false;
    *out = static_cast<std::uint32_t>(wide);
    return true;
}

/** Strict full-string floating-point parse. */
bool
parseF64(const std::string &s, double *out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const double val = std::strtod(s.c_str(), &end);
    if (errno != 0 || end == s.c_str() || *end != '\0')
        return false;
    *out = val;
    return true;
}

/** Save .anml or papsim-text automata by extension, as
    loadAutomatonFile reads them. */
void
saveAutomaton(const Nfa &nfa, const std::string &path)
{
    if (path.ends_with(".anml"))
        saveAnmlFile(nfa, path);
    else
        saveNfaFile(nfa, path);
}

bool
flagValue(const std::vector<std::string> &args, const std::string &name,
          std::string *out)
{
    const std::string prefix = name + "=";
    for (const auto &a : args) {
        if (a == name) {
            *out = "";
            return true;
        }
        if (a.rfind(prefix, 0) == 0) {
            *out = a.substr(prefix.size());
            return true;
        }
    }
    return false;
}

/** Like flagValue, but also accepts the two-token "--name value" form. */
bool
pathFlag(const std::vector<std::string> &args, const std::string &name,
         std::string *out)
{
    const std::string prefix = name + "=";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i].rfind(prefix, 0) == 0) {
            *out = args[i].substr(prefix.size());
            return true;
        }
        if (args[i] == name && i + 1 < args.size() &&
            args[i + 1].rfind("--", 0) != 0) {
            *out = args[i + 1];
            return true;
        }
    }
    return false;
}

/**
 * Fill @p opt from the flags `run` and `serve` share: --deadline-ms,
 * --max-retries, and --inject-faults seeded by --fault-seed, whose
 * injector @p injector then owns and opt.faultInjector points at.
 * Returns the message for the first malformed flag, or an empty
 * string.
 */
std::string
parseExecFlags(const std::vector<std::string> &args, PapOptions &opt,
               std::unique_ptr<FaultInjector> &injector)
{
    std::string v;
    if (flagValue(args, "--deadline-ms", &v) &&
        !parseF64(v, &opt.segmentDeadlineMs))
        return "--deadline-ms needs a number (negative sets no "
               "deadline), got '" + v + "'";
    if (flagValue(args, "--max-retries", &v) &&
        !parseU32(v, &opt.maxSegmentRetries))
        return "--max-retries needs an integer, got '" + v + "'";
    if (!flagValue(args, "--inject-faults", &v))
        return "";
    std::uint64_t fault_seed = 1;
    std::string s;
    if (flagValue(args, "--fault-seed", &s) && !parseU64(s, &fault_seed))
        return "--fault-seed needs an integer, got '" + s + "'";
    Result<FaultInjector> made = FaultInjector::fromSpec(v, fault_seed);
    if (!made.ok())
        return made.status().toString();
    injector = std::make_unique<FaultInjector>(std::move(made.value()));
    opt.faultInjector = injector.get();
    return "";
}

int
cmdCompile(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage();
    std::ifstream is(args[0]);
    if (!is)
        return fail("cannot open rules file '" + args[0] + "'");
    std::string dummy;
    const bool anchored = flagValue(args, "--anchored", &dummy);
    const bool merge = flagValue(args, "--prefix-merge", &dummy);

    std::vector<RegexRule> rules;
    std::string line;
    ReportCode code = 0;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        rules.push_back(RegexRule{line, code++, anchored});
    }
    if (is.bad())
        return fail("read error on rules file '" + args[0] + "'");
    if (rules.empty())
        return fail("no rules found in '" + args[0] +
                    "' (empty file or only comments)");
    Nfa nfa;
    try {
        nfa = compileRuleset(rules, args[0]);
    } catch (const std::runtime_error &e) { // RegexError
        return fail(Status::error(ErrorCode::InvalidInput, "rules file '",
                                  args[0], "': ", e.what())
                        .toString());
    }
    if (merge)
        nfa = commonPrefixMerge(nfa);
    saveAutomaton(nfa, args[1]);
    std::printf("compiled %zu rules -> %zu states, %zu edges -> %s\n",
                rules.size(), nfa.size(), nfa.edgeCount(),
                args[1].c_str());
    return 0;
}

int
cmdAnalyze(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    const Result<Nfa> loaded = loadAutomatonFile(args[0]);
    if (!loaded.ok())
        return fail(loaded.status().toString());
    const Nfa &nfa = loaded.value();
    const Components comps = connectedComponents(nfa);
    const RangeAnalysis ranges(nfa);
    const auto asg = alwaysActiveStates(nfa);
    const DegreeStats degrees = degreeStats(nfa);

    std::printf("name:              %s\n", nfa.name().c_str());
    std::printf("states:            %zu\n", nfa.size());
    std::printf("edges:             %zu (avg out %.2f, max %u, "
                "self-loops %u)\n",
                nfa.edgeCount(), degrees.avgOut, degrees.maxOut,
                degrees.selfLoops);
    std::printf("start states:      %zu\n", nfa.startStates().size());
    std::printf("reporting states:  %zu\n",
                nfa.reportingStates().size());
    std::printf("components:        %u\n", comps.count);
    std::printf("always-active:     %zu\n", asg.size());
    std::printf("symbol range:      min %u / avg %.1f / max %u\n",
                ranges.minRange(), ranges.avgRange(),
                ranges.maxRange());
    for (const std::uint32_t r : {1u, 4u}) {
        const ApConfig cfg = ApConfig::d480(r);
        const Result<Placement> p = placeAutomaton(nfa, comps, cfg);
        if (!p.ok())
            return fail(p.status().toString());
        std::printf("D480 x%u ranks:     %u half-core(s)/copy, %u "
                    "parallel segments\n",
                    r, p.value().halfCoresPerCopy,
                    p.value().inputSegments(cfg));
    }
    return 0;
}

int
cmdGenTrace(const std::vector<std::string> &args)
{
    if (args.size() < 3)
        return usage();
    const Result<Nfa> loaded = loadAutomatonFile(args[0]);
    if (!loaded.ok())
        return fail(loaded.status().toString());
    const Nfa &nfa = loaded.value();
    std::uint64_t len = 0;
    if (!parseU64(args[2], &len) || len == 0)
        return fail("trace length must be a positive integer, got '" +
                    args[2] + "'");

    TraceGenOptions opt;
    std::string v;
    opt.pm = flagValue(args, "--pm", &v) ? std::atof(v.c_str()) : 0.75;
    std::uint64_t seed = 1;
    if (flagValue(args, "--seed", &v) && !parseU64(v, &seed))
        return fail("--seed needs an integer, got '" + v + "'");
    if (flagValue(args, "--alphabet", &v) && !v.empty()) {
        opt.baseAlphabet = alphabetFromString(v);
    } else {
        // Default: the symbols the automaton itself can match.
        CharClass used;
        for (StateId q = 0; q < nfa.size(); ++q)
            used |= nfa[q].label;
        opt.baseAlphabet = used.full()
                               ? alphabetFromRange(0, 255)
                               : used.toSymbols();
    }
    const InputTrace trace = generateTrace(nfa, len, opt, seed);
    std::ofstream os(args[1], std::ios::binary);
    if (!os)
        return fail("cannot open '" + args[1] + "' for writing");
    os.write(reinterpret_cast<const char *>(trace.begin()),
             static_cast<std::streamsize>(trace.size()));
    if (!os)
        return fail("write error on '" + args[1] + "'");
    std::printf("wrote %zu symbols (pm=%.2f, seed=%llu) -> %s\n",
                trace.size(), opt.pm,
                static_cast<unsigned long long>(seed),
                args[1].c_str());
    return 0;
}

/**
 * Observability session for one `run` invocation: installs a trace
 * sink when --trace-out/--profile ask for one, and dumps the metrics
 * JSON, trace file, and per-phase profile on destruction.
 */
class ObsSession
{
  public:
    ObsSession(std::string metrics_path, std::string trace_path,
               bool profile)
        : metrics_path_(std::move(metrics_path)),
          trace_path_(std::move(trace_path)), profile_(profile)
    {
        if (!trace_path_.empty() || profile_) {
            sink_ = std::make_unique<obs::TraceSink>();
            sink_->labelProcess(obs::kHostPid, "papsim host");
            obs::setTracer(sink_.get());
        }
    }

    ~ObsSession()
    {
        if (sink_)
            obs::setTracer(nullptr);
        if (!metrics_path_.empty()) {
            obs::metrics().writeJsonFile(metrics_path_);
            std::printf("metrics -> %s\n", metrics_path_.c_str());
        }
        if (sink_ && !trace_path_.empty()) {
            sink_->writeFile(trace_path_);
            std::printf("trace   -> %s (load in chrome://tracing or "
                        "ui.perfetto.dev)\n",
                        trace_path_.c_str());
        }
        if (sink_ && profile_) {
            Table table({"Phase", "Count", "Total ms", "Mean us"});
            for (const auto &s : sink_->phaseSummary())
                table.addRow({s.name, std::to_string(s.count),
                              fmtDouble(s.totalUs / 1000.0, 3),
                              fmtDouble(s.totalUs /
                                            static_cast<double>(s.count),
                                        1)});
            std::printf("\n%s", table.toString().c_str());
        }
    }

  private:
    std::unique_ptr<obs::TraceSink> sink_;
    std::string metrics_path_;
    std::string trace_path_;
    bool profile_;
};

int
cmdRun(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage();
    const Result<Nfa> loaded = loadAutomatonFile(args[0]);
    if (!loaded.ok())
        return fail(loaded.status().toString());
    const Nfa &nfa = loaded.value();
    if (!readableFile(args[1]))
        return fail("cannot open trace file '" + args[1] + "'");
    const InputTrace trace = InputTrace::fromFile(args[1]);
    if (trace.empty())
        return fail("trace file '" + args[1] +
                    "' is empty; refusing to simulate a zero-symbol "
                    "stream");

    std::string v;
    std::string metrics_path, trace_path;
    pathFlag(args, "--metrics-json", &metrics_path);
    pathFlag(args, "--trace-out", &trace_path);
    const bool profile = flagValue(args, "--profile", &v);
    ObsSession obs_session(metrics_path, trace_path, profile);

    std::string attrib_mode;
    const bool want_attrib = flagValue(args, "--attrib", &attrib_mode);
    if (want_attrib && !attrib_mode.empty() && attrib_mode != "json")
        return fail("--attrib accepts no value or 'json', got '" +
                    attrib_mode + "'");

    std::uint32_t ranks = 1;
    if (flagValue(args, "--ranks", &v) &&
        (!parseU32(v, &ranks) || ranks == 0))
        return fail("--ranks needs a positive integer, got '" + v +
                    "'");
    std::uint64_t max_reports = 10;
    if (flagValue(args, "--max-reports", &v) &&
        !parseU64(v, &max_reports))
        return fail("--max-reports needs an integer, got '" + v + "'");

    // Host thread count: the flag wins over the PAP_THREADS
    // environment variable; 0 means one thread per hardware thread.
    std::uint32_t threads = 1;
    if (flagValue(args, "--threads", &v)) {
        if (!parseU32(v, &threads))
            return fail("--threads needs a non-negative integer "
                        "(0 = one per hardware thread), got '" +
                        v + "'");
    } else if (const char *env = std::getenv("PAP_THREADS")) {
        if (!parseU32(env, &threads))
            return fail("PAP_THREADS needs a non-negative integer "
                        "(0 = one per hardware thread), got '" +
                        std::string(env) + "'");
    }

    std::vector<ReportEvent> reports;
    if (flagValue(args, "--sequential", &v)) {
        const SequentialResult r = runSequential(nfa, trace);
        std::printf("sequential[sparse]: %zu matches, %llu cycles "
                    "(%.3f ms on AP)\n",
                    r.reports.size(),
                    static_cast<unsigned long long>(r.cycles),
                    static_cast<double>(r.cycles) * 7.5e-6);
        reports = r.reports;
    } else if (flagValue(args, "--spec", &v)) {
        SpeculationOptions opt;
        opt.threads = threads;
        if (!v.empty() && !parseU32(v, &opt.warmupWindow))
            return fail("--spec window needs an integer, got '" + v +
                        "'");
        const SpeculationResult r =
            runSpeculative(nfa, trace, ApConfig::d480(ranks), opt);
        if (!r.status.ok())
            return fail(r.status.toString());
        std::printf("speculative[sparse]: %zu matches, %u segments, "
                    "accuracy %.2f, speedup %.2fx%s\n",
                    r.reports.size(),
                    r.numSegments, r.accuracy, r.speedup,
                    r.verified ? " (verified)"
                               : (r.recovered ? " (recovered)" : ""));
        reports = r.reports;
    } else {
        PapOptions opt;
        opt.threads = threads;
        if (flagValue(args, "--quantum", &v) &&
            (!parseU32(v, &opt.tdmQuantum) || opt.tdmQuantum == 0))
            return fail("--quantum needs a positive integer, got '" +
                        v + "'");
        std::unique_ptr<FaultInjector> injector;
        if (const std::string bad = parseExecFlags(args, opt, injector);
            !bad.empty())
            return fail(bad);
        pathFlag(args, "--checkpoint", &opt.checkpointPath);
        if (flagValue(args, "--stop-after-segment", &v)) {
            std::uint64_t stop = 0;
            if (!parseU64(v, &stop) || stop > 0x7fffffffull)
                return fail("--stop-after-segment needs a segment "
                            "index, got '" + v + "'");
            opt.stopAfterSegment = static_cast<std::int64_t>(stop);
        }
        if (flagValue(args, "--overflow", &v)) {
            if (v == "evict")
                opt.overflowPolicy = OverflowPolicy::Evict;
            else if (v == "sequential")
                opt.overflowPolicy = OverflowPolicy::SequentialFallback;
            else if (v == "fail")
                opt.overflowPolicy = OverflowPolicy::Fail;
            else
                return fail("--overflow must be evict, sequential, "
                            "or fail; got '" + v + "'");
        }
        ApConfig board = ApConfig::d480(ranks);
        if (flagValue(args, "--svc-capacity", &v) &&
            (!parseU32(v, &board.svcEntriesPerDevice) ||
             board.svcEntriesPerDevice == 0))
            return fail("--svc-capacity needs a positive flow-context "
                        "count, got '" + v + "'");
        const bool verbose = flagValue(args, "--verbose", &v);
        const PapResult r = runPap(nfa, trace, board, opt);
        if (!r.status.ok())
            return fail(r.status.toString());
        if (verbose) {
            std::printf("  seg       begin    length  flows  deact  "
                        "conv  live  true/paths     tDone   tResolve"
                        "   entries\n");
            for (std::size_t j = 0; j < r.segments.size(); ++j) {
                const auto &d = r.segments[j];
                std::printf("  %3zu  %10llu  %8llu  %5u  %5u  %4u  "
                            "%4u  %5u/%-5u  %8llu  %9llu  %8llu\n",
                            j,
                            static_cast<unsigned long long>(d.begin),
                            static_cast<unsigned long long>(d.length),
                            d.flows, d.deactivated, d.converged,
                            d.ranToEnd, d.truePaths, d.totalPaths,
                            static_cast<unsigned long long>(d.tDone),
                            static_cast<unsigned long long>(
                                d.tResolve),
                            static_cast<unsigned long long>(
                                d.entries));
            }
        }
        const char *mark = r.verified
                               ? " (verified)"
                               : (r.recovered ? " (recovered)" : "");
        std::printf(
            "PAP[sparse]: %zu matches, %u segments (ideal %ux), speedup "
            "%.2fx%s%s\n  flows range/cc/parent/active = "
            "%.0f/%.0f/%.0f/%.1f, switch %.2f%%, inflation %.1fx\n",
            r.reports.size(), r.numSegments,
            r.idealSpeedup, r.speedup, mark,
            r.degraded ? " [degraded]" : "", r.flowsInRange,
            r.flowsAfterCc, r.flowsAfterParent, r.avgActiveFlows,
            r.switchOverheadPct, r.reportInflation);
        if (r.svcEvictions > 0 || r.svcReuploads > 0)
            std::printf("  SVC live cache: capacity %u, %llu evictions, "
                        "%llu re-uploads, hit rate %.3f\n",
                        r.svcCapacity,
                        static_cast<unsigned long long>(r.svcEvictions),
                        static_cast<unsigned long long>(r.svcReuploads),
                        r.svcHitRate);
        if (r.resumedFromCheckpoint)
            std::printf("  resumed from checkpoint: %u segments "
                        "already composed\n",
                        r.resumedSegments);
        if (r.threadsUsed != 1 || r.segmentsRetried > 0 ||
            r.segmentsRecovered > 0)
            std::printf("  exec: %u host threads, %u segments "
                        "retried, %u recovered\n",
                        r.threadsUsed, r.segmentsRetried,
                        r.segmentsRecovered);
        if (injector)
            std::printf("  %s\n", injector->summary().c_str());
        if (want_attrib && attrib_mode == "json") {
            std::printf("%s\n", obs::attribToJson(r.attrib).c_str());
        } else if (want_attrib) {
            // Wall buckets partition the measured wall clock (they sum
            // to it, "other" absorbing the residual); aux buckets are
            // worker-side time that overlaps the wall and shows "-".
            Table table({"Bucket", "ms", "% wall"});
            for (const auto &b : r.attrib.buckets)
                table.addRow(
                    {b.aux ? b.name + " (aux)" : b.name,
                     fmtDouble(b.ms, 3),
                     b.aux || r.attrib.wallMs <= 0.0
                         ? std::string("-")
                         : fmtDouble(100.0 * b.ms / r.attrib.wallMs,
                                     1)});
            std::printf("\nattribution (wall %.3f ms):\n%s",
                        r.attrib.wallMs, table.toString().c_str());
        }
        reports = r.reports;
    }
    for (std::size_t i = 0; i < reports.size() && i < max_reports; ++i)
        std::printf("  match @%llu rule %u\n",
                    static_cast<unsigned long long>(reports[i].offset),
                    reports[i].code);
    if (reports.size() > max_reports)
        std::printf("  ... %zu more\n", reports.size() - max_reports);
    return 0;
}

int
cmdConvert(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage();
    const Result<Nfa> loaded = loadAutomatonFile(args[0]);
    if (!loaded.ok())
        return fail(loaded.status().toString());
    const Nfa &nfa = loaded.value();
    saveAutomaton(nfa, args[1]);
    std::printf("converted %s (%zu states) -> %s\n", args[0].c_str(),
                nfa.size(), args[1].c_str());
    return 0;
}

int
cmdBench(const std::vector<std::string> &args)
{
    if (args.empty()) {
        std::printf("registered benchmarks:\n");
        for (const auto &info : benchmarkRegistry())
            std::printf("  %s\n", info.name.c_str());
        return 0;
    }
    bool known = false;
    for (const auto &entry : benchmarkRegistry())
        known = known || entry.name == args[0];
    if (!known)
        return fail("unknown benchmark '" + args[0] +
                    "' (run 'papsim bench' to list them)");
    const BenchmarkInfo &info = benchmarkInfo(args[0]);
    const Nfa nfa = buildBenchmark(info.name);
    const Components comps = connectedComponents(nfa);
    std::printf("%s: %zu states (paper %u), %u components (paper %u)\n",
                info.name.c_str(), nfa.size(), info.paper.states,
                comps.count, info.paper.components);
    std::string out = info.name + ".nfa";
    saveNfaFile(nfa, out);
    std::printf("saved -> %s\n", out.c_str());
    return 0;
}

int
cmdServe(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    const Result<Nfa> loaded = loadAutomatonFile(args[0]);
    if (!loaded.ok())
        return fail(loaded.status().toString());
    const Nfa &nfa = loaded.value();
    std::string socket_path;
    if (!pathFlag(args, "--socket", &socket_path) ||
        socket_path.empty())
        return fail("serve needs --socket=PATH");

    serve::ServeOptions opt;
    std::string v;
    if (flagValue(args, "--threads", &v) && !parseU32(v, &opt.threads))
        return fail("--threads needs an integer, got '" + v + "'");
    if (flagValue(args, "--max-sessions", &v) &&
        (!parseU32(v, &opt.maxSessions) || opt.maxSessions == 0))
        return fail("--max-sessions needs a positive integer, got '" +
                    v + "'");
    if (flagValue(args, "--tenant-cap", &v) &&
        (!parseU32(v, &opt.tenantSessionCap) ||
         opt.tenantSessionCap == 0))
        return fail("--tenant-cap needs a positive integer, got '" + v +
                    "'");
    if (flagValue(args, "--window", &v) &&
        (!parseU32(v, &opt.sessionWindow) || opt.sessionWindow == 0))
        return fail("--window needs a positive integer, got '" + v +
                    "'");
    if (flagValue(args, "--chunk", &v) &&
        (!parseU32(v, &opt.chunkSymbols) || opt.chunkSymbols == 0))
        return fail("--chunk needs a positive integer, got '" + v +
                    "'");
    if (flagValue(args, "--lookback", &v) &&
        !parseU32(v, &opt.boundaryLookback))
        return fail("--lookback needs an integer, got '" + v + "'");
    if (flagValue(args, "--quarantine-after", &v) &&
        (!parseU32(v, &opt.quarantineAfter) ||
         opt.quarantineAfter == 0))
        return fail("--quarantine-after needs a positive integer, "
                    "got '" + v + "'");
    if (flagValue(args, "--session-deadline-ms", &v) &&
        !parseF64(v, &opt.sessionDeadlineMs))
        return fail("--session-deadline-ms needs a number, got '" + v +
                    "'");
    pathFlag(args, "--checkpoint-dir", &opt.checkpointDir);
    if (flagValue(args, "--checkpoint-interval", &v) &&
        !parseU32(v, &opt.checkpointIntervalChunks))
        return fail("--checkpoint-interval needs an integer, got '" +
                    v + "'");
    std::unique_ptr<FaultInjector> injector;
    if (const std::string bad = parseExecFlags(args, opt.pap, injector);
        !bad.empty())
        return fail(bad);

    serve::Server server(opt, nfa);
    if (!server.status().ok())
        return fail(server.status().toString());
    std::printf("papsim serve: '%s' (%zu states) on %s\n",
                nfa.name().c_str(), nfa.size(), socket_path.c_str());
    const Status st = serve::runSocketServer(server, socket_path);
    if (!st.ok())
        return fail(st.toString());
    const serve::ServerStats stats = server.stats();
    std::printf("papsim serve: drained — %llu completed, %llu shed, "
                "%llu quarantined, %llu checkpointed\n",
                static_cast<unsigned long long>(stats.completed),
                static_cast<unsigned long long>(stats.shed),
                static_cast<unsigned long long>(stats.quarantined),
                static_cast<unsigned long long>(stats.checkpointed));
    std::string metrics_path;
    if (pathFlag(args, "--metrics-json", &metrics_path) &&
        !metrics_path.empty())
        obs::metrics().writeJsonFile(metrics_path);
    if (injector)
        std::printf("  %s\n", injector->summary().c_str());
    return 0;
}

int
cmdStream(const std::vector<std::string> &args)
{
    if (args.size() < 3)
        return usage();
    const bool from_stdin = args[2] == "-";
    std::string v, key;
    flagValue(args, "--key", &key);
    const bool resume = flagValue(args, "--resume", &v);
    if (resume && key.empty())
        return fail("--resume needs --key=K to name the stream");
    std::uint64_t max_reports = 10;
    if (flagValue(args, "--max-reports", &v) &&
        !parseU64(v, &max_reports))
        return fail("--max-reports needs an integer, got '" + v + "'");
    std::int64_t ckpt_interval = -1;
    if (flagValue(args, "--checkpoint-interval", &v)) {
        std::uint64_t n = 0;
        if (!parseU64(v, &n))
            return fail("--checkpoint-interval needs an integer, "
                        "got '" + v + "'");
        if (key.empty())
            return fail("--checkpoint-interval needs --key=K to name "
                        "the stream");
        ckpt_interval = static_cast<std::int64_t>(n);
    }

    // Forward the input as it is read, so a slow producer on stdin
    // exercises the daemon's backpressure in real time.
    const int input_fd =
        from_stdin ? STDIN_FILENO : ::open(args[2].c_str(), O_RDONLY);
    if (input_fd < 0)
        return fail("cannot open trace file '" + args[2] + "'");
    const Result<serve::StreamResult> streamed = serve::streamFdToDaemon(
        args[0], args[1], key, input_fd, resume, ckpt_interval);
    if (!from_stdin)
        ::close(input_fd);
    if (!streamed.ok())
        return fail(streamed.status().toString());
    const serve::StreamResult &r = streamed.value();
    std::printf("serve: %zu matches, %llu symbols in %llu chunks "
                "(gen %llu)%s\n",
                r.reports.size(),
                static_cast<unsigned long long>(r.symbols),
                static_cast<unsigned long long>(r.chunks),
                static_cast<unsigned long long>(r.generation),
                r.chunksRecovered > 0 ? " (recovered)" : "");
    if (r.resumedSymbols > 0)
        std::printf("  resumed from checkpoint: %llu symbols already "
                    "composed\n",
                    static_cast<unsigned long long>(r.resumedSymbols));
    for (std::size_t i = 0; i < r.reports.size() && i < max_reports;
         ++i)
        std::printf("  match @%llu rule %u\n",
                    static_cast<unsigned long long>(
                        r.reports[i].offset),
                    r.reports[i].code);
    if (r.reports.size() > max_reports)
        std::printf("  ... %zu more\n",
                    r.reports.size() - max_reports);
    return 0;
}

int
cmdCtl(const std::vector<std::string> &args)
{
    if (args.size() < 2)
        return usage();
    const std::string &verb = args[1];
    std::string line;
    if (verb == "ping") {
        line = "PING";
    } else if (verb == "stats") {
        line = "STATS";
    } else if (verb == "drain") {
        line = "DRAIN";
    } else if (verb == "swap") {
        if (args.size() < 3)
            return usage();
        line = "SWAP " + args[2];
    } else if (verb == "weight") {
        if (args.size() < 4)
            return usage();
        line = "WEIGHT " + args[2] + " " + args[3];
    } else {
        return usage();
    }
    const Result<std::string> response = serve::ctlCommand(args[0], line);
    if (!response.ok())
        return fail(response.status().toString());
    std::printf("%s\n", response.value().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Log level comes from PAPSIM_LOG (default Warn); see logging.h.
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (cmd == "compile")
        return cmdCompile(args);
    if (cmd == "analyze")
        return cmdAnalyze(args);
    if (cmd == "gentrace")
        return cmdGenTrace(args);
    if (cmd == "run")
        return cmdRun(args);
    if (cmd == "convert")
        return cmdConvert(args);
    if (cmd == "bench")
        return cmdBench(args);
    if (cmd == "serve")
        return cmdServe(args);
    if (cmd == "stream")
        return cmdStream(args);
    if (cmd == "ctl")
        return cmdCtl(args);
    return usage();
}
