#include "suite.h"

#include <cstdio>
#include <initializer_list>
#include <thread>

#include "ap/ap_config.h"
#include "nfa/analysis.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "pap/runner.h"
#include "workloads/benchmarks.h"

namespace papbench {

using namespace pap;

namespace {

constexpr std::uint32_t kRanks[] = {1, 4};
constexpr std::size_t kNumRanks = sizeof(kRanks) / sizeof(kRanks[0]);
/** Fewest measured passes of each kind, whatever --seconds says. */
constexpr int kMinPasses = 3;
/**
 * Largest traced-vs-attribution gap (percentage points of wall share)
 * the traced run accepts.
 */
constexpr double kMaxAttribGapPct = 25.0;

/** One automaton of the suite with its input and oracle. */
struct Case
{
    std::string name;
    std::uint32_t halfCores = 1;
    Nfa nfa;
    InputTrace trace;
    /** Reference reports (sparse sequential run, built at set-up). */
    SequentialResult oracle;
};

struct Setup
{
    std::vector<Case> cases;
    double wallS = 0.0;
    double buildMs = 0.0;
    double traceMs = 0.0;
};

Setup
buildSetup(const SuiteSpec &spec, const Args &args)
{
    Setup s;
    const auto t0 = Clock::now();
    PapOptions oracle_opt;
    oracle_opt.engine = EngineKind::Sparse;
    for (const std::string &name : spec.names) {
        const BenchmarkInfo &info = benchmarkInfo(name);
        Case c;
        c.name = name;
        c.halfCores = info.paper.halfCores;
        auto t = Clock::now();
        c.nfa = buildBenchmark(name, args.seed);
        s.buildMs += msSince(t);
        const double scale = spec.applyTraceScale ? info.traceScale : 1.0;
        const auto len = static_cast<std::uint64_t>(
            static_cast<double>(spec.baseTraceLen) * scale);
        t = Clock::now();
        c.trace = buildBenchmarkTrace(c.nfa, name, len, args.seed);
        s.traceMs += msSince(t);
        c.oracle = runSequential(c.nfa, c.trace, oracle_opt);
        s.cases.push_back(std::move(c));
    }
    s.wallS = msSince(t0) / 1e3;
    return s;
}

PapOptions
papOptions(const Case &c, std::uint32_t threads)
{
    PapOptions o;
    o.routingMinHalfCores = c.halfCores;
    o.threads = threads;
    return o;
}

/** What the warm-up pass established for one (automaton, ranks) call. */
struct Expect
{
    std::uint64_t digest = 0;
    PapResult result; ///< modeled statistics, read as-is
};

/** Correctness tally shared by every pass of the run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void record(bool ok, const std::string &what, const char *why)
    {
        ++attempted;
        if (ok)
            return;
        ++failed;
        std::fprintf(stderr, "FAILED %s: %s\n", what.c_str(), why);
    }
};

/** Why a runPap result is wrong, or nullptr when it is correct. */
const char *
checkRun(const PapResult &r, const Case &c, const Expect *expect)
{
    if (!r.status.ok())
        return "status not Ok";
    if (!r.verified)
        return "not verified";
    if (r.recovered)
        return "recovered from the oracle";
    if (r.reports != c.oracle.reports)
        return "reports differ from the set-up oracle";
    if (expect && simDigest(r) != expect->digest)
        return "simulation digest differs from the warm-up pass";
    return nullptr;
}

std::string
callName(const Case &c, std::uint32_t ranks)
{
    return c.name + " ranks=" + std::to_string(ranks);
}

/** One pass over every (automaton, ranks) call. */
struct Pass
{
    /** Host time of each runPap call, without the benchmark's checks. */
    std::vector<double> callMs;
    /** Per-layer values of this pass (traced run only). */
    MetricValues layer;

    /** Host time of the pass's runPap calls. */
    double ms() const
    {
        double sum = 0.0;
        for (const double t : callMs)
            sum += t;
        return sum;
    }
};

/**
 * One untraced pass: every automaton at every rank count through
 * runPap. With @p attrib, sums the PapResult attribution buckets.
 */
Pass
untracedPass(const Setup &setup, const std::vector<Expect> &expect,
             std::uint32_t threads, Tally &tally, bool attrib)
{
    Pass pass;
    double bytes = 0, flow_symbols = 0, occupancy = 0;
    int multi = 0;
    for (std::size_t i = 0; i < setup.cases.size(); ++i) {
        const Case &c = setup.cases[i];
        for (std::size_t k = 0; k < kNumRanks; ++k) {
            const auto call_t0 = Clock::now();
            const PapResult r = runPap(c.nfa, c.trace,
                                       ApConfig::d480(kRanks[k]),
                                       papOptions(c, threads));
            pass.callMs.push_back(msSince(call_t0));
            const char *why = checkRun(r, c, &expect[i * kNumRanks + k]);
            tally.record(!why, callName(c, kRanks[k]), why);
            if (!attrib)
                continue;
            MetricValues &m = pass.layer;
            m["attrib.wall"] += r.attrib.wallMs;
            for (const auto &b : r.attrib.buckets)
                m["attrib." + b.name] += b.ms;
            bytes += static_cast<double>(r.engineBytesTouched);
            flow_symbols += static_cast<double>(r.flowSymbolCycles);
            if (r.numSegments > 1) {
                occupancy += r.pipelineOccupancy;
                ++multi;
            }
        }
    }
    if (attrib) {
        pass.layer["engine.bytes_per_symbol"] =
            flow_symbols > 0 ? bytes / flow_symbols : 0.0;
        pass.layer["pap.pipeline_occupancy"] =
            multi ? occupancy / multi : 1.0;
    }
    return pass;
}

/** Metric-name suffix for the per-automaton variants. */
std::string
perAutomaton(const char *metric, const std::string &name)
{
    return std::string(metric) + "." + name;
}

/** The summed times of spans named @p names. */
double
sumOf(const MetricValues &times, std::initializer_list<const char *> names)
{
    double ms = 0.0;
    for (const char *name : names)
        ms += lookup(times, name);
    return ms;
}

/**
 * One traced pass: the same runPap calls as an untraced pass, each in an
 * op span on @p sink, so the phase spans runPap emits itself (pap.*,
 * segment.*, compose.*, timeline.simulate) land in the sink. The pass's
 * per-layer values are read from the sink when the run ends (see
 * tracedLayers); this records the counts each call's PapResult carries,
 * and times the nfa analysis passes on their own.
 */
Pass
tracedPass(const Setup &setup, const std::vector<Expect> &expect,
           std::uint32_t threads, obs::TraceSink &sink,
           std::uint64_t &next_op, Tally &tally)
{
    Pass pass;
    MetricValues &m = pass.layer;
    auto &counters = obs::metrics();
    const std::uint64_t false_entries0 =
        counters.counter("compose.entries.false");
    double analyze_ms = 0, flow_symbols = 0, flow_transitions = 0,
           seq_transitions = 0, true_paths = 0, total_paths = 0,
           pap_entries = 0, seq_entries = 0;
    for (std::size_t i = 0; i < setup.cases.size(); ++i) {
        const Case &c = setup.cases[i];
        for (std::size_t k = 0; k < kNumRanks; ++k) {
            const auto call_t0 = Clock::now();
            obs::setTracer(&sink);
            const PapResult r = [&] {
                OpSpan span("bench.call", next_op++);
                return runPap(c.nfa, c.trace, ApConfig::d480(kRanks[k]),
                              papOptions(c, threads));
            }();
            obs::setTracer(nullptr);
            pass.callMs.push_back(msSince(call_t0));
            const char *why = checkRun(r, c, &expect[i * kNumRanks + k]);
            tally.record(!why, "traced " + callName(c, kRanks[k]), why);
            flow_symbols += static_cast<double>(r.flowSymbolCycles);
            flow_transitions += static_cast<double>(r.flowTransitions);
            seq_transitions += static_cast<double>(r.seqTransitions);
            pap_entries += static_cast<double>(r.papReportEvents);
            seq_entries += static_cast<double>(r.seqReportEvents);
            for (const auto &seg : r.segments) {
                true_paths += seg.truePaths;
                total_paths += seg.totalPaths;
            }
        }
    }
    // The nfa layer's analysis passes, timed on their own once per call
    // (runPap folds them into pap.analyze / pap.partition), after the
    // calls so they cannot disturb the caches a traced call runs with.
    for (const Case &c : setup.cases) {
        for (std::size_t k = 0; k < kNumRanks; ++k) {
            const auto a0 = Clock::now();
            const Components comps = connectedComponents(c.nfa);
            const std::vector<StateId> asg = alwaysActiveStates(c.nfa);
            const RangeAnalysis ranges(c.nfa);
            analyze_ms += msSince(a0);
        }
    }
    m["nfa.analyze_ms"] = analyze_ms;
    m["engine.flow_symbols"] = flow_symbols;
    m["pap.transition_ratio"] =
        seq_transitions > 0 ? flow_transitions / seq_transitions : 1.0;
    m["pap.true_path_frac"] =
        total_paths > 0 ? true_paths / total_paths : 1.0;
    m["pap.false_entry_frac"] =
        pap_entries > 0
            ? static_cast<double>(counters.counter("compose.entries.false") -
                                  false_entries0) /
                  pap_entries
            : 0.0;
    m["pap.report_inflation"] =
        seq_entries > 0 ? pap_entries / seq_entries : 1.0;
    return pass;
}

/**
 * Fold the spans of the traced passes into their per-layer values:
 * @p calls holds one entry per runPap call, in order, pass by pass.
 * False when the trace does not hold exactly those calls.
 */
bool
tracedLayers(const Setup &setup, const std::vector<OpTimes> &calls,
             std::vector<Pass> &traced)
{
    const std::size_t per_pass = setup.cases.size() * kNumRanks;
    if (calls.size() != traced.size() * per_pass)
        return false;
    for (std::size_t p = 0; p < traced.size(); ++p) {
        MetricValues total, self;
        MetricValues &m = traced[p].layer;
        for (std::size_t i = 0; i < per_pass; ++i) {
            const OpTimes &call = calls[p * per_pass + i];
            for (const auto &[name, ms] : call.totalMs)
                total[name] += ms;
            for (const auto &[name, ms] : call.selfMs)
                self[name] += ms;
            const std::string &automaton = setup.cases[i / kNumRanks].name;
            m[perAutomaton("pap.segment_exec_ms", automaton)] += sumOf(
                call.totalMs, {"segment.golden", "segment.enumerate"});
            m[perAutomaton("pap.sequential_ms", automaton)] +=
                lookup(call.totalMs, "pap.sequential");
        }
        m["pap.analyze_ms"] = lookup(total, "pap.analyze");
        m["pap.sequential_ms"] = lookup(total, "pap.sequential");
        m["pap.baseline_share"] =
            lookup(total, "pap.baseline") / lookup(total, "pap.run");
        m["pap.partition_ms"] = lookup(total, "pap.partition");
        m["pap.plan_ms"] = lookup(total, "pap.plan");
        m["pap.execute_ms"] = lookup(total, "pap.execute");
        m["pap.segment_exec_ms"] =
            sumOf(total, {"segment.golden", "segment.enumerate"});
        m["pap.compose_ms"] =
            sumOf(total, {"compose.golden", "compose.enumerate"});
        m["pap.timeline_ms"] = lookup(total, "timeline.simulate");
        m["pap.call_self_ms"] = lookup(self, "pap.run");
        m["engine.ns_per_flow_symbol"] =
            m["engine.flow_symbols"] > 0
                ? m["pap.segment_exec_ms"] * 1e6 / m["engine.flow_symbols"]
                : 0.0;
        // Traced counterparts of the attribution buckets (cross-check).
        m["traced.baseline"] = lookup(total, "pap.baseline");
        m["traced.analyze+partition"] =
            sumOf(total, {"pap.analyze", "pap.partition"});
        m["traced.plan"] = lookup(total, "pap.plan");
        m["traced.device.execute"] = lookup(total, "pap.execute");
        m["traced.compose.decode"] = lookup(total, "pap.compose");
        m["traced.verify"] = lookup(total, "pap.verify");
        m["traced.timeline"] = lookup(total, "pap.timeline");
        m["traced.wall"] = lookup(total, "pap.run");
    }
    return true;
}

/** Per-name median over the passes' layer values. */
MetricValues
medianLayer(const std::vector<Pass> &passes)
{
    std::map<std::string, std::vector<double>> samples;
    for (const Pass &p : passes)
        for (const auto &[name, v] : p.layer)
            samples[name].push_back(v);
    MetricValues out;
    for (auto &[name, xs] : samples)
        out[name] = median(xs);
    return out;
}

} // namespace

SuiteSpec
regexSuite()
{
    return {{"Dotstar03", "Dotstar06", "Dotstar09", "Ranges05", "Ranges1",
             "ExactMatch", "Bro217", "TCP", "PowerEN1"},
            256ull << 10,
            false};
}

SuiteSpec
anmlzooSuite()
{
    return {{"Fermi", "RandomForest", "Dotstar", "SPM", "Hamming",
             "Protomata", "Levenshtein", "EntityResolution", "Snort",
             "ClamAV"},
            32ull << 10,
            true};
}

std::vector<std::string>
allSuiteAutomata()
{
    std::vector<std::string> out = regexSuite().names;
    for (const auto &n : anmlzooSuite().names)
        out.push_back(n);
    return out;
}

Outcome
runSuite(const SuiteSpec &spec, const Args &args)
{
    const std::uint32_t threads = hostThreads(args);
    Outcome out;

    // --- Set-up (untimed): automata, traces, oracles ------------------
    // setup_s is the median of three set-ups taken at the start, the
    // middle and the end of the run, so one slow stretch of a shared
    // host moves at most one of them.
    std::vector<double> setup_s, build_ms, trace_ms;
    const auto measure_setup = [&] {
        Setup s = buildSetup(spec, args);
        setup_s.push_back(s.wallS);
        build_ms.push_back(s.buildMs);
        trace_ms.push_back(s.traceMs);
        return s;
    };
    const Setup setup = measure_setup();
    std::uint64_t symbols_per_pass = 0;
    std::printf("meta: threads=%u traces=", threads);
    for (const Case &c : setup.cases) {
        symbols_per_pass += kNumRanks * c.trace.size();
        std::printf("%s%s:%zu", &c == &setup.cases.front() ? "" : ",",
                    c.name.c_str(), c.trace.size());
    }
    std::printf("\n");

    // --- Warm-up pass (untimed): fixes the digests and modeled clock --
    Tally tally;
    std::vector<Expect> expect(setup.cases.size() * kNumRanks);
    std::uint32_t threads_used = 0;
    Digest suite_digest;
    for (std::size_t i = 0; i < setup.cases.size(); ++i) {
        const Case &c = setup.cases[i];
        for (std::size_t k = 0; k < kNumRanks; ++k) {
            Expect &e = expect[i * kNumRanks + k];
            e.result = runPap(c.nfa, c.trace, ApConfig::d480(kRanks[k]),
                              papOptions(c, threads));
            e.digest = simDigest(e.result);
            threads_used = std::max(threads_used, e.result.threadsUsed);
            const char *why = checkRun(e.result, c, nullptr);
            tally.record(!why, callName(c, kRanks[k]), why);
            suite_digest.u64(e.digest);
            std::printf("digest %-16s ranks=%u %s speedup=%.6f "
                        "ideal=%u flows/seg=%.2f svc_batches=%u\n",
                        c.name.c_str(), kRanks[k],
                        hex64(e.digest).c_str(), e.result.speedup,
                        e.result.idealSpeedup, e.result.flowsAfterParent,
                        e.result.svcBatches);
        }
    }
    std::printf("digest suite %s (modeled numbers unvalidated)\n",
                hex64(suite_digest.value()).c_str());
    std::printf("meta: nproc=%u runpap_threads_used=%u\n",
                std::thread::hardware_concurrency(), threads_used);

    // --- Measured passes ---------------------------------------------
    std::vector<Pass> untraced, traced;
    obs::TraceSink sink;
    std::uint64_t next_op = 1;
    const auto t0 = Clock::now();
    const double budget_ms = args.seconds * 1e3;
    while (msSince(t0) < budget_ms ||
           static_cast<int>(untraced.size()) < kMinPasses ||
           (args.trace && static_cast<int>(traced.size()) < kMinPasses)) {
        if (setup_s.size() == 1 && msSince(t0) >= budget_ms / 2)
            measure_setup();
        if (!args.trace || untraced.size() <= traced.size())
            untraced.push_back(
                untracedPass(setup, expect, threads, tally, args.trace));
        else
            traced.push_back(
                tracedPass(setup, expect, threads, sink, next_op, tally));
    }
    while (setup_s.size() < 3)
        measure_setup();

    // A call's latency: the median over passes of each (automaton,
    // ranks) call, then the geomean over the mix, so every automaton
    // weighs the same and the value cannot jump between call types.
    std::vector<double> msym_per_s, call_medians;
    std::vector<std::vector<double>> by_call(expect.size());
    for (const Pass &p : untraced) {
        msym_per_s.push_back(static_cast<double>(symbols_per_pass) /
                             (p.ms() * 1e3));
        for (std::size_t i = 0; i < p.callMs.size(); ++i)
            by_call[i].push_back(p.callMs[i]);
    }
    for (const auto &xs : by_call)
        call_medians.push_back(median(xs));
    std::printf("meta: setup_s=%.3f,%.3f,%.3f (start, middle, end)\n",
                setup_s[0], setup_s[1], setup_s[2]);
    std::printf("meta: passes=%zu calls=%zu symbols_per_pass=%llu "
                "pass_ms=",
                untraced.size(), untraced.size() * expect.size(),
                static_cast<unsigned long long>(symbols_per_pass));
    for (const Pass &p : untraced)
        std::printf("%s%.1f", &p == &untraced.front() ? "" : ",", p.ms());
    std::printf("\n");

    if (!args.trace) {
        std::vector<double> gm[kNumRanks];
        for (std::size_t i = 0; i < expect.size(); ++i)
            gm[i % kNumRanks].push_back(expect[i].result.speedup);
        MetricValues &e2e = out.endToEnd;
        e2e["sim_msym_per_s"] = median(msym_per_s);
        e2e["latency_p50_ms"] = geomean(call_medians);
        e2e["modeled_speedup_gm_1rank"] = geomean(gm[0]);
        e2e["modeled_speedup_gm_4rank"] = geomean(gm[1]);
        e2e["setup_s"] = median(setup_s);
        e2e["peak_rss_mb"] = peakRssMiB();
        out.attempted = tally.attempted;
        out.failed = tally.failed;
        return out;
    }

    // --- Traced run: per-layer metrics -------------------------------
    tally.record(
        tracedLayers(setup, timesByOp(sink.events(), "bench.call"), traced),
        "traced passes", "trace does not hold one op span per runPap call");
    MetricValues &m = out.perLayer;
    m = medianLayer(traced);
    const MetricValues attrib = medianLayer(untraced);
    m["workloads.build_ms"] = median(build_ms);
    m["workloads.trace_ms"] = median(trace_ms);
    m["pap.device_execute_ms"] = lookup(attrib, "attrib.device.execute");
    m["pap.workers_execute_ms"] = lookup(attrib, "attrib.workers.execute");
    m["pap.pipeline_stall_ms"] = lookup(attrib, "attrib.pipeline.stall");
    m["pap.verify_ms"] = lookup(attrib, "attrib.verify");
    m["pap.pipeline_occupancy"] = lookup(attrib, "pap.pipeline_occupancy");
    m["engine.bytes_per_symbol"] = lookup(attrib, "engine.bytes_per_symbol");

    // Modeled statistics, read as-is from the warm-up results.
    double in_range = 0, after_cc = 0, after_parent = 0, active = 0,
           switch_pct = 0, tcpu = 0, hit_rate = 0, svc_batches = 0,
           evictions = 0;
    int multi = 0;
    for (const Expect &e : expect) {
        const PapResult &r = e.result;
        svc_batches += r.svcBatches;
        evictions += static_cast<double>(r.svcEvictions);
        hit_rate += r.svcHitRate;
        if (r.numSegments < 2)
            continue;
        ++multi;
        in_range += r.flowsInRange;
        after_cc += r.flowsAfterCc;
        after_parent += r.flowsAfterParent;
        active += r.avgActiveFlows;
        switch_pct += r.switchOverheadPct;
        tcpu += r.avgTcpuCycles;
    }
    const double n_multi = multi ? multi : 1;
    m["pap.flows_in_range"] = in_range / n_multi;
    m["pap.flows_after_cc"] = after_cc / n_multi;
    m["pap.flows_after_parent"] = after_parent / n_multi;
    m["pap.active_flows_avg"] = active / n_multi;
    m["pap.switch_overhead_pct"] = switch_pct / n_multi;
    m["pap.tcpu_cycles_avg"] = tcpu / n_multi;
    m["ap.svc_batches"] = svc_batches;
    m["ap.svc_hit_rate"] = hit_rate / static_cast<double>(expect.size());
    m["ap.svc_evictions"] = evictions;

    // Tracing overhead and the traced-vs-attribution cross-check.
    std::vector<double> traced_ms;
    for (const Pass &p : traced)
        traced_ms.push_back(p.ms());
    std::vector<double> untraced_ms;
    for (const Pass &p : untraced)
        untraced_ms.push_back(p.ms());
    m["trace.overhead_pct"] =
        100.0 * (median(traced_ms) / median(untraced_ms) - 1.0);
    const struct
    {
        const char *traced;
        std::vector<const char *> buckets;
    } pairs[] = {
        {"traced.baseline", {"attrib.baseline"}},
        {"traced.analyze+partition",
         {"attrib.analyze", "attrib.partition"}},
        {"traced.plan", {"attrib.plan"}},
        {"traced.device.execute", {"attrib.device.execute"}},
        {"traced.compose.decode",
         {"attrib.compose.decode", "attrib.pipeline.stall"}},
        {"traced.verify", {"attrib.verify"}},
        {"traced.timeline", {"attrib.timeline"}},
    };
    std::printf("cross-check (ms per pass, median): traced spans vs "
                "untraced PapResult::attrib\n");
    // Compared as shares of each side's own wall, so a host slowdown
    // that stretches every phase alike cancels out.
    const double traced_wall = lookup(m, "traced.wall");
    const double attrib_wall = lookup(attrib, "attrib.wall");
    double gap = 0;
    for (const auto &p : pairs) {
        double a = 0;
        std::string label;
        for (const char *b : p.buckets) {
            a += lookup(attrib, b);
            label += std::string(label.empty() ? "" : "+") + (b + 7);
        }
        const double t = lookup(m, p.traced);
        gap += std::abs(t / traced_wall - a / attrib_wall);
        std::printf("  %-30s traced %10.3f   attrib %10.3f\n",
                    label.c_str(), t, a);
    }
    std::printf("  %-30s traced %10.3f   attrib %10.3f\n", "wall",
                traced_wall, attrib_wall);
    m["trace.attrib_gap_pct"] = 100.0 * gap;
    for (auto it = m.begin(); it != m.end();)
        it = it->first.rfind("traced.", 0) == 0 ? m.erase(it) : ++it;
    // The traced and untraced passes run the same calls, so their phase
    // times may differ only by the host's noise and the tracing cost.
    const double gap_pct = lookup(m, "trace.attrib_gap_pct");
    tally.record(gap_pct <= kMaxAttribGapPct, "attribution cross-check",
                 "traced phase times drift from PapResult::attrib");
    out.attempted = tally.attempted;
    out.failed = tally.failed;

    if (!args.spansOut.empty() && !writeTrace(sink, args.spansOut))
        std::fprintf(stderr, "cannot write spans to %s\n",
                     args.spansOut.c_str());
    return out;
}

} // namespace papbench
