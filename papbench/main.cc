/**
 * @file
 * Benchmark of record for PAPsim. One command runs one named workload
 * and prints, as its last stdout line, one JSON object:
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end catalogue below
 * (measured with tracing off); with --trace 1 they are the per-layer
 * catalogue (from a run that records the spans each layer emits). Every
 * workload reports every metric of the catalogue it prints; a layer a
 * workload never calls reports 0. The process exits non-zero when any
 * operation failed its correctness check.
 *
 *   papbench --workload regex_suite|anmlzoo_suite|serve_ids
 *            --seed N --seconds S --trace 0|1
 *            [--threads N] [--spans-out PATH] [--work-dir DIR]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "serve_ids.h"
#include "suite.h"

namespace papbench {

namespace {

struct MetricDef
{
    std::string name;
    const char *unit;
};

/** End-to-end metrics: what a user of PAPsim sees. */
const std::vector<MetricDef> &
endToEndCatalogue()
{
    static const std::vector<MetricDef> defs = {
        {"sim_msym_per_s", "Msym/s"},
        {"latency_p50_ms", "ms"},
        {"modeled_speedup_gm_1rank", "x"},
        {"modeled_speedup_gm_4rank", "x"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
    };
    return defs;
}

/** Per-layer metrics of the traced run. */
const std::vector<MetricDef> &
perLayerCatalogue()
{
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"workloads.build_ms", "ms"},
            {"workloads.trace_ms", "ms"},
            {"nfa.analyze_ms", "ms"},
            {"pap.analyze_ms", "ms"},
            {"pap.sequential_ms", "ms"},
            {"pap.baseline_share", "frac"},
            {"pap.partition_ms", "ms"},
            {"pap.plan_ms", "ms"},
            {"pap.execute_ms", "ms"},
            {"pap.segment_exec_ms", "ms"},
            {"pap.compose_ms", "ms"},
            {"pap.timeline_ms", "ms"},
            {"pap.call_self_ms", "ms"},
            {"engine.flow_symbols", "count"},
            {"engine.ns_per_flow_symbol", "ns"},
            {"engine.bytes_per_symbol", "B"},
            {"pap.transition_ratio", "x"},
            {"pap.true_path_frac", "frac"},
            {"pap.false_entry_frac", "frac"},
            {"pap.report_inflation", "x"},
            {"pap.device_execute_ms", "ms"},
            {"pap.workers_execute_ms", "ms"},
            {"pap.pipeline_stall_ms", "ms"},
            {"pap.pipeline_occupancy", "frac"},
            {"pap.verify_ms", "ms"},
            {"pap.flows_in_range", "flows"},
            {"pap.flows_after_cc", "flows"},
            {"pap.flows_after_parent", "flows"},
            {"pap.active_flows_avg", "flows"},
            {"pap.switch_overhead_pct", "%"},
            {"pap.tcpu_cycles_avg", "cycles"},
            {"ap.svc_batches", "count"},
            {"ap.svc_hit_rate", "frac"},
            {"ap.svc_evictions", "count"},
            {"serve.open_ms", "ms"},
            {"serve.feed_ms", "ms"},
            {"serve.finish_ms", "ms"},
            {"serve.chunks_executed", "count"},
            {"serve.chunks_recovered", "count"},
            {"serve.periodic_checkpoints", "count"},
            {"serve.queue_depth_max", "count"},
            {"serve.p99_ms", "ms"},
            {"serve.max_streams_per_s", "1/s"},
            {"serve.shed_frac", "frac"},
            {"loadgen.lag_p99_ms", "ms"},
            {"failed_frac", "frac"},
            {"trace.overhead_pct", "%"},
            {"trace.attrib_gap_pct", "%"},
        };
        for (const std::string &name : allSuiteAutomata()) {
            d.push_back({"pap.segment_exec_ms." + name, "ms"});
            d.push_back({"pap.sequential_ms." + name, "ms"});
        }
        return d;
    }();
    return defs;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "papbench: %s\n"
                 "usage: papbench --workload regex_suite|anmlzoo_suite|"
                 "serve_ids --seed N --seconds S --trace 0|1 "
                 "[--threads N] [--spans-out PATH] [--work-dir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (!(a.seconds > 0))
                usage("--seconds must be positive");
        } else if (flag == "--trace") {
            a.trace = std::strtoul(v, &end, 10) != 0;
        } else if (flag == "--threads") {
            a.threads = static_cast<std::uint32_t>(
                std::strtoul(v, &end, 10));
        } else if (flag == "--spans-out") {
            a.spansOut = v;
        } else if (flag == "--work-dir") {
            a.workDir = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            usage(("bad value for " + flag).c_str());
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

/** Print the result line; false if a metric is outside its catalogue. */
bool
printResult(const Outcome &out, const std::vector<MetricDef> &defs,
            const MetricValues &values)
{
    bool ok = true;
    for (const auto &[name, v] : values) {
        bool known = false;
        for (const MetricDef &d : defs)
            known = known || d.name == name;
        if (!known) {
            std::fprintf(stderr, "metric %s is not in the catalogue\n",
                         name.c_str());
            ok = false;
        }
    }
    std::string json = "{\"correct\": ";
    json += out.failed == 0 && ok ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const auto it = values.find(defs[i].name);
        double v = it == values.end() ? 0.0 : it->second;
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "metric %s is not finite\n",
                         defs[i].name.c_str());
            v = 0.0;
            ok = false;
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        json += (i ? ", \"" : "\"") + defs[i].name + "\": {\"value\": " +
                buf + ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return ok;
}

} // namespace

} // namespace papbench

int
main(int argc, char **argv)
{
    using namespace papbench;
    const Args args = parseArgs(argc, argv);
    Outcome out;
    if (args.workload == "regex_suite")
        out = runSuite(regexSuite(), args);
    else if (args.workload == "anmlzoo_suite")
        out = runSuite(anmlzooSuite(), args);
    else if (args.workload == "serve_ids")
        out = runServeIds(args);
    else
        usage(("unknown workload " + args.workload).c_str());

    if (args.trace)
        out.perLayer["failed_frac"] =
            out.attempted ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 1.0;
    std::printf("failed_frac: %llu/%llu\n",
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    std::fflush(stdout);
    const bool printed =
        args.trace ? printResult(out, perLayerCatalogue(), out.perLayer)
                   : printResult(out, endToEndCatalogue(), out.endToEnd);
    std::fflush(stdout);
    return printed && out.failed == 0 && out.attempted > 0 ? 0 : 1;
}
