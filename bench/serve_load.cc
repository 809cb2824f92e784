/**
 * @file
 * Closed-loop load generator for the serve subsystem: N producer
 * threads stream traces through an in-process serve::Server (no
 * sockets, so the numbers measure admission/scheduling/composition,
 * not loopback I/O), sweeping the offered concurrency at 0.5x / 1x /
 * 2x of the admission limit, plus a 2x soak point with
 * disconnect-client and slow-client faults injected.
 *
 * What the sweep demonstrates (ISSUE 7 acceptance): under overload
 * the daemon sheds with typed ResourceExhausted instead of queueing
 * unboundedly, so the p99 session latency of *admitted* streams stays
 * bounded as offered load doubles past the cap; and every stream that
 * completes — under load, faults, and backpressure — returns reports
 * byte-identical to a one-shot sequential run of the same input.
 *
 * The harness hard-verifies both properties itself and exits nonzero
 * on any violation: a shed open() with the wrong error code, a
 * faulted stream dying with an untyped error, or a completed stream
 * whose report list differs from the precomputed oracle.
 *
 * A final *restart point* measures hard-crash recovery: keyed streams
 * with periodic checkpointing are fed partway, the Server is
 * destroyed without draining (the in-process equivalent of kill -9 —
 * nothing is flushed beyond what the checkpoint writer already made
 * durable), and a fresh Server is booted on the same checkpoint
 * directory. Recovery time (manifest replay + RESUME of every
 * stream), replayed symbols (work re-fed because it postdated the
 * last checkpoint), and recovered-session counts are reported, and
 * every recovered stream's final reports are verified byte-identical
 * to the one-shot oracle.
 *
 * Emits BENCH_serve.json (path overridable as argv[1]); metric names
 * follow scripts/bench_compare.py direction conventions (*_ms and
 * *_shed lower-is-better, *per_sec* and *_admitted higher,
 * *_crashes lower and gated even cross-machine,
 * *_replayed_symbols lower, *_recovered_sessions higher).
 *
 * Flags: --faults=SPEC (soak-point injector spec), --fault-seed=N,
 * --max-sessions=N (admission limit the sweep is scaled from).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "nfa/glushkov.h"
#include "obs/attrib.h"
#include "pap/fault_injector.h"
#include "pap/runner.h"
#include "serve/server.h"

using namespace pap;
using Clock = std::chrono::steady_clock;

namespace {

constexpr const char *kDefaultSoakFaults =
    "disconnect-client:8:0.3,slow-client:6:0.3";

/** One load point of the sweep. */
struct PointResult
{
    std::string name;
    std::uint32_t producers = 0;
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    std::uint64_t completed = 0;
    std::uint64_t faulted = 0;   ///< typed mid-stream terminations
    std::uint64_t quarantined = 0;
    std::uint64_t typedViolations = 0;
    std::uint64_t reportMismatches = 0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;
    double wallMs = 0.0;
    double streamsPerSec = 0.0;
    double symbolsPerSec = 0.0;
};

InputTrace
serveTrace(std::uint64_t seed, std::size_t len)
{
    static const std::string alphabet = "abcdfgh ";
    Rng rng(seed);
    std::vector<Symbol> data(len);
    for (auto &s : data)
        s = static_cast<Symbol>(static_cast<unsigned char>(
            alphabet[rng.nextBelow(alphabet.size())]));
    return InputTrace(std::move(data));
}

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t idx = static_cast<std::size_t>(
        std::min<double>(sorted.size() - 1.0,
                         q * static_cast<double>(sorted.size())));
    return sorted[idx];
}

/** True for the error codes a faulted/terminated stream may report. */
bool
isExpectedStreamError(ErrorCode code)
{
    return code == ErrorCode::Cancelled ||
           code == ErrorCode::DeadlineExceeded ||
           code == ErrorCode::StreamQuarantined;
}

PointResult
runPoint(const std::string &name, std::uint32_t producers,
         std::uint32_t streams_per_producer, std::uint32_t max_sessions,
         const std::vector<InputTrace> &traces,
         const std::vector<std::vector<ReportEvent>> &expected,
         const Nfa &ruleset, const std::string &fault_spec,
         std::uint64_t fault_seed)
{
    PointResult out;
    out.name = name;
    out.producers = producers;
    out.offered =
        static_cast<std::uint64_t>(producers) * streams_per_producer;

    serve::ServeOptions opt;
    opt.threads = bench::hostThreads();
    opt.maxSessions = max_sessions;
    opt.tenantSessionCap = max_sessions; // only the global cap sheds
    opt.chunkSymbols = 1024;
    opt.boundaryLookback = 128;

    FaultInjector injector(fault_seed);
    if (!fault_spec.empty()) {
        Result<FaultInjector> parsed =
            FaultInjector::fromSpec(fault_spec, fault_seed);
        if (!parsed.ok()) {
            std::fprintf(stderr, "bad fault spec '%s': %s\n",
                         fault_spec.c_str(),
                         parsed.status().toString().c_str());
            std::exit(2);
        }
        injector = std::move(parsed.value());
        opt.pap.faultInjector = &injector;
    }

    serve::Server server(opt, ruleset);
    if (!server.status().ok()) {
        std::fprintf(stderr, "server failed to start: %s\n",
                     server.status().toString().c_str());
        std::exit(2);
    }

    std::mutex agg_mutex;
    std::vector<double> latencies;
    std::atomic<std::uint64_t> shed{0}, completed{0}, faulted{0},
        typed_violations{0}, report_mismatches{0}, symbols{0};

    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::uint32_t p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            const std::string tenant =
                (p % 2 == 0) ? "alice" : "bob";
            for (std::uint32_t i = 0; i < streams_per_producer; ++i) {
                const std::size_t which =
                    (static_cast<std::size_t>(p) * streams_per_producer +
                     i) %
                    traces.size();
                const InputTrace &trace = traces[which];

                // Closed loop: retry a shed open until admitted. The
                // shed count is the interesting signal; the retry
                // keeps offered work constant across points.
                serve::SessionId id = 0;
                for (;;) {
                    Result<serve::SessionId> opened =
                        server.open(tenant);
                    if (opened.ok()) {
                        id = opened.value();
                        break;
                    }
                    ++shed;
                    if (opened.status().code() !=
                        ErrorCode::ResourceExhausted) {
                        ++typed_violations;
                        std::fprintf(
                            stderr,
                            "VIOLATION: shed with %s, not "
                            "ResourceExhausted\n",
                            opened.status().toString().c_str());
                        return;
                    }
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(500));
                }

                // Feed in socket-frame-sized pieces; a typed failure
                // here is an injected disconnect/quarantine killing
                // this stream (siblings must be unaffected — the
                // report check on every completed stream proves it).
                Status fed;
                for (std::size_t at = 0;
                     fed.ok() && at < trace.size(); at += 2048) {
                    const std::size_t len =
                        std::min<std::size_t>(2048, trace.size() - at);
                    fed = server.feed(id, trace.ptr(at), len);
                }
                if (!fed.ok()) {
                    ++faulted;
                    if (!isExpectedStreamError(fed.code()))
                        ++typed_violations;
                    (void)server.finish(id); // release the slot
                    continue;
                }

                Result<serve::SessionReport> fin = server.finish(id);
                if (!fin.ok()) {
                    ++faulted;
                    if (!isExpectedStreamError(fin.status().code()))
                        ++typed_violations;
                    continue;
                }
                ++completed;
                symbols += fin.value().symbols;
                if (fin.value().reports != expected[which]) {
                    ++report_mismatches;
                    std::fprintf(stderr,
                                 "VIOLATION: stream %llu reports "
                                 "differ from one-shot run\n",
                                 static_cast<unsigned long long>(id));
                }
                std::lock_guard<std::mutex> g(agg_mutex);
                latencies.push_back(fin.value().latencyMs);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    out.wallMs = obs::msSince(t0);

    const serve::ServerStats stats = server.stats();
    out.admitted = stats.admitted;
    out.shed = shed.load();
    out.completed = completed.load();
    out.faulted = faulted.load();
    out.quarantined = stats.quarantined;
    out.typedViolations = typed_violations.load();
    out.reportMismatches = report_mismatches.load();

    std::sort(latencies.begin(), latencies.end());
    out.p50Ms = percentile(latencies, 0.50);
    out.p95Ms = percentile(latencies, 0.95);
    out.p99Ms = percentile(latencies, 0.99);
    out.maxMs = latencies.empty() ? 0.0 : latencies.back();
    if (out.wallMs > 0.0) {
        out.streamsPerSec =
            static_cast<double>(out.completed) / (out.wallMs / 1e3);
        out.symbolsPerSec =
            static_cast<double>(symbols.load()) / (out.wallMs / 1e3);
    }
    return out;
}

/** Aggregate result of the crash-recovery restart point. */
struct RestartResult
{
    std::uint32_t cycles = 0;
    std::uint64_t recovered = 0; ///< streams resumed and completed
    std::uint64_t replayed = 0;  ///< symbols re-fed past the resume offset
    std::uint64_t mismatches = 0;
    std::uint64_t violations = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
};

/**
 * Crash keyed streams mid-flight and time the recovery. Each cycle:
 * open every trace as a keyed stream with a 1-chunk checkpoint
 * interval, feed a cycle-dependent fraction, wait for the checkpoint
 * writer to catch up, destroy the Server without draining, then boot
 * a fresh Server on the same directory and RESUME + re-feed + finish
 * every stream, verifying the merged reports against the oracle.
 */
RestartResult
runRestartPoint(std::uint32_t cycles,
                const std::vector<InputTrace> &traces,
                const std::vector<std::vector<ReportEvent>> &expected,
                const Nfa &ruleset)
{
    RestartResult out;
    out.cycles = cycles;
    const std::uint32_t sessions =
        static_cast<std::uint32_t>(traces.size());

    char dir_template[] = "serve_load_ckpt.XXXXXX";
    if (::mkdtemp(dir_template) == nullptr) {
        std::fprintf(stderr, "mkdtemp failed for restart point\n");
        ++out.violations;
        return out;
    }
    const std::string ckpt_dir = dir_template;

    serve::ServeOptions opt;
    opt.threads = bench::hostThreads();
    opt.maxSessions = sessions;
    opt.tenantSessionCap = sessions;
    opt.chunkSymbols = 1024;
    opt.boundaryLookback = 128;
    opt.checkpointDir = ckpt_dir;
    // Checkpoint every composed chunk so even quick-mode traces (a
    // handful of chunks) have a durable frontier to resume from.
    opt.checkpointIntervalChunks = 1;

    std::vector<double> recovery_ms;
    for (std::uint32_t cycle = 0; cycle < cycles; ++cycle) {
        std::vector<std::uint64_t> fed(sessions, 0);
        {
            serve::Server server(opt, ruleset);
            if (!server.status().ok()) {
                std::fprintf(stderr, "restart server boot: %s\n",
                             server.status().toString().c_str());
                ++out.violations;
                break;
            }
            for (std::uint32_t s = 0; s < sessions; ++s) {
                const std::string tenant =
                    (s % 2 == 0) ? "alice" : "bob";
                Result<serve::SessionId> opened = server.open(
                    tenant, "crash-" + std::to_string(s));
                if (!opened.ok()) {
                    ++out.violations;
                    continue;
                }
                const InputTrace &trace = traces[s];
                // Crash point varies per cycle and stream: feed 40,
                // 60, or 80 percent before pulling the plug.
                const std::size_t cut =
                    trace.size() * (40 + 20 * ((cycle + s) % 3)) / 100;
                for (std::size_t at = 0; at < cut; at += 2048) {
                    const std::size_t len =
                        std::min<std::size_t>(2048, cut - at);
                    if (!server.feed(opened.value(), trace.ptr(at),
                                     len)
                             .ok()) {
                        ++out.violations;
                        break;
                    }
                }
                fed[s] = cut;
            }
            // Give the off-hot-path writer a chance to persist at
            // least one frontier per stream; a stream that misses the
            // window still recovers (fresh re-admit at offset 0).
            const auto deadline =
                Clock::now() + std::chrono::seconds(5);
            while (server.stats().periodicCheckpoints < sessions &&
                   Clock::now() < deadline)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            // Destroy without drain: the crash. Sessions were never
            // journaled complete, so the manifest still names them.
        }

        const auto r0 = Clock::now();
        serve::Server revived(opt, ruleset);
        if (!revived.status().ok()) {
            std::fprintf(stderr, "restart recovery boot: %s\n",
                         revived.status().toString().c_str());
            ++out.violations;
            break;
        }
        std::vector<serve::SessionId> ids(sessions, 0);
        std::vector<std::uint64_t> offsets(sessions, 0);
        std::vector<bool> live(sessions, false);
        for (std::uint32_t s = 0; s < sessions; ++s) {
            const std::string tenant = (s % 2 == 0) ? "alice" : "bob";
            Result<serve::ResumeInfo> res =
                revived.resume(tenant, "crash-" + std::to_string(s));
            if (!res.ok()) {
                std::fprintf(stderr,
                             "VIOLATION: resume crash-%u failed: %s\n",
                             s, res.status().toString().c_str());
                ++out.violations;
                continue;
            }
            ids[s] = res.value().id;
            offsets[s] = res.value().offset;
            live[s] = true;
            out.replayed += fed[s] > res.value().offset
                                ? fed[s] - res.value().offset
                                : 0;
        }
        recovery_ms.push_back(obs::msSince(r0));

        for (std::uint32_t s = 0; s < sessions; ++s) {
            if (!live[s])
                continue;
            const InputTrace &trace = traces[s];
            Status fed_st;
            for (std::size_t at = offsets[s];
                 fed_st.ok() && at < trace.size(); at += 2048) {
                const std::size_t len =
                    std::min<std::size_t>(2048, trace.size() - at);
                fed_st = revived.feed(ids[s], trace.ptr(at), len);
            }
            Result<serve::SessionReport> fin = revived.finish(ids[s]);
            if (!fed_st.ok() || !fin.ok()) {
                ++out.violations;
                continue;
            }
            if (fin.value().reports != expected[s]) {
                ++out.mismatches;
                std::fprintf(stderr,
                             "VIOLATION: recovered stream crash-%u "
                             "reports differ from one-shot run\n",
                             s);
                continue;
            }
            ++out.recovered;
        }
    }

    std::sort(recovery_ms.begin(), recovery_ms.end());
    out.p50Ms = percentile(recovery_ms, 0.50);
    out.p99Ms = percentile(recovery_ms, 0.99);

    // The completed cycles journaled every stream complete and
    // removed its checkpoint; sweep whatever remains and the dir.
    if (DIR *d = ::opendir(ckpt_dir.c_str())) {
        while (const dirent *e = ::readdir(d)) {
            const std::string name = e->d_name;
            if (name == "." || name == "..")
                continue;
            ::unlink((ckpt_dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(ckpt_dir.c_str());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ObsSession obs_session("serve_load");
    bench::printHeader(
        "Serve-mode load: admission, shedding, and tail latency",
        "Section 3.4 composition under continuous load");

    const char *out_path = "BENCH_serve.json";
    std::string soak_faults = kDefaultSoakFaults;
    std::uint64_t fault_seed = 17;
    std::uint32_t max_sessions =
        std::getenv("PAP_QUICK") ? 4u : 8u;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--faults=", 9) == 0)
            soak_faults = arg + 9;
        else if (std::strncmp(arg, "--fault-seed=", 13) == 0)
            fault_seed = std::strtoull(arg + 13, nullptr, 10);
        else if (std::strncmp(arg, "--max-sessions=", 15) == 0)
            max_sessions = static_cast<std::uint32_t>(
                std::strtoul(arg + 15, nullptr, 10));
        else if (std::strncmp(arg, "--", 2) == 0) {
            std::fprintf(stderr, "unknown flag %s\n", arg);
            return 2;
        } else
            out_path = arg;
    }

    const std::uint32_t streams_per_producer =
        std::getenv("PAP_QUICK") ? 2u : 3u;
    const std::size_t trace_len =
        static_cast<std::size_t>(bench::smallTraceLen() / 8);

    const Nfa ruleset = compileRuleset(
        {{"ab.*cd", 1}, {"fgh", 2}, {"h[af]+g", 3}}, "serve-bench");

    // A few distinct streams, each with a precomputed one-shot oracle;
    // producers cycle through them so every completion is verifiable.
    std::vector<InputTrace> traces;
    std::vector<std::vector<ReportEvent>> expected;
    for (std::uint64_t s = 0; s < 4; ++s) {
        traces.push_back(serveTrace(101 + s, trace_len));
        expected.push_back(runSequential(ruleset, traces.back()).reports);
    }

    struct PointSpec
    {
        const char *name;
        std::uint32_t producers;
        std::string faults;
    };
    const std::vector<PointSpec> sweep = {
        {"0.5x", std::max(1u, max_sessions / 2), ""},
        {"1x", max_sessions, ""},
        {"2x", max_sessions * 2, ""},
        {"2x-soak", max_sessions * 2, soak_faults},
    };

    std::printf("admission limit: %u sessions, %u streams/producer, "
                "%zu symbols/stream\n\n",
                max_sessions, streams_per_producer, trace_len);
    std::printf("%-8s %5s %8s %9s %6s %7s %6s %9s %9s %9s %12s\n",
                "point", "prod", "offered", "admitted", "shed",
                "compl", "fault", "p50 ms", "p99 ms", "max ms",
                "streams/s");

    std::vector<PointResult> rows;
    std::uint64_t violations = 0, mismatches = 0;
    for (const PointSpec &spec : sweep) {
        PointResult r = runPoint(
            spec.name, spec.producers, streams_per_producer,
            max_sessions, traces, expected, ruleset, spec.faults,
            fault_seed);
        violations += r.typedViolations;
        mismatches += r.reportMismatches;
        std::printf(
            "%-8s %5u %8llu %9llu %6llu %7llu %6llu %9.2f %9.2f "
            "%9.2f %12.1f\n",
            r.name.c_str(), r.producers,
            static_cast<unsigned long long>(r.offered),
            static_cast<unsigned long long>(r.admitted),
            static_cast<unsigned long long>(r.shed),
            static_cast<unsigned long long>(r.completed),
            static_cast<unsigned long long>(r.faulted), r.p50Ms,
            r.p99Ms, r.maxMs, r.streamsPerSec);
        rows.push_back(std::move(r));
    }

    // Restart point: SIGKILL-equivalent crash mid-stream, then boot,
    // RESUME, and verify byte-identical reports.
    const std::uint32_t restart_cycles =
        std::getenv("PAP_QUICK") ? 3u : 6u;
    const RestartResult restart =
        runRestartPoint(restart_cycles, traces, expected, ruleset);
    violations += restart.violations;
    mismatches += restart.mismatches;
    std::printf("\nrestart point: %u crash/recover cycles, %llu/%u "
                "streams recovered, %llu symbols replayed, recovery "
                "p50 %.2f ms p99 %.2f ms\n",
                restart.cycles,
                static_cast<unsigned long long>(restart.recovered),
                restart.cycles *
                    static_cast<std::uint32_t>(traces.size()),
                static_cast<unsigned long long>(restart.replayed),
                restart.p50Ms, restart.p99Ms);

    // Reaching this line at all is the zero-crash criterion; the
    // typed-shed and report-identity criteria were hard-checked per
    // stream above.
    const bool ok = violations == 0 && mismatches == 0;
    std::printf("\nsoak faults: %s (seed %llu)\n", soak_faults.c_str(),
                static_cast<unsigned long long>(fault_seed));
    std::printf("typed-error violations: %llu, report mismatches: "
                "%llu -> %s\n",
                static_cast<unsigned long long>(violations),
                static_cast<unsigned long long>(mismatches),
                ok ? "OK" : "FAIL");

    std::FILE *f = std::fopen(out_path, "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path);
        return 1;
    }
    std::fprintf(f, "{\n");
    bench::writeMetaHeader(f, "serve_load");
    std::fprintf(f, "  \"max_sessions\": %u,\n", max_sessions);
    std::fprintf(f, "  \"streams_per_producer\": %u,\n",
                 streams_per_producer);
    std::fprintf(f, "  \"symbols_per_stream\": %zu,\n", trace_len);
    std::fprintf(f, "  \"soak_fault_spec\": \"%s\",\n",
                 soak_faults.c_str());
    std::fprintf(f, "  \"daemon_crashes\": 0,\n");
    std::fprintf(f, "  \"typed_error_violations\": %llu,\n",
                 static_cast<unsigned long long>(violations));
    std::fprintf(f, "  \"report_mismatches\": %llu,\n",
                 static_cast<unsigned long long>(mismatches));
    std::fprintf(f, "  \"restart_cycles\": %u,\n", restart.cycles);
    std::fprintf(f, "  \"recovery_p50_ms\": %.3f,\n", restart.p50Ms);
    std::fprintf(f, "  \"recovery_p99_ms\": %.3f,\n", restart.p99Ms);
    std::fprintf(f, "  \"recovery_replayed_symbols\": %llu,\n",
                 static_cast<unsigned long long>(restart.replayed));
    std::fprintf(f, "  \"recovery_recovered_sessions\": %llu,\n",
                 static_cast<unsigned long long>(restart.recovered));
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const PointResult &r = rows[i];
        std::fprintf(
            f,
            "    {\"point\": \"%s\", \"producers\": %u, "
            "\"offered_streams\": %llu, \"sessions_admitted\": %llu, "
            "\"sessions_shed\": %llu, \"completed\": %llu, "
            "\"faulted\": %llu, \"quarantined\": %llu, "
            "\"point_crashes\": 0, "
            "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
            "\"max_ms\": %.3f, \"wall_ms\": %.3f, "
            "\"streams_per_sec\": %.2f, \"symbols_per_sec\": %.0f}%s\n",
            r.name.c_str(), r.producers,
            static_cast<unsigned long long>(r.offered),
            static_cast<unsigned long long>(r.admitted),
            static_cast<unsigned long long>(r.shed),
            static_cast<unsigned long long>(r.completed),
            static_cast<unsigned long long>(r.faulted),
            static_cast<unsigned long long>(r.quarantined), r.p50Ms,
            r.p95Ms, r.p99Ms, r.maxMs, r.wallMs, r.streamsPerSec,
            r.symbolsPerSec, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
    return ok ? 0 : 1;
}
