#include "serve_ids.h"

#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <time.h>
#include <unistd.h>

#include "ap/ap_config.h"
#include "common/rng.h"
#include "pap/runner.h"
#include "serve/server.h"
#include "workloads/benchmarks.h"

namespace papbench {

using namespace pap;

namespace {

constexpr const char *kRuleset = "Snort";
/**
 * Symbols per stream, and distinct stream inputs (each with an oracle).
 * Stream cost varies a lot with content, so the pool is large enough
 * that its mean cost hardly moves between seeds.
 */
constexpr std::size_t kStreamSymbols = 4096;
constexpr std::size_t kPoolStreams = 256;
/** Server chunk length: four chunks per stream, three enumerated. */
constexpr std::uint32_t kChunkSymbols = 1024;
/** Symbols per tryFeed call (one socket frame). */
constexpr std::size_t kFeedPiece = 1024;
/** Every this many streams carries a key (journaled, checkpointed). */
constexpr std::uint64_t kKeyedEvery = 16;
/** Offered rate of the open-loop point, streams per second. */
constexpr double kOfferedRate = 50.0;
/** Latency limit on the p99 at the offered rate. */
constexpr double kLatencyLimitMs = 100.0;
/** Streams kept in flight by the closed-loop capacity probe. */
constexpr std::size_t kProbeConcurrency = 32;
/** Share of the measured time given to the capacity probe. */
constexpr double kProbeShare = 0.2;
constexpr double kWarmupSeconds = 1.0;
/** Generator poll interval when nothing moved: open / closed loop. */
constexpr double kOpenPollMs = 0.2;
constexpr double kClosedPollMs = 1.0;
/** Give up on a stream this long after the last arrival. */
constexpr double kDrainTimeoutMs = 30000.0;

/** Tenants with unequal DRR weights; each offers half the streams. */
struct Tenant
{
    const char *name;
    double weight;
};
constexpr Tenant kTenants[] = {{"gold", 3.0}, {"bronze", 1.0}};

/** Automaton, stream inputs and per-stream oracles. */
struct Pool
{
    Nfa ruleset;
    /** One generated trace; stream i is its i-th kStreamSymbols slice. */
    InputTrace traffic;
    std::vector<InputTrace> traces;
    std::vector<std::vector<ReportEvent>> oracle;
};

serve::ServeOptions
serveOptions(std::uint32_t threads, const std::string &ckpt_dir)
{
    serve::ServeOptions o;
    o.threads = threads;
    o.maxSessions = 128;
    o.tenantSessionCap = 96;
    o.checkpointDir = ckpt_dir;
    o.chunkSymbols = kChunkSymbols;
    o.checkpointIntervalChunks = 2;
    return o;
}

/** Everything one load phase observed. */
struct Phase
{
    /** Scheduled-arrival-to-finish latency; misses count as +limit*10. */
    std::vector<double> latencyMs;
    /** How late the generator opened each stream vs its schedule. */
    std::vector<double> lagMs;
    std::uint64_t offered = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    /** When each stream completed, ms since the phase began. */
    std::vector<double> completionMs;
    /** Symbols of completed streams, and the server's CPU time. */
    std::uint64_t symbols = 0;
    double cpuMs = 0.0;
    std::size_t queueDepthMax = 0;
};

/** CPU time of @p clock (a POSIX CPU-time clock), in ms. */
double
cpuMs(clockid_t clock)
{
    timespec ts{};
    ::clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

/** One admitted stream the generator is driving. */
struct Live
{
    serve::SessionId id = 0;
    std::size_t trace = 0;
    double dueMs = 0.0;
    std::size_t fed = 0;
    std::uint64_t op = 0;
};

/**
 * Drives streams from the caller's thread. In open-loop mode streams
 * arrive every 1/rate seconds regardless of completions; in closed-loop
 * mode a new stream starts whenever fewer than @c concurrency are live.
 */
class Generator
{
  public:
    Generator(serve::Server &server, const Pool &pool,
              std::uint64_t &next_op)
        : server_(server), pool_(pool), nextOp_(next_op)
    {
    }

    Phase openLoop(double rate, double seconds, std::uint64_t seed)
    {
        return run(rate, 0, seconds, seed);
    }

    Phase closedLoop(std::size_t concurrency, double seconds,
                     std::uint64_t seed)
    {
        return run(0.0, concurrency, seconds, seed);
    }

  private:
    Phase run(double rate, std::size_t concurrency, double seconds,
              std::uint64_t seed)
    {
        Phase ph;
        Rng rng(seed);
        std::vector<Live> live;
        const double cpu0 = cpuMs(CLOCK_PROCESS_CPUTIME_ID);
        const double own_cpu0 = cpuMs(CLOCK_THREAD_CPUTIME_ID);
        const double call_cpu0 = callCpuMs_;
        const auto t0 = Clock::now();
        const double horizon_ms = seconds * 1e3;
        const double period_ms = rate > 0 ? 1e3 / rate : 0.0;
        double next_due = 0.0;
        double last_sample = -1.0;
        for (;;) {
            double now = msSince(t0);
            const bool arriving = now < horizon_ms;
            if (!arriving && live.empty())
                break;
            if (!arriving && now > horizon_ms + kDrainTimeoutMs) {
                for (Live &l : live) {
                    fail(ph, l, "not done 30 s after the last arrival");
                    (void)server_.abort(l.id, "benchmark drain timeout");
                }
                break;
            }
            // Arrivals: on schedule (open loop) or to refill (closed).
            while (arriving &&
                   (rate > 0 ? next_due <= now
                             : live.size() < concurrency)) {
                const double due = rate > 0 ? next_due : now;
                next_due += period_ms;
                admit(ph, live, rng, due, msSince(t0));
                now = msSince(t0);
            }
            const bool progressed = advance(ph, live, t0);
            if (now - last_sample >= 5.0) {
                ph.queueDepthMax =
                    std::max(ph.queueDepthMax, server_.stats().queueDepth);
                last_sample = now;
            }
            if (!progressed) {
                // Poll gently: every tryFinish takes the server lock the
                // workers need. Open loop wakes for the next arrival.
                double nap_ms = rate > 0 ? kOpenPollMs : kClosedPollMs;
                if (rate > 0 && arriving)
                    nap_ms = std::clamp(next_due - msSince(t0), 0.0, nap_ms);
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(nap_ms));
            }
        }
        // The server's share: the process minus this thread's own
        // polling (its time inside server calls is the server's).
        const double polling_ms = (cpuMs(CLOCK_THREAD_CPUTIME_ID) - own_cpu0) -
                                  (callCpuMs_ - call_cpu0);
        ph.cpuMs = cpuMs(CLOCK_PROCESS_CPUTIME_ID) - cpu0 - polling_ms;
        return ph;
    }

    /** Make server call @p call in span @p name; charge its CPU. */
    template <typename Call>
    auto serverCall(const char *name, std::uint64_t op, Call &&call)
    {
        OpSpan span(name, op);
        const double cpu0 = cpuMs(CLOCK_THREAD_CPUTIME_ID);
        auto result = call();
        callCpuMs_ += cpuMs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
        return result;
    }

    void admit(Phase &ph, std::vector<Live> &live, Rng &rng, double due,
               double now)
    {
        const Tenant &tenant =
            kTenants[rng.nextBelow(sizeof(kTenants) / sizeof(kTenants[0]))];
        Live l;
        l.trace = rng.nextBelow(pool_.traces.size());
        l.dueMs = due;
        l.op = nextOp_++;
        ++ph.offered;
        ph.lagMs.push_back(now - due);
        const bool keyed = l.op % kKeyedEvery == 0;
        Result<serve::SessionId> opened = serverCall("serve.open", l.op, [&] {
            return server_.open(tenant.name,
                                keyed ? std::to_string(l.op) : "");
        });
        if (!opened.ok()) {
            if (opened.status().code() == ErrorCode::ResourceExhausted) {
                ++ph.shed;
                ph.latencyMs.push_back(kLatencyLimitMs * 10);
                return;
            }
            fail(ph, l, opened.status().toString().c_str());
            return;
        }
        l.id = opened.value();
        live.push_back(l);
    }

    /** Feed and poll every live stream once; true if anything moved. */
    bool advance(Phase &ph, std::vector<Live> &live, Clock::time_point t0)
    {
        bool progressed = false;
        for (std::size_t i = 0; i < live.size();) {
            Live &l = live[i];
            const InputTrace &trace = pool_.traces[l.trace];
            bool done = false;
            while (l.fed < trace.size()) {
                const std::size_t len =
                    std::min(kFeedPiece, trace.size() - l.fed);
                Result<bool> r = serverCall("serve.feed", l.op, [&] {
                    return server_.tryFeed(l.id, trace.ptr(l.fed), len);
                });
                if (!r.ok()) {
                    fail(ph, l, r.status().toString().c_str());
                    done = true;
                    break;
                }
                if (!r.value())
                    break; // window full: come back later
                l.fed += len;
                progressed = true;
            }
            if (!done && l.fed == trace.size()) {
                serve::SessionReport report;
                Result<bool> r = serverCall("serve.finish", l.op, [&] {
                    return server_.tryFinish(l.id, &report);
                });
                if (!r.ok()) {
                    fail(ph, l, r.status().toString().c_str());
                    done = true;
                } else if (r.value()) {
                    const double done_ms = msSince(t0);
                    ph.symbols += report.symbols;
                    ph.latencyMs.push_back(done_ms - l.dueMs);
                    ph.completionMs.push_back(done_ms);
                    if (report.reports != pool_.oracle[l.trace])
                        fail(ph, l, "reports differ from the oracle");
                    done = true;
                    progressed = true;
                }
            }
            if (done) {
                live[i] = live.back();
                live.pop_back();
            } else {
                ++i;
            }
        }
        return progressed;
    }

    void fail(Phase &ph, Live &l, const char *why)
    {
        ++ph.failed;
        ph.latencyMs.push_back(kLatencyLimitMs * 10);
        std::fprintf(stderr, "FAILED stream %llu: %s\n",
                     static_cast<unsigned long long>(l.op), why);
    }

    serve::Server &server_;
    const Pool &pool_;
    std::uint64_t &nextOp_;
    /** CPU this thread spent inside server calls, in ms. */
    double callCpuMs_ = 0.0;
};

Pool
buildPool(const Args &args, double &build_ms, double &trace_ms)
{
    Pool p;
    auto t = Clock::now();
    // The registry's own Snort ruleset, whatever --seed says (the seed
    // still draws the traffic and the arrivals). This workload serves a
    // single automaton, so unlike the suites it cannot average over
    // automata: across reseeded rulesets its modeled speedup was bimodal
    // (two seeds in eight gave 1.22x / 4.9x at 1 / 4 ranks, the rest
    // 1.60x / 6.3x), a spread at the metric's bound.
    p.ruleset = buildBenchmark(kRuleset);
    build_ms = msSince(t);
    t = Clock::now();
    p.traffic = buildBenchmarkTrace(p.ruleset, kRuleset,
                                    kPoolStreams * kStreamSymbols, args.seed);
    for (std::size_t i = 0; i < kPoolStreams; ++i) {
        const Symbol *at = p.traffic.ptr(i * kStreamSymbols);
        p.traces.emplace_back(std::vector<Symbol>(at, at + kStreamSymbols));
    }
    trace_ms = msSince(t);
    PapOptions oracle_opt;
    oracle_opt.engine = EngineKind::Sparse;
    for (const InputTrace &tr : p.traces)
        p.oracle.push_back(runSequential(p.ruleset, tr, oracle_opt).reports);
    return p;
}

/** A fresh, empty checkpoint directory under @p work_dir. */
std::string
checkpointDir(const std::string &work_dir)
{
    const std::filesystem::path dir =
        std::filesystem::path(work_dir) /
        ("papbench-serve-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

} // namespace

Outcome
runServeIds(const Args &args)
{
    // The generator thread takes one core; the server gets the rest.
    const std::uint32_t budget = hostThreads(args);
    const std::uint32_t workers = budget > 1 ? budget - 1 : 1;
    Outcome out;

    // --- Set-up (untimed): ruleset, stream pool, oracles, server boot -
    // setup_s is the median of three set-ups: one before the phases and
    // two after them, so one slow stretch of a shared host moves at
    // most one of them.
    std::vector<double> setup_s, build_ms, trace_ms;
    const std::string ckpt = checkpointDir(args.workDir);
    const auto measure_setup = [&](Pool &pool,
                                   std::unique_ptr<serve::Server> &server) {
        std::filesystem::remove_all(ckpt);
        std::filesystem::create_directories(ckpt);
        const auto t0 = Clock::now();
        double b = 0, t = 0;
        pool = buildPool(args, b, t);
        server = std::make_unique<serve::Server>(
            serveOptions(workers, ckpt), pool.ruleset);
        setup_s.push_back(msSince(t0) / 1e3);
        build_ms.push_back(b);
        trace_ms.push_back(t);
    };
    Pool pool;
    std::unique_ptr<serve::Server> server;
    measure_setup(pool, server);
    if (!server->status().ok()) {
        std::fprintf(stderr, "server failed to start: %s\n",
                     server->status().toString().c_str());
        out.attempted = out.failed = 1;
        return out;
    }
    for (const Tenant &t : kTenants)
        server->setTenantWeight(t.name, t.weight);
    std::printf("meta: nproc=%u server_workers=%u generator_threads=1 "
                "budget=%u "
                "ruleset=%s states=%zu streams=%zux%zu offered_rate=%.0f/s "
                "latency_limit_ms=%.0f\n",
                std::thread::hardware_concurrency(), workers, budget,
                kRuleset, pool.ruleset.size(),
                kPoolStreams, kStreamSymbols, kOfferedRate,
                kLatencyLimitMs);

    // --- Warm-up (untimed), then the measured phases -----------------
    std::uint64_t next_op = 1;
    Generator untraced(*server, pool, next_op);
    const Phase warm =
        untraced.openLoop(kOfferedRate, kWarmupSeconds, args.seed ^ 0x5eed);
    out.attempted += warm.offered;
    out.failed += warm.failed;

    const double probe_s = args.seconds * kProbeShare;
    const double open_s = args.seconds - probe_s;
    const serve::ServerStats s0 = server->stats();
    // The traced run splits the open-loop time: untraced, then traced.
    // ServerStats deltas (s0..s1) cover both open-loop halves.
    const Phase main = untraced.openLoop(
        kOfferedRate, args.trace ? open_s / 2 : open_s, args.seed);
    Phase traced;
    obs::TraceSink sink;
    if (args.trace) {
        obs::setTracer(&sink);
        traced = untraced.openLoop(kOfferedRate, open_s / 2, args.seed + 1);
        obs::setTracer(nullptr);
    }
    const serve::ServerStats s1 = server->stats();
    const Phase probe =
        untraced.closedLoop(kProbeConcurrency, probe_s, args.seed + 2);
    for (const Phase *ph : std::vector<const Phase *>{&main, &traced, &probe}) {
        out.attempted += ph->offered;
        out.failed += ph->failed;
    }
    const double peak_rss = peakRssMiB();
    // Capacity: completions per whole second of the probe (the first
    // second, while the 32 streams ramp up, is skipped), median; a
    // probe too short for that falls back to its overall rate.
    std::vector<double> per_second;
    for (int w = 1; w + 1 <= static_cast<int>(probe_s); ++w)
        per_second.push_back(static_cast<double>(std::count_if(
            probe.completionMs.begin(), probe.completionMs.end(),
            [w](double t) { return t >= w * 1e3 && t < (w + 1) * 1e3; })));
    const double capacity_streams =
        per_second.empty()
            ? static_cast<double>(probe.completionMs.size()) / probe_s
            : median(per_second);
    // The traced run's tail pools both open-loop halves (>=1000 streams).
    std::vector<double> open_loop = main.latencyMs;
    open_loop.insert(open_loop.end(), traced.latencyMs.begin(),
                     traced.latencyMs.end());
    const std::size_t beyond = samplesBeyond(open_loop.size(), 99.0);
    const double p99 = percentile(open_loop, 99.0);
    std::printf("meta: open_loop streams=%llu shed=%llu p50=%.3fms "
                "p99=%.3fms (%zu samples beyond) limit_met=%s; "
                "capacity=%.1f streams/s (closed loop, %zu in flight, "
                "median of %zu one-second windows)\n",
                static_cast<unsigned long long>(main.offered +
                                                traced.offered),
                static_cast<unsigned long long>(main.shed + traced.shed),
                median(open_loop), p99, beyond,
                p99 <= kLatencyLimitMs ? "yes" : "no", capacity_streams,
                kProbeConcurrency, per_second.size());
    if (beyond < 10)
        std::printf("meta: p99 has fewer than 10 samples beyond it\n");
    // Host cost of serving: symbols served per CPU-second of the server
    // (every thread but the generator's) at the offered rate.
    const double cpu_msym =
        static_cast<double>(main.symbols) / (main.cpuMs * 1e3);

    server.reset();
    for (int rep = 0; rep < 2; ++rep) {
        Pool spare;
        std::unique_ptr<serve::Server> booted;
        measure_setup(spare, booted);
    }
    std::filesystem::remove_all(ckpt);
    std::printf("meta: setup_s=%.3f,%.3f,%.3f (before, after, after)\n",
                setup_s[0], setup_s[1], setup_s[2]);

    // --- Modeled clock of the served ruleset (untimed) ---------------
    // One runPap per rank count over the whole 1 MiB of served traffic:
    // a 4 KiB stream is too short for a modeled speedup (the golden cap
    // engages), and the 4-rank speedup of shorter traces swings with
    // their partition symbol. It runs after the serve phases so its
    // large allocations cannot change the heap the server ran on.
    double speedup[2] = {1.0, 1.0};
    const std::uint32_t ranks[2] = {1, 4};
    for (int k = 0; k < 2; ++k) {
        PapOptions opt;
        opt.routingMinHalfCores = benchmarkInfo(kRuleset).paper.halfCores;
        opt.threads = budget;
        const PapResult r = runPap(pool.ruleset, pool.traffic,
                                   ApConfig::d480(ranks[k]), opt);
        ++out.attempted;
        if (!r.status.ok() || !r.verified || r.recovered) {
            ++out.failed;
            std::fprintf(stderr, "FAILED runPap %s ranks=%u\n", kRuleset,
                         ranks[k]);
        }
        speedup[k] = r.speedup;
        std::printf("digest %-16s ranks=%u %s speedup=%.6f\n", kRuleset,
                    ranks[k], hex64(simDigest(r)).c_str(), r.speedup);
    }

    if (!args.trace) {
        MetricValues &e2e = out.endToEnd;
        e2e["sim_msym_per_s"] = cpu_msym;
        e2e["latency_p50_ms"] = median(main.latencyMs);
        e2e["modeled_speedup_gm_1rank"] = speedup[0];
        e2e["modeled_speedup_gm_4rank"] = speedup[1];
        e2e["setup_s"] = median(setup_s);
        e2e["peak_rss_mb"] = peak_rss;
        return out;
    }

    MetricValues &m = out.perLayer;
    m["workloads.build_ms"] = median(build_ms);
    m["workloads.trace_ms"] = median(trace_ms);
    MetricValues span_ms;
    for (const auto &phase : sink.phaseSummary())
        span_ms[phase.name] = phase.totalUs * 1e-3;
    const double streams = static_cast<double>(
        std::max<std::uint64_t>(1, traced.offered));
    m["serve.open_ms"] = lookup(span_ms, "serve.open") / streams;
    m["serve.feed_ms"] = lookup(span_ms, "serve.feed") / streams;
    m["serve.finish_ms"] = lookup(span_ms, "serve.finish") / streams;
    m["serve.chunks_executed"] =
        static_cast<double>(s1.chunksExecuted - s0.chunksExecuted);
    m["serve.chunks_recovered"] =
        static_cast<double>(s1.chunksRecovered - s0.chunksRecovered);
    m["serve.periodic_checkpoints"] = static_cast<double>(
        s1.periodicCheckpoints - s0.periodicCheckpoints);
    m["serve.queue_depth_max"] = static_cast<double>(
        std::max(main.queueDepthMax, traced.queueDepthMax));
    m["serve.p99_ms"] = p99;
    m["serve.max_streams_per_s"] = capacity_streams;
    m["serve.shed_frac"] =
        static_cast<double>(main.shed + traced.shed) /
        static_cast<double>(std::max<std::uint64_t>(
            1, main.offered + traced.offered));
    std::vector<double> lag = main.lagMs;
    lag.insert(lag.end(), traced.lagMs.begin(), traced.lagMs.end());
    m["loadgen.lag_p99_ms"] = percentile(lag, 99.0);
    m["trace.overhead_pct"] =
        100.0 * (median(traced.latencyMs) / median(main.latencyMs) - 1.0);
    if (!args.spansOut.empty() && !writeTrace(sink, args.spansOut))
        std::fprintf(stderr, "cannot write spans to %s\n",
                     args.spansOut.c_str());
    return out;
}

} // namespace papbench
