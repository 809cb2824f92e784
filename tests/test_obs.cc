/**
 * @file
 * Tests for the observability layer: histogram percentile agreement
 * with stats::percentile, trace JSON syntax and span nesting, registry
 * thread safety, the shared counter-merge path, and the
 * zero-allocation guarantee of disabled tracing.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <thread>
#include <vector>

#include "ap/ap_config.h"
#include "common/rng.h"
#include "common/stats.h"
#include "engine/trace.h"
#include "nfa/glushkov.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "pap/runner.h"
#include "workload_helpers.h"

// Global allocation counter so tests can assert that disabled tracing
// never touches the heap. Counting relaxed is fine: the tests that
// read it are single-threaded.
namespace {
std::atomic<std::uint64_t> gAllocations{0};
} // namespace

// The replacements pair malloc() with free(). They stay out of line:
// inlined into one caller, GCC pairs that malloc() or free() with the
// operator new or delete call it sees there and warns
// (-Wmismatched-new-delete). The sized deletes forward to the unsized.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    ::operator delete(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    ::operator delete[](p);
}

namespace pap {
namespace {

// --- Histograms ----------------------------------------------------

TEST(ObsHistogram, PercentilesTrackExactStats)
{
    Rng rng(7);
    obs::Histogram hist;
    std::vector<double> xs;
    for (int i = 0; i < 5000; ++i) {
        // Log-uniform over ~6 decades: stresses many octaves.
        const double v = std::pow(10.0, rng.nextDouble() * 6.0 - 2.0);
        xs.push_back(v);
        hist.record(v);
    }
    for (const double pct : {1.0, 25.0, 50.0, 90.0, 95.0, 99.0}) {
        const double exact = stats::percentile(xs, pct);
        const double approx = hist.percentile(pct);
        EXPECT_NEAR(approx, exact, exact * 0.05)
            << "pct " << pct;
    }
    const obs::HistogramSnapshot s = hist.snapshot();
    EXPECT_EQ(s.count, xs.size());
    EXPECT_DOUBLE_EQ(s.min, stats::minOf(xs));
    EXPECT_DOUBLE_EQ(s.max, stats::maxOf(xs));
    EXPECT_NEAR(s.mean, stats::mean(xs), 1e-9);
}

TEST(ObsHistogram, EdgeValuesAndClamping)
{
    obs::Histogram hist;
    EXPECT_DOUBLE_EQ(hist.percentile(50), 0.0); // empty

    hist.record(0.0);
    hist.record(-3.0);
    hist.record(42.0);
    const obs::HistogramSnapshot s = hist.snapshot();
    EXPECT_EQ(s.count, 3u);
    EXPECT_DOUBLE_EQ(s.min, -3.0);
    EXPECT_DOUBLE_EQ(s.max, 42.0);

    // Out-of-range percentiles clamp exactly like stats::percentile.
    EXPECT_DOUBLE_EQ(hist.percentile(-50), hist.percentile(0));
    EXPECT_DOUBLE_EQ(hist.percentile(250), hist.percentile(100));
    EXPECT_DOUBLE_EQ(hist.percentile(100), 42.0);
}

// --- Percentile clamping -------------------------------------------

TEST(ObsMerge, StatsPercentileClampsOutOfRange)
{
    const std::vector<double> xs = {10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(stats::percentile(xs, -10), 10.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 180), 40.0);
}

// --- Registry ------------------------------------------------------

TEST(ObsRegistry, ThreadSafetySmoke)
{
    obs::MetricsRegistry reg;
    constexpr int kThreads = 8;
    constexpr int kIncrements = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            for (int i = 0; i < kIncrements; ++i) {
                reg.add("shared.counter");
                reg.observe("shared.hist", 1.0);
                reg.setGauge("shared.gauge", 1.0);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(reg.counter("shared.counter"),
              static_cast<std::uint64_t>(kThreads) * kIncrements);
    EXPECT_EQ(reg.histogram("shared.hist").count,
              static_cast<std::uint64_t>(kThreads) * kIncrements);
    EXPECT_DOUBLE_EQ(reg.gauge("shared.gauge"), 1.0);
}

TEST(ObsRegistry, JsonShapeAndClear)
{
    obs::MetricsRegistry reg;
    reg.add("runs", 3);
    reg.setGauge("speedup", 6.6);
    reg.observe("cycles", 100.0);
    reg.observe("cycles", 300.0);
    const std::string json = reg.toJson();
    EXPECT_NE(json.find("\"papsim_metrics_version\": 1"),
              std::string::npos);
    EXPECT_NE(json.find("\"runs\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"speedup\": 6.6"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    reg.clear();
    EXPECT_EQ(reg.counter("runs"), 0u);
    EXPECT_EQ(reg.histogram("cycles").count, 0u);
}

// --- Trace sink ----------------------------------------------------

/**
 * Minimal JSON syntax checker (recursive descent over one value).
 * Returns true iff the whole string is one valid JSON value.
 */
class JsonChecker
{
  public:
    static bool valid(const std::string &s)
    {
        JsonChecker c(s);
        c.skipWs();
        if (!c.value())
            return false;
        c.skipWs();
        return c.pos_ == s.size();
    }

  private:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool value()
    {
        if (pos_ >= s_.size())
            return false;
        switch (s_[pos_]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string()
    {
        if (peek() != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                ++pos_;
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_;
        return true;
    }

    bool number()
    {
        const std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++pos_)
            if (pos_ >= s_.size() || s_[pos_] != *p)
                return false;
        return true;
    }

    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

TEST(ObsTrace, JsonIsParseableAndSpansWellNested)
{
    obs::TraceSink sink;
    obs::setTracer(&sink);
    {
        PAP_TRACE_SCOPE("outer");
        {
            PAP_TRACE_SCOPE("inner", "detail");
            sink.instant("marker", "pap", {{"k", 1.0}});
        }
        sink.counterEvent("flows", 17.0);
    }
    // Spans from another thread land on their own track.
    std::thread other([&] {
        PAP_TRACE_SCOPE("worker");
    });
    other.join();
    sink.complete("execute", "ap.sim", 0.0, 120.0, obs::kSimPid, 0,
                  {{"flows", 4.0}});
    sink.labelProcess(obs::kSimPid, "AP");
    obs::setTracer(nullptr);

    EXPECT_EQ(sink.openSpans(), 0u);

    // Every B has a matching E on its own track, in stack order.
    std::map<std::int64_t, std::vector<std::string>> stacks;
    int begins = 0, ends = 0;
    for (const obs::TraceEvent &e : sink.events()) {
        if (e.ph == 'B') {
            ++begins;
            stacks[e.tid].push_back(e.name);
        } else if (e.ph == 'E') {
            ++ends;
            ASSERT_FALSE(stacks[e.tid].empty());
            EXPECT_EQ(stacks[e.tid].back(), e.name);
            stacks[e.tid].pop_back();
        }
    }
    EXPECT_EQ(begins, 3);
    EXPECT_EQ(ends, 3);
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "track " << tid;

    const std::string json = sink.toJson();
    EXPECT_TRUE(JsonChecker::valid(json)) << json;
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);

    // Phase summary aggregates the closed spans.
    bool saw_outer = false;
    for (const auto &s : sink.phaseSummary()) {
        if (s.name == "outer") {
            saw_outer = true;
            EXPECT_EQ(s.count, 1u);
            EXPECT_GE(s.totalUs, 0.0);
        }
    }
    EXPECT_TRUE(saw_outer);
}

TEST(ObsTrace, MetricsJsonIsParseable)
{
    obs::MetricsRegistry reg;
    reg.add("a.count", 2);
    reg.setGauge("b.gauge", 0.125);
    reg.observe("c.hist", 3.5);
    EXPECT_TRUE(JsonChecker::valid(reg.toJson())) << reg.toJson();

    // Names needing escapes still serialize to valid JSON.
    reg.add("weird\"name\\with\nstuff");
    EXPECT_TRUE(JsonChecker::valid(reg.toJson())) << reg.toJson();
}

TEST(ObsRegistry, NonFiniteGaugesSerializeToValidJson)
{
    obs::MetricsRegistry reg;
    reg.setGauge("fine", 1.5);
    reg.setGauge("nan", std::numeric_limits<double>::quiet_NaN());
    reg.setGauge("pos_inf", std::numeric_limits<double>::infinity());
    reg.setGauge("neg_inf", -std::numeric_limits<double>::infinity());
    // A histogram fed a non-finite observation must not poison the
    // serialized stats either.
    reg.observe("hist", 2.0);
    reg.observe("hist", std::numeric_limits<double>::quiet_NaN());

    const std::string json = reg.toJson();
    EXPECT_TRUE(JsonChecker::valid(json)) << json;
    // bare nan/inf/Infinity tokens are not JSON; they must have been
    // replaced with a finite placeholder.
    EXPECT_EQ(json.find("nan,"), std::string::npos) << json;
    EXPECT_EQ(json.find(": nan"), std::string::npos) << json;
    EXPECT_EQ(json.find("inf,"), std::string::npos) << json;
    EXPECT_EQ(json.find(": inf"), std::string::npos) << json;
    EXPECT_EQ(json.find("Infinity"), std::string::npos) << json;
    EXPECT_NE(json.find("\"fine\": 1.5"), std::string::npos) << json;
}

TEST(ObsTrace, FlowEventsCarryIdsAndBindingPoint)
{
    obs::TraceSink sink;
    const std::uint64_t id1 = obs::TraceSink::newFlowId();
    const std::uint64_t id2 = obs::TraceSink::newFlowId();
    ASSERT_NE(id1, 0u);
    ASSERT_NE(id2, 0u);
    EXPECT_NE(id1, id2);

    sink.begin("pipeline.admit");
    sink.flow('s', "segment", id1);
    sink.end();
    sink.begin("pipeline.task");
    sink.flow('t', "segment", id1);
    sink.end();
    sink.begin("pipeline.consume");
    sink.flow('f', "segment", id1);
    sink.end();

    int starts = 0, steps = 0, finishes = 0;
    for (const obs::TraceEvent &e : sink.events()) {
        if (e.ph == 's') { ++starts; EXPECT_EQ(e.id, id1); }
        if (e.ph == 't') { ++steps; EXPECT_EQ(e.id, id1); }
        if (e.ph == 'f') { ++finishes; EXPECT_EQ(e.id, id1); }
    }
    EXPECT_EQ(starts, 1);
    EXPECT_EQ(steps, 1);
    EXPECT_EQ(finishes, 1);

    const std::string json = sink.toJson();
    EXPECT_TRUE(JsonChecker::valid(json)) << json;
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << json;
    // Flow ends bind to the enclosing slice ("bp":"e"), which is what
    // makes Perfetto draw the arrow into the consuming span.
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos) << json;
}

/**
 * A multi-threaded run, whose composer consumes segments while later
 * ones still execute on worker tracks, must produce a trace with (a)
 * every B matched by an E on its own track in stack order, (b) every
 * admitted segment's flow id appearing as s -> t -> f in
 * non-decreasing timestamp order, and (c) valid JSON overall.
 */
TEST(ObsTrace, OverlapPipelineTraceIsWellFormed)
{
    obs::TraceSink sink;
    obs::setTracer(&sink);

    Rng rng(77);
    const Nfa nfa = compileRuleset({{"ab.*cd", 1}, {"fgh", 2}}, "m");
    const InputTrace input = randomTextTrace(rng, 16384, "abcdfgh ");
    ApConfig cfg = ApConfig::d480(1);
    cfg.devicesPerRank = 8;
    cfg.halfCoresPerDevice = 1;
    PapOptions opt;
    opt.threads = 4;
    const PapResult r = runPap(nfa, input, cfg, opt);
    obs::setTracer(nullptr);
    ASSERT_TRUE(r.status.ok()) << r.status.toString();
    ASSERT_GT(r.numSegments, 1u);

    EXPECT_EQ(sink.openSpans(), 0u);

    std::map<std::int64_t, std::vector<std::string>> stacks;
    struct FlowTimes
    {
        double start = -1.0, step = -1.0, finish = -1.0;
    };
    std::map<std::uint64_t, FlowTimes> flows;
    bool saw_inflight_counter = false;
    bool saw_density_counter = false;
    for (const obs::TraceEvent &e : sink.events()) {
        switch (e.ph) {
          case 'B':
            stacks[e.tid].push_back(e.name);
            break;
          case 'E':
            ASSERT_FALSE(stacks[e.tid].empty())
                << "E without B on track " << e.tid;
            EXPECT_EQ(stacks[e.tid].back(), e.name)
                << "interleaved B/E on track " << e.tid;
            stacks[e.tid].pop_back();
            break;
          case 's':
            ASSERT_NE(e.id, 0u);
            flows[e.id].start = e.ts;
            break;
          case 't':
            ASSERT_NE(e.id, 0u);
            flows[e.id].step = e.ts;
            break;
          case 'f':
            ASSERT_NE(e.id, 0u);
            flows[e.id].finish = e.ts;
            break;
          case 'C':
            if (e.name == std::string("pipeline.inflight"))
                saw_inflight_counter = true;
            if (e.name == std::string("engine.active_density"))
                saw_density_counter = true;
            break;
          default:
            break;
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unclosed span on track " << tid;

    // One flow per segment, each fully linked admission ->
    // execution -> composition with causally ordered timestamps.
    EXPECT_EQ(flows.size(), static_cast<std::size_t>(r.numSegments));
    for (const auto &[id, t] : flows) {
        EXPECT_GE(t.start, 0.0) << "flow " << id << " never started";
        EXPECT_GE(t.step, t.start) << "flow " << id;
        EXPECT_GE(t.finish, t.step) << "flow " << id;
    }
    EXPECT_TRUE(saw_inflight_counter);
    EXPECT_TRUE(saw_density_counter);

    EXPECT_TRUE(JsonChecker::valid(sink.toJson()));
}

TEST(ObsTrace, DisabledTracerAllocatesNothing)
{
    obs::setTracer(nullptr);
    // Warm up any lazy statics before measuring.
    { PAP_TRACE_SCOPE("warmup"); }
    const std::uint64_t before =
        gAllocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1000; ++i) {
        PAP_TRACE_SCOPE("hot.path");
        PAP_TRACE_SCOPE("hot.path.inner", "cat");
    }
    const std::uint64_t after =
        gAllocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
}

} // namespace
} // namespace pap
