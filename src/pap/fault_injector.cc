#include "pap/fault_injector.h"

#include <algorithm>
#include <cstdlib>

#include "obs/metrics.h"

namespace pap {

namespace {

const char *const kKindNames[kFaultKindCount] = {
    "corrupt-sv",        "evict-svc",   "drop-report",
    "truncate-report",   "drop-fiv",    "stall-worker",
    "crash-worker",      "disconnect-client", "slow-client",
    "swap-during-stream", "torn-manifest-write",
    "crash-at-checkpoint",
};

/** Metric suffix: spec name with '-' mapped to '_'. */
std::string
metricSuffix(FaultKind kind)
{
    std::string s = kKindNames[static_cast<std::size_t>(kind)];
    std::replace(s.begin(), s.end(), '-', '_');
    return s;
}

/** splitmix64 finalizer: avalanche mix for worker-fault decisions. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Uniform draw in [0, 1) from a hash value. */
double
hashToUnit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    return kKindNames[static_cast<std::size_t>(kind)];
}

FaultInjector::FaultInjector(std::uint64_t seed)
    : seed_(seed), rng(seed)
{
}

FaultInjector::FaultInjector(const FaultInjector &other)
    : seed_(other.seed_), rng(other.rng)
{
    std::lock_guard<std::mutex> lock(*other.mutex_);
    segRngs_ = other.segRngs_;
    budgets = other.budgets;
    manifestAppends_ = other.manifestAppends_;
    checkpointSaves_ = other.checkpointSaves_;
    injectedByKind = other.injectedByKind;
    totalInjected = other.totalInjected;
    totalDetected = other.totalDetected;
    totalRecovered = other.totalRecovered;
}

FaultInjector &
FaultInjector::operator=(const FaultInjector &other)
{
    if (this == &other)
        return *this;
    std::lock_guard<std::mutex> mine(*mutex_);
    std::lock_guard<std::mutex> theirs(*other.mutex_);
    seed_ = other.seed_;
    rng = other.rng;
    segRngs_ = other.segRngs_;
    budgets = other.budgets;
    manifestAppends_ = other.manifestAppends_;
    checkpointSaves_ = other.checkpointSaves_;
    injectedByKind = other.injectedByKind;
    totalInjected = other.totalInjected;
    totalDetected = other.totalDetected;
    totalRecovered = other.totalRecovered;
    return *this;
}

void
FaultInjector::arm(FaultKind kind, std::uint32_t count, double rate)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    auto &b = budgets[static_cast<std::size_t>(kind)];
    b.remaining = count;
    b.rate = rate;
}

Result<FaultInjector>
FaultInjector::fromSpec(const std::string &spec, std::uint64_t seed)
{
    if (spec.empty())
        return Status::error(ErrorCode::InvalidInput,
                             "empty fault spec");
    FaultInjector injector(seed);
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        const std::string entry = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
        if (entry.empty())
            return Status::error(ErrorCode::InvalidInput,
                                 "empty entry in fault spec '", spec,
                                 "'");

        const std::size_t c1 = entry.find(':');
        const std::string kind_name = entry.substr(0, c1);
        std::uint32_t count = 1;
        double rate = 1.0;
        if (c1 != std::string::npos) {
            const std::size_t c2 = entry.find(':', c1 + 1);
            const std::string count_str =
                entry.substr(c1 + 1, c2 == std::string::npos
                                         ? std::string::npos
                                         : c2 - c1 - 1);
            char *end = nullptr;
            count = static_cast<std::uint32_t>(
                std::strtoul(count_str.c_str(), &end, 0));
            if (count_str.empty() || *end != '\0' || count == 0)
                return Status::error(ErrorCode::InvalidInput,
                                     "bad fault count '", count_str,
                                     "' in '", entry, "'");
            if (c2 != std::string::npos) {
                const std::string rate_str = entry.substr(c2 + 1);
                rate = std::strtod(rate_str.c_str(), &end);
                if (rate_str.empty() || *end != '\0' || rate <= 0.0 ||
                    rate > 1.0)
                    return Status::error(ErrorCode::InvalidInput,
                                         "bad fault rate '", rate_str,
                                         "' in '", entry,
                                         "' (want 0 < rate <= 1)");
            }
        }

        bool matched = false;
        for (std::size_t k = 0; k < kFaultKindCount; ++k) {
            // "all" arms every modeled-hardware kind; the host worker
            // kinds only fire when named explicitly, so existing
            // "all"-based recovery tests keep their expectations.
            const bool via_all =
                kind_name == "all" && k < kWorkerFaultFirst;
            if (kind_name == kKindNames[k] || via_all) {
                injector.arm(static_cast<FaultKind>(k), count, rate);
                matched = true;
            }
        }
        if (!matched)
            return Status::error(
                ErrorCode::InvalidInput, "unknown fault kind '",
                kind_name,
                "' (want corrupt-sv, evict-svc, drop-report, "
                "truncate-report, drop-fiv, stall-worker, "
                "crash-worker, disconnect-client, slow-client, "
                "swap-during-stream, torn-manifest-write, "
                "crash-at-checkpoint, or all)");
    }
    return injector;
}

bool
FaultInjector::tryFire(FaultKind kind, Rng &stream)
{
    auto &b = budgets[static_cast<std::size_t>(kind)];
    if (b.remaining == 0)
        return false;
    if (!stream.nextBool(b.rate))
        return false;
    --b.remaining;
    recordInjection(kind);
    return true;
}

Rng &
FaultInjector::segmentRng(std::uint64_t segment)
{
    // Derive lazily from (seed, segment): the stream a segment sees is
    // a pure function of its coordinate, independent of scheduling.
    return segRngs_
        .try_emplace(segment,
                     Rng(mix64(mix64(seed_ ^ 0x5347u) ^ segment)))
        .first->second;
}

void
FaultInjector::recordInjection(FaultKind kind)
{
    ++injectedByKind[static_cast<std::size_t>(kind)];
    ++totalInjected;
    auto &m = obs::metrics();
    m.add("faults.injected");
    m.add("faults.injected." + metricSuffix(kind));
}

FaultInjector::SvAction
FaultInjector::onContextSwitch(FlowId, std::uint64_t segment)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    Rng &stream = segmentRng(segment);
    if (tryFire(FaultKind::CorruptStateVector, stream))
        return SvAction::Corrupt;
    if (tryFire(FaultKind::EvictSvcEntry, stream))
        return SvAction::Evict;
    return SvAction::None;
}

void
FaultInjector::corruptVector(std::vector<StateId> &vector,
                             StateId num_states, std::uint64_t segment)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    if (num_states == 0)
        return;
    const StateId victim = static_cast<StateId>(
        segmentRng(segment).nextBelow(num_states));
    const auto it =
        std::lower_bound(vector.begin(), vector.end(), victim);
    if (it != vector.end() && *it == victim)
        vector.erase(it); // stuck-at-0: drop an active state
    else
        vector.insert(it, victim); // stuck-at-1: raise a spurious one
}

std::uint64_t
FaultInjector::onReportDrain(std::vector<ReportEvent> &reports,
                             std::uint64_t segment)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    Rng &stream = segmentRng(segment);
    std::uint64_t removed = 0;
    // Pick by index in (offset, state) order, not emission order: the
    // engine's two datapaths emit a step's reports in different orders,
    // and a seed must hit the same report whichever ran. Duplicates
    // stay; the entry count feeds the modeled report cost.
    std::stable_sort(reports.begin(), reports.end(),
                     [](const ReportEvent &a, const ReportEvent &b) {
                         return a.offset != b.offset ? a.offset < b.offset
                                                     : a.state < b.state;
                     });
    if (!reports.empty() && tryFire(FaultKind::DropReport, stream)) {
        const std::size_t idx = stream.nextBelow(reports.size());
        reports.erase(reports.begin() +
                      static_cast<std::ptrdiff_t>(idx));
        ++removed;
    }
    if (!reports.empty() &&
        tryFire(FaultKind::TruncateReport, stream)) {
        const std::size_t keep = stream.nextBelow(reports.size());
        removed += reports.size() - keep;
        reports.resize(keep);
    }
    return removed;
}

bool
FaultInjector::onFivDownload()
{
    std::lock_guard<std::mutex> lock(*mutex_);
    return tryFire(FaultKind::DropFiv, rng);
}

FaultInjector::WorkerFault
FaultInjector::onWorkerAttempt(std::uint64_t segment,
                               std::uint32_t attempt)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    // Unlike the hardware kinds, worker faults never consult the
    // shared RNG stream: the draw is a pure hash of (seed, kind,
    // segment), so the faulted segment set is invariant under thread
    // count and scheduling order. count caps faulted attempts per
    // affected segment; rate is the per-segment selection probability.
    for (const FaultKind kind :
         {FaultKind::StallWorker, FaultKind::CrashWorker}) {
        const auto &b = budgets[static_cast<std::size_t>(kind)];
        if (b.remaining == 0 || attempt >= b.remaining)
            continue;
        const std::uint64_t h =
            mix64(mix64(seed_ ^ (0x5741ull +
                                 static_cast<std::uint64_t>(kind))) ^
                  segment);
        if (b.rate < 1.0 && hashToUnit(h) >= b.rate)
            continue;
        recordInjection(kind);
        return kind == FaultKind::StallWorker ? WorkerFault::Stall
                                              : WorkerFault::Crash;
    }
    return WorkerFault::None;
}

FaultInjector::ServeFault
FaultInjector::onServeChunk(std::uint64_t session, std::uint64_t chunk)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    // Selection mirrors the worker kinds: a pure hash of (seed, kind,
    // session) picks the affected sessions and the chunk a fault
    // strikes at, so the set is invariant under scheduling order. The
    // shared budget then bounds total fires across the run.
    for (const FaultKind kind :
         {FaultKind::DisconnectClient, FaultKind::SlowClient,
          FaultKind::SwapDuringStream}) {
        auto &b = budgets[static_cast<std::size_t>(kind)];
        if (b.remaining == 0)
            continue;
        const std::uint64_t h =
            mix64(mix64(seed_ ^ (0x5652ull +
                                 static_cast<std::uint64_t>(kind))) ^
                  session);
        if (b.rate < 1.0 && hashToUnit(h) >= b.rate)
            continue;
        // Strike within the first few chunks so short streams are
        // still hit; slow-client keeps trickling from there on.
        const std::uint64_t strike = (h >> 17) % 3;
        const bool fires = kind == FaultKind::SlowClient
                               ? chunk >= strike
                               : chunk == strike;
        if (!fires)
            continue;
        --b.remaining;
        recordInjection(kind);
        switch (kind) {
          case FaultKind::DisconnectClient:
            return ServeFault::Disconnect;
          case FaultKind::SlowClient: return ServeFault::Slow;
          default: return ServeFault::Swap;
        }
    }
    return ServeFault::None;
}

bool
FaultInjector::onManifestAppend(std::size_t record_len,
                                std::size_t &keep_bytes)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    const std::uint64_t ordinal = manifestAppends_++;
    auto &b =
        budgets[static_cast<std::size_t>(FaultKind::TornManifestWrite)];
    if (b.remaining == 0)
        return false;
    const std::uint64_t h = mix64(
        mix64(seed_ ^ 0x544Full) ^ ordinal); // 'TO'rn
    if (b.rate < 1.0 && hashToUnit(h) >= b.rate)
        return false;
    --b.remaining;
    recordInjection(FaultKind::TornManifestWrite);
    // Keep a strict prefix — possibly zero bytes, never the whole
    // record (that would be a clean append, not a torn one).
    keep_bytes = record_len == 0 ? 0 : (h >> 17) % record_len;
    return true;
}

bool
FaultInjector::onCheckpointSave()
{
    std::lock_guard<std::mutex> lock(*mutex_);
    const std::uint64_t ordinal = checkpointSaves_++;
    auto &b =
        budgets[static_cast<std::size_t>(FaultKind::CrashAtCheckpoint)];
    if (b.remaining == 0)
        return false;
    const std::uint64_t h = mix64(
        mix64(seed_ ^ 0x434Bull) ^ ordinal); // 'CK'pt
    if (b.rate < 1.0 && hashToUnit(h) >= b.rate)
        return false;
    --b.remaining;
    recordInjection(FaultKind::CrashAtCheckpoint);
    return true;
}

void
FaultInjector::markDetected(std::uint64_t count)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    totalDetected += count;
    obs::metrics().add("faults.detected", count);
}

void
FaultInjector::markRecovered(std::uint64_t count)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    totalRecovered += count;
    obs::metrics().add("faults.recovered", count);
}

std::string
FaultInjector::summary() const
{
    std::lock_guard<std::mutex> lock(*mutex_);
    std::string s = "faults: injected=" + std::to_string(totalInjected);
    s += " detected=" + std::to_string(totalDetected);
    s += " recovered=" + std::to_string(totalRecovered);
    for (std::size_t k = 0; k < kFaultKindCount; ++k)
        if (injectedByKind[k])
            s += std::string(" ") + kKindNames[k] + "=" +
                 std::to_string(injectedByKind[k]);
    return s;
}

std::array<std::uint64_t, 4>
FaultInjector::rngState() const
{
    std::lock_guard<std::mutex> lock(*mutex_);
    return rng.saveState();
}

void
FaultInjector::restoreRngState(const std::array<std::uint64_t, 4> &state)
{
    std::lock_guard<std::mutex> lock(*mutex_);
    rng.restoreState(state);
}

} // namespace pap
