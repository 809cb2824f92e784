/**
 * @file
 * Per-run performance attribution: a thread-safe ledger of named
 * wall-clock charges that decomposes one PAP run into buckets — the
 * time breakdown the paper's whole argument is about (device streaming
 * vs host Tcpu composition). Two kinds of charge exist:
 *
 *  - *wall* buckets partition the caller (composer) thread's measured
 *    wall time: analyze, partition, plan, device.execute (time blocked
 *    waiting for segment execution), compose.decode, compose.recover,
 *    checkpoint.io, baseline.wait (time blocked joining the sequential
 *    oracle), verify, timeline. finalize() charges the unattributed
 *    remainder to "other", so the wall buckets sum to the measured
 *    wall time by construction — the tested invariant of
 *    `papsim run --attrib`.
 *  - *aux* buckets are informational charges from other threads that
 *    overlap the caller's wall clock (the concurrent sequential oracle
 *    "baseline", per-segment device execution, modeled SVC re-uploads,
 *    retry backoff). They are reported alongside the wall buckets but
 *    excluded from the sum-to-wall invariant: they deliberately run
 *    concurrently with it.
 *
 * Charging happens at run/segment granularity, never per symbol, so an
 * always-installed ledger costs nothing measurable.
 */

#ifndef PAP_OBS_ATTRIB_H
#define PAP_OBS_ATTRIB_H

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace_sink.h"

namespace pap {
namespace obs {

/** One named charge in a run's attribution ledger. */
struct AttribBucket
{
    std::string name;
    double ms = 0.0;
    /** True for worker-side charges excluded from the wall invariant. */
    bool aux = false;
};

/**
 * A finalized ledger: the measured wall time plus every bucket,
 * name-sorted with wall buckets before aux ones. This is the value
 * PapResult carries and --attrib renders.
 */
struct AttribSnapshot
{
    /** Measured wall time of the run, ms (0 until finalized). */
    double wallMs = 0.0;
    std::vector<AttribBucket> buckets;

    /** Sum of the wall (non-aux) buckets, including "other". */
    double wallChargedMs() const;

    /** The bucket named @p name, or a zero bucket if absent. */
    AttribBucket bucket(const std::string &name) const;
};

/** Serialize as {"wall_ms": X, "buckets": {...}, "aux": {...}}. */
std::string attribToJson(const AttribSnapshot &snapshot);

class AttribLedger
{
  public:
    /** Add @p ms to wall bucket @p name (creating it at zero). */
    void chargeWall(const std::string &name, double ms);

    /** Add @p ms to aux bucket @p name (creating it at zero). */
    void chargeAux(const std::string &name, double ms);

    /**
     * RAII timer: charges its elapsed wall clock to one bucket when
     * stopped (or destroyed). A null ledger makes it a no-op, so call
     * sites need no "is attribution on" branches.
     */
    class Scope
    {
      public:
        Scope(AttribLedger *ledger, const char *bucket,
              bool aux = false)
            : ledger_(ledger), bucket_(bucket), aux_(aux),
              t0_(std::chrono::steady_clock::now())
        {
        }

        ~Scope() { stop(); }

        /** Charge now instead of at scope exit. Idempotent. */
        void stop()
        {
            if (!ledger_)
                return;
            const double ms =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0_)
                    .count();
            if (aux_)
                ledger_->chargeAux(bucket_, ms);
            else
                ledger_->chargeWall(bucket_, ms);
            ledger_ = nullptr;
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        AttribLedger *ledger_;
        const char *bucket_;
        const bool aux_;
        const std::chrono::steady_clock::time_point t0_;
    };

    /**
     * Close the ledger against the run's measured wall time: the
     * unattributed remainder (clamped at zero — charges never overlap
     * on the caller thread, so a negative residual is only timer
     * noise) is charged to the wall bucket "other".
     */
    void finalize(double measured_wall_ms);

    /** Measured wall time passed to finalize (0 before). */
    double measuredWallMs() const;

    /** Sum of the wall buckets charged so far. */
    double wallChargedMs() const;

    /** Copy out the current state (usable before or after finalize). */
    AttribSnapshot snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, double> wall_;
    std::map<std::string, double> aux_;
    double measuredWallMs_ = 0.0;
};

/**
 * RAII phase of a run: opens trace span @p span on @p sink and, when
 * the phase closes, ends the span and charges the phase's wall clock
 * to @p ledger's bucket @p bucket (an aux bucket with @p aux). One
 * scope drives both, so the trace and the ledger cannot disagree
 * about a phase, and an early return closes it too. A null sink or
 * ledger makes that half a no-op.
 */
class Phase
{
  public:
    Phase(TraceSink *sink, const char *span,
          AttribLedger *ledger = nullptr, const char *bucket = nullptr,
          bool aux = false)
        : sink_(sink), charge_(ledger, bucket, aux)
    {
        if (sink_)
            sink_->begin(span);
    }

    ~Phase() { close(); }

    /** Close the phase now, attaching @p args to its span. Idempotent. */
    void close(TraceArgs args = {})
    {
        if (sink_)
            sink_->end(args);
        sink_ = nullptr;
        charge_.stop();
    }

    Phase(const Phase &) = delete;
    Phase &operator=(const Phase &) = delete;

  private:
    TraceSink *sink_;
    AttribLedger::Scope charge_;
};

} // namespace obs
} // namespace pap

#endif // PAP_OBS_ATTRIB_H
