/**
 * @file
 * Shared types of the end-to-end benchmark runner (perfbench).
 *
 * A Workload owns its calibrated substrate (setup(), the expensive
 * part, timed and repeated by main.cc) and builds a fresh pipeline
 * for every pass over a fresh store directory (beginPass()). A pass
 * issues a deterministic request sequence — request i is a pure
 * function of (seed, i) — through a closed loop of clients. The
 * first `warmup` requests fill caches untimed and are fingerprinted;
 * the measured phase then continues the same sequence until either
 * the wall-clock budget or a request cap is reached.
 */
#ifndef QPULSE_PERFBENCH_BENCH_H
#define QPULSE_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace qpulse {
class PulseBackend;
namespace store {
class ArtifactStore;
}
} // namespace qpulse

namespace perfbench {

/** Monotonic seconds since an arbitrary epoch. */
inline double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Linear-interpolated percentile, q in [0, 1]; 0 when empty. */
double percentile(std::vector<double> values, double q);

/** Open (creating) a run-private artifact store; throws on failure. */
std::shared_ptr<qpulse::store::ArtifactStore>
openStore(const std::string &dir);

/** FNV-1a over `text`, chained from `hash`. */
std::uint64_t fnv1a(std::uint64_t hash, const std::string &text);
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/** Limits of one measured phase. */
struct PhaseLimits
{
    double seconds = 0.0;  ///< Stop issuing after this (0 = no limit).
    long maxRequests = -1; ///< Stop issuing after this many (-1 = none).
};

/** What one phase of a pass observed. */
struct PhaseResult
{
    long issued = 0;    ///< Requests sent (well-formed or not).
    long attempted = 0; ///< Requests that count toward error_rate.
    long failed = 0;    ///< Attempted requests without a full result.
    long completedJobs = 0;
    long completedShots = 0;
    double wallSeconds = 0.0;
    std::vector<double> latencyMs;      ///< Per completed request.
    std::vector<double> firstResultMs;  ///< First counts / result.
    /** Geometric-mean Optimized/Standard duration (compile_sweep). */
    double durationRatio = 0.0;
};

/** One named end-to-end or per-layer figure with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Calibrate the substrate and prepare request templates. With a
     * `snapshot` store holding this config's calibration, the sweep is
     * skipped and the persisted library is used instead.
     */
    virtual void setup(
        const std::shared_ptr<qpulse::store::ArtifactStore> &snapshot) = 0;

    /** The calibrated backend of the last setup(). */
    virtual const qpulse::PulseBackend &backend() const = 0;

    /** Seconds of the last setup() spent calibrating. */
    virtual double calibrateSeconds() const = 0;

    /** Build a fresh pipeline over an empty store at `store_dir`. */
    virtual void beginPass(const std::string &store_dir) = 0;

    /**
     * Issue requests [next, ...) through the closed loop until
     * `limits` stop issuing, then wait for every issued request.
     * `record` = false skips latency bookkeeping (warm-up).
     */
    virtual PhaseResult runPhase(const PhaseLimits &limits,
                                 bool record) = 0;

    /** Digest of every result the pass produced so far. */
    virtual std::string fingerprint() const = 0;

    /**
     * Independent output checks over everything the pass produced;
     * returns one line per failure (empty = all passed). Untimed.
     */
    virtual std::vector<std::string> check() = 0;

    /** Tear the pass down (flush stores, release the pipeline). */
    virtual void endPass() = 0;

    /**
     * Documents the transport delivered this pass (stream_1q only):
     * the trace mode re-parses them untimed for ingest.parse_us.
     */
    virtual const std::vector<std::string> *deliveredPayloads() const
    {
        return nullptr;
    }

    /**
     * Called at every quiescent point of a phase (no shot loop or
     * compile in flight): the trace mode drains the tracer here.
     */
    std::function<void()> tick;
};

std::unique_ptr<Workload> makeStream1q(std::uint64_t seed);
std::unique_ptr<Workload> makeVqe2q(std::uint64_t seed);
std::unique_ptr<Workload> makeCompileSweep(std::uint64_t seed);

} // namespace perfbench

#endif // QPULSE_PERFBENCH_BENCH_H
