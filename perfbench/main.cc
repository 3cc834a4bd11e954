/**
 * @file
 * perfbench: one runner process of the end-to-end benchmark. run.py
 * builds it, owns the environment and runs it in one of three modes:
 *
 *   run          set up `--setup-reps` times (median = setup_s), warm
 *                up, measure for `--seconds`, check the outputs;
 *   trace        one untimed-setup pass measured untraced, then a
 *                fresh pass replaying exactly the same requests with
 *                tracing on: per-layer table, counter deltas, count
 *                repeatability between the two same-seed passes;
 *   fingerprint  set up once and run only the warm-up prefix; run.py
 *                compares this digest at QPULSE_THREADS=1 with the
 *                one the 4-thread run printed.
 *
 * The last stdout line is one JSON object for run.py.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/env.h"
#include "common/thread_pool.h"
#include "compile/compile_cache.h"
#include "ingest/openpulse.h"
#include "linalg/simd.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"
#include "trace_report.h"

using namespace perfbench;
using qpulse::telemetry::MetricsSnapshot;
using qpulse::telemetry::Report;
using qpulse::telemetry::Tracer;

namespace {

struct Options
{
    std::string workload;
    std::string mode = "run";
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int setupReps = 3;
    std::string dir;
    /** Calibration snapshot store: run writes it, fingerprint reads it. */
    std::string calibration;
};

/** Requests of the untimed, fingerprinted warm-up prefix. */
long
warmupRequests(const std::string &workload)
{
    if (workload == "stream_1q")
        return 40;
    if (workload == "vqe_2q")
        return 8;
    return 96; // compile_sweep: one whole epoch (both phases).
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "stream_1q")
        return makeStream1q(seed);
    if (name == "vqe_2q")
        return makeVqe2q(seed);
    if (name == "compile_sweep")
        return makeCompileSweep(seed);
    return nullptr;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
metricsJson(const MetricMap &metrics)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        out += std::string(first ? "" : ", ") + "\"" + name +
               "\": {\"value\": " + jsonNumber(metric.value) +
               ", \"unit\": \"" + metric.unit + "\"}";
        first = false;
    }
    return out + "}";
}

std::string
stringsJson(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += std::string(i ? ", " : "") + "\"" + jsonEscape(items[i]) +
               "\"";
    return out + "]";
}

/** Counter deltas b - a over every counter either snapshot holds. */
std::map<std::string, std::uint64_t>
counterDelta(const MetricsSnapshot &a, const MetricsSnapshot &b)
{
    std::map<std::string, std::uint64_t> delta;
    for (const auto &[name, value] : b.counters)
        delta[name] = value - a.counterValue(name);
    return delta;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** A fresh, empty store directory for one pass. */
std::string
passDir(const Options &opts, const std::string &tag)
{
    const std::string dir = opts.dir + "/" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * The workload-specific end-to-end figures of one measured phase
 * (0 where a figure does not apply to the workload).
 */
MetricMap
workloadFigures(const PhaseResult &phase, const std::string &workload)
{
    const bool sweep = workload == "compile_sweep";
    const double per_s = 1.0 / phase.wallSeconds;
    MetricMap m;
    m["job_p95_ms"] = {percentile(phase.latencyMs, 0.95), "ms"};
    m["job_samples"] = {static_cast<double>(phase.latencyMs.size()), "count"};
    m["shots_per_s"] = {static_cast<double>(phase.completedShots) * per_s,
                        "1/s"};
    m["first_partial_p50_ms"] = {
        sweep ? 0.0 : percentile(phase.firstResultMs, 0.5), "ms"};
    m["compile_p50_us"] = {
        sweep ? percentile(phase.latencyMs, 0.50) * 1e3 : 0.0, "us"};
    m["compile_p99_us"] = {
        sweep ? percentile(phase.latencyMs, 0.99) * 1e3 : 0.0, "us"};
    m["compiles_per_s"] = {
        sweep ? static_cast<double>(phase.completedJobs) * per_s : 0.0,
        "1/s"};
    m["duration_ratio"] = {phase.durationRatio, "ratio"};
    m["error_rate"] = {ratio(static_cast<double>(phase.failed),
                             static_cast<double>(phase.attempted)),
                       "ratio"};
    return m;
}

int
runMode(Workload &workload, const Options &opts)
{
    std::vector<double> setups;
    for (int rep = 0; rep < opts.setupReps; ++rep) {
        if (rep > 0)
            workload.endPass();
        const std::string dir = passDir(opts, "setup" + std::to_string(rep));
        const double t0 = nowSeconds();
        workload.setup(nullptr);
        workload.beginPass(dir);
        setups.push_back(nowSeconds() - t0);
    }

    if (!opts.calibration.empty())
        qpulse::throwIfError(qpulse::writeCalibrationSnapshot(
            *openStore(opts.calibration), workload.backend().library()));

    workload.runPhase({0.0, warmupRequests(opts.workload)}, false);
    const std::string fp = workload.fingerprint();
    const PhaseResult phase = workload.runPhase({opts.seconds, -1}, true);
    const std::vector<std::string> failures = workload.check();
    workload.endPass();

    MetricMap e2e;
    e2e["setup_s"] = {percentile(setups, 0.5), "s"};
    e2e["job_p50_ms"] = {percentile(phase.latencyMs, 0.50), "ms"};
    e2e["jobs_per_s"] = {ratio(static_cast<double>(phase.completedJobs),
                               phase.wallSeconds),
                         "1/s"};
    e2e["peak_rss_mb"] = {peakRssMb(), "MB"};

    std::string samples;
    for (double s : setups)
        samples += (samples.empty() ? "" : ", ") + jsonNumber(s);
    std::printf("{\"mode\": \"run\", \"metrics\": %s, \"figures\": %s, "
                "\"setup_samples_s\": [%s], "
                "\"attempted\": %ld, \"failed\": %ld, "
                "\"fingerprint\": \"%s\", \"check_failures\": %s}\n",
                metricsJson(e2e).c_str(),
                metricsJson(workloadFigures(phase, opts.workload)).c_str(),
                samples.c_str(), phase.attempted, phase.failed, fp.c_str(),
                stringsJson(failures).c_str());
    return 0;
}

int
fingerprintMode(Workload &workload, const Options &opts)
{
    // The replay only checks counts, so it may skip the calibration
    // sweep and load the run's calibration instead.
    workload.setup(opts.calibration.empty() ? nullptr
                                            : openStore(opts.calibration));
    workload.beginPass(passDir(opts, "fingerprint"));
    workload.runPhase({0.0, warmupRequests(opts.workload)}, false);
    const std::string fp = workload.fingerprint();
    workload.endPass();
    std::printf("{\"mode\": \"fingerprint\", \"fingerprint\": \"%s\"}\n",
                fp.c_str());
    return 0;
}

/** Mean inclusive span time per call, in microseconds. */
double
spanMeanUs(const TraceAggregator &agg, std::initializer_list<const char *> names)
{
    double total = 0.0;
    long calls = 0;
    for (const char *name : names) {
        const TraceAggregator::Row row = agg.row(name);
        total += row.totalUs;
        calls += row.calls;
    }
    return ratio(total, static_cast<double>(calls));
}

int
traceMode(Workload &workload, const Options &opts)
{
    const double t_setup = nowSeconds();
    workload.setup(nullptr);
    const double setup_s = nowSeconds() - t_setup;
    const long warmup = warmupRequests(opts.workload);

    // Pass 1: untraced, time-bounded.
    workload.beginPass(passDir(opts, "untraced"));
    workload.runPhase({0.0, warmup}, false);
    const MetricsSnapshot a0 = Report::capture().metrics;
    const PhaseResult plain = workload.runPhase({opts.seconds, -1}, true);
    const MetricsSnapshot a1 = Report::capture().metrics;
    workload.endPass();

    // Pass 2: a fresh pipeline replays exactly the same requests with
    // tracing on; the tracer is drained at every quiescent point.
    TraceAggregator agg;
    std::uint64_t dropped = 0;
    workload.tick = [&] {
        dropped += Tracer::instance().dropped();
        agg.add(Tracer::instance().drain());
    };
    workload.beginPass(passDir(opts, "traced"));
    workload.runPhase({0.0, warmup}, false);
    Tracer::instance().clear();
    const MetricsSnapshot b0 = Report::capture().metrics;
    Tracer::instance().setEnabled(true);
    const PhaseResult traced =
        workload.runPhase({0.0, plain.issued}, true);
    Tracer::instance().setEnabled(false);
    workload.tick();
    workload.tick = nullptr;
    const MetricsSnapshot b1 = Report::capture().metrics;

    // Front door: re-parse every delivered document, untimed above.
    double parse_s = 0.0, parse_bytes = 0.0;
    long parses = 0;
    if (const auto *payloads = workload.deliveredPayloads()) {
        for (const std::string &doc : *payloads) {
            qpulse::ingest::IngestedJob job;
            const double t0 = nowSeconds();
            (void)qpulse::ingest::parseJob(doc, {}, job);
            parse_s += nowSeconds() - t0;
            parse_bytes += static_cast<double>(doc.size());
            ++parses;
        }
    }
    const std::vector<std::string> failures = workload.check();
    workload.endPass();

    const auto da = counterDelta(a0, a1);
    const auto db = counterDelta(b0, b1);
    auto c = [&](const char *name) {
        const auto it = db.find(name);
        return it == db.end() ? 0.0 : static_cast<double>(it->second);
    };

    MetricMap m;
    // Front door.
    m["ingest.deliver_us"] = {spanMeanUs(agg, {"bench.ingest.deliver"}), "us"};
    m["ingest.parse_us"] = {ratio(parse_s * 1e6, parses), "us"};
    m["ingest.bytes_per_s"] = {ratio(parse_bytes, parse_s), "B/s"};
    m["ingest.rejected"] = {c("ingest.frontend.rejected"), "count"};
    m["ingest.faults"] = {c("ingest.faults.injected"), "count"};
    // Service and executor.
    m["service.pump_us"] = {spanMeanUs(agg, {"bench.service.pump"}), "us"};
    m["service.drain_us"] = {spanMeanUs(agg, {"bench.service.drain"}), "us"};
    const TraceAggregator::Row job_row = agg.row("service.job");
    m["service.queue_wait_us"] = {
        ratio(job_row.sinceParentStartUs, job_row.parented), "us"};
    m["service.precompile_us"] = {spanMeanUs(agg, {"service.precompile"}), "us"};
    m["service.failovers"] = {c("fleet.failovers"), "count"};
    m["executor.runs"] = {c("executor.runs"), "count"};
    m["executor.attempts_per_run"] = {
        ratio(c("executor.attempts"), c("executor.runs")), "ratio"};
    m["executor.recalibrations"] = {c("executor.recalibrations"), "count"};
    m["executor.degraded_runs"] = {c("executor.degraded_runs"), "count"};
    // Device.
    m["device.validate_us"] = {spanMeanUs(agg, {"device.validate_schedule"}), "us"};
    m["backend.run_shots_us"] = {spanMeanUs(agg, {"backend.run_shots"}), "us"};
    m["sim.batch.calls"] = {c("sim.batch.calls"), "count"};
    m["backend.shots_per_batch"] = {
        ratio(c("sim.batch.states"), c("sim.batch.calls")), "shots"};
    m["sim.baseline_evolves"] = {c("sim.evolve_state.calls"), "count"};
    // Pulsesim.
    m["pulsesim.evolve_us"] = {
        spanMeanUs(agg, {"sim.evolve_batched", "sim.evolve_state",
                         "sim.evolve_unitary", "sim.evolve_lindblad"}),
        "us"};
    const double prop_lookups =
        c("pulsesim.cache.hits") + c("pulsesim.cache.misses");
    m["pulsesim.cache.lookups"] = {prop_lookups, "count"};
    m["pulsesim.cache.hit_ratio"] = {
        ratio(c("pulsesim.cache.hits"), prop_lookups), "ratio"};
    m["pulsesim.cache.evictions"] = {c("pulsesim.cache.evictions"), "count"};
    m["sim.eig.calls"] = {c("sim.eig.calls"), "count"};
    m["sim.eig.sweeps_per_call"] = {
        ratio(c("sim.eig.sweeps"), c("sim.eig.calls")), "ratio"};
    // Linalg: operation counts, and bytes derived from the mean
    // square-gemm size n = cbrt(madds / calls): 3 n^2 complex
    // doubles (16 B) touched per call.
    m["linalg.gemm.madds"] = {c("linalg.gemm.madds"), "madd"};
    m["linalg.gemm.batched_madds"] = {c("linalg.gemm.batched_madds"), "madd"};
    m["linalg.gemm.matvec_madds"] = {c("linalg.gemm.matvec_madds"), "madd"};
    const double gemm_calls = c("linalg.gemm.calls");
    const double gemm_n = std::cbrt(ratio(c("linalg.gemm.madds"), gemm_calls));
    m["linalg.gemm.bytes"] = {gemm_calls * 3.0 * gemm_n * gemm_n * 16.0, "B"};
    // Compile.
    m["compile.transpile_us"] = {spanMeanUs(agg, {"compile.transpile"}), "us"};
    m["compile.schedule_us"] = {spanMeanUs(agg, {"compile.schedule"}), "us"};
    m["compile.analyze_us"] = {spanMeanUs(agg, {"compile.analyze"}), "us"};
    m["compile.validate_us"] = {spanMeanUs(agg, {"compile.validate"}), "us"};
    const double compile_lookups = c("compile.cache.hits") +
                                   c("compile.cache.persist_hits") +
                                   c("compile.cache.misses");
    m["compile.cache.lookups"] = {compile_lookups, "count"};
    m["compile.cache.hit_ratio"] = {
        ratio(c("compile.cache.hits") + c("compile.cache.persist_hits"),
              compile_lookups),
        "ratio"};
    m["compile.cache.persist_hits"] = {c("compile.cache.persist_hits"), "count"};
    m["compile.gates_in"] = {c("compile.gates_in"), "count"};
    m["compile.gates_out_per_in"] = {
        ratio(c("compile.gates_out"), c("compile.gates_in")), "ratio"};
    // Store.
    m["store.open_us"] = {spanMeanUs(agg, {"store.open"}), "us"};
    m["store.flush_us"] = {spanMeanUs(agg, {"cache.persist.flush"}), "us"};
    m["cache.persist.bytes_read"] = {c("cache.persist.bytes_read"), "B"};
    m["cache.persist.bytes_written"] = {c("cache.persist.bytes_written"), "B"};
    // Set-up and common.
    m["setup.calibrate_s"] = {workload.calibrateSeconds(), "s"};
    m["setup.total_s"] = {setup_s, "s"};
    m["threadpool.calls"] = {c("threadpool.parallel_for.calls"), "count"};
    m["threadpool.iterations_per_call"] = {
        ratio(c("threadpool.parallel_for.iterations"),
              c("threadpool.parallel_for.calls")),
        "ratio"};
    m["trace.overhead_pct"] = {
        100.0 * (traced.wallSeconds - plain.wallSeconds) / plain.wallSeconds,
        "%"};
    m["trace.events_dropped"] = {static_cast<double>(dropped), "count"};
    const double wall_us = traced.wallSeconds * 1e6;
    m["trace.unattributed_pct"] = {
        100.0 * std::max(0.0, wall_us - agg.topLevelUs()) / wall_us, "%"};
    // Workload-specific end-to-end figures, from the untraced pass.
    m.merge(workloadFigures(plain, opts.workload));

    // Count repeatability: every counter, untraced vs traced pass.
    long repeated = 0, drifted = 0;
    std::string counts_json;
    for (const auto &[name, vb] : db) {
        const auto it = da.find(name);
        const std::uint64_t va = it == da.end() ? 0 : it->second;
        if (va == 0 && vb == 0)
            continue;
        const bool same = va == vb;
        (same ? repeated : drifted) += 1;
        counts_json += std::string(counts_json.empty() ? "" : ", ") + "\"" +
                       name + "\": [" + std::to_string(va) + ", " +
                       std::to_string(vb) + "]";
    }
    m["counts.repeated"] = {static_cast<double>(repeated), "count"};
    m["counts.drifted"] = {static_cast<double>(drifted), "count"};

    // Per-layer table: calls, inclusive and self time per span.
    std::string table_json;
    for (const auto &[name, row] : agg.rows())
        table_json += std::string(table_json.empty() ? "" : ", ") + "\"" +
                      name + "\": [" + std::to_string(row.calls) + ", " +
                      jsonNumber(row.totalUs) + ", " +
                      jsonNumber(row.selfUs) + "]";

    std::printf("{\"mode\": \"trace\", \"metrics\": %s, "
                "\"attempted\": %ld, \"failed\": %ld, "
                "\"traced_issued\": %ld, "
                "\"wall_s\": [%s, %s], \"spans\": {%s}, "
                "\"counts\": {%s}, \"check_failures\": %s}\n",
                metricsJson(m).c_str(), plain.attempted, plain.failed,
                traced.issued,
                jsonNumber(plain.wallSeconds).c_str(),
                jsonNumber(traced.wallSeconds).c_str(), table_json.c_str(),
                counts_json.c_str(), stringsJson(failures).c_str());
    return 0;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            opts.workload = value;
        else if (key == "--mode")
            opts.mode = value;
        else if (key == "--seed")
            opts.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            opts.seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--setup-reps")
            opts.setupReps = std::max(1, std::atoi(value.c_str()));
        else if (key == "--dir")
            opts.dir = value;
        else if (key == "--calibration")
            opts.calibration = value;
        else
            return false;
    }
    return (argc % 2) == 1 && !opts.workload.empty() && !opts.dir.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload W --dir D [--mode "
                     "run|trace|fingerprint] [--seed N] [--seconds S] "
                     "[--setup-reps R] [--calibration DIR]\n");
        return 2;
    }
    std::unique_ptr<Workload> workload = makeWorkload(opts.workload, opts.seed);
    if (workload == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opts.workload.c_str());
        return 2;
    }
    std::printf("perfbench meta: nproc=%u simd=%s threads=%zu batch=%zu "
                "seed=%llu\n",
                std::thread::hardware_concurrency(),
                qpulse::kernels::simdModeName(qpulse::kernels::activeSimd()),
                qpulse::ThreadPool::global().size(),
                qpulse::envBatchWidth(),
                static_cast<unsigned long long>(opts.seed));
    try {
        if (opts.mode == "run")
            return runMode(*workload, opts);
        if (opts.mode == "trace")
            return traceMode(*workload, opts);
        if (opts.mode == "fingerprint")
            return fingerprintMode(*workload, opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "perfbench: unknown mode '%s'\n", opts.mode.c_str());
    return 2;
}
