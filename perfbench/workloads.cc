/**
 * @file
 * The three benchmark workloads: stream_1q (wire bytes through
 * RequestFrontEnd to streamed counts), vqe_2q (circuit jobs through a
 * fleet-mode ExecutionService) and compile_sweep (the Fig. 12 corpus
 * through PulseCompiler and a two-tier CompileCache, with a restart
 * phase served from the persistent store). See perfbench/README.md
 * for why each exists and which layers it loads.
 */
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "algos/circuits.h"
#include "algos/hamiltonians.h"
#include "bench.h"
#include "common/rng.h"
#include "compile/compile_cache.h"
#include "compile/compiler.h"
#include "device/calibration.h"
#include "device/fault_injector.h"
#include "ingest/frontend.h"
#include "noisesim/statevector.h"
#include "pulse/qobj.h"
#include "service/backend_pool.h"
#include "service/execution_service.h"
#include "store/artifact_store.h"
#include "store/serde.h"
#include "telemetry/trace.h"

namespace perfbench {

using namespace qpulse;

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t
fnv1a(std::uint64_t hash, const std::string &text)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 1099511628211ull;
    }
    return hash;
}

std::shared_ptr<store::ArtifactStore>
openStore(const std::string &dir)
{
    // Size budget of every run-private store (never reached).
    constexpr std::uint64_t kStoreBytes = 1ull << 30;
    std::filesystem::create_directories(dir);
    Status status;
    auto opened = store::ArtifactStore::open(dir, kStoreBytes, &status);
    if (opened == nullptr)
        throw std::runtime_error("cannot open store " + dir + ": " +
                                 status.toString());
    return opened;
}

namespace {

constexpr double kPi = std::numbers::pi;

std::string
hex(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
countsText(const std::vector<long> &counts)
{
    std::string out = "[";
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i != 0)
            out += ",";
        out += std::to_string(counts[i]);
    }
    return out + "]";
}

std::string
idealText(const std::vector<double> &probs)
{
    std::string out = "[";
    for (std::size_t i = 0; i < probs.size(); ++i)
        out += (i != 0 ? "," : "") + std::to_string(probs[i]);
    return out + "]";
}

/**
 * Stratified request mix: block `block` of a seeded stream is a
 * seeded permutation of `kinds`, so every block of every seed holds
 * exactly the same mix and seeds differ only in order and in the
 * per-request draws. This keeps run-to-run spread down to timing.
 */
std::vector<int>
blockKinds(std::uint64_t seed, long block, std::vector<int> kinds)
{
    Rng rng(Rng::deriveSeed(seed ^ 0xB10C, static_cast<std::uint64_t>(block)));
    for (std::size_t i = kinds.size(); i > 1; --i)
        std::swap(kinds[i - 1], kinds[rng.uniformInt(i)]);
    return kinds;
}

/** Wire seeds must be JSON-exact integers: keep them below 2^53. */
std::uint64_t
wireSeed(std::uint64_t base, std::uint64_t index)
{
    return Rng::deriveSeed(base, index) & ((1ull << 53) - 1);
}

// ==================================================================
// stream_1q
// ==================================================================

/**
 * Malformed exemplars, one per parser rejection class; the 80-deep
 * array (depth-limit) is built at setup.
 */
const char *const kMalformed[] = {
    "{\"name\": \"a\", \"name\": \"a\"}",
    "{\"name\": \"cut",
    "{\"a\": 01}",
    "{\"a\": \"\xC0\xAF\"}",
    "{\"d\": 1e999}",
    "{\"name\": \"x\", \"instructions\": [], \"zzz\": 1}",
    "{\"instructions\": 3}",
};
constexpr int kMalformedKinds =
    static_cast<int>(sizeof kMalformed / sizeof kMalformed[0]);

constexpr int kStreamClients = 4;
constexpr long kStreamChunkShots = 32;
/**
 * One block of 50 documents: 5 malformed (10 %) and 45 well-formed
 * with 32/64/128/256 shots weighted 1:1:2:1 (cumulative 0.2/0.4/0.8),
 * so the latency median falls inside the 128-shot mode and p95
 * inside the 256-shot mode, never on a boundary between two modes.
 */
constexpr long kStreamBlock = 50;
constexpr long kStreamShots[] = {32, 64, 128, 256};
constexpr int kStreamMix[] = {5, 9, 9, 18, 9}; ///< Malformed, then shots.
/** Rx angles streamed in both compile flows (x180 is template 0). */
constexpr double kRxAngles[] = {kPi / 8,     kPi / 4,     kPi / 3,
                                kPi / 2,     2 * kPi / 3, 3 * kPi / 4,
                                7 * kPi / 8, kPi};

class Stream1q final : public Workload
{
  public:
    explicit Stream1q(std::uint64_t seed) : seed_(seed) {}

    double calibrateSeconds() const override { return calibrateS_; }
    const PulseBackend &backend() const override { return *backend_; }

    void setup(const std::shared_ptr<store::ArtifactStore> &snapshot) override
    {
        const double t0 = nowSeconds();
        config_ = almadenLineConfig(1);
        backend_ = makeCalibratedBackend(config_, false, snapshot);
        Calibrator calibrator(config_);
        sim_.emplace(calibrator.qubitModel(0));
        calibrateS_ = nowSeconds() - t0;

        templates_.clear();
        QobjWriteOptions wire;
        wire.includeSamples = true;
        Schedule x180("x180");
        x180.play(driveChannel(0),
                  backend_->library().qubits[0].x180Pulse());
        templates_.push_back({"x180", 1.0, scheduleToQobjJson(x180, wire)});
        for (CompileMode mode :
             {CompileMode::Standard, CompileMode::Optimized}) {
            const PulseCompiler compiler(backend_, mode);
            for (double theta : kRxAngles) {
                QuantumCircuit circuit(1);
                circuit.rx(theta, 0);
                const CompileResult compiled = compiler.compile(circuit);
                throwIfError(compiled.validation);
                const double p1 = std::sin(theta / 2) * std::sin(theta / 2);
                templates_.push_back(
                    {std::string(mode == CompileMode::Standard ? "std"
                                                               : "opt") +
                         "/rx" + std::to_string(theta),
                     p1, scheduleToQobjJson(compiled.schedule, wire)});
            }
        }
        deep_.assign(80, '[');
        deep_.append(80, ']');
        mix_.clear();
        for (int kind = 0; kind < 5; ++kind)
            mix_.insert(mix_.end(), kStreamMix[kind], kind);
    }

    void beginPass(const std::string &store_dir) override
    {
        ServicePolicy policy;
        policy.queueCapacity = 64;
        // No persistent tier: run.py leaves QPULSE_CACHE_DIR unset for
        // this workload, because with a store the service fsyncs it
        // after every pump (README.md, defect 5).
        (void)store_dir;
        service_ = std::make_unique<ExecutionService>(backend_, *sim_,
                                                      policy);
        ingest::FrontEndPolicy front_policy;
        front_policy.budget = ChannelBudget::fromConfig(config_);
        front_policy.streamBatchShots = kStreamChunkShots;
        front_ = std::make_unique<ingest::RequestFrontEnd>(*service_,
                                                           front_policy);
        front_->setEventSink(
            [this](const ingest::StreamEvent &ev) { onEvent(ev); });

        FaultPlan plan;
        plan.seed = Rng::deriveSeed(seed_, 0x16E57);
        plan.ingestTruncateRate = 0.03;
        plan.ingestCorruptRate = 0.03;
        plan.ingestDupKeyRate = 0.02;
        plan.ingestDisconnectRate = 0.02;
        front_->setFaultInjector(std::make_shared<FaultInjector>(plan));
        shadow_ = std::make_unique<FaultInjector>(plan);

        slots_.assign(kStreamClients, Slot{});
        for (Slot &slot : slots_) {
            slot.connection = front_->open();
            connSlot_[slot.connection] = &slot - slots_.data();
        }
        docs_.clear();
        delivered_.clear();
        tmplOffset_ = -1;
        next_ = 0;
        deliveries_ = 0;
    }

    PhaseResult runPhase(const PhaseLimits &limits, bool record) override
    {
        PhaseResult result;
        const std::size_t first_doc = docs_.size();
        const double t0 = nowSeconds();
        bool issuing = true;
        auto stop = [&] {
            return (limits.maxRequests >= 0 &&
                    result.issued >= limits.maxRequests) ||
                   (limits.seconds > 0 &&
                    nowSeconds() - t0 >= limits.seconds);
        };
        for (;;) {
            for (Slot &slot : slots_) {
                while (issuing && slot.outstanding == 0) {
                    if (stop()) {
                        issuing = false;
                        break;
                    }
                    deliverNext(slot);
                    ++result.issued;
                }
            }
            if (front_->activeRequests() == 0) {
                if (!issuing)
                    break;
                continue;
            }
            {
                telemetry::TraceSpan span("bench.service.pump");
                front_->pump();
            }
            if (tick)
                tick();
        }
        result.wallSeconds = nowSeconds() - t0;

        for (std::size_t i = first_doc; i < docs_.size(); ++i) {
            const Doc &doc = docs_[i];
            if (!doc.wellFormed || !doc.intact)
                continue;
            ++result.attempted;
            const bool full = doc.completed &&
                              doc.shotsCompleted == doc.shots;
            if (!full) {
                ++result.failed;
                continue;
            }
            ++result.completedJobs;
            result.completedShots += doc.shotsCompleted;
            if (record) {
                result.latencyMs.push_back(
                    (doc.tDone - doc.tDeliver) * 1e3);
                result.firstResultMs.push_back(
                    (doc.tFirst - doc.tDeliver) * 1e3);
            }
        }
        return result;
    }

    std::string fingerprint() const override
    {
        std::uint64_t hash = kFnvBasis;
        for (const Doc &doc : docs_) {
            std::string line = std::to_string(doc.index) + ":" +
                               std::to_string(doc.rejects) + ":" +
                               (doc.completed ? "c" : "-") +
                               std::to_string(doc.shotsCompleted) +
                               countsText(doc.counts);
            hash = fnv1a(hash, line);
        }
        return hex(hash);
    }

    std::vector<std::string> check() override
    {
        std::vector<std::string> failures;
        // Pooled counts per template: P(|1>) against sin^2(theta/2).
        std::vector<long> ones(templates_.size(), 0);
        std::vector<long> shots(templates_.size(), 0);
        long malformed_intact = 0;
        for (const Doc &doc : docs_) {
            if (!doc.wellFormed) {
                if (doc.completed)
                    failures.push_back("malformed document " +
                                       std::to_string(doc.index) +
                                       " completed");
                if (doc.intact) {
                    ++malformed_intact;
                    if (doc.rejects == 0 || doc.rejectUnstructured ||
                        doc.rejectUnlocated)
                        failures.push_back(
                            "intact malformed document " +
                            std::to_string(doc.index) +
                            " lacks a located, structured rejection");
                }
                continue;
            }
            if (!doc.intact || !doc.completed)
                continue;
            if (doc.counts.size() < 2)
                continue;
            ones[doc.tmpl] += doc.counts[1];
            shots[doc.tmpl] += doc.shotsCompleted;
        }
        if (malformed_intact == 0)
            failures.push_back("no intact malformed document was sent");
        for (std::size_t t = 0; t < templates_.size(); ++t) {
            if (shots[t] == 0)
                continue;
            const double p = templates_[t].p1;
            const double n = static_cast<double>(shots[t]);
            const double measured = static_cast<double>(ones[t]) / n;
            const double sigma = std::sqrt(std::max(p * (1 - p), 0.01) / n);
            const double tol = kCountsSlack + 5.0 * sigma;
            if (std::fabs(measured - p) > tol)
                failures.push_back(
                    "stream_1q " + templates_[t].name + ": P(1) " +
                    std::to_string(measured) + " vs ideal " +
                    std::to_string(p) + " over " +
                    std::to_string(shots[t]) + " shots (tolerance " +
                    std::to_string(tol) + ")");
        }
        return failures;
    }

    const std::vector<std::string> *deliveredPayloads() const override
    {
        return &delivered_;
    }

    void endPass() override
    {
        front_.reset();
        service_.reset();
        shadow_.reset();
        connSlot_.clear();
    }

  private:
    /**
     * Systematic allowance between the pulse-level Rx and the ideal
     * rotation: calibrated DRAG pulses leave sub-percent rotation and
     * leakage errors, and best-of-attempts degraded runs (the
     * watchdog defect) bias a pooled estimate by well under 2 %.
     */
    static constexpr double kCountsSlack = 0.03;

    struct Template
    {
        std::string name;
        double p1 = 0.0; ///< Ideal P(|1>).
        std::string qobj;
    };

    struct Doc
    {
        long index = 0;
        bool wellFormed = false;
        bool intact = false;
        int tmpl = -1;
        long shots = 0;
        double tDeliver = 0.0;
        double tFirst = -1.0;
        double tDone = -1.0;
        bool completed = false;
        long shotsCompleted = 0;
        std::vector<long> counts;
        int rejects = 0;
        bool rejectUnstructured = false;
        bool rejectUnlocated = false;
    };

    struct Slot
    {
        int connection = -1;
        long doc = -1;       ///< Index into docs_ of the current doc.
        int outstanding = 0; ///< Admitted, not yet terminal.
    };

    void deliverNext(Slot &slot)
    {
        Rng rng(Rng::deriveSeed(seed_, static_cast<std::uint64_t>(next_)));
        Doc doc;
        doc.index = next_++;
        if (doc.index % kStreamBlock == 0)
            block_ = blockKinds(seed_, doc.index / kStreamBlock, mix_);
        const int kind = block_[doc.index % kStreamBlock];
        doc.wellFormed = kind > 0;
        std::string payload;
        if (doc.wellFormed) {
            // Templates round-robin from a seeded per-block offset, so
            // every block carries the same template mix.
            const long slot = doc.index % kStreamBlock;
            if (slot == 0 || tmplOffset_ < 0)
                tmplOffset_ = static_cast<long>(
                    rng.uniformInt(templates_.size()));
            doc.tmpl = static_cast<int>((slot + tmplOffset_) %
                                        static_cast<long>(templates_.size()));
            doc.shots = kStreamShots[kind - 1];
            payload = "{\"qobj\": " + templates_[doc.tmpl].qobj +
                      ", \"shots\": " + std::to_string(doc.shots) +
                      ", \"seed\": " +
                      std::to_string(wireSeed(seed_ ^ 0xD0C,
                                              static_cast<std::uint64_t>(
                                                  doc.index))) +
                      ", \"key\": \"stream/" + std::to_string(doc.index) +
                      "\"}";
        } else {
            const auto bad = static_cast<int>(
                rng.uniformInt(kMalformedKinds + 1));
            payload = bad == kMalformedKinds ? deep_ : kMalformed[bad];
        }
        const FaultInjector::IngestInjection predicted =
            shadow_->injectIngest(payload, deliveries_++);
        doc.intact = !predicted.mutated() && !predicted.disconnected;
        docs_.push_back(std::move(doc));
        slot.doc = static_cast<long>(docs_.size() - 1);

        docs_[slot.doc].tDeliver = nowSeconds();
        {
            telemetry::TraceSpan span("bench.ingest.deliver");
            front_->deliver(slot.connection, payload);
            front_->finish(slot.connection);
        }
        delivered_.push_back(predicted.disconnected
                                 ? predicted.payload.substr(
                                       0, predicted.disconnectAfter)
                                 : predicted.payload);
        if (predicted.disconnected) {
            // The transport closed the connection; the client redials.
            connSlot_.erase(slot.connection);
            slot.connection = front_->open();
            connSlot_[slot.connection] = &slot - slots_.data();
        }
        if (slot.outstanding == 0 && docs_[slot.doc].tDone < 0)
            docs_[slot.doc].tDone = nowSeconds();
    }

    void onEvent(const ingest::StreamEvent &ev)
    {
        const auto it = connSlot_.find(ev.connection);
        if (it == connSlot_.end())
            return;
        Slot &slot = slots_[it->second];
        if (slot.doc < 0)
            return;
        Doc &doc = docs_[slot.doc];
        const double now = nowSeconds();
        switch (ev.kind) {
        case ingest::StreamEventKind::Accepted:
            ++slot.outstanding;
            break;
        case ingest::StreamEventKind::Partial:
            if (doc.tFirst < 0)
                doc.tFirst = now;
            break;
        case ingest::StreamEventKind::Completed:
            if (doc.tFirst < 0)
                doc.tFirst = now;
            doc.completed = true;
            doc.shotsCompleted = ev.shotsCompleted;
            doc.counts = ev.counts;
            [[fallthrough]];
        case ingest::StreamEventKind::Failed:
        case ingest::StreamEventKind::Disconnected:
            if (--slot.outstanding == 0)
                doc.tDone = now;
            break;
        case ingest::StreamEventKind::Rejected:
            ++doc.rejects;
            if (ev.status.ok())
                doc.rejectUnstructured = true;
            if (ev.status.message().find(" at byte ") == std::string::npos)
                doc.rejectUnlocated = true;
            break;
        }
    }

    std::uint64_t seed_;
    double calibrateS_ = 0.0;
    BackendConfig config_;
    std::shared_ptr<const PulseBackend> backend_;
    std::optional<PulseSimulator> sim_;
    std::vector<Template> templates_;
    std::string deep_;
    std::vector<int> mix_;   ///< Kinds of one block, unshuffled.
    std::vector<int> block_; ///< Kinds of the current block.
    long tmplOffset_ = -1;   ///< Template offset of the current block.

    std::unique_ptr<ExecutionService> service_;
    std::unique_ptr<ingest::RequestFrontEnd> front_;
    std::unique_ptr<FaultInjector> shadow_;
    std::vector<Slot> slots_;
    std::map<int, std::size_t> connSlot_;
    std::vector<Doc> docs_;
    /** Every payload the transport delivered (for the parse probe). */
    std::vector<std::string> delivered_;
    long next_ = 0;
    std::uint64_t deliveries_ = 0;
};


// ==================================================================
// vqe_2q
// ==================================================================

constexpr int kVqeClients = 4;
constexpr long kVqeShots = 1024;
/**
 * Each round of kVqeClients jobs is one block of fixed structure: a
 * fresh UCC angle, a fresh QAOA point, a revisit of the previous
 * round's UCC point, and the fixed H-CX-H circuit.
 *
 * A UCC schedule longer than the 4096-entry propagator LRU (|theta|
 * above about 1.7) costs ~10x a shorter one (README.md, defect 2).
 * The stratum order alternates slices above and below that cliff, so
 * with the revisit every round holds one costly and one cheap UCC job
 * and rounds cost alike.
 */
constexpr long kAngleStrata = 8;
constexpr long kStratumOrder[kAngleStrata] = {0, 4, 1, 5, 6, 2, 7, 3};

/**
 * Pair-simulator level index (3 l0 + l1, transmon 0 = qubit 0) of
 * each idealDistribution outcome (2 q0 + q1).
 */
constexpr std::size_t kPairQubitLevels[4] = {0, 1, 3, 4};

class Vqe2q final : public Workload
{
  public:
    explicit Vqe2q(std::uint64_t seed) : seed_(seed) {}

    double calibrateSeconds() const override { return calibrateS_; }
    const PulseBackend &backend() const override { return *backend_; }

    void setup(const std::shared_ptr<store::ArtifactStore> &snapshot) override
    {
        const double t0 = nowSeconds();
        const BackendConfig config = almadenLineConfig(2);
        backend_ = makeCalibratedBackend(config, false, snapshot);
        Calibrator calibrator(config);
        sim_.emplace(calibrator.pairSimulator(0, 1));
        calibrateS_ = nowSeconds() - t0;
    }

    void beginPass(const std::string &store_dir) override
    {
        BackendPool::Policies policies;
        policies.artifactStore = openStore(store_dir);
        policies.compileMode = CompileMode::Optimized;
        pool_ = std::make_shared<BackendPool>(policies);
        for (const char *member : {"b0", "b1"})
            pool_->addBackend(member, backend_, *sim_,
                              backend_->probeSchedule(0));
        ServicePolicy policy;
        policy.queueCapacity = 16;
        service_ = std::make_unique<ExecutionService>(pool_, policy);
        jobs_.clear();
    }

    PhaseResult runPhase(const PhaseLimits &limits, bool record) override
    {
        PhaseResult result;
        const std::size_t first_job = jobs_.size();
        const double t0 = nowSeconds();
        // Every client waits for its outcome, and one drain serves all
        // queued jobs, so the loop moves in rounds of kVqeClients jobs:
        // one stratified block per round, never a partial one.
        for (;;) {
            if ((limits.maxRequests >= 0 &&
                 result.issued >= limits.maxRequests) ||
                (limits.seconds > 0 && nowSeconds() - t0 >= limits.seconds))
                break;
            for (int c = 0; c < kVqeClients; ++c) {
                submitNext();
                ++result.issued;
            }
            std::vector<JobOutcome> outcomes;
            {
                telemetry::TraceSpan span("bench.service.drain");
                outcomes = service_->drain();
            }
            const double done = nowSeconds();
            for (JobOutcome &out : outcomes) {
                Job &job = jobs_[std::stol(out.key.substr(4))];
                job.tDone = done;
                job.code = out.status.code();
                if (out.status.ok())
                    job.counts = out.execution.result.counts;
            }
            if (tick)
                tick();
        }
        result.wallSeconds = nowSeconds() - t0;

        for (std::size_t i = first_job; i < jobs_.size(); ++i) {
            const Job &job = jobs_[i];
            ++result.attempted;
            long shots = 0;
            for (long c : job.counts)
                shots += c;
            if (job.code != ErrorCode::Ok || shots != kVqeShots) {
                ++result.failed;
                continue;
            }
            ++result.completedJobs;
            result.completedShots += shots;
            if (record) {
                const double ms = (job.tDone - job.tSubmit) * 1e3;
                result.latencyMs.push_back(ms);
                result.firstResultMs.push_back(ms);
            }
        }
        return result;
    }

    std::string fingerprint() const override
    {
        std::uint64_t hash = kFnvBasis;
        for (std::size_t i = 0; i < jobs_.size(); ++i)
            hash = fnv1a(hash, std::to_string(i) + ":" +
                                   errorCodeName(jobs_[i].code) + ":" +
                                   countsText(jobs_[i].counts));
        return hex(hash);
    }

    std::vector<std::string> check() override
    {
        // Pool the counts of every job of one circuit and compare the
        // qubit-subspace distribution with the ideal statevector one.
        struct Pooled
        {
            const QuantumCircuit *circuit = nullptr;
            std::vector<long> counts;
            long shots = 0;
        };
        std::map<std::string, Pooled> pooled;
        for (const Job &job : jobs_) {
            if (job.code != ErrorCode::Ok)
                continue;
            Pooled &p = pooled[job.circuitKey];
            p.circuit = &job.circuit;
            if (p.counts.size() < job.counts.size())
                p.counts.resize(job.counts.size(), 0);
            for (std::size_t i = 0; i < job.counts.size(); ++i) {
                p.counts[i] += job.counts[i];
                p.shots += job.counts[i];
            }
        }
        std::vector<std::string> failures;
        for (const auto &[key, p] : pooled) {
            const std::vector<double> ideal =
                idealDistribution(*p.circuit);
            if (ideal.size() != 4 || p.counts.size() < 5) {
                failures.push_back("vqe_2q " + key +
                                   ": unexpected outcome space");
                continue;
            }
            double tvd = 0.0, qubit_mass = 0.0;
            for (std::size_t b = 0; b < 4; ++b) {
                const double measured =
                    static_cast<double>(p.counts[kPairQubitLevels[b]]) /
                    static_cast<double>(p.shots);
                qubit_mass += measured;
                tvd += std::fabs(measured - ideal[b]);
            }
            // Leaked population (any level-2 outcome) is error mass.
            tvd = 0.5 * (tvd + (1.0 - qubit_mass));
            const double tol =
                kTvdSlack + 3.0 / std::sqrt(static_cast<double>(p.shots));
            if (tvd > tol)
                failures.push_back(
                    "vqe_2q " + key + ": total variation " +
                    std::to_string(tvd) + " from the statevector "
                    "distribution over " + std::to_string(p.shots) +
                    " shots (tolerance " + std::to_string(tol) +
                    "); counts " + countsText(p.counts) + " ideal " +
                    idealText(ideal));
        }
        return failures;
    }

    void endPass() override
    {
        service_.reset();
        pool_.reset();
    }

  private:
    /**
     * Systematic allowance of the pulse-level CR pair against the
     * ideal circuit. Exact populations (no sampling) put the Standard
     * flow within 0.094 of the ideal distribution over theta in
     * [-pi, pi], and the Optimized CR(theta) stretch within 0.07 for
     * |theta| <= 2 but up to 0.18 as |theta| nears pi (a known
     * baseline defect, see README.md). Sampling noise is added on top.
     */
    static constexpr double kTvdSlack = 0.20;

    struct Job
    {
        std::string circuitKey;
        QuantumCircuit circuit{2};
        double tSubmit = 0.0;
        double tDone = 0.0;
        ErrorCode code = ErrorCode::Ok;
        std::vector<long> counts;
    };

    void submitNext()
    {
        const auto index = static_cast<long>(jobs_.size());
        Rng rng(Rng::deriveSeed(seed_, static_cast<std::uint64_t>(index)));
        const long round = index / kVqeClients;
        // Fresh angles come from kAngleStrata equal slices of
        // [-pi, pi) in kStratumOrder, at a seeded offset inside the
        // middle half of the slice, which keeps every slice on one side
        // of the LRU cliff: seeds change every angle, not the cost.
        auto angle = [&](long stratum) {
            return -kPi + (static_cast<double>(stratum) + 0.25 +
                           0.5 * rng.uniform()) *
                              2 * kPi / kAngleStrata;
        };
        const long stratum = kStratumOrder[round % kAngleStrata];
        Job job;
        switch (index % kVqeClients) {
        case 0: {
            const double theta = angle(stratum);
            job.circuit = uccAnsatz2q(theta);
            job.circuitKey = "ucc(" + std::to_string(theta) + ")";
            break;
        }
        case 1: {
            const double theta = angle((stratum + kAngleStrata / 2) %
                                       kAngleStrata);
            const double beta = rng.uniform(0.0, kPi / 2);
            job.circuit = qaoaLineCircuit(2, {theta}, {beta});
            job.circuitKey = "qaoa(" + std::to_string(theta) + "," +
                             std::to_string(beta) + ")";
            break;
        }
        case 2: {
            const long from = std::max(round - 1, 0L) * kVqeClients;
            job.circuitKey = jobs_[from].circuitKey;
            job.circuit = jobs_[from].circuit;
            break;
        }
        default: {
            QuantumCircuit hcxh(2);
            hcxh.h(0);
            hcxh.h(1);
            hcxh.cx(0, 1);
            hcxh.h(1);
            job.circuit = hcxh;
            job.circuitKey = "h-cx-h";
        }
        }
        JobRequest request;
        request.circuit = job.circuit;
        request.key = "vqe/" + std::to_string(index);
        request.shots = kVqeShots;
        request.seed = Rng::deriveSeed(seed_ ^ 0x5407,
                                       static_cast<std::uint64_t>(index));
        job.tSubmit = nowSeconds();
        {
            telemetry::TraceSpan span("bench.service.submit");
            const Status status = service_->submit(std::move(request));
            if (!status.ok())
                job.code = status.code();
        }
        jobs_.push_back(std::move(job));
    }

    std::uint64_t seed_;
    double calibrateS_ = 0.0;
    std::shared_ptr<const PulseBackend> backend_;
    std::optional<PulseSimulator> sim_;
    std::shared_ptr<BackendPool> pool_;
    std::unique_ptr<ExecutionService> service_;
    std::vector<Job> jobs_;
};

// ==================================================================
// compile_sweep
// ==================================================================

/** Requests per phase of one epoch (the restart phase replays them). */
constexpr long kSweepPhaseRequests = 48;
/**
 * One epoch's phase: 14 fresh (Standard, Optimized) pairs — two per
 * corpus family — and 20 repeats of earlier requests, in seeded
 * order. 42 % of requests repeat, so over both phases misses, disk
 * hits and memory hits are 29/29/42 % and the median sits inside the
 * disk-hit mode, not on a boundary between two modes.
 */
constexpr long kSweepFreshPairs = 14;
constexpr long kSweepRepeats = 20;
static_assert(2 * kSweepFreshPairs + kSweepRepeats == kSweepPhaseRequests);
constexpr std::size_t kSweepCacheEntries = 256;

const char *const kCorpusNames[] = {"h2_ucc",  "lih_ucc", "qaoa4",
                                    "qaoa5",   "ch4_trotter",
                                    "h2o_trotter", "hidden_shift4"};
constexpr int kCorpusFamilies =
    static_cast<int>(sizeof kCorpusNames / sizeof kCorpusNames[0]);

class CompileSweep final : public Workload
{
  public:
    explicit CompileSweep(std::uint64_t seed) : seed_(seed) {}

    double calibrateSeconds() const override { return calibrateS_; }
    const PulseBackend &backend() const override { return *backend_; }

    void setup(const std::shared_ptr<store::ArtifactStore> &snapshot) override
    {
        const double t0 = nowSeconds();
        backend_ = makeCalibratedBackend(almadenLineConfig(5), false, snapshot);
        calibrateS_ = nowSeconds() - t0;
        ch4_ = methaneHamiltonian();
        h2o_ = waterHamiltonian();
    }

    void beginPass(const std::string &store_dir) override
    {
        passDir_ = store_dir;
        compilers_.clear();
        compilers_.push_back(
            std::make_unique<PulseCompiler>(backend_, CompileMode::Standard));
        compilers_.push_back(std::make_unique<PulseCompiler>(
            backend_, CompileMode::Optimized));
        epoch_ = -1;
        pos_ = 0;
        records_.clear();
        pairs_.clear();
        ratioLogSum_ = 0.0;
        ratioCount_ = 0;
    }

    PhaseResult runPhase(const PhaseLimits &limits, bool record) override
    {
        PhaseResult result;
        const double t0 = nowSeconds();
        while (!((limits.maxRequests >= 0 &&
                  result.issued >= limits.maxRequests) ||
                 (limits.seconds > 0 &&
                  nowSeconds() - t0 >= limits.seconds))) {
            if (epoch_ < 0 || pos_ == 2 * kSweepPhaseRequests)
                beginEpoch();
            else if (pos_ == kSweepPhaseRequests)
                restart();
            const Request &req = seq_[pos_ % kSweepPhaseRequests];
            const PulseCompiler &compiler = *compilers_[req.mode];
            const double start = nowSeconds();
            const CompileResult compiled = [&] {
                telemetry::TraceSpan span("bench.compile");
                return compiler.compile(circuits_[req.draw]);
            }();
            const double us = (nowSeconds() - start) * 1e6;
            Record rec;
            rec.epoch = epoch_;
            rec.pos = pos_;
            // The full content hash costs about a compile, so only epoch
            // 0 (the untimed warm-up) pays it; later epochs keep a digest
            // of the schedule's shape.
            rec.scheduleHash =
                epoch_ > 0 ? fnv1a(kFnvBasis,
                               std::to_string(compiled.pulseCount) + "/" +
                                   std::to_string(compiled.frameChangeCount) +
                                   "/" +
                                   std::to_string(
                                       compiled.schedule.instructions().size()))
                       : store::hashSchedule(compiled.schedule);
            rec.durationDt = compiled.durationDt;
            rec.validation = compiled.validation.code();
            records_.push_back(rec);
            if (pos_ < kSweepPhaseRequests && req.fresh)
                notePair(req, rec);
            ++pos_;
            ++result.issued;
            ++result.attempted;
            if (!compiled.validation.ok()) {
                ++result.failed;
            } else {
                ++result.completedJobs;
                if (record) {
                    result.latencyMs.push_back(us / 1e3);
                    result.firstResultMs.push_back(us / 1e3);
                }
            }
            if (tick && pos_ % kSweepPhaseRequests == 0)
                tick();
        }
        if (tick)
            tick();
        result.wallSeconds = nowSeconds() - t0;
        if (ratioCount_ > 0)
            result.durationRatio =
                std::exp(ratioLogSum_ / static_cast<double>(ratioCount_));
        return result;
    }

    std::string fingerprint() const override
    {
        std::uint64_t hash = kFnvBasis;
        for (const Record &rec : records_)
            hash = fnv1a(hash, std::to_string(rec.epoch) + ":" +
                                   std::to_string(rec.pos) + ":" +
                                   hex(rec.scheduleHash) + ":" +
                                   std::to_string(rec.durationDt) + ":" +
                                   errorCodeName(rec.validation));
        return hex(hash);
    }

    std::vector<std::string> check() override
    {
        std::vector<std::string> failures;
        // Phase-A result per (epoch, position) for the tier check.
        std::map<std::pair<long, long>, const Record *> first;
        for (const Record &rec : records_) {
            if (rec.validation != ErrorCode::Ok)
                failures.push_back(
                    "compile_sweep epoch " + std::to_string(rec.epoch) +
                    " request " + std::to_string(rec.pos) +
                    ": validation " + errorCodeName(rec.validation));
            if (rec.pos < kSweepPhaseRequests) {
                first[{rec.epoch, rec.pos}] = &rec;
                continue;
            }
            const auto it =
                first.find({rec.epoch, rec.pos - kSweepPhaseRequests});
            if (it != first.end() &&
                (it->second->scheduleHash != rec.scheduleHash ||
                 it->second->durationDt != rec.durationDt))
                failures.push_back(
                    "compile_sweep epoch " + std::to_string(rec.epoch) +
                    " request " + std::to_string(rec.pos) +
                    ": restart-phase schedule differs from the first "
                    "compile");
        }
        for (const Pair &pair : pairs_)
            if (pair.optimizedDt > pair.standardDt)
                failures.push_back(
                    "compile_sweep " + pair.name + ": Optimized " +
                    std::to_string(pair.optimizedDt) +
                    " dt > Standard " + std::to_string(pair.standardDt) +
                    " dt");
        return failures;
    }

    void endPass() override
    {
        for (auto &compiler : compilers_)
            compiler->setCompileCache(nullptr);
        cache_.reset();
        store_.reset();
        compilers_.clear();
    }

  private:
    struct Request
    {
        std::size_t draw = 0; ///< Index into circuits_.
        int mode = 0;         ///< 0 = Standard, 1 = Optimized.
        bool fresh = false;   ///< First request of its key.
    };

    struct Record
    {
        long epoch = 0;
        long pos = 0;
        std::uint64_t scheduleHash = 0;
        long durationDt = 0;
        ErrorCode validation = ErrorCode::Ok;
    };

    struct Pair
    {
        std::string name;
        long standardDt = -1;
        long optimizedDt = -1;
    };

    QuantumCircuit drawCircuit(int family, Rng &rng, std::string &name)
    {
        const double a = rng.uniform();
        const double b = rng.uniform();
        name = std::string(kCorpusNames[family]) + "(" +
               std::to_string(a) + "," + std::to_string(b) + ")";
        switch (family) {
        case 0:
            return uccAnsatz2q(-0.5 + a);
        case 1:
            return uccAnsatz2q(0.5 + a);
        case 2:
            return qaoaLineCircuit(4, {a * kPi}, {b * kPi / 2});
        case 3:
            return qaoaLineCircuit(5, {a * kPi}, {b * kPi / 2});
        case 4:
            return trotterCircuit(ch4_, 0.5 + a, 6);
        case 5:
            return trotterCircuit(h2o_, 0.5 + a, 6);
        default:
            // The CZ oracle couples non-neighbours on the line: route
            // at generation time (input shaping, not a compile stage).
            return compilers_[0]
                ->route(hiddenShiftCircuit(4, rng.uniformInt(16)))
                .circuit;
        }
    }

    /** Draw the next epoch's request sequence and its store. */
    void beginEpoch()
    {
        ++epoch_;
        pos_ = 0;
        Rng rng(Rng::deriveSeed(seed_, static_cast<std::uint64_t>(epoch_)));
        circuits_.clear();
        names_.clear();
        seq_.clear();
        // Step kinds: 1 = fresh pair, 0 = repeat; the first is fresh.
        std::vector<int> steps(kSweepFreshPairs - 1, 1);
        steps.insert(steps.end(), kSweepRepeats, 0);
        steps = blockKinds(seed_, epoch_, steps);
        steps.insert(steps.begin(), 1);
        std::vector<int> families;
        for (long i = 0; i < kSweepFreshPairs; ++i)
            families.push_back(static_cast<int>(i % kCorpusFamilies));
        families = blockKinds(seed_ ^ 0xFA, epoch_, families);
        for (int step : steps) {
            if (step == 0) {
                Request repeat = seq_[rng.uniformInt(seq_.size())];
                repeat.fresh = false;
                seq_.push_back(repeat);
                continue;
            }
            std::string name;
            circuits_.push_back(
                drawCircuit(families[circuits_.size()], rng, name));
            names_.push_back(name);
            for (int mode = 0; mode < 2; ++mode)
                seq_.push_back({circuits_.size() - 1, mode, true});
        }
        attachCache(passDir_ + "/epoch" + std::to_string(epoch_));
    }

    /** Simulated process restart: flush, reopen, fresh memory tier. */
    void restart()
    {
        {
            telemetry::TraceSpan span("bench.cache.flush");
            throwIfError(cache_->flush());
        }
        attachCache(store_->directory());
    }

    /** `dir` by value: it may name the store being released. */
    void attachCache(std::string dir)
    {
        for (auto &compiler : compilers_)
            compiler->setCompileCache(nullptr);
        cache_.reset();
        store_.reset();
        {
            telemetry::TraceSpan span("bench.store.open");
            store_ = openStore(dir);
        }
        cache_ = std::make_shared<CompileCache>(kSweepCacheEntries, store_);
        for (auto &compiler : compilers_)
            compiler->setCompileCache(cache_);
    }

    void notePair(const Request &req, const Record &rec)
    {
        if (req.mode == 0) {
            pairs_.push_back({names_[req.draw], rec.durationDt, -1});
            return;
        }
        Pair &pair = pairs_.back();
        pair.optimizedDt = rec.durationDt;
        if (epoch_ == 0 && pair.standardDt > 0 && pair.optimizedDt > 0) {
            ratioLogSum_ += std::log(static_cast<double>(pair.optimizedDt) /
                                     static_cast<double>(pair.standardDt));
            ++ratioCount_;
        }
    }

    std::uint64_t seed_;
    double calibrateS_ = 0.0;
    std::shared_ptr<const PulseBackend> backend_;
    PauliOperator ch4_;
    PauliOperator h2o_;
    std::string passDir_;
    std::vector<std::unique_ptr<PulseCompiler>> compilers_;
    std::shared_ptr<store::ArtifactStore> store_;
    std::shared_ptr<CompileCache> cache_;
    long epoch_ = -1;
    long pos_ = 0;
    std::vector<QuantumCircuit> circuits_;
    std::vector<std::string> names_;
    std::vector<Request> seq_;
    std::vector<Record> records_;
    std::vector<Pair> pairs_;
    double ratioLogSum_ = 0.0;
    long ratioCount_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeStream1q(std::uint64_t seed)
{
    return std::make_unique<Stream1q>(seed);
}

std::unique_ptr<Workload>
makeVqe2q(std::uint64_t seed)
{
    return std::make_unique<Vqe2q>(seed);
}

std::unique_ptr<Workload>
makeCompileSweep(std::uint64_t seed)
{
    return std::make_unique<CompileSweep>(seed);
}

} // namespace perfbench
