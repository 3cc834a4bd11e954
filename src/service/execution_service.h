/**
 * @file
 * ExecutionService: the admission-controlled job layer over a
 * BackendPool.
 *
 * A production pulse backend is a shared resource: clients submit jobs
 * faster than the device can run them, some jobs matter more than
 * others, and a wedged device must not take the whole queue down with
 * it. This service provides the missing layer:
 *
 *   submit(JobRequest) --> bounded queue (admission control)
 *        |                   full? shed the lowest-priority job
 *        v                   (resource-exhausted) or reject the
 *   drain()                  newcomer when nothing outranks it
 *        |
 *        v per job, weighted-fair across tenants
 *   CancelToken/Deadline gate --> cancelled / deadline-exceeded
 *        |
 *        v
 *   BackendPool routing --> unavailable (no active member: fast fail)
 *        |
 *        v
 *   member breaker + ResilientExecutor --> validate / inject / retry /
 *        |                     recalibrate / degrade, with the token
 *        v                     and deadline threaded down to the shot
 *   JobOutcome                 loop and the simulator evolve loops
 *
 * Deadlines expire to a structured `deadline-exceeded` Status carrying
 * the *partial result* — the shots completed before expiry — rather
 * than discarding finished work. Under QPULSE_VIRTUAL_TIME=1 deadlines
 * built with Deadline::afterMsOrBudget become simulated-sample budgets
 * charged deterministically at shot-batch granularity, so every
 * counter and partial result is bit-identical across QPULSE_THREADS.
 *
 * The service is sequential by design: submit()/drain() run on one
 * thread (the pool beneath is sequential state); the parallelism
 * lives inside each job's shot loop. Telemetry: the service.* and
 * fleet.* counters/gauges/spans registered in docs/OBSERVABILITY.md.
 *
 * **One service mode.** Every service schedules over a BackendPool
 * (docs/ROBUSTNESS.md section 6); a single backend is a one-member
 * pool named "default". Jobs are admitted per tenant against a quota,
 * dequeued weighted-fair across tenants, routed to the healthiest
 * active member (BackendPool::routingOrder), and failed over to the
 * next candidate — up to FleetPolicy::failoverBudget distinct
 * members — when a hop fails with a backend-health code. Every hop is
 * recorded as a FailoverHop breadcrumb on the JobOutcome, and the
 * terminal Status message carries the full path. A member whose
 * breaker trips is quarantined and only rejoins routing after
 * deterministic half-open health probes succeed; pinned jobs
 * (backendName other than "default") fail fast against a non-active
 * member with a Status naming the member and its breaker state. All
 * of it replays bit-identically across QPULSE_THREADS under
 * QPULSE_VIRTUAL_TIME=1.
 */
#ifndef QPULSE_SERVICE_EXECUTION_SERVICE_H
#define QPULSE_SERVICE_EXECUTION_SERVICE_H

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "compile/compiler.h"
#include "device/resilient_executor.h"
#include "service/backend_pool.h"

namespace qpulse {

/** Per-tenant admission quota and fair-share weight. */
struct TenantQuota
{
    /** Weighted-fair dequeue share; must be > 0. */
    double weight = 1.0;
    /** Max jobs a tenant may hold queued at once; 0 = uncapped. */
    std::size_t maxQueued = 0;
};

/** Pool-scheduling policy: failover and tenant shares. */
struct FleetPolicy
{
    /** Route failed jobs to the next-healthiest backend. */
    bool failoverEnabled = true;
    /** Max distinct backends one job may try (>= 1). */
    int failoverBudget = 3;
    /** Quota for tenants absent from `tenants`. */
    TenantQuota defaultQuota;
    /** Per-tenant overrides, keyed by tenant name. */
    std::map<std::string, TenantQuota> tenants;
};

/**
 * Service-wide policy knobs. Retry, watchdog, degrade, breaker,
 * compile mode, compile cache and artifact store are per-pool
 * settings: BackendPool::Policies.
 */
struct ServicePolicy
{
    /**
     * Bounded queue capacity. 0 = read QPULSE_SERVICE_QUEUE (default
     * 32, clamped to [1, 4096]).
     */
    std::size_t queueCapacity = 0;

    /** Thread cap forwarded to every job's shot loop (0 = pool). */
    std::size_t maxThreads = 0;

    /** Failover and tenant scheduling knobs. */
    FleetPolicy fleet;
};

/** One unit of work a client submits. */
struct JobRequest
{
    Schedule schedule; ///< Primary schedule to execute.
    /**
     * Assembly circuit to compile instead of a pre-built schedule.
     * When set, `schedule` is ignored: the service lowers the circuit
     * through the pool's memoized compile cache at drain time —
     * distinct pending circuits compile concurrently on the shared
     * ThreadPool, duplicates coalesce to one compile (single-flight),
     * and failover recompiles per hop through each member's compiler (a
     * shared calibration generation makes the hop compile a cache
     * hit). A compile whose validation fails terminates the job with
     * that structured Status before anything executes.
     */
    std::optional<QuantumCircuit> circuit;
    /** Standard-flow decomposition to degrade to (optional). */
    std::optional<Schedule> fallback;
    /** Stale-tracking identity (ResilientRequest::key). */
    std::string key;
    /**
     * Routing target. "default" routes freely across the pool's active
     * members (the one member of a single-backend service is itself
     * named "default"); any other value pins the job to that named
     * member, with no failover. A name the pool does not hold ends
     * the job `invalid-argument` without executing.
     */
    std::string backendName = "default";
    /** Submitting tenant: quota + weighted-fair lane. */
    std::string tenant = "default";
    long shots = 256;
    std::uint64_t seed = 1;
    /** Higher = more important. Ties broken by submission order. */
    int priority = 0;
    /** Job budget; default unlimited. See common/cancellation.h. */
    Deadline deadline;
    /** Cooperative cancel; default inert. */
    CancelToken token;
    /** Baseline proxy override (ResilientRequest::baselineProxy). */
    double baselineProxy = -1.0;
};

/** One hop of a job's routing path (failover breadcrumb). */
struct FailoverHop
{
    std::string backend;            ///< Pool member tried.
    ErrorCode code = ErrorCode::Ok; ///< That hop's terminal code.
};

/** Terminal record of one submitted job. */
struct JobOutcome
{
    std::uint64_t id = 0; ///< Submission order (0 = first submit).
    std::string key;
    int priority = 0;
    /**
     * Terminal status: Ok, or the structured reason — cancelled,
     * deadline-exceeded (partial result in execution.result),
     * resource-exhausted (shed), unavailable (no routable member),
     * or the executor's terminal error.
     */
    Status status;
    /** Full executor outcome; meaningful only when executed. */
    ResilientOutcome execution;
    bool executed = false;       ///< Reached the executor.
    bool shed = false;           ///< Evicted by admission control.
    bool breakerFastFail = false; ///< No routable member: fast fail.

    /** Backend that produced the terminal outcome ("" = none ran). */
    std::string backend;
    /** Submitting tenant (scheduling lane). */
    std::string tenant;
    /** Execution order within its drain; -1 = never dequeued (shed). */
    long drainSeq = -1;
    /** Routing breadcrumbs, one entry per backend tried. */
    std::vector<FailoverHop> path;
};

/**
 * Deterministic service counters, mirrored into the service.*
 * telemetry registry. Every field counts admission/terminal decisions
 * — work, never scheduling — so values are thread-count invariant
 * (under virtual-time deadlines; wall-clock deadlines are inherently
 * timing-dependent).
 */
struct ServiceStats
{
    long submitted = 0;
    long admitted = 0;
    long rejected = 0; ///< Newcomer refused at admission.
    long shed = 0;     ///< Queued job evicted for a newcomer.
    long cancelled = 0;
    long deadlineExceeded = 0;
    long breakerFastFails = 0;
    long completed = 0; ///< Terminal Ok.
    long failed = 0;    ///< Terminal non-Ok other than the above.
    long failovers = 0; ///< Extra backends tried beyond the first.
    long tenantRejected = 0; ///< Admissions refused by tenant quota.
};

class ExecutionService
{
  public:
    /**
     * A single-backend service: a one-member BackendPool named
     * "default" over `backend` and `sim`, built with `poolPolicies`.
     * Sequential use only (see file comment). Throws StatusError on a
     * degenerate policy, like the pool constructor below.
     */
    ExecutionService(std::shared_ptr<const PulseBackend> backend,
                     PulseSimulator sim, ServicePolicy policy = {},
                     BackendPool::Policies poolPolicies = {});

    /**
     * The service schedules over a shared BackendPool — health-aware
     * routing, cross-backend failover, quarantine and weighted-fair
     * tenant dequeue (file comment). The pool is shared so callers can
     * administer it (drain/readmit, fault injectors, persistence)
     * alongside the service. Throws StatusError on a degenerate
     * FleetPolicy, so a service never starts with a scheduler that
     * silently cannot do its job.
     */
    ExecutionService(std::shared_ptr<BackendPool> pool,
                     ServicePolicy policy = {});

    /** The pool this service schedules over. */
    BackendPool &pool() { return *pool_; }

    /**
     * Admission control. Queue has room: admit, return Ok. Queue full:
     * when the newcomer strictly outranks the lowest-priority queued
     * job, that job is shed (most-recently-submitted among ties) and
     * recorded as a resource-exhausted JobOutcome; otherwise the
     * newcomer is rejected with resource-exhausted. A job whose token
     * or deadline already fired, or whose tenant is at its quota, is
     * refused up front with its reason.
     */
    Status submit(JobRequest request);

    /**
     * Execute every queued job and return all outcomes — executed,
     * shed and fast-failed — sorted by submission id. Clears the
     * queue. Tenants interleave weighted-fair — each dequeue goes to
     * the tenant with the smallest virtual finish time (jobs served /
     * weight), priority order within the tenant — and the quarantine
     * probe loop is pumped between jobs. JobOutcome::drainSeq records
     * the actual execution order. Ends with a persistence flush.
     */
    std::vector<JobOutcome> drain();

    std::size_t queueDepth() const { return queue_.size(); }
    std::size_t queueCapacity() const { return capacity_; }

    const ServiceStats &stats() const { return stats_; }

    /** Effective quota for `tenant` (override or the default). */
    const TenantQuota &tenantQuota(const std::string &tenant) const;

    /** Jobs `tenant` currently holds in the queue. */
    std::size_t queuedForTenant(const std::string &tenant) const;

  private:
    struct PendingJob
    {
        std::uint64_t id = 0;
        JobRequest request;
    };

    JobOutcome executeJob(PendingJob &job);
    void noteTerminal(const Status &status);
    /**
     * Drain-time warm-up: compile every distinct pending circuit
     * concurrently on the shared ThreadPool (deduped by CompileKey
     * first, so counters stay deterministic: one miss per distinct
     * key regardless of thread count). Compile errors are swallowed
     * here — the per-job compile in executeJob reports them with the
     * job's identity attached.
     */
    void precompileQueued(std::vector<PendingJob> &jobs);
    /**
     * Lower `circuit` through `compiler`'s cache into `out`. Non-Ok:
     * the compile threw (structured) or its validation failed; the
     * job must terminate without executing.
     */
    static Status compileCircuit(const PulseCompiler &compiler,
                                 const QuantumCircuit &circuit,
                                 Schedule &out);

    ServicePolicy policy_;
    std::size_t capacity_ = 0;
    std::shared_ptr<BackendPool> pool_;
    std::deque<PendingJob> queue_;
    std::vector<JobOutcome> shedOutcomes_; ///< Victims since last drain.
    ServiceStats stats_;
    std::uint64_t nextId_ = 0;
};

} // namespace qpulse

#endif // QPULSE_SERVICE_EXECUTION_SERVICE_H
