/**
 * @file
 * Pulse-level simulator: executes a Schedule against a TransmonModel.
 *
 * Faithful to the AWG semantics of Section 3.1.4: the complex envelope
 * is piecewise-constant per dt sample, so the evolution is computed as
 * a product of exact per-sample propagators exp(-i H(t_mid) dt) with
 * the slowly-rotating detuning/coupling phases evaluated at the sample
 * midpoint. Virtual-Z frame changes (ShiftPhase) multiply subsequent
 * samples on the channel by a phase, exactly as hardware frame changes
 * do; they cost zero time and are exact (Section 4).
 *
 * Decoherence (T1 relaxation, pure dephasing) is available through a
 * Lindblad master-equation path using per-sample operator splitting:
 * the unitary step followed by an amplitude-damping/dephasing step of
 * the same duration.
 *
 * Performance model (docs/PERFORMANCE.md): per-sample propagators are
 * memoized in a PropagatorCache keyed on the quantized drive vector,
 * and runs of identical consecutive samples (flat-tops, constant CR
 * tones, idle stretches) collapse into one cached propagator applied
 * repeatedly. Attaching a caller-owned cache with setPropagatorCache
 * extends the reuse across calls, making repeated execution of the
 * same schedule (shots, ZNE stretch sweeps, RB sequences) near-free
 * after the first pass.
 */
#ifndef QPULSE_PULSESIM_SIMULATOR_H
#define QPULSE_PULSESIM_SIMULATOR_H

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "linalg/workspace.h"
#include "pulse/schedule.h"
#include "pulsesim/propagator_cache.h"
#include "pulsesim/transmon.h"

namespace qpulse {

/** Where a control channel's drive lands and at what detuning. */
struct ControlChannelSpec
{
    std::size_t driveTransmon;  ///< Which transmon the line shakes.
    double detuningRadPerNs;    ///< omega_transmon - omega_drive.
};

/** Result of a unitary evolution. */
struct UnitaryResult
{
    Matrix unitary;                 ///< Raw propagator in the drive frame.
    std::vector<double> framePhase; ///< Accumulated ShiftPhase per qubit.
    long duration = 0;              ///< Schedule duration in dt.
};

/**
 * Where the evolve engine takes each step's propagator from. All three
 * sources walk the same drive timeline and feed the same consumers;
 * they differ only in how a step is produced.
 */
enum class StepSource
{
    /**
     * Default. Runs of identical consecutive samples collapse into one
     * step whose propagator comes from the attached PropagatorCache
     * (or the per-call memo; see cachedStepInto), always computed by
     * the cold stepPropagator so cache values stay pure functions of
     * their key.
     */
    Cached,
    /**
     * One step per AWG sample from the drift-frame kernel
     * (stepPropagatorInto): prediagonalized static Hamiltonian,
     * warm-started Jacobi, heap-silent in-place products. Agrees with
     * Reference to <= 1e-12, not bitwise.
     */
    DriftKernel,
    /**
     * One step per AWG sample from a cold stepPropagator: the exact
     * per-sample oracle for correctness pins and bench baselines.
     */
    Reference,
};

/**
 * Executes pulse schedules on a transmon model.
 *
 * One evolution engine serves every entry point: a private producer
 * (forEachStep) turns the schedule into a stream of (propagator,
 * repeat count) steps from the configured StepSource, and each entry
 * point is a consumer that applies those steps to its own state kind
 * (unitary, state vector, state panel, density panel).
 */
class PulseSimulator
{
  public:
    explicit PulseSimulator(TransmonModel model);

    /** Register a control channel (u_i) mapping. */
    void setControlChannel(std::size_t index,
                           const ControlChannelSpec &spec);

    const TransmonModel &model() const { return model_; }

    /**
     * Attach a caller-owned propagator cache shared across evolve
     * calls (and safely across threads). Pass nullptr to detach; the
     * simulator then memoizes only within each call.
     */
    void setPropagatorCache(std::shared_ptr<PropagatorCache> cache)
    {
        cache_ = std::move(cache);
    }

    const std::shared_ptr<PropagatorCache> &propagatorCache() const
    {
        return cache_;
    }

    /** Where every evolve entry point takes its step propagators from. */
    void setStepSource(StepSource source) { stepSource_ = source; }
    StepSource stepSource() const { return stepSource_; }

    /**
     * Attach a cooperative interrupt to this simulator instance: the
     * evolve engine polls the token — and a *wall-clock* deadline —
     * every kInterruptStride AWG samples (per collapsed run under
     * StepSource::Cached) and throws a StatusError carrying the
     * structured Cancelled / DeadlineExceeded reason mid-evolution. Virtual-time
     * deadlines are deliberately ignored here: their budget is charged
     * deterministically at shot-batch admission (PulseBackend), and an
     * admitted batch must be allowed to finish even when the charge
     * crossed the budget boundary. Default (inert token, no deadline)
     * costs one branch per stride.
     */
    void setInterrupt(CancelToken token, Deadline deadline = {})
    {
        cancelToken_ = std::move(token);
        wallDeadline_ =
            deadline.isVirtual() ? Deadline::none() : deadline;
        interruptible_ = cancelToken_.cancellable() ||
                         !wallDeadline_.unlimited();
    }

    /** Samples between interrupt polls on the per-sample sources. */
    static constexpr long kInterruptStride = 256;

    /**
     * Poll the attached interrupt (see setInterrupt); throws
     * StatusError(Cancelled|DeadlineExceeded) when it fired. Public so
     * batch drivers (runShots) can share one check between shots.
     */
    void checkInterrupt() const
    {
        if (interruptible_)
            throwIfInterrupted();
    }

    /**
     * Fingerprint of the drift-frame prediagonalization inputs (static
     * Hamiltonian, drive/coupling operators). Mixed into every
     * PropagatorKey so a recalibrated model can never be served
     * propagators cached under a stale basis.
     */
    std::uint64_t basisVersion() const { return basisVersion_; }

    /** Full propagator of the schedule (drive frame, frames reported). */
    UnitaryResult evolveUnitary(const Schedule &schedule) const;

    /**
     * Effective unitary with the pending virtual-Z frames folded back
     * in, so that compiled schedules compare directly against target
     * gate matrices. For d-level transmons the frame phase acts as
     * exp(-i phase * n).
     */
    Matrix effectiveUnitary(const UnitaryResult &result) const;

    /** Final state from an initial state (drive frame). */
    Vector evolveState(const Schedule &schedule,
                       const Vector &initial) const;

    /**
     * Batched state evolution: every column of `panel` is evolved
     * through the schedule in place, so the per-sample propagators
     * (cache lookups, eigensolves, binary powers) are computed ONCE
     * and applied to all K states as a single gemm per step
     * (linalg/state_panel.h). Matches per-column evolveState to
     * <= 1e-12 max-abs (pinned in tests/test_batch.cc); within one
     * dispatch mode the result is deterministic, so it is bit-identical
     * across QPULSE_THREADS. Interrupt polling keeps evolveState's
     * stride semantics (kInterruptStride samples per poll, per
     * collapsed run under StepSource::Cached). `ws` provides panel
     * scratch (state-panel slot 0); the loop is heap-silent once `ws`
     * has warmed at the panel's width.
     */
    void evolveStatesBatched(const Schedule &schedule, StatePanel &panel,
                             Workspace &ws) const;

    /** evolveStatesBatched against the thread-local workspace. */
    void evolveStatesBatched(const Schedule &schedule,
                             StatePanel &panel) const;

    /**
     * Batched Lindblad evolution: every d x d block of `panel` is
     * evolved with T1/T2 decoherence in place — one propagator
     * computation per sample shared across the batch, with the
     * two-sided conjugation batched through conjugatePanelInto
     * (density-panel slots 0-1 of `ws`). Matches per-block
     * evolveLindblad to <= 1e-12 max-abs; a width-1 panel is
     * evolveLindblad bit for bit.
     */
    void evolveLindbladBatched(const Schedule &schedule,
                               DensityPanel &panel, Workspace &ws) const;

    /**
     * Density-matrix evolution with T1/T2 decoherence: a width-1
     * evolveLindbladBatched with its own span and counters. The
     * initial density matrix must match the model dimension.
     */
    Matrix evolveLindblad(const Schedule &schedule,
                          const Matrix &rho0) const;

    /**
     * Populations of the computational (qubit-subspace + leakage)
     * basis states from a state vector.
     */
    std::vector<double> populations(const Vector &state) const;

  private:
    /**
     * One run of consecutive AWG samples whose quantized Hamiltonian
     * is identical: a single propagator applied `count` times.
     */
    struct DriveStep
    {
        PropagatorKey key;
        std::vector<Complex> drives; ///< Per-transmon summed drive.
        double tMidNs = 0.0;         ///< Midpoint of the first sample.
        long count = 0;              ///< Run length in samples.
        /** Another step of the same call has this key (marked only
         *  when no cache is attached; see cachedStepInto). */
        bool repeats = false;
    };

    /**
     * Per-sample drive decomposition d_j(t_mid) = env * exp(i rate
     * t_mid). AWG flat-tops and idle stretches repeat (env, rate)
     * bitwise from sample to sample even when the baked drive value
     * rotates (a CR tone played at the target's frequency has a
     * constant envelope but rate = qubit-qubit detuning). rate is NaN
     * on samples where overlapping plays with different rates make
     * the decomposition ill-defined; such samples never join a run.
     */
    struct DriveModulation
    {
        std::vector<std::vector<Complex>> env;
        std::vector<std::vector<double>> rate;
    };

    /**
     * Per-sample total drive on each transmon (frames applied). When
     * `mod_out` is non-null it receives the envelope/rate
     * decomposition of the same timeline for the step kernel's
     * identical-drive fast path.
     */
    std::vector<std::vector<Complex>> buildDriveTimeline(
        const Schedule &schedule, long duration,
        std::vector<double> *frame_out,
        DriveModulation *mod_out = nullptr) const;

    /** Quantize one sample's Hamiltonian inputs into a cache key. */
    PropagatorKey makeKey(const std::vector<Complex> &drives,
                          double t_mid_ns) const;

    /**
     * Run-length-encode the drive timeline into DriveSteps (caching
     * path only). Without an attached cache it also marks the steps
     * whose key occurs more than once.
     */
    std::vector<DriveStep> compileSteps(
        const std::vector<std::vector<Complex>> &drives,
        long duration) const;

    /**
     * The propagator of one step on the caching path, into `out`.
     * With an attached cache every step goes through it. Without one,
     * only repeating steps are memoized, in `local` (created on first
     * use); a key seen once is computed directly, so an evolution
     * whose keys never repeat (a coupled pair: its key carries the
     * coupling phase) allocates no memo. Both routes compute with
     * stepPropagator, so the result is bit-identical either way.
     */
    void cachedStepInto(const DriveStep &step,
                        std::unique_ptr<PropagatorCache> &local,
                        Matrix &out) const;

    Matrix stepPropagator(double t_mid_ns,
                          const std::vector<Complex> &drives) const;

    /**
     * The evolve engine's single step producer: builds the drive
     * timeline of `schedule` (frames into `frames` when non-null) and
     * calls consume(const Matrix &propagator, long count) once per
     * step of the configured StepSource — one call per collapsed run
     * for Cached, one per AWG sample otherwise. The only place that
     * polls the interrupt. Defined in simulator.cc, its only user.
     */
    template <typename Consume>
    void forEachStep(const Schedule &schedule, long duration,
                     std::vector<double> *frames,
                     Consume &&consume) const;

    /**
     * Density-panel consumer shared by evolveLindblad (width 1) and
     * evolveLindbladBatched; counts nothing, so each entry point keeps
     * its own span and counters.
     */
    void evolveDensityPanel(const Schedule &schedule, long duration,
                            DensityPanel &panel, Workspace &ws) const;

    /** Slow half of checkInterrupt: throws if the interrupt fired. */
    void throwIfInterrupted() const;

    /**
     * Per-evolve-call state of the drift-frame step kernel: scratch
     * matrices plus the previous sample's eigenvectors used to warm
     * start the next solve. Separate workspaces keep the eigensolver's
     * scratch slots from colliding with the kernel's own.
     */
    struct StepKernel
    {
        Workspace eigWs;             ///< Slots consumed by the solver.
        Workspace simWs;             ///< Slots consumed by the kernel.
        std::vector<double> values;  ///< Step eigenvalues (unsorted).
        Matrix vectors;              ///< Step eigenvectors / next seed.
        std::vector<Complex> phases; ///< exp(-i values dt) scratch.
        Matrix u;                    ///< Step propagator (lab frame).
        bool warm = false;           ///< vectors holds a usable seed.

        // State of the current identical-modulation run (see
        // stepPropagatorInto): while (env, rate) repeats bitwise,
        // later samples derive their propagator from u0 by a diagonal
        // frame rotation instead of a fresh eigensolve.
        std::vector<Complex> runEnv;   ///< Envelope of the run.
        std::vector<double> runRates;  ///< Phase rate per transmon.
        std::vector<double> runC;      ///< Generator coefficients c_j.
        std::vector<double> runAngle0; ///< fl(c_j t0) reference angles.
        std::vector<double> runDelta;  ///< Scratch: c_j t - angle0_j.
        Matrix u0;                     ///< Run-initial propagator.
        long runLen = 0;               ///< Fast steps since anchor.
        bool haveRun = false;          ///< Run state is usable.
        bool runWZero = false;         ///< All c_j == 0: H constant.
    };

    /**
     * Drift-frame propagator for one AWG sample, written into
     * `kernel.u`: builds H in the drift eigenbasis, solves it with a
     * Jacobi solve warm-started from the previous sample, and
     * exponentiates — heap-silent once the kernel's workspaces are
     * warm. `env`/`rates` are this sample's drive decomposition from
     * DriveModulation; when they repeat bitwise across samples the
     * propagator follows from the run-initial one by a diagonal frame
     * rotation with no eigensolve (see the implementation note).
     * Numerically equivalent to stepPropagator (<= 1e-12 per-step
     * max-abs; pinned in tests), not bit-identical.
     */
    void stepPropagatorInto(StepKernel &kernel, double t_mid_ns,
                            const std::vector<Complex> &drives,
                            const std::vector<Complex> &env,
                            const std::vector<double> &rates) const;

    TransmonModel model_;
    std::map<std::size_t, ControlChannelSpec> controlChannels_;

    // Cached operators.
    Matrix staticH_;
    std::vector<Matrix> raising_; ///< (omega_j / 2) * a_j^dag.
    Matrix couplingOp_;           ///< J * a_A^dag a_B (0 if uncoupled).
    double couplingDetuning_ = 0.0;
    bool hasCoupling_ = false;
    std::size_t couplingA_ = 0; ///< Raised-side transmon of the pair.
    std::size_t couplingB_ = 0; ///< Lowered-side transmon of the pair.

    // Number-operator diagonals n_j(i) per transmon, the building
    // blocks of the identical-modulation fast path's generators.
    // Filled only for diagonal drifts (natural basis order).
    std::vector<std::vector<double>> occupations_;

    // Drift-frame prediagonalization (fixed per model, computed once
    // in the constructor): staticH_ = V0 diag(driftValues_) V0^dag,
    // with the drive/coupling operators pre-rotated into that basis.
    // For the diagonal static Hamiltonians the transmon models produce
    // (anharmonicity only), driftDiagonal_ short-circuits V0 = I and
    // keeps driftValues_ in the natural basis order.
    std::vector<double> driftValues_;
    Matrix driftVectors_;              ///< V0 (identity when diagonal).
    std::vector<Matrix> raisingDrift_; ///< V0^dag raising_ V0.
    Matrix couplingOpDrift_;           ///< V0^dag couplingOp_ V0.
    bool driftDiagonal_ = false;
    std::uint64_t basisVersion_ = 0;

    // Step source and memoization state.
    std::shared_ptr<PropagatorCache> cache_; ///< Caller-owned, optional.
    StepSource stepSource_ = StepSource::Cached;

    // Cooperative interruption (setInterrupt). Copies of the simulator
    // share the token/deadline state through their shared_ptr guts.
    CancelToken cancelToken_;
    Deadline wallDeadline_;
    bool interruptible_ = false;
};

} // namespace qpulse

#endif // QPULSE_PULSESIM_SIMULATOR_H
