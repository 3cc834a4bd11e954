#include "pulsesim/simulator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/constants.h"
#include "common/status.h"
#include "linalg/eigen.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace qpulse {

namespace {

/** Work counters for one evolve call (thread-count invariant). */
void
countEvolve(telemetry::Counter &calls, long duration)
{
    static telemetry::Counter &c_samples =
        telemetry::MetricsRegistry::global().counter("sim.samples");
    calls.increment();
    c_samples.add(static_cast<std::uint64_t>(
        duration >= 0 ? duration : 0));
}

/** FNV-1a step over the bit pattern of one double. */
std::uint64_t
fnvMixDouble(std::uint64_t h, double x)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    h ^= bits;
    h *= 0x100000001B3ull;
    return h;
}

/** Fold a matrix's shape and every entry into the fingerprint. */
std::uint64_t
fnvMixMatrix(std::uint64_t h, const Matrix &m)
{
    h = fnvMixDouble(h, static_cast<double>(m.rows()));
    h = fnvMixDouble(h, static_cast<double>(m.cols()));
    for (const Complex &z : m.data()) {
        h = fnvMixDouble(h, z.real());
        h = fnvMixDouble(h, z.imag());
    }
    return h;
}

/**
 * Per-channel frame-phase lookup in O(log events): sorted event times
 * with prefix sums. Replaces the per-sample linear rescan of every
 * ShiftPhase/ShiftFrequency event (quadratic in schedule size).
 *
 * The frequency-shift contribution at sample t is
 *   -2 pi dt * sum_{e: t_e <= t} f_e (t - t_e)
 *     = -2 pi dt * (t * sum f_e  -  sum f_e t_e),
 * so two prefix sums make each lookup O(1) after the binary search.
 */
struct FrameTrack
{
    std::vector<long> phaseTimes;
    std::vector<double> phasePrefix;
    std::vector<long> freqTimes;
    std::vector<double> freqPrefix;     ///< Cumulative sum of f_e.
    std::vector<double> freqTimePrefix; ///< Cumulative sum of f_e t_e.

    double at(long t) const
    {
        double phase = 0.0;
        const auto pit = std::upper_bound(phaseTimes.begin(),
                                          phaseTimes.end(), t);
        if (pit != phaseTimes.begin())
            phase += phasePrefix[static_cast<std::size_t>(
                pit - phaseTimes.begin() - 1)];
        const auto fit = std::upper_bound(freqTimes.begin(),
                                          freqTimes.end(), t);
        if (fit != freqTimes.begin()) {
            const std::size_t k = static_cast<std::size_t>(
                fit - freqTimes.begin() - 1);
            phase -= 2.0 * kPi * kDtNs *
                     (static_cast<double>(t) * freqPrefix[k] -
                      freqTimePrefix[k]);
        }
        return phase;
    }

    /**
     * Decompose the frame phase at sample t into an affine function of
     * the sample midpoint: frame(t) = static + rate * t_mid. Between
     * events both parts are constant in t, which is what lets the step
     * kernel's identical-modulation fast path recognize runs whose
     * baked drive value rotates sample to sample. Derivation from
     * at(): with t * kDtNs = t_mid - kDtNs / 2,
     *   frame(t) = phasePrefix - 2 pi kDtNs (t F - FT)
     *            = [phasePrefix + 2 pi kDtNs FT + pi F kDtNs]
     *              + (-2 pi F) t_mid.
     */
    void split(long t, double &static_part, double &rate) const
    {
        static_part = 0.0;
        rate = 0.0;
        const auto pit = std::upper_bound(phaseTimes.begin(),
                                          phaseTimes.end(), t);
        if (pit != phaseTimes.begin())
            static_part += phasePrefix[static_cast<std::size_t>(
                pit - phaseTimes.begin() - 1)];
        const auto fit = std::upper_bound(freqTimes.begin(),
                                          freqTimes.end(), t);
        if (fit != freqTimes.begin()) {
            const std::size_t k = static_cast<std::size_t>(
                fit - freqTimes.begin() - 1);
            static_part += 2.0 * kPi * kDtNs * freqTimePrefix[k] +
                           kPi * kDtNs * freqPrefix[k];
            rate -= 2.0 * kPi * freqPrefix[k];
        }
    }
};

} // namespace

PulseSimulator::PulseSimulator(TransmonModel model)
    : model_(std::move(model))
{
    staticH_ = model_.staticHamiltonian();
    for (std::size_t j = 0; j < model_.numTransmons(); ++j) {
        const double omega =
            2.0 * kPi * model_.qubit(j).driveStrengthGhz;
        raising_.push_back(model_.lowering(j).adjoint() *
                           Complex{omega / 2.0, 0.0});
    }
    if (model_.coupling()) {
        const auto &coupling = *model_.coupling();
        const double j_rad = 2.0 * kPi * coupling.strengthGhz;
        couplingOp_ = model_.lowering(coupling.qubitA).adjoint() *
                      model_.lowering(coupling.qubitB) *
                      Complex{j_rad, 0.0};
        couplingDetuning_ =
            2.0 * kPi * (model_.qubit(coupling.qubitA).frequencyGhz -
                         model_.qubit(coupling.qubitB).frequencyGhz);
        hasCoupling_ = true;
        couplingA_ = coupling.qubitA;
        couplingB_ = coupling.qubitB;
    }

    // Drift-frame prediagonalization: the static Hamiltonian is fixed
    // per model, so diagonalize it exactly once and pre-rotate every
    // drive/coupling operator into its eigenbasis. The per-sample
    // kernel then never touches H0 beyond adding a real diagonal.
    const std::size_t dim = model_.dim();
    driftDiagonal_ = true;
    for (std::size_t r = 0; r < dim && driftDiagonal_; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            if (r != c && staticH_(r, c) != Complex{0.0, 0.0}) {
                driftDiagonal_ = false;
                break;
            }
    if (driftDiagonal_) {
        // Transmon models produce a diagonal H0 (anharmonicity only);
        // keep the natural basis order so the drift kernel's free-
        // evolution path matches the legacy diagonal fast path exactly.
        driftValues_.resize(dim);
        for (std::size_t i = 0; i < dim; ++i)
            driftValues_[i] = staticH_(i, i).real();
        driftVectors_ = Matrix::identity(dim);
        raisingDrift_ = raising_;
        couplingOpDrift_ = couplingOp_;
        // Generator building blocks for the identical-modulation fast
        // path: number operators are diagonal in the natural (= drift)
        // basis.
        occupations_.resize(model_.numTransmons());
        for (std::size_t j = 0; j < model_.numTransmons(); ++j) {
            const Matrix n_j = model_.number(j);
            occupations_[j].resize(dim);
            for (std::size_t i = 0; i < dim; ++i)
                occupations_[j][i] = n_j(i, i).real();
        }
    } else {
        const EigenSystem es = eigHermitian(staticH_);
        driftValues_ = es.values;
        driftVectors_ = es.vectors;
        const Matrix v0dag = driftVectors_.adjoint();
        raisingDrift_.reserve(raising_.size());
        for (const Matrix &op : raising_)
            raisingDrift_.push_back(v0dag * op * driftVectors_);
        if (hasCoupling_)
            couplingOpDrift_ = v0dag * couplingOp_ * driftVectors_;
    }

    // Fingerprint of everything the prediagonalization consumed. Mixed
    // into every PropagatorKey so recalibration (a new simulator over
    // changed model parameters) can never hit propagators cached under
    // a stale basis, even when the caller keeps sharing one cache.
    std::uint64_t h = 0xCBF29CE484222325ull;
    h = fnvMixMatrix(h, staticH_);
    for (const Matrix &op : raising_)
        h = fnvMixMatrix(h, op);
    if (hasCoupling_) {
        h = fnvMixMatrix(h, couplingOp_);
        h = fnvMixDouble(h, couplingDetuning_);
    }
    basisVersion_ = h;
}

void
PulseSimulator::setControlChannel(std::size_t index,
                                  const ControlChannelSpec &spec)
{
    qpulseRequire(spec.driveTransmon < model_.numTransmons(),
                  "control channel drives an unknown transmon");
    controlChannels_[index] = spec;
}

std::vector<std::vector<Complex>>
PulseSimulator::buildDriveTimeline(const Schedule &schedule, long duration,
                                   std::vector<double> *frame_out,
                                   DriveModulation *mod_out) const
{
    std::vector<std::vector<Complex>> drives(
        model_.numTransmons(),
        std::vector<Complex>(static_cast<std::size_t>(duration),
                             Complex{0.0, 0.0}));
    if (mod_out) {
        mod_out->env.assign(
            model_.numTransmons(),
            std::vector<Complex>(static_cast<std::size_t>(duration),
                                 Complex{0.0, 0.0}));
        mod_out->rate.assign(
            model_.numTransmons(),
            std::vector<double>(static_cast<std::size_t>(duration),
                                0.0));
    }

    // Per-channel phase/frequency events, sorted once and folded into
    // prefix sums so the per-sample frame lookup is O(log events).
    struct PhaseEvent { long time; double phase; };
    struct FreqEvent { long time; double freqGhz; };
    std::map<Channel, std::vector<PhaseEvent>> phase_events;
    std::map<Channel, std::vector<FreqEvent>> freq_events;
    for (const auto &inst : schedule.instructions()) {
        if (inst.kind == PulseInstructionKind::ShiftPhase)
            phase_events[inst.channel].push_back(
                {inst.startTime, inst.phase});
        else if (inst.kind == PulseInstructionKind::ShiftFrequency)
            freq_events[inst.channel].push_back(
                {inst.startTime, inst.frequencyGhz});
    }

    std::map<Channel, FrameTrack> frames;
    for (auto &entry : phase_events) {
        std::sort(entry.second.begin(), entry.second.end(),
                  [](const PhaseEvent &a, const PhaseEvent &b) {
                      return a.time < b.time;
                  });
        FrameTrack &track = frames[entry.first];
        double total = 0.0;
        for (const auto &event : entry.second) {
            total += event.phase;
            track.phaseTimes.push_back(event.time);
            track.phasePrefix.push_back(total);
        }
    }
    for (auto &entry : freq_events) {
        std::sort(entry.second.begin(), entry.second.end(),
                  [](const FreqEvent &a, const FreqEvent &b) {
                      return a.time < b.time;
                  });
        FrameTrack &track = frames[entry.first];
        double f_total = 0.0, ft_total = 0.0;
        for (const auto &event : entry.second) {
            f_total += event.freqGhz;
            ft_total += event.freqGhz * static_cast<double>(event.time);
            track.freqTimes.push_back(event.time);
            track.freqPrefix.push_back(f_total);
            track.freqTimePrefix.push_back(ft_total);
        }
    }

    for (const auto &inst : schedule.instructions()) {
        if (inst.kind != PulseInstructionKind::Play)
            continue;

        std::size_t transmon;
        double detuning = 0.0;
        if (inst.channel.kind == ChannelKind::Drive) {
            transmon = inst.channel.index;
            qpulseRequire(transmon < model_.numTransmons(),
                          "schedule drives transmon ", transmon,
                          " outside the ", model_.numTransmons(),
                          "-transmon model");
        } else if (inst.channel.kind == ChannelKind::Control) {
            const auto it = controlChannels_.find(inst.channel.index);
            qpulseRequire(it != controlChannels_.end(),
                          "unmapped control channel u",
                          inst.channel.index);
            transmon = it->second.driveTransmon;
            detuning = it->second.detuningRadPerNs;
        } else {
            continue; // Measurement stimulus does not drive qubits.
        }

        const auto track_it = frames.find(inst.channel);
        const FrameTrack *track =
            track_it != frames.end() ? &track_it->second : nullptr;
        for (long k = 0; k < inst.duration; ++k) {
            const long ts = inst.startTime + k;
            if (ts >= duration)
                break;
            const double t_mid =
                (static_cast<double>(ts) + 0.5) * kDtNs;
            // In the transmon's own rotating frame a drive at
            // omega_drive couples through a^dag with phase
            // e^{+i (omega_own - omega_drive) t} = e^{+i detuning t}.
            const double frame = track ? track->at(ts) : 0.0;
            const Complex value =
                inst.waveform->sample(k) *
                std::exp(Complex{0.0, frame + detuning * t_mid});
            // Last line of defence under the validation gate: a
            // NaN/Inf sample would otherwise poison the quantized
            // propagator-cache key (llround on NaN is undefined) and
            // every eigendecomposition derived from it.
            if (!std::isfinite(value.real()) ||
                !std::isfinite(value.imag()))
                throw StatusError(Status::error(
                    ErrorCode::NonFiniteSample,
                    "non-finite drive sample on " +
                        inst.channel.toString() + " at t=" +
                        std::to_string(ts) +
                        " reached the simulator; validate the "
                        "schedule (device/schedule_validation.h)"));
            drives[transmon][static_cast<std::size_t>(ts)] += value;

            // Envelope/rate view of the same sample: the phase above
            // is static + rate * t_mid with the static part constant
            // between frame events, so flat-top samples share one
            // bitwise (env, rate) pair even when `value` rotates.
            if (mod_out) {
                double static_part = 0.0;
                double frame_rate = 0.0;
                if (track)
                    track->split(ts, static_part, frame_rate);
                const double rate = frame_rate + detuning;
                const Complex env =
                    inst.waveform->sample(k) *
                    std::exp(Complex{0.0, static_part});
                Complex &env_acc =
                    mod_out->env[transmon][static_cast<std::size_t>(ts)];
                double &rate_acc =
                    mod_out
                        ->rate[transmon][static_cast<std::size_t>(ts)];
                if (env_acc == Complex{0.0, 0.0}) {
                    env_acc = env;
                    rate_acc = rate;
                } else if (rate_acc == rate) {
                    env_acc += env;
                } else {
                    // Overlapping plays at different rates: no single
                    // d = env exp(i rate t) decomposition exists. NaN
                    // never compares equal, so the sample can neither
                    // start nor extend a run.
                    rate_acc =
                        std::numeric_limits<double>::quiet_NaN();
                }
            }
        }
    }

    if (frame_out) {
        frame_out->assign(model_.numTransmons(), 0.0);
        for (const auto &inst : schedule.instructions())
            if (inst.kind == PulseInstructionKind::ShiftPhase &&
                inst.channel.kind == ChannelKind::Drive)
                (*frame_out)[inst.channel.index] += inst.phase;
    }
    return drives;
}

PropagatorKey
PulseSimulator::makeKey(const std::vector<Complex> &drives,
                        double t_mid_ns) const
{
    PropagatorKey key;
    key.words.reserve(1 + 2 * drives.size() + (hasCoupling_ ? 2 : 0));
    // The basis fingerprint leads every key: two simulators sharing a
    // cache but prediagonalized over different model parameters can
    // never exchange propagators.
    key.words.push_back(static_cast<std::int64_t>(basisVersion_));
    const auto quantize = [](double x) {
        return static_cast<std::int64_t>(
            std::llround(x / kDriveQuantum));
    };
    for (const Complex &d : drives) {
        key.words.push_back(quantize(d.real()));
        key.words.push_back(quantize(d.imag()));
    }
    if (hasCoupling_) {
        // The coupling term rotates at the qubit-qubit detuning, so
        // the sample time enters the Hamiltonian only through this
        // phase; keying on it makes time-dependence explicit.
        const Complex phase =
            std::exp(Complex{0.0, couplingDetuning_ * t_mid_ns});
        key.words.push_back(quantize(phase.real()));
        key.words.push_back(quantize(phase.imag()));
    }
    return key;
}

std::vector<PulseSimulator::DriveStep>
PulseSimulator::compileSteps(
    const std::vector<std::vector<Complex>> &drives,
    long duration) const
{
    std::vector<DriveStep> steps;
    std::vector<Complex> sample(model_.numTransmons());
    for (long ts = 0; ts < duration; ++ts) {
        for (std::size_t j = 0; j < model_.numTransmons(); ++j)
            sample[j] = drives[j][static_cast<std::size_t>(ts)];
        const double t_mid = (static_cast<double>(ts) + 0.5) * kDtNs;
        PropagatorKey key = makeKey(sample, t_mid);
        if (!steps.empty() && steps.back().key == key) {
            ++steps.back().count;
            continue;
        }
        steps.push_back(
            DriveStep{std::move(key), sample, t_mid, 1});
    }
    if (!cache_) {
        // Mark the keys the per-call memo should keep: sort step
        // indices by key, so equal keys end up adjacent.
        std::vector<std::size_t> order(steps.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return steps[a].key.words < steps[b].key.words;
                  });
        for (std::size_t i = 1; i < order.size(); ++i) {
            DriveStep &prev = steps[order[i - 1]];
            DriveStep &cur = steps[order[i]];
            if (prev.key == cur.key)
                prev.repeats = cur.repeats = true;
        }
    }
    return steps;
}

void
PulseSimulator::throwIfInterrupted() const
{
    if (cancelToken_.cancelled())
        throw StatusError(cancelToken_.reason());
    if (wallDeadline_.expired())
        throw StatusError(Status::error(
            ErrorCode::DeadlineExceeded,
            "wall-clock deadline passed mid-evolution"));
}

void
PulseSimulator::cachedStepInto(const DriveStep &step,
                               std::unique_ptr<PropagatorCache> &local,
                               Matrix &out) const
{
    PropagatorCache *cache = cache_.get();
    if (cache == nullptr) {
        if (!step.repeats) {
            out = stepPropagator(step.tMidNs, step.drives);
            return;
        }
        if (!local)
            local = std::make_unique<PropagatorCache>();
        cache = local.get();
    }
    cache->getOrComputeInto(
        step.key,
        [this, &step] { return stepPropagator(step.tMidNs, step.drives); },
        out);
}

Matrix
PulseSimulator::stepPropagator(double t_mid_ns,
                               const std::vector<Complex> &drives) const
{
    Matrix h = staticH_;
    bool any_drive = false;
    for (std::size_t j = 0; j < drives.size(); ++j) {
        if (drives[j] == Complex{0.0, 0.0})
            continue;
        any_drive = true;
        const Matrix term = raising_[j] * drives[j];
        h += term + term.adjoint();
    }
    if (hasCoupling_) {
        const Complex phase =
            std::exp(Complex{0.0, couplingDetuning_ * t_mid_ns});
        const Matrix term = couplingOp_ * phase;
        h += term + term.adjoint();
    }
    if (!any_drive && !hasCoupling_) {
        // Diagonal fast path: free evolution under the static part.
        std::vector<Complex> phases(model_.dim());
        for (std::size_t idx = 0; idx < model_.dim(); ++idx)
            phases[idx] = std::exp(
                Complex{0.0, -staticH_(idx, idx).real() * kDtNs});
        return Matrix::diagonal(phases);
    }
    // Floor tolerance, not the library default: evolve composes ~10^3
    // of these per schedule and any per-step convergence slack
    // accumulates linearly across the product (kEigFloorTol).
    return expMinusIHt(h, kDtNs, kEigFloorTol);
}

void
PulseSimulator::stepPropagatorInto(
    StepKernel &kernel, double t_mid_ns,
    const std::vector<Complex> &drives,
    const std::vector<Complex> &env,
    const std::vector<double> &rates) const
{
    const std::size_t dim = model_.dim();

    // Identical-modulation fast path. Write each drive as
    //   d_j(t) = env_j exp(i r_j t)
    // (buildDriveTimeline's DriveModulation). While (env, rate)
    // repeats bitwise — AWG flat-tops, constant CR tones, idle
    // stretches — there is a diagonal generator w = sum_j c_j n_j with
    //   H(t) = W H(t0) W^dag,  W = diag(exp(i (t - t0) w)),
    // because conjugating by W rotates transmon j's drive term by
    // exp(i c_j (t - t0)) and the coupling term by
    // exp(i (c_A - c_B)(t - t0)) while commuting with the diagonal
    // drift. Matching coefficients (c_j = r_j on driven transmons,
    // c_A - c_B = Delta; see record_run below) therefore turns the
    // step propagator into an elementwise rescale of the run-initial
    // one — no eigensolve at all:
    //   U(t)(r, c) = exp(i (t - t0) (w_r - w_c)) U(t0)(r, c).
    // This fires even when the baked drive value rotates every sample
    // (a CR tone played at the target's frequency has r = Delta), the
    // case that dominates two-qubit schedules. Samples whose envelope
    // actually changes (Gaussian ramps) take the full solve below.
    static telemetry::Counter &c_run_steps =
        telemetry::MetricsRegistry::global().counter(
            "sim.kernel.run_steps");
    // Cap on the rescaled steps derived from one anchor: the anchor's
    // eigensolve error (~1e-15) repeats coherently in every derived
    // step, so an unbounded run would amplify it linearly (480 flat
    // samples x 1e-15 ~ 5e-13, eating the 1e-12 agreement budget). Re-
    // anchoring every 32 samples bounds the coherent factor at 32
    // while keeping ~32x fewer eigensolves on flat-tops.
    constexpr long kMaxRunLen = 32;
    if (kernel.haveRun && env == kernel.runEnv &&
        rates == kernel.runRates && kernel.runLen < kMaxRunLen) {
        ++kernel.runLen;
        c_run_steps.increment();
        if (kernel.runWZero)
            return; // H constant across the run: kernel.u is exact.
        // Rotation angle per transmon, as fl(c_j t) - fl(c_j t0): the
        // first term rounds exactly like the legacy path's per-sample
        // phase arguments (fl(detuning t_mid), fl(Delta t_mid)), so
        // the fast path tracks the legacy trajectory to the addition
        // rounding (~1 ulp/sample) instead of accumulating an
        // independent-rounding random walk.
        const std::size_t nt = model_.numTransmons();
        kernel.runDelta.resize(nt);
        for (std::size_t j = 0; j < nt; ++j)
            kernel.runDelta[j] =
                kernel.runC[j] == 0.0
                    ? 0.0
                    : kernel.runC[j] * t_mid_ns - kernel.runAngle0[j];
        kernel.phases.resize(dim);
        for (std::size_t i = 0; i < dim; ++i) {
            double theta = 0.0;
            for (std::size_t j = 0; j < nt; ++j)
                if (kernel.runDelta[j] != 0.0)
                    theta += kernel.runDelta[j] * occupations_[j][i];
            kernel.phases[i] = std::exp(Complex{0.0, theta});
        }
        for (std::size_t r = 0; r < dim; ++r)
            for (std::size_t c = 0; c < dim; ++c)
                kernel.u(r, c) = kernel.u0(r, c) * kernel.phases[r] *
                                 std::conj(kernel.phases[c]);
        return;
    }

    bool any_drive = false;
    for (const Complex &d : drives)
        if (d != Complex{0.0, 0.0}) {
            any_drive = true;
            break;
        }

    // Remember this sample as the anchor of a (potential) run once the
    // slow path below has produced kernel.u: solve for the generator
    // coefficients c_j and precompute w_i and the reference angles
    // w_i t0. On failure the previous anchor is kept — the rescale
    // identity only relates samples to their anchor, so intervening
    // non-run samples do not invalidate it.
    const auto record_run = [&] {
        if (!driftDiagonal_)
            return;
        const std::size_t nt = model_.numTransmons();
        bool ok = true;
        for (std::size_t j = 0; j < nt; ++j)
            if (env[j] != Complex{0.0, 0.0} &&
                !(rates[j] == rates[j]))
                ok = false; // NaN rate: overlap conflict, no run.
        double c_a = 0.0;
        double c_b = 0.0;
        if (ok && hasCoupling_) {
            const bool driven_a =
                env[couplingA_] != Complex{0.0, 0.0};
            const bool driven_b =
                env[couplingB_] != Complex{0.0, 0.0};
            if (driven_a && driven_b) {
                // Both sides pinned by their drives: the coupling
                // constraint must already hold. It does, exactly, for
                // CR tones played at the other qubit's frequency —
                // calibration computes the channel detuning with the
                // same expression as couplingDetuning_.
                c_a = rates[couplingA_];
                c_b = rates[couplingB_];
                ok = (c_a - c_b == couplingDetuning_);
            } else if (driven_a) {
                c_a = rates[couplingA_];
                c_b = c_a - couplingDetuning_;
            } else if (driven_b) {
                c_b = rates[couplingB_];
                c_a = c_b + couplingDetuning_;
            } else {
                c_a = couplingDetuning_;
                c_b = 0.0;
            }
        }
        if (!ok)
            return;
        kernel.runC.resize(nt);
        kernel.runAngle0.resize(nt);
        bool w_zero = true;
        for (std::size_t j = 0; j < nt; ++j) {
            double c_j;
            if (hasCoupling_ && j == couplingA_)
                c_j = c_a;
            else if (hasCoupling_ && j == couplingB_)
                c_j = c_b;
            else
                c_j = env[j] != Complex{0.0, 0.0} ? rates[j] : 0.0;
            kernel.runC[j] = c_j;
            kernel.runAngle0[j] = c_j * t_mid_ns;
            if (c_j != 0.0)
                w_zero = false;
        }
        kernel.runEnv = env;
        kernel.runRates = rates;
        kernel.u0 = kernel.u;
        kernel.runLen = 0;
        kernel.runWZero = w_zero;
        kernel.haveRun = true;
    };

    if (!any_drive && !hasCoupling_) {
        // Free evolution is diagonal in the drift frame. With a
        // diagonal H0 this reproduces the legacy fast path bit-for-bit
        // (driftValues_ keeps the natural basis order).
        Matrix &u_drift = driftDiagonal_
            ? kernel.u
            : kernel.simWs.matrix(2, dim, dim);
        u_drift.resize(dim, dim);
        u_drift.setZero();
        for (std::size_t i = 0; i < dim; ++i)
            u_drift(i, i) =
                std::exp(Complex{0.0, -driftValues_[i] * kDtNs});
        if (!driftDiagonal_) {
            Matrix &tmp = kernel.simWs.matrix(3, dim, dim);
            gemmInto(tmp, driftVectors_, u_drift);
            gemmAdjBInto(kernel.u, tmp, driftVectors_);
        }
        record_run();
        return;
    }

    // Build H in the drift eigenbasis: a real diagonal plus the
    // pre-rotated drive/coupling terms, Hermitian by construction.
    Matrix &h = kernel.simWs.matrix(0, dim, dim);
    h.setZero();
    for (std::size_t i = 0; i < dim; ++i)
        h(i, i) = Complex{driftValues_[i], 0.0};
    for (std::size_t j = 0; j < drives.size(); ++j)
        if (drives[j] != Complex{0.0, 0.0})
            addScaledPlusAdjoint(h, raisingDrift_[j], drives[j]);
    if (hasCoupling_) {
        const Complex phase =
            std::exp(Complex{0.0, couplingDetuning_ * t_mid_ns});
        addScaledPlusAdjoint(h, couplingOpDrift_, phase);
    }

    // Adjacent AWG samples differ by O(dt) in drive amplitude, so the
    // previous sample's eigenvectors make a near-perfect seed: the
    // warm solve typically needs 1-2 sweeps against ~7 cold
    // (sim.eig.* counters track the actual counts).
    const Matrix *seed = kernel.warm ? &kernel.vectors : nullptr;
    eigHermitianInPlace(h, seed, kernel.values, kernel.vectors,
                        kernel.eigWs, /*sortAscending=*/false);
    kernel.warm = true;

    // U = V diag(exp(-i values dt)) V^dag, then back to the lab frame
    // (a no-op when the drift basis is the natural basis).
    kernel.phases.resize(dim);
    for (std::size_t i = 0; i < dim; ++i)
        kernel.phases[i] =
            std::exp(Complex{0.0, -kernel.values[i] * kDtNs});
    Matrix &scaled = kernel.simWs.matrix(1, dim, dim);
    scaled.resize(dim, dim);
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            scaled(r, c) = kernel.vectors(r, c) * kernel.phases[c];
    if (driftDiagonal_) {
        gemmAdjBInto(kernel.u, scaled, kernel.vectors);
    } else {
        Matrix &u_drift = kernel.simWs.matrix(2, dim, dim);
        gemmAdjBInto(u_drift, scaled, kernel.vectors);
        Matrix &tmp = kernel.simWs.matrix(3, dim, dim);
        gemmInto(tmp, driftVectors_, u_drift);
        gemmAdjBInto(kernel.u, tmp, driftVectors_);
    }
    record_run();
}

template <typename Consume>
void
PulseSimulator::forEachStep(const Schedule &schedule, long duration,
                            std::vector<double> *frames,
                            Consume &&consume) const
{
    DriveModulation mod;
    const bool kernel_source = stepSource_ == StepSource::DriftKernel;
    const auto drives = buildDriveTimeline(
        schedule, duration, frames, kernel_source ? &mod : nullptr);

    if (stepSource_ == StepSource::Cached) {
        std::unique_ptr<PropagatorCache> local;
        Matrix step_u;
        for (const DriveStep &step : compileSteps(drives, duration)) {
            checkInterrupt();
            cachedStepInto(step, local, step_u);
            consume(step_u, step.count);
        }
        return;
    }

    // Per-sample sources: the drift-frame kernel (warm-started Jacobi,
    // zero heap allocations per sample once its workspaces are warm)
    // or one cold reference propagator per AWG sample.
    const std::size_t nt = model_.numTransmons();
    StepKernel kernel;
    std::vector<Complex> step_drives(nt);
    std::vector<Complex> step_env(nt);
    std::vector<double> step_rates(nt);
    for (long ts = 0; ts < duration; ++ts) {
        if ((ts % kInterruptStride) == 0)
            checkInterrupt();
        const std::size_t sts = static_cast<std::size_t>(ts);
        for (std::size_t j = 0; j < nt; ++j)
            step_drives[j] = drives[j][sts];
        const double t_mid = (static_cast<double>(ts) + 0.5) * kDtNs;
        if (!kernel_source) {
            consume(stepPropagator(t_mid, step_drives), 1L);
            continue;
        }
        for (std::size_t j = 0; j < nt; ++j) {
            step_env[j] = mod.env[j][sts];
            step_rates[j] = mod.rate[j][sts];
        }
        stepPropagatorInto(kernel, t_mid, step_drives, step_env,
                           step_rates);
        consume(kernel.u, 1L);
    }
}

UnitaryResult
PulseSimulator::evolveUnitary(const Schedule &schedule) const
{
    telemetry::TraceSpan span("sim.evolve_unitary");
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter(
            "sim.evolve_unitary.calls");
    const long duration = schedule.duration();
    countEvolve(c_calls, duration);
    UnitaryResult result;
    result.duration = duration;

    Matrix u = Matrix::identity(model_.dim());
    Workspace pow_ws;
    Matrix u_pow, u_next;
    forEachStep(schedule, duration, &result.framePhase,
                [&](const Matrix &step_u, long count) {
                    powmInto(u_pow, step_u,
                             static_cast<std::uint64_t>(count), pow_ws);
                    gemmInto(u_next, u_pow, u);
                    std::swap(u, u_next);
                });
    result.unitary = std::move(u);
    return result;
}

Matrix
PulseSimulator::effectiveUnitary(const UnitaryResult &result) const
{
    // A pulse played with frame phase phi acts as
    // exp(i phi n) U_pulse exp(-i phi n), so a schedule whose frames
    // accumulate to phi satisfies U_raw = exp(i phi n) U_logical, i.e.
    // the logical (compiler-intended) unitary is recovered by applying
    // exp(-i phi n) on the left.
    Matrix correction = Matrix::identity(model_.dim());
    for (std::size_t j = 0; j < model_.numTransmons(); ++j) {
        const double phi = result.framePhase[j];
        if (phi == 0.0)
            continue;
        std::vector<Complex> phases(model_.dim());
        const Matrix n = model_.number(j);
        for (std::size_t idx = 0; idx < model_.dim(); ++idx)
            phases[idx] =
                std::exp(Complex{0.0, -phi * n(idx, idx).real()});
        correction = Matrix::diagonal(phases) * correction;
    }
    return correction * result.unitary;
}

Vector
PulseSimulator::evolveState(const Schedule &schedule,
                            const Vector &initial) const
{
    qpulseRequire(initial.size() == model_.dim(),
                  "evolveState dimension mismatch");
    telemetry::TraceSpan span("sim.evolve_state");
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter(
            "sim.evolve_state.calls");
    const long duration = schedule.duration();
    countEvolve(c_calls, duration);

    Vector state = initial;
    Vector state_next;
    Workspace pow_ws;
    Matrix u_pow;
    forEachStep(schedule, duration, nullptr,
                [&](const Matrix &step_u, long count) {
                    // Long runs (idle stretches, flat-tops): binary
                    // powering costs log2(count) matmuls instead of
                    // count matvecs.
                    if (count >= 8) {
                        powmInto(u_pow, step_u,
                                 static_cast<std::uint64_t>(count),
                                 pow_ws);
                        applyInto(state_next, u_pow, state);
                        std::swap(state, state_next);
                        return;
                    }
                    for (long k = 0; k < count; ++k) {
                        applyInto(state_next, step_u, state);
                        std::swap(state, state_next);
                    }
                });
    return state;
}

namespace {

/**
 * Schedule-independent decoherence tables for the operator-split
 * Lindblad step, hoisted out of the sample loop: per transmon a
 * dim x dim matrix of coherence decay factors, the n -> n-1 transfer
 * coefficients, and the lowered index. Applying them per sample is
 * then exp-free. Shared by the single-rho and batched paths so both
 * apply bit-identical damping.
 */
struct DecoherenceModel
{
    std::size_t dim = 0;
    std::size_t numTransmons = 0;
    std::vector<std::vector<double>> decayFactor;
    std::vector<std::vector<double>> transferCoef;
    std::vector<std::vector<std::size_t>> lowerIndex;

    explicit DecoherenceModel(const TransmonModel &model)
        : dim(model.dim()), numTransmons(model.numTransmons())
    {
        // Per-transmon decay rates (per ns).
        std::vector<double> gamma1(numTransmons);
        std::vector<double> gamma_phi(numTransmons);
        for (std::size_t j = 0; j < numTransmons; ++j) {
            const auto &params = model.qubit(j);
            const double t1_ns = params.t1Us * 1000.0;
            const double t2_ns = params.t2Us * 1000.0;
            gamma1[j] = 1.0 / t1_ns;
            gamma_phi[j] = std::max(0.0, 1.0 / t2_ns - 0.5 / t1_ns);
        }

        // Decompose a full-space index into per-transmon levels.
        const std::size_t levels = model.levels();
        auto level_of = [&](std::size_t index, std::size_t j) {
            std::size_t divisor = 1;
            for (std::size_t k = numTransmons; k-- > j + 1;)
                divisor *= levels;
            return (index / divisor) % levels;
        };

        decayFactor.assign(numTransmons,
                           std::vector<double>(dim * dim));
        transferCoef.assign(numTransmons,
                            std::vector<double>(dim, 0.0));
        lowerIndex.assign(numTransmons,
                          std::vector<std::size_t>(dim, 0));
        for (std::size_t j = 0; j < numTransmons; ++j) {
            const double g1 = gamma1[j] * kDtNs;
            const double gp = gamma_phi[j] * kDtNs;
            for (std::size_t r = 0; r < dim; ++r) {
                const double nr = static_cast<double>(level_of(r, j));
                for (std::size_t c = 0; c < dim; ++c) {
                    const double nc =
                        static_cast<double>(level_of(c, j));
                    const double relax = g1 * (nr + nc) / 2.0;
                    const double diff = nr - nc;
                    const double dephase = gp * diff * diff;
                    decayFactor[j][r * dim + c] =
                        std::exp(-(relax + dephase));
                }
                const std::size_t n = level_of(r, j);
                if (n == 0)
                    continue;
                std::size_t divisor = 1;
                for (std::size_t k = numTransmons; k-- > j + 1;)
                    divisor *= levels;
                lowerIndex[j][r] = r - divisor;
                transferCoef[j][r] =
                    std::expm1(static_cast<double>(n) * g1);
            }
        }
    }

    /**
     * Operator-split decoherence for one dt on a row-major dim x dim
     * block: coherence decay followed by the trace-preserving
     * population transfer n -> n-1 (the diagonal decay removed
     * exactly exp(-n g1 dt) from rho(r,r)).
     */
    void apply(Complex *rho) const
    {
        for (std::size_t j = 0; j < numTransmons; ++j) {
            const std::vector<double> &factor = decayFactor[j];
            for (std::size_t r = 0; r < dim; ++r)
                for (std::size_t c = 0; c < dim; ++c)
                    rho[r * dim + c] *= factor[r * dim + c];
            for (std::size_t r = 0; r < dim; ++r) {
                if (transferCoef[j][r] == 0.0)
                    continue;
                const double transfer =
                    transferCoef[j][r] * rho[r * dim + r].real();
                const std::size_t lo = lowerIndex[j][r];
                rho[lo * dim + lo] += Complex{transfer, 0.0};
            }
        }
    }
};

/** Work counters for one batched evolve (thread-count invariant):
 *  calls, states packed into the panel, and AWG samples walked —
 *  sim.batch.states / sim.batch.calls is the realized mean batch
 *  width K. */
void
countBatch(long duration, std::size_t width)
{
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter("sim.batch.calls");
    static telemetry::Counter &c_states =
        telemetry::MetricsRegistry::global().counter(
            "sim.batch.states");
    static telemetry::Counter &c_samples =
        telemetry::MetricsRegistry::global().counter(
            "sim.batch.samples");
    c_calls.increment();
    c_states.add(static_cast<std::uint64_t>(width));
    c_samples.add(
        static_cast<std::uint64_t>(duration >= 0 ? duration : 0));
}

} // namespace

void
PulseSimulator::evolveDensityPanel(const Schedule &schedule, long duration,
                                   DensityPanel &panel,
                                   Workspace &ws) const
{
    const DecoherenceModel deco(model_);
    const std::size_t dim = model_.dim();
    const std::size_t width = panel.width();
    // Scratch: density-panel slots 0 (ping-pong target) and 1
    // (conjugation staging).
    DensityPanel &next = ws.densityPanel(0, dim, width);
    DensityPanel &stage = ws.densityPanel(1, dim, width);
    forEachStep(schedule, duration, nullptr,
                [&](const Matrix &step_u, long count) {
                    // The decoherence split interleaves with every
                    // sample, so runs reuse the propagator but still
                    // step sample-wise.
                    for (long k = 0; k < count; ++k) {
                        conjugatePanelInto(next, step_u, panel, stage);
                        std::swap(panel, next);
                        Complex *base = panel.storage().data().data();
                        for (std::size_t i = 0; i < width; ++i)
                            deco.apply(base + i * dim * dim);
                    }
                });
}

Matrix
PulseSimulator::evolveLindblad(const Schedule &schedule,
                               const Matrix &rho0) const
{
    qpulseRequire(rho0.rows() == model_.dim() &&
                      rho0.cols() == model_.dim(),
                  "evolveLindblad dimension mismatch");
    telemetry::TraceSpan span("sim.evolve_lindblad");
    static telemetry::Counter &c_calls =
        telemetry::MetricsRegistry::global().counter(
            "sim.evolve_lindblad.calls");
    const long duration = schedule.duration();
    countEvolve(c_calls, duration);

    // A width-1 density panel: its single row-major block is rho, so
    // the panel conjugation issues exactly the gemm / gemmAdjB pair of
    // a standalone U rho U^dagger.
    DensityPanel panel(model_.dim(), 1);
    panel.setBlock(0, rho0);
    Workspace ws;
    evolveDensityPanel(schedule, duration, panel, ws);
    Matrix rho;
    panel.getBlock(0, rho);
    return rho;
}

void
PulseSimulator::evolveStatesBatched(const Schedule &schedule,
                                    StatePanel &panel,
                                    Workspace &ws) const
{
    qpulseRequire(panel.dim() == model_.dim(),
                  "evolveStatesBatched dimension mismatch");
    const std::size_t width = panel.width();
    if (width == 0)
        return;
    telemetry::TraceSpan span("sim.evolve_batched");
    const long duration = schedule.duration();
    countBatch(duration, width);

    const std::size_t dim = model_.dim();
    // Scratch: state-panel slot 0 (ping-pong target) plus matrix slots
    // 0-1 (powmInto's) and 3 (the binary power). All reuse capacity
    // across calls, so the loop is heap-silent once `ws` has warmed at
    // this width.
    StatePanel &next = ws.statePanel(0, dim, width);
    Matrix &u_pow = ws.matrix(3, dim, dim);
    forEachStep(schedule, duration, nullptr,
                [&](const Matrix &step_u, long count) {
                    // Long runs (idle stretches, flat-tops): binary
                    // powering costs log2(count) matmuls instead of
                    // count panel gemms.
                    if (count >= 8) {
                        powmInto(u_pow, step_u,
                                 static_cast<std::uint64_t>(count), ws);
                        applyPanelInto(next, u_pow, panel);
                        std::swap(panel, next);
                        return;
                    }
                    for (long k = 0; k < count; ++k) {
                        applyPanelInto(next, step_u, panel);
                        std::swap(panel, next);
                    }
                });
}

void
PulseSimulator::evolveStatesBatched(const Schedule &schedule,
                                    StatePanel &panel) const
{
    evolveStatesBatched(schedule, panel, tlsWorkspace());
}

void
PulseSimulator::evolveLindbladBatched(const Schedule &schedule,
                                      DensityPanel &panel,
                                      Workspace &ws) const
{
    qpulseRequire(panel.dim() == model_.dim(),
                  "evolveLindbladBatched dimension mismatch");
    const std::size_t width = panel.width();
    if (width == 0)
        return;
    telemetry::TraceSpan span("sim.evolve_batched");
    const long duration = schedule.duration();
    countBatch(duration, width);
    evolveDensityPanel(schedule, duration, panel, ws);
}

std::vector<double>
PulseSimulator::populations(const Vector &state) const
{
    std::vector<double> pops(state.size());
    for (std::size_t i = 0; i < state.size(); ++i)
        pops[i] = std::norm(state[i]);
    return pops;
}

} // namespace qpulse
