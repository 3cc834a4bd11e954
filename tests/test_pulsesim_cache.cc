/**
 * @file
 * Correctness tests for the propagator-cache hot path: the memoized
 * evolution (run-length collapse + quantized-key LRU cache) must agree
 * with the exact per-sample path to 1e-12 on schedules that exercise
 * frame changes, coupled CR tones and Lindblad decoherence; the LRU
 * must stay correct under eviction pressure; and the threaded shot
 * loop must be deterministic for a fixed seed regardless of thread
 * count or caching.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>

#include "common/constants.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "compile/compiler.h"
#include "linalg/state_panel.h"
#include "linalg/workspace.h"
#include "pulsesim/simulator.h"
#include "telemetry/metrics.h"

namespace qpulse {
namespace {

TransmonParams
testQubit()
{
    TransmonParams params;
    params.frequencyGhz = 5.0;
    params.anharmonicityGhz = -0.33;
    params.driveStrengthGhz = 0.25;
    return params;
}

/** The Gaussian amplitude rotating the test qubit by pi in 160 dt. */
constexpr double kPiAmp = 0.0941;

double
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    double max_diff = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            max_diff = std::max(max_diff, std::abs(a(r, c) - b(r, c)));
    return max_diff;
}

double
maxAbsDiff(const Vector &a, const Vector &b)
{
    double max_diff = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k)
        max_diff = std::max(max_diff, std::abs(a[k] - b[k]));
    return max_diff;
}

/** Coupled 5.0/5.1 GHz pair with the CR control channel mapped. */
PulseSimulator
crPairSimulator(double t1_us = 0.0, double t2_us = 0.0)
{
    TransmonParams control = testQubit();
    TransmonParams target = testQubit();
    target.frequencyGhz = 5.1;
    if (t1_us > 0.0) {
        control.t1Us = target.t1Us = t1_us;
        control.t2Us = target.t2Us = t2_us;
    }
    PulseSimulator sim(TransmonModel::pair(
        control, target, CouplingParams{0, 1, 0.0035}, 3));
    sim.setControlChannel(
        0, ControlChannelSpec{0, 2.0 * kPi * (5.0 - 5.1)});
    return sim;
}

/**
 * An echoed-CR schedule: flat-top CR tone, pi on the control with a
 * virtual-Z frame change, negated CR tone — the shape that exercises
 * run-length collapse (flat-tops), frame tracking and the coupled
 * time-dependent key all at once.
 */
Schedule
crEchoSchedule()
{
    Schedule schedule("cr-echo");
    schedule.play(controlChannel(0),
                  std::make_shared<GaussianSquareWaveform>(
                      600, 15.0, 60, Complex{0.14, 0.0}));
    schedule.shiftPhase(driveChannel(0), kPi / 3.0);
    schedule.play(driveChannel(0),
                  std::make_shared<GaussianWaveform>(
                      160, 40.0, Complex{kPiAmp, 0.0}));
    schedule.shiftPhase(controlChannel(0), kPi);
    schedule.play(controlChannel(0),
                  std::make_shared<GaussianSquareWaveform>(
                      600, 15.0, 60, Complex{0.14, 0.0}));
    return schedule;
}

TEST(PulseSimCache, UnitaryMatchesUncachedOnCrEcho)
{
    const PulseSimulator cached = crPairSimulator();
    PulseSimulator exact = crPairSimulator();
    exact.setStepSource(StepSource::DriftKernel);
    const Schedule schedule = crEchoSchedule();

    const UnitaryResult a = cached.evolveUnitary(schedule);
    const UnitaryResult b = exact.evolveUnitary(schedule);
    EXPECT_LE(maxAbsDiff(a.unitary, b.unitary), 1e-12);
    EXPECT_EQ(a.duration, b.duration);
    ASSERT_EQ(a.framePhase.size(), b.framePhase.size());
    for (std::size_t q = 0; q < a.framePhase.size(); ++q)
        EXPECT_NEAR(a.framePhase[q], b.framePhase[q], 1e-12);
}

TEST(PulseSimCache, StateMatchesUncachedOnCrEcho)
{
    const PulseSimulator cached = crPairSimulator();
    PulseSimulator exact = crPairSimulator();
    exact.setStepSource(StepSource::DriftKernel);
    const Schedule schedule = crEchoSchedule();

    Vector ground(9);
    ground[0] = Complex{1.0, 0.0};
    EXPECT_LE(maxAbsDiff(cached.evolveState(schedule, ground),
                         exact.evolveState(schedule, ground)),
              1e-12);
}

TEST(PulseSimCache, LindbladMatchesUncachedOnCrEcho)
{
    const PulseSimulator cached = crPairSimulator(50.0, 70.0);
    PulseSimulator exact = crPairSimulator(50.0, 70.0);
    exact.setStepSource(StepSource::DriftKernel);
    const Schedule schedule = crEchoSchedule();

    Matrix rho0(9, 9);
    rho0(0, 0) = Complex{1.0, 0.0};
    EXPECT_LE(maxAbsDiff(cached.evolveLindblad(schedule, rho0),
                         exact.evolveLindblad(schedule, rho0)),
              1e-12);
}

TEST(PulseSimCache, FlatTopCollapsesToFewUniquePropagators)
{
    // A constant pulse is one run: the per-call cache sees exactly one
    // unique single-sample Hamiltonian.
    PulseSimulator sim(TransmonModel::single(testQubit(), 3));
    auto cache = std::make_shared<PropagatorCache>();
    sim.setPropagatorCache(cache);

    Schedule schedule("const");
    schedule.play(driveChannel(0), std::make_shared<ConstantWaveform>(
                                       200, Complex{0.05, 0.0}));
    (void)sim.evolveUnitary(schedule);
    EXPECT_EQ(cache->stats().misses, 1u);
}

TEST(PulseSimCache, CrossCallCacheHitsOnRepeatedSchedule)
{
    PulseSimulator sim(TransmonModel::single(testQubit(), 3));
    auto cache = std::make_shared<PropagatorCache>();
    sim.setPropagatorCache(cache);

    Schedule schedule("x");
    schedule.play(driveChannel(0), std::make_shared<GaussianWaveform>(
                                       160, 40.0, Complex{kPiAmp, 0.0}));
    const UnitaryResult first = sim.evolveUnitary(schedule);
    const PropagatorCacheStats after_first = cache->stats();
    EXPECT_GT(after_first.misses, 0u);

    const UnitaryResult second = sim.evolveUnitary(schedule);
    const PropagatorCacheStats after_second = cache->stats();
    // Every propagator of the second pass is served from the cache.
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_GT(after_second.hits, after_first.hits);
    EXPECT_LE(maxAbsDiff(first.unitary, second.unitary), 0.0);
}

TEST(PulseSimCache, TinyCapacityEvictsButStaysCorrect)
{
    // Capacity 2 forces constant LRU churn on a 160-sample Gaussian
    // (~80 unique keys); the result must not change.
    PulseSimulator sim(TransmonModel::single(testQubit(), 3));
    PulseSimulator exact(TransmonModel::single(testQubit(), 3));
    exact.setStepSource(StepSource::DriftKernel);
    auto tiny = std::make_shared<PropagatorCache>(2);
    sim.setPropagatorCache(tiny);

    Schedule schedule("x");
    schedule.play(driveChannel(0), std::make_shared<GaussianWaveform>(
                                       160, 40.0, Complex{kPiAmp, 0.0}));
    const Matrix a = sim.evolveUnitary(schedule).unitary;
    const Matrix b = exact.evolveUnitary(schedule).unitary;
    EXPECT_LE(maxAbsDiff(a, b), 1e-12);
    EXPECT_LE(tiny->size(), 2u);
    EXPECT_GT(tiny->stats().evictions, 0u);
}

/** Global lookups (hits + misses) over every PropagatorCache. */
std::uint64_t
globalCacheLookups()
{
    auto &reg = telemetry::MetricsRegistry::global();
    return reg.counter("pulsesim.cache.hits").value() +
           reg.counter("pulsesim.cache.misses").value();
}

/**
 * Runs every path that memoizes per call when no cache is attached —
 * evolveState, evolveUnitary, evolveLindblad and both batched forms —
 * once on `sim` (no cache) and once on a copy with a fresh
 * caller-owned PropagatorCache per call. The results must be
 * bit-identical. Returns the global cache lookups the uncached calls
 * made.
 */
std::uint64_t
expectPerCallMemoMatchesAttachedCache(const PulseSimulator &sim,
                                      const Schedule &schedule)
{
    EXPECT_EQ(sim.propagatorCache(), nullptr);
    const auto attached = [&] {
        PulseSimulator copy = sim;
        copy.setPropagatorCache(std::make_shared<PropagatorCache>());
        return copy;
    };
    const std::size_t dim = sim.model().dim();
    Vector ground(dim);
    ground[0] = Complex{1.0, 0.0};
    Matrix rho0(dim, dim);
    rho0(0, 0) = Complex{1.0, 0.0};
    StatePanel states(dim, 3);
    states.setZero();
    for (std::size_t col = 0; col < 3; ++col)
        states.at(col, col) = Complex{1.0, 0.0};
    DensityPanel rhos(dim, 2);
    rhos.setZero();
    for (std::size_t col = 0; col < 2; ++col)
        rhos.at(col, col, col) = Complex{1.0, 0.0};

    std::uint64_t lookups = 0;
    const auto uncached = [&](const auto &call) {
        const std::uint64_t before = globalCacheLookups();
        auto result = call(sim);
        lookups += globalCacheLookups() - before;
        return result;
    };

    const auto state = [&](const PulseSimulator &s) {
        return s.evolveState(schedule, ground).data();
    };
    EXPECT_TRUE(uncached(state) == state(attached()));

    const auto unitary = [&](const PulseSimulator &s) {
        return s.evolveUnitary(schedule).unitary.data();
    };
    EXPECT_TRUE(uncached(unitary) == unitary(attached()));

    const auto lindblad = [&](const PulseSimulator &s) {
        return s.evolveLindblad(schedule, rho0).data();
    };
    EXPECT_TRUE(uncached(lindblad) == lindblad(attached()));

    const auto batched = [&](const PulseSimulator &s) {
        StatePanel panel = states;
        s.evolveStatesBatched(schedule, panel);
        return panel.storage().data();
    };
    EXPECT_TRUE(uncached(batched) == batched(attached()));

    const auto lindblad_batched = [&](const PulseSimulator &s) {
        DensityPanel panel = rhos;
        Workspace ws;
        s.evolveLindbladBatched(schedule, panel, ws);
        return panel.storage().data();
    };
    EXPECT_TRUE(uncached(lindblad_batched) ==
                lindblad_batched(attached()));
    return lookups;
}

TEST(PulseSimCache, PerCallMemoIsBitIdenticalWhereKeysRepeat)
{
    // Two identical DRAG pulses around an idle: on an uncoupled qubit
    // the second pulse repeats every key of the first, so the per-call
    // memo serves them.
    TransmonParams qubit = testQubit();
    qubit.t1Us = 50.0;
    qubit.t2Us = 70.0;
    const PulseSimulator sim(TransmonModel::single(qubit, 3));
    Schedule schedule("drag-idle-drag");
    const auto drag = std::make_shared<DragWaveform>(
        160, 40.0, Complex{kPiAmp, 0.0}, 0.7);
    schedule.play(driveChannel(0), drag);
    schedule.delay(driveChannel(0), 40);
    schedule.play(driveChannel(0), drag);

    EXPECT_GT(expectPerCallMemoMatchesAttachedCache(sim, schedule), 0u);
}

TEST(PulseSimCache, PerCallMemoIsBitIdenticalWhereKeysNeverRepeat)
{
    // On the calibration's coupled pair every key carries the coupling
    // phase, whose detuning is incommensurate with dt, so no key
    // repeats and the uncached calls memoize nothing at all. (The
    // 5.0/5.1 GHz test pair would repeat: its phase has a period of
    // exactly 45 dt.)
    const PulseSimulator sim =
        Calibrator(almadenLineConfig(2)).pairSimulator(0, 1);
    EXPECT_EQ(expectPerCallMemoMatchesAttachedCache(sim, crEchoSchedule()),
              0u);
}

/** Every evolve entry point's output on one schedule, flattened. */
struct EngineOutputs
{
    std::vector<Complex> unitary, state, lindblad, statePanel,
        densityPanel;
};

EngineOutputs
runEveryEntryPoint(const PulseSimulator &sim, const Schedule &schedule)
{
    const std::size_t dim = sim.model().dim();
    Vector ground(dim);
    ground[0] = Complex{1.0, 0.0};
    Matrix rho0(dim, dim);
    rho0(0, 0) = Complex{1.0, 0.0};
    StatePanel states(dim, 3);
    states.setZero();
    for (std::size_t col = 0; col < 3; ++col)
        states.at(col, col) = Complex{1.0, 0.0};
    DensityPanel rhos(dim, 2);
    rhos.setZero();
    for (std::size_t col = 0; col < 2; ++col)
        rhos.at(col, col, col) = Complex{1.0, 0.0};
    Workspace ws;

    EngineOutputs out;
    out.unitary = sim.evolveUnitary(schedule).unitary.data();
    out.state = sim.evolveState(schedule, ground).data();
    out.lindblad = sim.evolveLindblad(schedule, rho0).data();
    sim.evolveStatesBatched(schedule, states, ws);
    out.statePanel = states.storage().data();
    sim.evolveLindbladBatched(schedule, rhos, ws);
    out.densityPanel = rhos.storage().data();
    return out;
}

double
maxAbsDiff(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    EXPECT_EQ(a.size(), b.size());
    double max_diff = 0.0;
    for (std::size_t k = 0; k < a.size() && k < b.size(); ++k)
        max_diff = std::max(max_diff, std::abs(a[k] - b[k]));
    return max_diff;
}

TEST(PulseSimCache, DriftKernelMatchesLegacyUncachedPath)
{
    // The evolve engine as one table: all five entry points under the
    // Cached and DriftKernel step sources against the Reference oracle
    // (one cold propagator per sample) on the full CR echo with T1/T2,
    // to 1e-12. Every source also runs evolveLindblad as a width-1
    // evolveLindbladBatched, bit for bit.
    const Schedule schedule = crEchoSchedule();
    const auto simulator = [](StepSource source) {
        PulseSimulator sim = crPairSimulator(50.0, 70.0);
        sim.setStepSource(source);
        return sim;
    };
    const EngineOutputs reference =
        runEveryEntryPoint(simulator(StepSource::Reference), schedule);
    for (const StepSource source :
         {StepSource::Cached, StepSource::DriftKernel}) {
        SCOPED_TRACE(static_cast<int>(source));
        const EngineOutputs got =
            runEveryEntryPoint(simulator(source), schedule);
        EXPECT_LE(maxAbsDiff(got.unitary, reference.unitary), 1e-12);
        EXPECT_LE(maxAbsDiff(got.state, reference.state), 1e-12);
        EXPECT_LE(maxAbsDiff(got.lindblad, reference.lindblad), 1e-12);
        EXPECT_LE(maxAbsDiff(got.statePanel, reference.statePanel),
                  1e-12);
        EXPECT_LE(maxAbsDiff(got.densityPanel, reference.densityPanel),
                  1e-12);
    }

    Matrix rho0(9, 9);
    rho0(0, 0) = Complex{1.0, 0.0};
    for (const StepSource source :
         {StepSource::Cached, StepSource::DriftKernel,
          StepSource::Reference}) {
        SCOPED_TRACE(static_cast<int>(source));
        const PulseSimulator sim = simulator(source);
        DensityPanel single(9, 1);
        single.setBlock(0, rho0);
        Workspace ws;
        sim.evolveLindbladBatched(schedule, single, ws);
        EXPECT_TRUE(single.storage().data() ==
                    sim.evolveLindblad(schedule, rho0).data());
    }
}

TEST(PulseSimCache, DriftKernelWarmStartCutsJacobiSweeps)
{
    auto &reg = telemetry::MetricsRegistry::global();
    telemetry::Counter &warm_calls = reg.counter("sim.eig.warm.calls");
    telemetry::Counter &warm_sweeps =
        reg.counter("sim.eig.warm.sweeps");

    PulseSimulator sim = crPairSimulator();
    sim.setStepSource(StepSource::DriftKernel);
    const std::uint64_t calls0 = warm_calls.value();
    const std::uint64_t sweeps0 = warm_sweeps.value();
    (void)sim.evolveUnitary(crEchoSchedule());

    const std::uint64_t calls = warm_calls.value() - calls0;
    const std::uint64_t sweeps = warm_sweeps.value() - sweeps0;
    ASSERT_GT(calls, 0u);
    // Adjacent AWG samples differ by O(dt): warm solves average well
    // under the cold sweep count (~7 for these 9x9 H's) even though
    // they converge to the round-off floor rather than the cold
    // tolerance (see eigHermitianInPlace).
    EXPECT_LT(static_cast<double>(sweeps) / static_cast<double>(calls),
              4.5);
}

TEST(PulseSimCache, BasisVersionKeysPreventStaleHitsAfterRecalibration)
{
    // Two simulators sharing one cache but prediagonalized over
    // different model parameters (a recalibration) must never exchange
    // propagators: their keys differ in the basis-version word.
    auto cache = std::make_shared<PropagatorCache>();
    PulseSimulator before(TransmonModel::single(testQubit(), 3));
    TransmonParams recal = testQubit();
    recal.driveStrengthGhz = 0.26; // Calibration drifted.
    PulseSimulator after(TransmonModel::single(recal, 3));
    EXPECT_NE(before.basisVersion(), after.basisVersion());
    before.setPropagatorCache(cache);
    after.setPropagatorCache(cache);

    Schedule schedule("x");
    schedule.play(driveChannel(0), std::make_shared<GaussianWaveform>(
                                       160, 40.0, Complex{kPiAmp, 0.0}));
    const Matrix u_before = before.evolveUnitary(schedule).unitary;
    const std::uint64_t before_misses = cache->stats().misses;
    const Matrix u_after = after.evolveUnitary(schedule).unitary;
    // The recalibrated simulator found none of the first one's entries:
    // it misses exactly as often as the first run did on the same
    // schedule. (Hits within its own run are fine — the Gaussian is
    // time-symmetric, so mirrored samples share a key.)
    const std::uint64_t after_misses =
        cache->stats().misses - before_misses;
    EXPECT_EQ(after_misses, before_misses);
    EXPECT_GT(maxAbsDiff(u_before, u_after), 1e-6);

    // Identical models produce identical versions, so the sharing
    // still works where it is sound: the third run misses nothing.
    PulseSimulator same(TransmonModel::single(testQubit(), 3));
    EXPECT_EQ(same.basisVersion(), before.basisVersion());
    same.setPropagatorCache(cache);
    const Matrix u_same = same.evolveUnitary(schedule).unitary;
    EXPECT_EQ(cache->stats().misses, before_misses + after_misses);
    EXPECT_LE(maxAbsDiff(u_same, u_before), 0.0);
}

TEST(PulseSimCache, RunShotsDeterministicAcrossThreadsAndCaching)
{
    const BackendConfig config = almadenLineConfig(1);
    const auto backend = makeCalibratedBackend(config);
    Calibrator calibrator(config);
    const QubitCalibration cal = calibrator.calibrateQubit(0);
    const PulseSimulator sim(calibrator.qubitModel(0));

    Schedule schedule("x180");
    schedule.play(driveChannel(0), cal.x180Pulse());

    PulseShotOptions opts;
    opts.shots = 96;
    opts.seed = 0xFEED;
    opts.maxThreads = 1;
    const PulseShotResult sequential =
        backend->runShots(sim, schedule, opts);

    opts.maxThreads = 4;
    const PulseShotResult threaded =
        backend->runShots(sim, schedule, opts);

    // The drift-kernel source never touches a cache.
    PulseSimulator kernel_sim = sim;
    kernel_sim.setStepSource(StepSource::DriftKernel);
    const PulseShotResult uncached =
        backend->runShots(kernel_sim, schedule, opts);

    long total = 0;
    for (const long count : sequential.counts)
        total += count;
    EXPECT_EQ(total, opts.shots);
    EXPECT_EQ(sequential.counts, threaded.counts);
    EXPECT_EQ(sequential.counts, uncached.counts);
    EXPECT_GT(threaded.cacheStats.hits, 0u);
    EXPECT_EQ(uncached.cacheStats.hits + uncached.cacheStats.misses,
              0u);

    // A different seed must give a different (but still complete) draw.
    opts.seed = 0xBEEF;
    const PulseShotResult reseeded =
        backend->runShots(sim, schedule, opts);
    total = 0;
    for (const long count : reseeded.counts)
        total += count;
    EXPECT_EQ(total, opts.shots);
}

TEST(PulseSimCache, ParallelForCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> visits(257);
    for (auto &visit : visits)
        visit.store(0);
    parallelFor(visits.size(), [&](std::size_t k) {
        visits[k].fetch_add(1);
    });
    for (const auto &visit : visits)
        EXPECT_EQ(visit.load(), 1);
}

TEST(PulseSimCache, DeriveSeedSeparatesStreams)
{
    // Derived per-shot seeds must differ from each other and from the
    // base seed (splitmix64 scrambling).
    const std::uint64_t base = 42;
    EXPECT_NE(Rng::deriveSeed(base, 0), base);
    EXPECT_NE(Rng::deriveSeed(base, 0), Rng::deriveSeed(base, 1));
    EXPECT_NE(Rng::deriveSeed(base, 1), Rng::deriveSeed(base + 1, 1));
    // And must be reproducible.
    EXPECT_EQ(Rng::deriveSeed(base, 7), Rng::deriveSeed(base, 7));
}

} // namespace
} // namespace qpulse
