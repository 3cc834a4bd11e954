/**
 * @file
 * Gate calibration: the daily routine the paper bootstraps from
 * (Sections 2.3 and 3.4). Every calibrated quantity here is obtained
 * by running *experiments* against the pulse simulator — Rabi
 * amplitude scans, DRAG leakage scans, cross-resonance duration scans,
 * sideband amplitude scans — never by reading the model Hamiltonian.
 * The results populate the PulseLibrary that both compiler flows (and
 * all augmented basis gates) are built from.
 */
#ifndef QPULSE_DEVICE_CALIBRATION_H
#define QPULSE_DEVICE_CALIBRATION_H

#include <map>
#include <optional>

#include "device/backend_config.h"
#include "pulse/waveform.h"
#include "pulsesim/simulator.h"

namespace qpulse {

/** Calibrated single-qubit pulse set. */
struct QubitCalibration
{
    long duration = 160;   ///< Pulse length in dt (35.6 ns).
    double sigma = 40.0;   ///< Gaussian sigma in dt.
    double x90Amp = 0.0;   ///< DRAG amplitude for a 90 deg rotation.
    double x180Amp = 0.0;  ///< DRAG amplitude for a 180 deg rotation.
    double dragBeta = 0.0; ///< DRAG derivative coefficient (samples).

    // Qutrit extension (Section 7): sideband pulse amplitudes.
    double x12Amp = 0.0;     ///< pi pulse on |1>-|2> at f12.
    double x02Amp = 0.0;     ///< two-photon pi pulse on |0>-|2> at f02/2.
    long qutritDuration = 160;

    /** The calibrated Rx(90) DRAG pulse. */
    WaveformPtr x90Pulse() const;
    /** The calibrated Rx(180) DRAG pulse (the DirectX pulse). */
    WaveformPtr x180Pulse() const;
};

/** Calibrated echoed cross-resonance for one directed edge. */
struct CrCalibration
{
    std::size_t control = 0;
    std::size_t target = 1;
    double amplitude = 0.0;     ///< GaussianSquare amplitude.
    long risefall = 20;         ///< Edge length in dt.
    double sigma = 5.0;         ///< Edge sigma in dt.
    long flatFor90 = 0;         ///< Per-half flat-top for net CR(90).
    double radPerDtFlat = 0.0;  ///< d(theta)/d(per-half flat) slope.
    double radAtZeroFlat = 0.0; ///< theta at zero flat (edge area).
    double phaseFixControl = 0.0; ///< Rz correction after the echo.
    double phaseFixTarget = 0.0;  ///< Rz correction after the echo.
    /**
     * Rotation-axis correction: the J-mediated target drive arrives
     * with a fixed phase offset, so the raw echo rotates the target
     * about a tilted axis in the XY plane. A virtual-Z sandwich
     * Rz(-psi) . echo . Rz(psi) on the target straightens the axis to
     * X. This mirrors the CR tone phase calibration done on hardware.
     */
    double axisPhaseTarget = 0.0;

    /** Calibrated Stark after-fixes at one stretch angle. */
    struct PhaseFixPoint
    {
        double theta;   ///< Net CR angle the fixes were tuned at.
        double control; ///< Rz correction on the control.
        double target;  ///< Rz correction on the target.
        double axis;    ///< Axis sandwich angle at this stretch.
    };

    /**
     * Per-angle phase-fix table (sorted by theta): the Stark-like
     * residuals do not scale exactly linearly with the stretch, so
     * the calibration measures them at several angles and consumers
     * interpolate. Falls back to linear scaling of the 90-degree
     * values when empty.
     */
    std::vector<PhaseFixPoint> fixTable;

    /** Interpolated {control, target, axis} corrections for |theta|. */
    PhaseFixPoint fixAt(double theta_rad) const;

    /**
     * Per-half flat-top duration and amplitude scale realising a net
     * CR(|theta|). When |theta| is below the zero-flat angle the pulse
     * is amplitude-scaled instead of stretched.
     */
    struct Stretch { long flat; double ampScale; };
    Stretch stretchFor(double theta_rad) const;

    /** One echo half: the GaussianSquare CR pulse (sign applied). */
    WaveformPtr halfPulse(long flat, double amp_scale, double sign) const;
};

/** Everything the backend reports after its daily calibration. */
struct PulseLibrary
{
    BackendConfig config;
    std::vector<QubitCalibration> qubits;
    std::vector<CrCalibration> crs; ///< One per coupling edge, directed
                                    ///< control -> target as configured.

    /** The CR calibration for a directed edge; fatal if absent. */
    const CrCalibration &cr(std::size_t control, std::size_t target) const;

    /** Control-channel index assigned to a directed edge. */
    std::size_t controlChannelIndex(std::size_t control,
                                    std::size_t target) const;
};

/**
 * Runs calibration experiments on pulse-simulated hardware.
 */
class Calibrator
{
  public:
    explicit Calibrator(BackendConfig config);

    /**
     * Calibrate every qubit and every coupling edge. The sweeps run on
     * the shared ThreadPool in two phases: first one per distinct
     * qubit, then one per distinct edge (distinct by physics, as the
     * memo keys them). The library is bit-identical to the one the
     * one-at-a-time calibrateQubit/calibrateCr calls produce, for any
     * QPULSE_THREADS.
     */
    PulseLibrary calibrateAll(bool include_qutrit = false);

    /** Calibrate the single-qubit pulses of one qubit. */
    QubitCalibration calibrateQubit(std::size_t qubit);

    /** Calibrate the qutrit sideband pulses of one qubit. */
    void calibrateQutrit(std::size_t qubit, QubitCalibration &cal);

    /** Calibrate the echoed CR of one directed edge. */
    CrCalibration calibrateCr(std::size_t control, std::size_t target,
                              const QubitCalibration &control_cal);

    /** Single-transmon model for a qubit (3 levels). */
    TransmonModel qubitModel(std::size_t qubit) const;

    /**
     * Two-transmon model for an edge; transmon 0 is the control. The
     * returned simulator has control channel u0 mapped to drive the
     * control transmon at the target's frequency.
     */
    PulseSimulator pairSimulator(std::size_t control,
                                 std::size_t target) const;

  private:
    /** The experiments behind calibrateQubit, without the memo. */
    QubitCalibration sweepQubit(std::size_t qubit) const;

    /** The experiments behind calibrateCr, without the memo. */
    CrCalibration sweepCr(std::size_t control, std::size_t target,
                          const QubitCalibration &control_cal) const;

    BackendConfig config_;
    /** Memoised per-qubit results (identical params -> same pulses). */
    std::map<std::string, QubitCalibration> qubitCache_;
    std::map<std::string, CrCalibration> crCache_;
};

} // namespace qpulse

#endif // QPULSE_DEVICE_CALIBRATION_H
