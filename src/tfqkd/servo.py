"""Feedback loops holding the twin-field interferometer.

A fast loop (100 kHz) locks the reference-band interference at
mid-fringe through a phase modulator; the residual signal-band drift,
already suppressed by the band ratio, is removed by a slow loop (1 kHz)
driving a fiber stretcher.

The loop design is fixed by module constants:

- ``FAST_STEP_S``: the fast-loop step, 10 us, in s;
- ``FAST_SETPOINT_COUNTS``: the mid-fringe mean reference-detector
  counts per fast step (half the fringe maximum), a 6 MHz rate, about
  60 counts;
- ``SLOW_SETPOINT_COUNTS``: the mid-fringe mean reference-slot counts
  per slow step, a 100 kHz rate over 1 ms, 100 counts;
- ``FAST_GAINS`` and ``SLOW_GAINS``: the (kp, ki) PI gains, in rad of
  correction per rad of phase error, (0.8, 0.05) and (0.8, 0.3);
- ``PM_RANGE_RAD``: the phase modulator's output wraps modulo 2*pi rad;
- ``FS_RANGE_RAD``: the fiber stretcher is rewound toward center by
  whole fringes once it passes +-60 rad;
- ``SLOW_LOOP_STEPS`` and ``BLANK_STEPS``: the fast steps per slow-loop
  step (1 kHz) and the fast steps blanked after a rewind (1 ms), 100
  each.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import RATE_WINDOW_S, free_running_phase, signal_band_phase
from .presets import STAGES, NoiseModel

TWO_PI = 2.0 * math.pi

# 10.0 * 1e-6 is 9.999999999999999e-06, one ulp below 1e-5; the fast set
# point and every seeded series depend on that float.
FAST_STEP_S = 10.0 * 1e-6
FAST_SETPOINT_COUNTS = 6e6 * FAST_STEP_S
SLOW_SETPOINT_COUNTS = 100.0
FAST_GAINS = (0.8, 0.05)
SLOW_GAINS = (0.8, 0.3)
PM_RANGE_RAD = TWO_PI
FS_RANGE_RAD = 60.0
SLOW_LOOP_STEPS = 100
BLANK_STEPS = 100
# Fast steps per drift-rate window.
_RATE_STEPS = round(RATE_WINDOW_S / FAST_STEP_S)
# Samples per block of the passes over a run's arrays that need a
# temporary, so the temporary stays small.
_BLOCK = 16_384


@dataclass
class PIDState:
    """Mutable controller state: actuator value plus PI memory.

    ``output`` is the physical actuator value after range handling.  The
    fast loop also keeps ``unwrapped``, its correction accumulated
    without the modulator's wrapping (the quantity used for frequency
    readout), and wraps it into ``output``.  The slow loop applies its
    update to ``output`` and rewinds it there, so its ``unwrapped``
    stays zero.
    """

    output: float = 0.0
    unwrapped: float = 0.0
    integral: float = 0.0


def _fringe_error(counts: float, setpoint: float) -> float:
    """Invert the mid-fringe count model to a phase-error estimate."""
    return math.asin(max(-1.0, min(1.0, counts / setpoint - 1.0)))


#: ``_fringe_error(c, FAST_SETPOINT_COUNTS)`` of the counts c = 0..120;
#: 120 is the first count where the inversion clips at pi/2.
_ERROR_TABLE = tuple(_fringe_error(c, FAST_SETPOINT_COUNTS)
                     for c in range(math.ceil(2.0 * FAST_SETPOINT_COUNTS) + 1))


def fast_loop_span(start: int, stop: int, phi_c: np.ndarray,
                   pm: np.ndarray, dc_counts: np.ndarray, visibility: float,
                   state: PIDState, draw) -> None:
    """Run the fast loop over steps ``[start, stop)``.

    Step ``i`` draws the reference-detector bin count as
    ``draw(mean)``, with the mean on the fringe at ``phi_c[i]`` plus the
    current modulator value, and writes it to ``dc_counts[i]``.  The
    count is inverted to a phase error against the mid-fringe set point
    and fed to the PI controller.  The unwrapped correction goes to
    ``pm[i]`` and keeps accumulating for frequency readout; the physical
    output wraps modulo the actuator range.  ``state`` holds the
    controller between spans.  ``run_stabilization`` passes
    ``rng.poisson`` as ``draw``.

    The loop body runs 1e5 times per simulated second, so the PI update
    is written inline and the float64 arrays are read and written
    through memoryviews.  The fringe inversion of a count is looked up
    in ``_ERROR_TABLE``; a count past the table's end, or one that is
    not an integer (a ``draw`` other than Poisson), falls back to
    :func:`_fringe_error`.  Counts must be nonnegative.
    """
    phi_mv = memoryview(phi_c)
    pm_mv, dc_mv = memoryview(pm), memoryview(dc_counts)
    setpoint = FAST_SETPOINT_COUNTS
    kp, ki = FAST_GAINS
    pm_range = PM_RANGE_RAD
    sin, remainder = math.sin, math.remainder
    errs = _ERROR_TABLE
    output, unwrapped, integral = state.output, state.unwrapped, state.integral
    for i in range(start, stop):
        counts = draw(setpoint * (1.0 + visibility * sin(phi_mv[i] + output)))
        dc_mv[i] = counts
        try:
            err = errs[counts]
        except (IndexError, TypeError):
            err = _fringe_error(counts, setpoint)
        integral += err
        unwrapped -= kp * err + ki * integral
        output = remainder(unwrapped, pm_range)
        pm_mv[i] = unwrapped
    state.output, state.unwrapped, state.integral = output, unwrapped, integral


def slow_loop_step(counts: float, state: PIDState) -> bool:
    """One slow-loop iteration on a reference-slot bin count.

    Inverts ``counts`` to a mid-fringe phase error and applies the PI
    update of :func:`fast_loop_span` to the fiber stretcher,
    ``state.output``.  When the stretcher leaves its range it is rewound
    toward center by a whole number of fringes (phase-invariant).
    Returns whether it was, so the caller can blank the affected
    interval.
    """
    err = _fringe_error(counts, SLOW_SETPOINT_COUNTS)
    kp, ki = SLOW_GAINS
    state.integral += err
    state.output -= kp * err + ki * state.integral
    rewound = abs(state.output) > FS_RANGE_RAD
    if rewound:
        state.output -= TWO_PI * round(state.output / TWO_PI)
    return rewound


def frequency_readout(pm_history_rad: np.ndarray, dt_s: float) -> float:
    """Frequency offset (Hz) from the phase-modulator correction ramp.

    Least-squares slope of the unwrapped correction history, sampled
    every ``dt_s``, divided by 2*pi.  For m samples y_i at t_i = i dt_s
    the slope has the closed form sum((i - c) y_i) * 12 / (dt_s m (m^2 - 1)),
    with c = (m - 1) / 2: the first-degree ``np.polyfit`` without its
    Vandermonde matrix.  The weights i - c are exact and sum to zero, so
    a constant offset of the history cancels.
    """
    pm = np.asarray(pm_history_rad, dtype=float)
    if pm.size < 2:
        raise ValueError("need at least two correction samples")
    if dt_s <= 0:
        raise ValueError("sample step must be positive")
    m = pm.size
    weights = np.arange(m, dtype=float)
    weights -= 0.5 * (m - 1)
    slope = np.dot(weights, pm) * 12.0 / (dt_s * m * (m * m - 1))
    return slope / TWO_PI


@dataclass(frozen=True)
class StabilizationSummary:
    """Headline statistics of one stabilization run.

    Drift-rate statistics are RMS values of the phase change per
    non-overlapping 1 ms window divided by the window length; the
    reduction factor compares the free-running and fast-locked
    signal-band drift rates.
    """

    free_drift_std_rad_per_s: float
    fast_locked_drift_std_rad_per_s: float
    residual_phase_std_c_rad: float
    residual_phase_std_q_rad: float
    reduction_factor: float
    freq_readout_hz: float


def drift_rate_rms(phase_rad: np.ndarray, window_s: float) -> float:
    """RMS drift rate of a phase sampled once per ``window_s`` window."""
    phase = np.asarray(phase_rad, dtype=float)
    if phase.size < 2:
        raise ValueError("need at least two phase samples")
    rates = np.diff(phase) / window_s
    return float(np.sqrt(np.mean(rates * rates)))


def _wrap_fringe(phase_rad: np.ndarray) -> np.ndarray:
    """Elementwise ``math.remainder(phase, TWO_PI)``, bit for bit.

    Interference only sees the phase modulo one fringe.  ``fmod`` is
    exact, and moving a remainder beyond half a fringe by one fringe is
    exact by Sterbenz's lemma.  At exactly half a fringe the tie goes to
    the even quotient, as in ``math.remainder``; the quotient's parity
    comes from ``fmod`` by two fringes, taken only at the ties.  The
    shifts are made in place in the ``fmod`` result, so no other float
    array of the input's length is allocated.
    """
    r = np.fmod(phase_rad, TWO_PI)
    ties = np.flatnonzero((r == math.pi) | (r == -math.pi))
    odd = ties[np.abs(np.fmod(phase_rad[ties], 2.0 * TWO_PI)) >= TWO_PI]
    np.subtract(r, TWO_PI, out=r, where=r > math.pi)
    np.add(r, TWO_PI, out=r, where=r < -math.pi)
    r[odd] -= np.copysign(TWO_PI, r[odd])
    return r


def _std_in_place(x: np.ndarray) -> float:
    """``np.std(x)`` bit for bit, computed in ``x``'s buffer.

    These are the steps of numpy's own ``_var``: the mean is a keepdims
    sum divided by the count, and the deviations are squared, summed and
    divided by the count before the square root.  ``np.std`` would
    allocate the deviations ``x - mean``; here they overwrite ``x``.
    """
    count = x.size
    mean = np.add.reduce(x, keepdims=True)
    np.true_divide(mean, count, out=mean)
    np.subtract(x, mean, out=x)
    np.square(x, out=x)
    return float(np.sqrt(np.add.reduce(x) / count))


def _wrapped_std(phase_rad: np.ndarray, valid: np.ndarray,
                 offset_rad: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> float:
    """``np.std`` of the fringe-wrapped ``(phase_rad + offset_rad)[valid]``.

    The wrapped samples are gathered into the head of ``out``, a new
    array by default, and their std is taken there in place.  The sum,
    gather and wrap run a block of ``_BLOCK`` samples at a time, so no
    other full-length temporary is built.  ``out`` may be ``phase_rad``
    itself: a block's samples land at or before the block's start, after
    the block has been read.
    """
    if out is None:
        out = np.empty(np.count_nonzero(valid))
    j = 0
    for b in range(0, phase_rad.size, _BLOCK):
        keep = valid[b:b + _BLOCK]
        x = phase_rad[b:b + _BLOCK][keep]
        if offset_rad is not None:
            x += offset_rad[b:b + _BLOCK][keep]
        out[j:j + x.size] = _wrap_fringe(x)
        j += x.size
    return _std_in_place(out[:j])


def clock_limited_drift_rate(noise: NoiseModel) -> float:
    """Predicted signal-band drift rate (rad/s) under the fast lock.

    A perfect reference lock leaves the signal band the clock-accuracy
    floor, a constant rate, plus ``1 - band_ratio`` times the reference
    band's drift, whose 1 ms RMS rate is ``free_drift_rate_std``.  The
    fiber drift has zero mean rate, so the two add in quadrature.  The
    laser ramp's share and the fringe-quantized modulator chatter are
    left out; on sym546 the prediction is 45.24 rad/s (floor 44.43,
    scaled drift 8.52).
    """
    return math.hypot(noise.clock_drift_floor(),
                      (1.0 - noise.band_ratio) * noise.free_drift_rate_std)


def run_stabilization(duration_s: float, noise: NoiseModel,
                      stages: str = "full", seed: int = 0, series: bool = True
                      ) -> tuple[StabilizationSummary,
                                 dict[str, np.ndarray] | None]:
    """Time-stepped simulation of the stabilization chain.

    Returns the summary plus, if ``series`` is true, a time-series dict
    with keys ``t_s``, ``phiC_rad``, ``phiQ_rad``, ``pm_rad``,
    ``fs_rad``, ``dc_counts`` (one sample per fast-loop interval), and
    ``None`` otherwise.  The summary is the same bit for bit either way.

    The fast loop locks the reference band; the signal band then sees
    only the band-ratio-scaled residual: the clock-accuracy floor, the
    scaled laser-frequency term, and the fringe-quantized fiber
    correction (the modulator transfers whole reference fringes to the
    signal band, so shot-noise chatter of the fringe number leaks in at
    2*pi times the band offset fraction per flip).  The slow loop
    removes what is left.  Fiber-stretcher resets blank 1 ms of data.

    Each full-length array is freed or reused once it is dead.  The free
    drift rate reads the signal band only at its 1 ms samples, so the
    whole band is built only for the series and for ``none``'s
    statistics.  Without series the run builds no ``t_s``: the fast loop
    writes its counts to one zero-stride element, and the modulator and
    stretcher histories exist only in the stages that write them.
    """
    if stages not in STAGES:
        raise ValueError(f"stages must be one of {STAGES}")
    dt = FAST_STEP_S
    steps = duration_s / dt
    if not (math.isfinite(steps) and round(steps) >= 10_000):
        raise ValueError("duration must be finite and cover at least 1e4 "
                         f"fast-loop cycles, got {duration_s!r} s")
    n = round(steps)
    rng = np.random.default_rng(seed)
    fiber, laser_phase, clock_phase = free_running_phase(noise, dt, n, rng)
    ratio = noise.band_ratio
    # The drift rates read the signal band only at its 1 ms samples.
    k = _RATE_STEPS
    free_rate = drift_rate_rms(
        signal_band_phase(fiber[::k], laser_phase[::k], clock_phase[::k],
                          ratio), k * dt)
    if series or stages == "none":
        phi_q_free = signal_band_phase(fiber, laser_phase, clock_phase, ratio)
    phi_c = fiber
    phi_c += laser_phase
    delta = 1.0 - ratio
    if stages != "none":
        # The clock floor's buffer becomes the signal-band drift left by a
        # perfect reference lock, and after the loop the signal-band
        # residual.
        laser_phase *= delta
        clock_phase += laser_phase
        resid_q = clock_phase
    del fiber, laser_phase, clock_phase

    # Only the fast loop writes the modulator history and only the slow
    # loop the stretcher's; without series, a stage that writes neither
    # builds neither, and every count lands in one zero-stride element.
    pm = np.zeros(n) if series or stages != "none" else None
    fs = np.zeros(n) if series or stages == "full" else None
    dc_counts = (np.zeros(n) if series else np.lib.stride_tricks.as_strided(
        np.zeros(1), shape=(n,), strides=(0,)))
    valid = np.ones(n, dtype=bool)

    vis = noise.visibility
    draw = rng.poisson
    if stages == "fastOnly":
        fast_loop_span(0, n, phi_c, pm, dc_counts, vis, PIDState(), draw)
    elif stages == "full":
        fast = PIDState()
        slow = PIDState()
        for start in range(0, n, SLOW_LOOP_STEPS):
            stop = min(start + SLOW_LOOP_STEPS, n)
            fast_loop_span(start, stop, phi_c, pm, dc_counts, vis, fast, draw)
            fs[start:stop] = slow.output
            if stop % SLOW_LOOP_STEPS == 0:
                i = stop - 1
                fringe = round(fast.unwrapped / TWO_PI)
                resid = resid_q[i] - delta * TWO_PI * fringe
                counts = draw(SLOW_SETPOINT_COUNTS
                              * (1.0 + vis * math.sin(resid + slow.output)))
                if slow_loop_step(counts, slow):
                    valid[i:i + BLANK_STEPS + 1] = False
                fs[i] = slow.output
    if stages != "none":
        # The modulator transfers whole reference fringes to the signal
        # band.
        for b in range(0, n, _BLOCK):
            transferred = pm[b:b + _BLOCK] / TWO_PI
            np.round(transferred, out=transferred)
            transferred *= delta * TWO_PI
            resid_q[b:b + _BLOCK] -= transferred

    warm = min(n // 5, int(round(0.2 / dt)))
    valid[:warm] = False

    if stages == "none":
        locked_rate = free_rate
        # Without series the signal band's own buffer gathers the samples
        # of both statistics.
        spare = None if series else phi_q_free
        std_q = _wrapped_std(phi_q_free, valid, out=spare)
        std_c = _wrapped_std(phi_c, valid, out=spare)
        freq = -frequency_readout(phi_c, dt)
    else:
        locked_rate = drift_rate_rms(resid_q[warm::k], k * dt)
        # The residual is gathered into its own buffer, which then
        # gathers the reference band's samples and is dropped.
        std_q = _wrapped_std(resid_q, valid, fs, out=resid_q)
        # The unwrapped pm tracks -phi_c when locked.
        std_c = _wrapped_std(phi_c, valid, pm, out=resid_q)
        del resid_q
        freq = -frequency_readout(pm[warm:], dt)

    summary = StabilizationSummary(
        free_drift_std_rad_per_s=free_rate,
        fast_locked_drift_std_rad_per_s=locked_rate,
        residual_phase_std_c_rad=std_c,
        residual_phase_std_q_rad=std_q,
        reduction_factor=free_rate / locked_rate if locked_rate > 0 else math.inf,
        freq_readout_hz=freq,
    )
    if not series:
        return summary, None
    # The same bits as the t free_running_phase built the clock floor from.
    t = np.arange(1, n + 1, dtype=float)
    t *= dt
    return summary, {
        "t_s": t,
        "phiC_rad": phi_c,
        "phiQ_rad": phi_q_free,
        "pm_rad": pm,
        "fs_rad": fs,
        "dc_counts": dc_counts,
    }
