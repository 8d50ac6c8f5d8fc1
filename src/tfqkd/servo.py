"""Feedback loops holding the twin-field interferometer.

A fast loop locks the reference-band interference at mid-fringe
through a phase modulator; the residual signal-band drift, already
suppressed by the band ratio, is removed by a slow loop driving a fiber
stretcher.

The loop design is fixed by module constants:

- ``FAST_STEP_S``: the fast-loop step, in s;
- ``FAST_SETPOINT_COUNTS``: the mid-fringe mean reference-detector
  counts per fast step (half the fringe maximum);
- ``SLOW_SETPOINT_COUNTS``: the mid-fringe mean reference-slot counts
  per slow step;
- ``FAST_GAINS`` and ``SLOW_GAINS``: the (kp, ki) PI gains, in rad of
  correction per rad of phase error;
- ``PM_RANGE_RAD``: the phase modulator's output wraps modulo this range;
- ``FS_RANGE_RAD``: the fiber stretcher is rewound toward center by
  whole fringes once it passes +- this range;
- ``SLOW_LOOP_STEPS`` and ``BLANK_STEPS``: the fast steps per slow-loop
  step and the fast steps blanked after a rewind.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .optics import (RATE_WINDOW_S, fiber_phase, ramp_phases,
                     signal_band_phase)
from .presets import STAGES, NoiseModel

# 10.0 * 1e-6 is 9.999999999999999e-06, one ulp below 1e-5; the fast set
# point and every seeded series depend on that float.
FAST_STEP_S = 10.0 * 1e-6
FAST_SETPOINT_COUNTS = 6e6 * FAST_STEP_S
SLOW_SETPOINT_COUNTS = 100.0
FAST_GAINS = (0.8, 0.05)
SLOW_GAINS = (0.8, 0.3)
PM_RANGE_RAD = math.tau
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
                   pm: np.ndarray, visibility: float, state: PIDState,
                   draw) -> None:
    """Run the fast loop over steps ``[start, stop)``.

    Step ``i`` draws the reference-detector bin count as
    ``draw(mean)``, with the mean on the fringe at ``phi_c[i]`` plus the
    current modulator value.  The count is inverted to a phase error
    against the mid-fringe set point and fed to the PI controller.  The
    unwrapped correction goes to ``pm[i]`` and keeps accumulating for
    frequency readout; the physical output wraps modulo the actuator
    range.  ``state`` holds the controller between spans.
    ``run_stabilization`` passes ``rng.poisson`` as ``draw``, or a
    wrapper of it that records each count when it builds the series.

    The loop body runs 1e5 times per simulated second, so the PI update
    is written inline, and the span of the float64 arrays is read and
    written through memoryview slices.  The fringe inversion of a count
    is looked up in ``_ERROR_TABLE``; a count past the table's end, or
    one that is not an integer (a ``draw`` other than Poisson), falls
    back to :func:`_fringe_error`.  Counts must be nonnegative.
    """
    pm_mv = memoryview(pm)[start:stop]
    setpoint = FAST_SETPOINT_COUNTS
    kp, ki = FAST_GAINS
    pm_range = PM_RANGE_RAD
    sin, remainder = math.sin, math.remainder
    errs = _ERROR_TABLE
    output, unwrapped, integral = state.output, state.unwrapped, state.integral
    for i, phi in enumerate(memoryview(phi_c)[start:stop]):
        counts = draw(setpoint * (1.0 + visibility * sin(phi + output)))
        try:
            err = errs[counts]
        except (IndexError, TypeError):
            err = _fringe_error(counts, setpoint)
        integral += err
        unwrapped -= kp * err + ki * integral
        output = remainder(unwrapped, pm_range)
        pm_mv[i] = unwrapped
    state.output, state.unwrapped, state.integral = output, unwrapped, integral


def _recording_draw(draw, out: np.ndarray):
    """``draw`` that also writes each count it returns to the next
    element of ``out``, in place, so no list of counts is built."""
    out_mv = memoryview(out)
    steps = iter(range(len(out)))

    def recording(mean):
        counts = draw(mean)
        out_mv[next(steps)] = counts
        return counts
    return recording


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
        state.output -= math.tau * round(state.output / math.tau)
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
    return slope / math.tau


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
    """Elementwise ``math.remainder(phase, math.tau)``, bit for bit.

    Interference only sees the phase modulo one fringe.  ``fmod`` is
    exact, and moving a remainder beyond half a fringe by one fringe is
    exact by Sterbenz's lemma.  At exactly half a fringe the tie goes to
    the even quotient, as in ``math.remainder``; the quotient's parity
    comes from ``fmod`` by two fringes, taken only at the ties.  The
    shifts are made in place in the ``fmod`` result, so no other float
    array of the input's length is allocated.
    """
    r = np.fmod(phase_rad, math.tau)
    ties = np.flatnonzero((r == math.pi) | (r == -math.pi))
    odd = ties[np.abs(np.fmod(phase_rad[ties], 2.0 * math.tau)) >= math.tau]
    np.subtract(r, math.tau, out=r, where=r > math.pi)
    np.add(r, math.tau, out=r, where=r < -math.pi)
    r[odd] -= np.copysign(math.tau, r[odd])
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


def _wrapped_std(phase_block, n: int, valid: np.ndarray,
                 out: np.ndarray | None = None) -> float:
    """``np.std`` of the fringe-wrapped phase of the ``valid`` samples.

    ``phase_block(b, e)`` returns the phase of samples ``b`` to ``e - 1``
    of ``n``.  The wrapped samples are gathered into the head of ``out``,
    a new array by default, and their std is taken there in place.  The
    phase, gather and wrap run a block of ``_BLOCK`` samples at a time,
    so no other full-length temporary is built.  ``out`` may be an array
    that ``phase_block`` reads: a block's samples land at or before the
    block's start, after the block has been read.
    """
    if out is None:
        out = np.empty(np.count_nonzero(valid))
    j = 0
    for b in range(0, n, _BLOCK):
        e = min(b + _BLOCK, n)
        x = phase_block(b, e)[valid[b:e]]
        out[j:j + x.size] = _wrap_fringe(x)
        j += x.size
    return _std_in_place(out[:j])


def _sample_times(start: int, stop: int, step: int = 1) -> np.ndarray:
    """Times (s) of samples ``start, start + step, ...`` below ``stop``.

    Sample ``i`` is at ``(i + 1) * FAST_STEP_S``.  The integers are exact
    in float64, so every sample has the same bits whatever the slice.
    """
    t = np.arange(start + 1, stop + 1, step, dtype=float)
    t *= FAST_STEP_S
    return t


def _lock_drift(noise: NoiseModel, start: int, stop: int, step: int = 1
                ) -> np.ndarray:
    """Signal-band drift a perfect reference lock leaves at the samples
    of :func:`_sample_times`: the clock floor plus ``1 - band_ratio``
    times the laser ramp, built in the floor's buffer."""
    laser, drift = ramp_phases(noise, _sample_times(start, stop, step))
    laser *= 1.0 - noise.band_ratio
    drift += laser
    return drift


def _stretcher_levels(levels: np.ndarray, start: int, stop: int
                      ) -> np.ndarray:
    """Fiber-stretcher output at samples ``start`` to ``stop - 1``.

    ``levels[j]`` is the output after the j-th slow step (``levels[0]``
    the initial zero), and the j-th step runs at the end of sample
    ``j * SLOW_LOOP_STEPS - 1``, so sample ``i`` sees
    ``levels[(i + 1) // SLOW_LOOP_STEPS]``.
    """
    lo = (start + 1) // SLOW_LOOP_STEPS
    run = np.repeat(levels[lo:stop // SLOW_LOOP_STEPS + 1], SLOW_LOOP_STEPS)
    head = lo * SLOW_LOOP_STEPS - 1
    return run[start - head:stop - head]


def fast_steps(duration_s: float) -> int:
    """Fast-loop cycles in ``duration_s``; ValueError unless at least 1e4."""
    steps = duration_s / FAST_STEP_S
    if not (math.isfinite(steps) and round(steps) >= 10_000):
        raise ValueError("duration must be finite and cover at least 1e4 "
                         f"fast-loop cycles, got {duration_s!r} s")
    return round(steps)


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

    All three stages take one path.  ``fastOnly`` runs ``full``'s lock
    loop as one span with no slow step; ``none`` runs no loop, so its
    modulator history stays zero.  Every stage reads the frequency as
    the reference band's slope: ``none`` from the band itself, the
    locked stages from the negated modulator history after the warm-up.

    Without series, only two float arrays of the run's length exist:
    the reference band and, in the locked stages, the modulator history
    (in ``none``, the free signal band, which its statistic reads).
    The laser ramp and the clock floor have closed forms, so they are
    built a block at a time, or at the strided samples the drift rates
    and the slow loop read.  The stretcher keeps one level per slow
    step.  ``none``'s zero modulator history is a zero-stride view, and
    no ``dc_counts`` or ``t_s`` is built.  With series, the fast loop
    draws through a wrapper of ``rng.poisson`` that writes each count to
    ``dc_counts``; the slow loop calls ``rng.poisson`` itself, so the
    draws come in the same order either way.
    """
    if stages not in STAGES:
        raise ValueError(f"stages must be one of {STAGES}")
    dt = FAST_STEP_S
    n = fast_steps(duration_s)
    rng = np.random.default_rng(seed)
    # The fiber phase, which becomes the reference band below.
    phi_c = fiber_phase(noise, dt, n, rng)
    ratio = noise.band_ratio
    delta = 1.0 - ratio
    # The drift rates read the signal band only at its 1 ms samples.
    k = _RATE_STEPS
    laser, clock = ramp_phases(noise, _sample_times(0, n, k))
    free_rate = drift_rate_rms(
        signal_band_phase(phi_c[::k], laser, clock, ratio), k * dt)
    # One pass adds the laser ramp to the fiber phase, after building the
    # free signal band from both where it is read.
    phi_q = np.empty(n) if series or stages == "none" else None
    for b in range(0, n, _BLOCK):
        e = min(b + _BLOCK, n)
        laser, clock = ramp_phases(noise, _sample_times(b, e))
        if phi_q is not None:
            phi_q[b:e] = signal_band_phase(phi_c[b:e], laser, clock, ratio)
        phi_c[b:e] += laser
    del laser, clock

    # Only the fast loop writes the modulator history and the counts.
    poisson = rng.poisson
    if series:
        dc_counts = np.zeros(n)
        draw = _recording_draw(poisson, dc_counts)
    else:
        dc_counts, draw = None, poisson
    pm = (np.zeros(n) if series or stages != "none"
          else np.broadcast_to(0.0, (n,)))
    valid = np.ones(n, dtype=bool)
    # The series in column order; ``t_s`` and ``fs_rad`` are built last.
    traces = dict(t_s=None, phiC_rad=phi_c, phiQ_rad=phi_q, pm_rad=pm,
                  fs_rad=None, dc_counts=dc_counts) if series else None

    vis = noise.visibility
    # The stretcher output after each slow step, from its initial zero.
    levels = np.zeros(n // SLOW_LOOP_STEPS + 1)
    if stages != "none":
        fast, slow = PIDState(), PIDState()
        span = SLOW_LOOP_STEPS if stages == "full" else n
        if stages == "full":
            # The drift the slow loop reads, at the end of each 1 ms span.
            drift = _lock_drift(noise, SLOW_LOOP_STEPS - 1, n, SLOW_LOOP_STEPS)
        for start in range(0, n, span):
            stop = min(start + span, n)
            fast_loop_span(start, stop, phi_c, pm, vis, fast, draw)
            if stages == "full" and stop % SLOW_LOOP_STEPS == 0:
                fringe = round(fast.unwrapped / math.tau)
                resid = (drift[start // SLOW_LOOP_STEPS]
                         - delta * math.tau * fringe)
                counts = poisson(SLOW_SETPOINT_COUNTS
                                 * (1.0 + vis * math.sin(resid + slow.output)))
                if slow_loop_step(counts, slow):
                    valid[stop - 1:stop + BLANK_STEPS] = False
                levels[stop // SLOW_LOOP_STEPS] = slow.output

    warm = min(n // 5, int(round(0.2 / dt)))
    valid[:warm] = False

    def residual(b, e, step=1):
        """Signal-band residual before the stretcher: the drift left by
        the lock minus the whole reference fringes the modulator
        transfers to the signal band."""
        resid = _lock_drift(noise, b, e, step)
        fringes = pm[b:e:step] / math.tau
        np.round(fringes, out=fringes)
        fringes *= delta * math.tau
        resid -= fringes
        return resid

    def phase_c(b, e):
        # The unwrapped pm tracks -phi_c when locked, and is zero in none.
        return phi_c[b:e] + pm[b:e]

    def phase_q(b, e):
        resid = residual(b, e)
        resid += _stretcher_levels(levels, b, e)
        return resid

    # Without series, the band that only the first statistic reads
    # gathers both, and is dropped before the readout.
    if stages == "none":
        locked_rate = free_rate
        out = None if series else phi_q
        std_q = _wrapped_std(lambda b, e: phi_q[b:e], n, valid, out)
        std_c = _wrapped_std(phase_c, n, valid, out)
        del out, phi_q, valid
        freq = frequency_readout(phi_c, dt)
    else:
        locked_rate = drift_rate_rms(residual(warm, n, k), k * dt)
        out = None if series else phi_c
        std_c = _wrapped_std(phase_c, n, valid, out)
        std_q = _wrapped_std(phase_q, n, valid, out)
        del out, phi_c, valid
        freq = -frequency_readout(pm[warm:], dt)

    summary = StabilizationSummary(
        free_drift_std_rad_per_s=free_rate,
        fast_locked_drift_std_rad_per_s=locked_rate,
        residual_phase_std_c_rad=std_c,
        residual_phase_std_q_rad=std_q,
        reduction_factor=free_rate / locked_rate if locked_rate > 0 else math.inf,
        freq_readout_hz=freq,
    )
    if series:
        traces.update(t_s=_sample_times(0, n),
                      fs_rad=_stretcher_levels(levels, 0, n))
    return summary, traces
