"""Fiber link, single-photon detectors and phase-noise physics.

The interference node sits between the two users; each arm has its own
measured loss.  Phase evolution is modeled as a velocity-correlated
random walk so that short-horizon drift-rate statistics and longer-term
wander are both reproduced by one parameter set.  The settings these
functions read (:class:`LinkConfig`, :class:`DetectorModel` and
:class:`NoiseModel`) are defined in :mod:`tfqkd.presets`, which loads no
numpy.
"""
from __future__ import annotations

import math

import numpy as np

from .presets import DetectorModel, LinkConfig, NoiseModel

#: Drift rates are phase changes over non-overlapping windows of this
#: length, both where the free drift is calibrated and where it is measured.
RATE_WINDOW_S = 1e-3


def velocity_step_coeffs(noise: NoiseModel, dt: float) -> tuple[float, float]:
    """AR(1) update coefficients (a, s) with v' = a v + s * N(0,1).

    The stationary velocity variance is chosen so that the std of the
    average drift rate over ``RATE_WINDOW_S`` equals
    ``free_drift_rate_std``.  For the
    discrete AR(1) velocity, the phase change over m steps has variance
    sigma_v^2 dt^2 [m + 2 a (m - 1 - m a + a^m) / (1 - a)^2], which the
    calibration inverts exactly.
    """
    tau = noise.drift_corr_time_s
    a = math.exp(-dt / tau)
    m = max(1, round(RATE_WINDOW_S / dt))
    cross = 2.0 * a * (m - 1 - m * a + a ** m) / (1.0 - a) ** 2
    var_shape = (m + cross) * dt * dt / (RATE_WINDOW_S * RATE_WINDOW_S)
    sigma_v = noise.free_drift_rate_std / math.sqrt(var_shape)
    s = sigma_v * math.sqrt(1.0 - a * a)
    return a, s


def fiber_phase(noise: NoiseModel, dt: float, n: int,
                rng: np.random.Generator) -> np.ndarray:
    """Open-loop fiber phase at t = dt, 2 dt, ..., n dt.

    The drift velocity is the AR(1) process of
    :func:`velocity_step_coeffs`, starting at rest and driven by ``n``
    standard normals from ``rng``; the phase is its integral.  The
    reference band sees this phase plus the laser ramp of
    :func:`ramp_phases`; the signal band sees :func:`signal_band_phase`.

    The velocity recurrence ``v = s*x + a*v`` is a Python loop, not
    ``scipy.signal.lfilter([s], [1, -a], x)``: it gives the same array
    bit for bit, and loading ``scipy.signal`` costs a cold ``stabilize``
    more than the loop does.  The products ``s*x`` are taken in one
    numpy pass first; each rounds as the scalar product does, so the
    loop is left with ``v = sx + a*v``.
    """
    a, s = velocity_step_coeffs(noise, dt)
    # The driving terms s*x overwrite the normals, the velocity
    # overwrites the driving terms, then the phase overwrites the
    # velocity.  The recurrence keeps lfilter's order of operations, so
    # the result is bit-identical.
    phase = rng.standard_normal(n)
    phase *= s
    buf = memoryview(phase)
    v = 0.0
    for i, sx in enumerate(buf):
        v = sx + a * v
        buf[i] = v
    np.cumsum(phase, out=phase)
    phase *= dt
    return phase


def ramp_phases(noise: NoiseModel, t: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form phases ``(laser, clock)`` at the times ``t`` (s).

    The laser frequency offset ramps from zero at the specified drift
    rate, adding ``2*pi * (f0 / 2) * t**2`` to both bands.  ``clock``,
    ``noise.clock_drift_floor() * t``, is the clock-accuracy floor of
    the signal band, built in the buffer of ``t``.  Each sample depends
    only on its own time, so any subset of times, such as one block or
    every k-th sample, gives the same bits as the whole run.
    """
    f0 = noise.laser_drift_hz_per_hour / 3600.0
    laser = 0.5 * f0 * t
    laser *= t
    laser *= math.tau
    # t * floor is floor * t bit for bit, so t can become the floor.
    clock = t
    clock *= noise.clock_drift_floor()
    return laser, clock


def signal_band_phase(fiber_phase: np.ndarray, laser_phase: np.ndarray,
                      clock_phase: np.ndarray, band_ratio: float
                      ) -> np.ndarray:
    """Signal-band phase, ``((fiber * band_ratio) + laser) + clock``.

    The fiber drift reaches the signal band scaled by the frequency
    ratio of the bands, and the laser ramp adds to both bands.  Only the
    signal band carries the clock-accuracy floor: its phase is
    reconstructed from a reference measured against an imperfect
    timebase.  The arguments may be views, such as every k-th sample.
    """
    phase = fiber_phase * band_ratio
    phase += laser_phase
    phase += clock_phase
    return phase


def click_probability_arrays(mu_a: np.ndarray, mu_b: np.ndarray,
                             delta_phi: np.ndarray, link: LinkConfig,
                             det: DetectorModel, noise: NoiseModel
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Per-window click probabilities ``(p_d0, p_d1)`` of pulse pairs.

    ``mu_a``/``mu_b`` are the users' mean photon numbers at the source
    and ``delta_phi`` their phase difference (broadcast together).  Each
    arm's transmittance scales its pulse; the output-port means follow
    the two-mode beamsplitter expression n = (ma+mb)/2 +- V sqrt(ma mb)
    cos(delta), scaled by the port's detection efficiency.  Threshold
    detectors with dark probability pd click with 1 - (1-pd) exp(-n),
    computed as pd - (1-pd) expm1(-n).  At the links' 85-109 dB, n is
    1e-9 to 1e-6, where 1 - exp(-n) cancels: a one-ulp difference in
    ``exp`` between numpy's CPU dispatch paths would move the result by
    about 6e-9 relative.  ``expm1`` keeps full precision, so numpy's
    AVX-512 and AVX2 paths give the same bits.
    """
    ma = np.asarray(mu_a, dtype=float) * link.arm_transmittance("a")
    mb = np.asarray(mu_b, dtype=float) * link.arm_transmittance("b")
    cross = noise.visibility * np.sqrt(ma * mb) * np.cos(delta_phi)
    mean = 0.5 * (ma + mb)
    pd0, pd1 = det.dark_prob_d0, det.dark_prob_d1
    p0 = pd0 - (1.0 - pd0) * np.expm1(-det.efficiency_d0 * (mean + cross))
    p1 = pd1 - (1.0 - pd1) * np.expm1(-det.efficiency_d1 * (mean - cross))
    return p0, p1
