"""Fiber link, single-photon detectors and phase-noise physics.

The interference node sits between the two users; each arm has its own
measured loss.  Phase evolution is modeled as a velocity-correlated
random walk so that short-horizon drift-rate statistics and longer-term
wander are both reproduced by one parameter set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Speed of light (m/s), used for wavelength <-> frequency conversion.
_C = 299_792_458.0

#: Drift rates are phase changes over non-overlapping windows of this
#: length, both where the free drift is calibrated and where it is measured.
RATE_WINDOW_S = 1e-3


@dataclass(frozen=True)
class LinkConfig:
    """Two fiber arms meeting at the measurement node.

    If a measured loss (dB) is given for an arm it overrides the
    length * attenuation product.  ``extra_loss_a_db``/``extra_loss_b_db``
    model per-arm insertion loss of the measurement node, before the
    detectors.
    """

    length_a_km: float
    length_b_km: float
    attenuation_db_per_km: float = 0.183
    measured_loss_a_db: float | None = None
    measured_loss_b_db: float | None = None
    extra_loss_a_db: float = 0.0
    extra_loss_b_db: float = 0.0

    def __post_init__(self) -> None:
        if self.length_a_km < 0 or self.length_b_km < 0:
            raise ValueError("arm lengths must be nonnegative")
        if self.attenuation_db_per_km < 0:
            raise ValueError("attenuation must be nonnegative")

    def arm_loss_db(self, arm: str) -> float:
        """Total loss (dB) of one arm, source to interference node."""
        if arm == "a":
            base = self.measured_loss_a_db
            if base is None:
                base = self.length_a_km * self.attenuation_db_per_km
            extra = self.extra_loss_a_db
        elif arm == "b":
            base = self.measured_loss_b_db
            if base is None:
                base = self.length_b_km * self.attenuation_db_per_km
            extra = self.extra_loss_b_db
        else:
            raise ValueError("arm must be 'a' or 'b'")
        return base + extra

    def arm_transmittance(self, arm: str) -> float:
        """Linear transmittance of one arm (detector efficiency excluded)."""
        return 10.0 ** (-self.arm_loss_db(arm) / 10.0)


@dataclass(frozen=True)
class DetectorModel:
    """Two detectors at the interference node outputs."""

    efficiency_d0: float
    efficiency_d1: float
    dark_rate_d0_hz: float
    dark_rate_d1_hz: float
    window_s: float = 2.0e-9

    def __post_init__(self) -> None:
        for name in ("efficiency_d0", "efficiency_d1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.dark_rate_d0_hz < 0 or self.dark_rate_d1_hz < 0:
            raise ValueError("dark rates must be nonnegative")
        if self.window_s <= 0:
            raise ValueError("gate window must be positive")
        if max(self.dark_rate_d0_hz, self.dark_rate_d1_hz) * self.window_s >= 1e-3:
            raise ValueError("dark probability per window must stay below 1e-3")

    @property
    def dark_prob_d0(self) -> float:
        """Dark-click probability per gate window."""
        return 1.0 - math.exp(-self.dark_rate_d0_hz * self.window_s)

    @property
    def dark_prob_d1(self) -> float:
        return 1.0 - math.exp(-self.dark_rate_d1_hz * self.window_s)


@dataclass(frozen=True)
class NoiseModel:
    """Phase/frequency noise of the twin-field link.

    ``free_drift_rate_std`` is the standard deviation of the phase
    drift rate measured over 1 ms intervals with all loops open.
    ``drift_corr_time_s`` sets how long the drift velocity stays
    correlated; together they fix the velocity-process parameters.
    ``residual_phase_std_rad`` is the closed-loop signal-band residual.
    """

    free_drift_rate_std: float = 1.65e4
    drift_corr_time_s: float = 0.03
    laser_drift_hz_per_hour: float = 1777.0
    clock_accuracy: float = 5e-11
    comb_span_hz: float = 1e11
    lambda_q_nm: float = 1550.495
    lambda_c_nm: float = 1549.694
    visibility: float = 0.9795
    residual_phase_std_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.free_drift_rate_std < 0:
            raise ValueError("drift rate std must be nonnegative")
        if self.drift_corr_time_s <= 0:
            raise ValueError("drift correlation time must be positive")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if self.lambda_q_nm <= 0 or self.lambda_c_nm <= 0:
            raise ValueError("wavelengths must be positive")
        if self.lambda_q_nm == self.lambda_c_nm:
            raise ValueError("reference and signal wavelengths must differ")
        if self.residual_phase_std_rad < 0:
            raise ValueError("residual phase std must be nonnegative")

    @property
    def band_ratio(self) -> float:
        """Frequency ratio nu_q / nu_c = lambda_c / lambda_q."""
        return self.lambda_c_nm / self.lambda_q_nm

    def clock_drift_floor(self) -> float:
        """Irreducible phase drift rate (rad/s) from the two clock offsets."""
        return 2.0 * math.pi * math.sqrt(2.0) * self.clock_accuracy * self.comb_span_hz


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
    if a < 1.0:
        cross = 2.0 * a * (m - 1 - m * a + a ** m) / (1.0 - a) ** 2
    else:
        cross = float(m * (m - 1))
    var_shape = (m + cross) * dt * dt / (RATE_WINDOW_S * RATE_WINDOW_S)
    sigma_v = noise.free_drift_rate_std / math.sqrt(var_shape)
    s = sigma_v * math.sqrt(1.0 - a * a)
    return a, s


def free_running_phase(noise: NoiseModel, dt: float, n: int,
                       rng: np.random.Generator
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Open-loop differential phases at t = dt, 2 dt, ..., n dt.

    Returns ``(t, phi_c, phi_q, laser_phase)``.  The fiber drift
    velocity is the AR(1) process of :func:`velocity_step_coeffs`,
    starting at rest and driven by ``n`` standard normals from ``rng``;
    its integral applies to the reference band ``phi_c`` directly and to
    the signal band ``phi_q`` scaled by the frequency ratio.  The laser
    frequency offset ramps from zero at the specified drift rate and
    adds ``laser_phase`` to both bands.  The clock-accuracy floor
    affects only the signal band, whose phase is reconstructed from a
    reference measured against an imperfect timebase.

    The velocity recurrence ``v = s*x + a*v`` is a Python loop, not
    ``scipy.signal.lfilter([s], [1, -a], x)``: it gives the same array
    bit for bit, and loading ``scipy.signal`` costs a cold ``stabilize``
    more than the loop does.
    """
    a, s = velocity_step_coeffs(noise, dt)
    velocity = np.empty(n)
    out = memoryview(velocity)
    v = 0.0
    # lfilter's order of operations, so the result is bit-identical.
    for i, x in enumerate(memoryview(rng.standard_normal(n))):
        v = s * x + a * v
        out[i] = v
    fiber_phase = np.cumsum(velocity) * dt
    t = np.arange(1, n + 1) * dt
    f0 = noise.laser_drift_hz_per_hour / 3600.0
    laser_phase = 2.0 * math.pi * (0.5 * f0 * t * t)
    phi_c = fiber_phase + laser_phase
    phi_q = (noise.band_ratio * fiber_phase + laser_phase
             + noise.clock_drift_floor() * t)
    return t, phi_c, phi_q, laser_phase


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
    detectors with dark probability pd click with 1 - (1-pd) exp(-n).
    """
    ma = np.asarray(mu_a, dtype=float) * link.arm_transmittance("a")
    mb = np.asarray(mu_b, dtype=float) * link.arm_transmittance("b")
    cross = noise.visibility * np.sqrt(ma * mb) * np.cos(delta_phi)
    mean = 0.5 * (ma + mb)
    n0 = det.efficiency_d0 * (mean + cross)
    n1 = det.efficiency_d1 * (mean - cross)
    p0 = 1.0 - (1.0 - det.dark_prob_d0) * np.exp(-n0)
    p1 = 1.0 - (1.0 - det.dark_prob_d1) * np.exp(-n1)
    return p0, p1
