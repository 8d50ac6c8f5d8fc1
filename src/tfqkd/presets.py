"""Experiment settings types and the built-in presets for the three
field-trial fiber links.

The settings types are frozen dataclasses of plain floats; this module
and everything it imports load no numpy, so commands that only read or
print settings start without it.

``sym546`` and ``sym603`` are symmetric links; ``asym452`` has unequal
arms and per-party source settings.  The field trial's arms are
273.48 + 273.13 km (sym546), 298.71 + 305.16 km (sym603) and
248.24 + 204.22 km (asym452); they enter the key rate only through
their losses.  Each preset's ``attenuation_db_per_km`` is its total
fiber loss over its total arm length.  asym452's arms differ by
44.02 km, but its fiber losses differ by 9.08 dB, which is 48.55 km at
its coefficient: the two arms' losses imply 0.1887 and 0.1849 dB/km.
``loss_a_db``/``loss_b_db`` hold each arm's measured fiber loss;
``extra_loss_{a,b}_db`` absorb the insertion loss of the measurement
node, calibrated so the analytic pipeline reproduces the recorded
detection statistics.  Each link's noise model carries an effective
interference-phase spread, fitted to the measured decoy-basis error
rates.
"""
import math
from dataclasses import dataclass

from .ratecore import (MAX_BALANCE_DEVIATION, PartySettings, SecuritySettings,
                       check_sns_constraint)

#: Servo stages of a stabilization run, as ``stabilize --stages`` takes them.
STAGES = ("none", "fastOnly", "full")


@dataclass(frozen=True)
class LinkConfig:
    """Two fiber arms meeting at the measurement node.

    ``loss_a_db``/``loss_b_db`` are each arm's fiber loss (dB), source
    to measurement node; ``extra_loss_a_db``/``extra_loss_b_db`` model
    per-arm insertion loss of the measurement node, before the
    detectors.  ``attenuation_db_per_km`` is read only by
    :func:`bench.sweep`, which turns each distance into arm losses and
    evaluates the PLOB capacity at the fiber loss.
    """

    loss_a_db: float
    loss_b_db: float
    attenuation_db_per_km: float = 0.183
    extra_loss_a_db: float = 0.0
    extra_loss_b_db: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_a_db", "loss_b_db", "attenuation_db_per_km",
                     "extra_loss_a_db", "extra_loss_b_db"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    def arm_loss_db(self, arm: str) -> float:
        """Total loss (dB) of one arm, source to detectors."""
        if arm == "a":
            return self.loss_a_db + self.extra_loss_a_db
        if arm == "b":
            return self.loss_b_db + self.extra_loss_b_db
        raise ValueError("arm must be 'a' or 'b'")

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
    ``residual_phase_std_rad`` is an effective phase spread fitted to the
    decoy-basis error rates; ``stabilize`` neither reads nor computes it.
    The wavelengths fix the band gap of :meth:`clock_drift_floor`, so a
    ``comb_span_hz`` INI key is unknown (exit 2).
    """

    free_drift_rate_std: float = 1.65e4
    drift_corr_time_s: float = 0.03
    laser_drift_hz_per_hour: float = 1777.0
    clock_accuracy: float = 5e-11
    lambda_q_nm: float = 1550.495
    lambda_c_nm: float = 1549.694
    visibility: float = 0.9795
    residual_phase_std_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.free_drift_rate_std < 0:
            raise ValueError("drift rate std must be nonnegative")
        if self.drift_corr_time_s <= 0:
            raise ValueError("drift correlation time must be positive")
        if self.clock_accuracy < 0:
            raise ValueError("clock accuracy must be nonnegative")
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
        """Irreducible phase drift rate (rad/s) from the two clock offsets:
        the clock accuracy times the band gap c/lambda_c - c/lambda_q."""
        span_hz = 299_792_458.0e9 * abs(1.0 / self.lambda_c_nm - 1.0 / self.lambda_q_nm)
        return math.tau * math.sqrt(2.0) * self.clock_accuracy * span_hz


@dataclass(frozen=True)
class RunSettings:
    """Monte Carlo session size and seed."""

    n_windows: float = 1e8
    seed: int = 0

    def __post_init__(self) -> None:
        # A float so that 2.772e13-style counts parse; it must still be a
        # whole number of windows below numpy's multinomial limit of 2**63.
        n = self.n_windows
        if not (math.isfinite(n) and float(n).is_integer() and 0 < n < 2**63):
            raise ValueError(f"n_windows must be a whole number in "
                             f"[1, 2**63), got {n!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one link + protocol + session."""

    link: LinkConfig
    detectors: DetectorModel
    party_a: PartySettings
    party_b: PartySettings
    noise: NoiseModel
    security: SecuritySettings = SecuritySettings()
    run: RunSettings = RunSettings()

    def __post_init__(self) -> None:
        dev = check_sns_constraint(self.party_a, self.party_b)
        if dev > MAX_BALANCE_DEVIATION:
            raise ValueError(
                f"party_a/party_b: intensity-balance deviation {dev:.4f} "
                f"exceeds {MAX_BALANCE_DEVIATION}")


def _noise(free_drift_khz: float, residual_std_rad: float) -> NoiseModel:
    return NoiseModel(free_drift_rate_std=math.tau * free_drift_khz * 1e3,
                      residual_phase_std_rad=residual_std_rad)


_SYM546_PARTY = PartySettings(
    mu_z=0.493, mu2=0.493, mu1=0.090, mu0=0.0002,
    p_signal_window=0.735, epsilon_send=0.269,
    p_mu0=0.078, p_mu1=0.606,
)

_SYM603_PARTY = PartySettings(
    mu_z=0.423, mu2=0.252, mu1=0.056, mu0=0.0002,
    p_signal_window=0.735, epsilon_send=0.269,
    p_mu0=0.078, p_mu1=0.606,
)

_ASYM452_A = PartySettings(
    mu_z=0.493, mu2=0.493, mu1=0.113, mu0=0.0002,
    p_signal_window=0.735, epsilon_send=0.405,
    p_mu0=0.078, p_mu1=0.606,
)

_ASYM452_B = PartySettings(
    mu_z=0.247, mu2=0.077, mu1=0.018, mu0=0.0002,
    p_signal_window=0.735, epsilon_send=0.141,
    p_mu0=0.078, p_mu1=0.606,
)

# Calibrated per link against the recorded detection statistics:
# per-arm measurement-node insertion loss, the effective dark-count
# gate, and the effective interference-phase spread (least-squares
# fit of the analytic expected counts to the measured per-category
# yields and decoy-basis error rates).
_EXTRA_LOSS_DB = {"sym546": (2.867, 4.030), "sym603": (2.154, 2.705),
                  "asym452": (4.629, 3.933)}
_DARK_WINDOW_S = {"sym546": 5.023e-10, "sym603": 7.570e-10,
                  "asym452": 3.162e-11}
_RESIDUAL_STD = {"sym546": 0.5676, "sym603": 0.5221, "asym452": 0.4595}

PRESETS: dict[str, ExperimentConfig] = {
    "sym546": ExperimentConfig(
        link=LinkConfig(loss_a_db=50.50, loss_b_db=49.63,
                        attenuation_db_per_km=0.18318,
                        extra_loss_a_db=_EXTRA_LOSS_DB["sym546"][0],
                        extra_loss_b_db=_EXTRA_LOSS_DB["sym546"][1]),
        detectors=DetectorModel(efficiency_d0=0.83, efficiency_d1=0.49,
                                dark_rate_d0_hz=7.80, dark_rate_d1_hz=1.77,
                                window_s=_DARK_WINDOW_S["sym546"]),
        party_a=_SYM546_PARTY, party_b=_SYM546_PARTY,
        noise=_noise(2.63, _RESIDUAL_STD["sym546"]),
        run=RunSettings(n_windows=2.772e13),
    ),
    "sym603": ExperimentConfig(
        link=LinkConfig(loss_a_db=54.74, loss_b_db=53.85,
                        attenuation_db_per_km=0.17982,
                        extra_loss_a_db=_EXTRA_LOSS_DB["sym603"][0],
                        extra_loss_b_db=_EXTRA_LOSS_DB["sym603"][1]),
        detectors=DetectorModel(efficiency_d0=0.70, efficiency_d1=0.47,
                                dark_rate_d0_hz=4.15, dark_rate_d1_hz=1.18,
                                window_s=_DARK_WINDOW_S["sym603"]),
        party_a=_SYM603_PARTY, party_b=_SYM603_PARTY,
        noise=_noise(2.11, _RESIDUAL_STD["sym603"]),
        run=RunSettings(n_windows=4.05e12),
    ),
    "asym452": ExperimentConfig(
        link=LinkConfig(loss_a_db=46.85, loss_b_db=37.77,
                        attenuation_db_per_km=0.18702,
                        extra_loss_a_db=_EXTRA_LOSS_DB["asym452"][0],
                        extra_loss_b_db=_EXTRA_LOSS_DB["asym452"][1]),
        detectors=DetectorModel(efficiency_d0=0.83, efficiency_d1=0.49,
                                dark_rate_d0_hz=7.80, dark_rate_d1_hz=1.77,
                                window_s=_DARK_WINDOW_S["asym452"]),
        party_a=_ASYM452_A, party_b=_ASYM452_B,
        noise=_noise(2.14, _RESIDUAL_STD["asym452"]),
        run=RunSettings(n_windows=4.28e12),
    ),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def get_preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; choose from {preset_names()}")
