"""Built-in experiment presets for the three field-trial fiber links.

``sym546`` and ``sym603`` are symmetric links; ``asym452`` has unequal
arms and per-party source settings.  Link losses are the measured
values; ``extra_loss_db`` absorbs the insertion loss of the measurement
node, calibrated so the analytic pipeline reproduces the recorded
detection statistics.  Each link's noise model carries its closed-loop
signal-band phase residual, calibrated against the measured decoy-basis
error rates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .optics import DetectorModel, LinkConfig, NoiseModel
from .ratecore import PartySettings, SecuritySettings, check_sns_constraint

TWO_PI = 2.0 * math.pi


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
        if not self.security.allow_unbalanced:
            dev = check_sns_constraint(self.party_a, self.party_b)
            if dev > 0.05:
                raise ValueError(
                    f"party_a/party_b: intensity-balance deviation {dev:.4f} "
                    "exceeds 0.05 (set security.allow_unbalanced to override)")


def _noise(free_drift_khz: float, residual_std_rad: float) -> NoiseModel:
    return NoiseModel(free_drift_rate_std=TWO_PI * free_drift_khz * 1e3,
                      residual_phase_std_rad=residual_std_rad)


_SYM546_PARTY = PartySettings(
    mu_z=0.493, mu2=0.493, mu1=0.090, mu0=0.0002,
    p_signal_window=0.735, epsilon_send=0.269,
    p_mu0=0.078, p_mu1=0.606, p_mu2=0.316,
)

_SYM603_PARTY = PartySettings(
    mu_z=0.423, mu2=0.252, mu1=0.056, mu0=0.0002,
    p_signal_window=0.735, epsilon_send=0.269,
    p_mu0=0.078, p_mu1=0.606, p_mu2=0.316,
)

_ASYM452_A = PartySettings(
    mu_z=0.493, mu2=0.493, mu1=0.113, mu0=0.0002,
    p_signal_window=0.735, epsilon_send=0.405,
    p_mu0=0.078, p_mu1=0.606, p_mu2=0.316,
)

_ASYM452_B = PartySettings(
    mu_z=0.247, mu2=0.077, mu1=0.018, mu0=0.0002,
    p_signal_window=0.735, epsilon_send=0.141,
    p_mu0=0.078, p_mu1=0.606, p_mu2=0.316,
)

# Calibrated per link against the recorded detection statistics:
# per-arm measurement-node insertion loss, the effective dark-count
# gate, and the closed-loop signal-band phase residual (least-squares
# fit of the analytic expected counts to the measured per-category
# yields and decoy-basis error rates).
_EXTRA_LOSS_DB = {"sym546": (2.867, 4.030), "sym603": (2.154, 2.705),
                  "asym452": (4.629, 3.933)}
_DARK_WINDOW_S = {"sym546": 5.023e-10, "sym603": 7.570e-10,
                  "asym452": 3.162e-11}
_RESIDUAL_STD = {"sym546": 0.5676, "sym603": 0.5221, "asym452": 0.4595}

PRESETS: dict[str, ExperimentConfig] = {
    "sym546": ExperimentConfig(
        link=LinkConfig(length_a_km=273.48, length_b_km=273.13,
                        attenuation_db_per_km=0.18318,
                        measured_loss_a_db=50.50, measured_loss_b_db=49.63,
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
        link=LinkConfig(length_a_km=298.71, length_b_km=305.16,
                        attenuation_db_per_km=0.17982,
                        measured_loss_a_db=54.74, measured_loss_b_db=53.85,
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
        link=LinkConfig(length_a_km=248.24, length_b_km=204.22,
                        attenuation_db_per_km=0.18702,
                        measured_loss_a_db=46.85, measured_loss_b_db=37.77,
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
