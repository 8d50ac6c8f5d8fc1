"""Analytic key-rate pipeline, distance sweeps, parameter optimization,
and the built-in identity verification suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .counts import CountsTable
from .engine import click_outcomes, expected_counts
from .postproc import ProcessedRun, aopp_phase_error, process
from .presets import ExperimentConfig, NoiseModel, get_preset
from .ratecore import (MAX_BALANCE_DEVIATION, PartySettings,
                       check_sns_constraint, key_rate, phase_misalignment_qber,
                       plob_bound, rate_per_second, sns_balance_rhs)

SWEEP_COLUMNS = ("distance_km", "total_loss_db", "skr_bit_per_signal",
                 "skr_bit_per_s", "skc0_bit_per_signal", "ratio")


def engine_settings(cfg: ExperimentConfig) -> ExperimentConfig:
    # The engine takes the config itself; this identity remains only
    # because perfbench/workloads.py still calls it.
    return cfg


def keyrate_from_counts(cfg: ExperimentConfig, table: CountsTable
                        ) -> tuple[float, ProcessedRun]:
    """Key rate (bit/signal) and post-processing output of a counts table."""
    run = process(table, cfg.party_a, cfg.party_b, cfg.security)
    return key_rate(run.inputs, cfg.security), run


def analytic_keyrate(cfg: ExperimentConfig, outcomes=None
                     ) -> tuple[float, ProcessedRun]:
    """Key rate (bit/signal) from the expected-counts pipeline.

    ``outcomes`` is :func:`engine.click_outcomes` of ``cfg`` when the
    caller already has it.
    """
    return keyrate_from_counts(
        cfg, expected_counts(cfg, cfg.run.n_windows, outcomes))


def sweep(cfg: ExperimentConfig, distances_km: list[float]
          ) -> list[dict[str, float]]:
    """Key rate across total link distances, split evenly per arm.

    Each distance uses the template's attenuation coefficient (measured
    per-arm loss overrides are dropped); the PLOB capacity is evaluated
    at the fiber-only loss.  Returns one row per distance with the
    :data:`SWEEP_COLUMNS` fields; a zero key rate has ratio 0.
    """
    if any(b < a for a, b in zip(distances_km, distances_km[1:])):
        raise ValueError("distance list must be nondecreasing")
    rows = []
    for d in distances_km:
        link = replace(cfg.link, length_a_km=d / 2.0, length_b_km=d / 2.0,
                       measured_loss_a_db=None, measured_loss_b_db=None)
        cfg_d = replace(cfg, link=link)
        skr, _ = analytic_keyrate(cfg_d)
        fiber_loss = d * cfg.link.attenuation_db_per_km
        skc0 = plob_bound(fiber_loss)
        rows.append({
            "distance_km": d,
            "total_loss_db": fiber_loss,
            "skr_bit_per_signal": skr,
            "skr_bit_per_s": rate_per_second(skr),
            "skc0_bit_per_signal": skc0,
            "ratio": 0.0 if skr == 0 else skr / skc0 if skc0 else math.inf,
        })
    return rows


def format_sweep(rows: list[dict[str, float]]) -> str:
    lines = ["\t".join(SWEEP_COLUMNS)]
    for r in rows:
        lines.append("\t".join(f"{r[c]:.6e}" for c in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parameter optimization

_BOUNDS = {
    "mu_z": (0.01, 1.0), "mu2": (0.01, 1.0), "mu1": (0.001, 1.0),
    "epsilon_send": (0.01, 0.99), "p_signal_window": (0.05, 0.95),
    "p_mu1": (0.05, 0.9),
}

#: Party-A fields the optimizer may vary, in search order (party B's
#: weak decoy is derived from the intensity-balance condition, and
#: symmetric templates mirror every change onto party B).
FREE_PARAMETERS = tuple(_BOUNDS)


#: Click-outcome tensors (8 KB each) one search keeps, oldest dropped first.
_OUTCOMES_KEPT = 4


@dataclass(frozen=True)
class OptimizeResult:
    config: ExperimentConfig
    skr: float
    evaluations: int
    budget_exhausted: bool


def _apply(cfg: ExperimentConfig, name: str, value: float,
           symmetric: bool) -> ExperimentConfig | None:
    lo, hi = _BOUNDS[name]
    if not lo <= value <= hi:
        return None
    try:
        if name == "p_mu1":
            a = replace(cfg.party_a, p_mu1=value,
                        p_mu2=1.0 - value - cfg.party_a.p_mu0)
        else:
            a = replace(cfg.party_a, **{name: value})
        # Enforce the intensity-balance condition by deriving b.mu1.  A
        # symmetric candidate meets it as it stands: its right-hand side
        # divides two identical products and is exactly 1.  Most steps
        # leave the derived value as it was, and then b is kept.
        b = a if symmetric else cfg.party_b
        mu1_b = a.mu1 / sns_balance_rhs(a, b)
        if mu1_b != b.mu1:
            b = replace(b, mu1=mu1_b)
        return replace(cfg, party_a=a, party_b=b)
    except (ValueError, ZeroDivisionError):
        return None


def optimize(cfg: ExperimentConfig, budget: int = 200) -> OptimizeResult:
    """Coordinate-descent search for the best source settings.

    Each pass tries multiplicative steps up/down on every parameter of
    :data:`FREE_PARAMETERS`; the step shrinks when a pass makes no
    progress.  Party B's weak decoy intensity is always re-derived from
    the balance condition, so every candidate satisfies it by
    construction.
    Deterministic; stops at the evaluation budget with a flag.  A
    candidate the search revisits is not recomputed: its key rate is
    read back from the ones scored earlier in this call, but the visit
    still counts toward the budget, so the search path and evaluation
    count are those of a search that recomputes it.  Most steps leave
    the intensities as they are, so the click-outcome tensor of the last
    few intensity pairs is kept and reused.
    """
    # Candidates differ only in their parties.
    scored: dict[tuple[PartySettings, PartySettings], float] = {}
    outcomes: dict = {}  # (A intensities, B intensities) -> tensor

    def score(c: ExperimentConfig) -> float:
        key = (c.party_a, c.party_b)
        if key not in scored:
            mus = (c.party_a.intensities, c.party_b.intensities)
            if mus not in outcomes:
                if len(outcomes) == _OUTCOMES_KEPT:
                    del outcomes[next(iter(outcomes))]
                outcomes[mus] = click_outcomes(c)
            scored[key], _ = analytic_keyrate(c, outcomes[mus])
        return scored[key]

    symmetric = cfg.party_a == cfg.party_b
    best_cfg = _apply(cfg, "mu_z", cfg.party_a.mu_z, symmetric) or cfg
    best_skr = score(best_cfg)
    evals = 1
    step = 1.3
    while step > 1.005:
        improved = False
        for name in FREE_PARAMETERS:
            for factor in (step, 1.0 / step):
                if evals >= budget:
                    return OptimizeResult(config=best_cfg, skr=best_skr,
                                          evaluations=evals,
                                          budget_exhausted=True)
                cand = _apply(best_cfg, name,
                              getattr(best_cfg.party_a, name) * factor,
                              symmetric)
                if cand is None:
                    continue
                skr = score(cand)
                evals += 1
                if skr > best_skr:
                    best_cfg, best_skr = cand, skr
                    improved = True
        if not improved:
            step = math.sqrt(step)
    return OptimizeResult(config=best_cfg, skr=best_skr,
                          evaluations=evals, budget_exhausted=False)


# ---------------------------------------------------------------------------
# Built-in identity suite

def _check(name: str, value: float, expected: float, rel_tol: float,
           lines: list[str]) -> bool:
    ok = math.isclose(value, expected, rel_tol=rel_tol)
    lines.append(f"{'PASS' if ok else 'FAIL'} {name}: got {value:.6e}, "
                 f"expected {expected:.6e} (rel tol {rel_tol:g})")
    return ok


def verify() -> tuple[bool, str]:
    """Run the built-in identity suite; returns (all_passed, report)."""
    lines: list[str] = []
    ok = True
    for loss, skc0 in ((100.13, 1.400e-10), (108.59, 1.996e-11),
                       (84.62, 4.979e-9)):
        ok &= _check(f"plob_bound({loss} dB)", plob_bound(loss), skc0, 5e-3,
                     lines)
    for before, after in ((0.1128, 0.2001), (0.0790, 0.1455),
                          (0.0994, 0.1790)):
        ok &= _check(f"aopp_phase_error({before})",
                     aopp_phase_error(before), after, 5e-4, lines)
    for label, name, bound, expected in (
            ("symmetric", "sym546", 0.0, "0 exactly"),
            ("asymmetric", "asym452", MAX_BALANCE_DEVIATION,
             f"<= {MAX_BALANCE_DEVIATION:.0e}")):
        cfg = get_preset(name)
        dev = check_sns_constraint(cfg.party_a, cfg.party_b)
        passed = dev <= bound
        lines.append(f"{'PASS' if passed else 'FAIL'} balance deviation "
                     f"({label}): got {dev:.6e}, expected {expected}")
        ok &= passed
    ok &= _check("phase_misalignment_qber(0.20, 1.0)",
                 phase_misalignment_qber(0.20, 1.0), 0.0099, 0.05, lines)
    ok &= _check("clock_drift_floor()", NoiseModel().clock_drift_floor(),
                 44.4, 0.012, lines)
    header = "identity suite: "
    header += "all passed" if ok else "FAILURES PRESENT"
    return ok, header + "\n" + "\n".join(lines) + "\n"
