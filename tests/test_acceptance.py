"""Acceptance gate: the twelve headline checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
in captured output on failure) in addition to asserting.  The heavier
Monte Carlo criteria sit at the end of the file.
"""
import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import norm, poisson

from tfqkd import bench
from tfqkd.counts import CATEGORIES
from tfqkd.engine import expected_counts, simulate
from tfqkd.postproc import decoy_bounds, process
from tfqkd.presets import DetectorModel, LinkConfig, NoiseModel, get_preset
from tfqkd.ratecore import (PartySettings, SecuritySettings,
                            check_sns_constraint, phase_misalignment_qber,
                            plob_bound)
from tfqkd.servo import run_stabilization

TWO_PI = 2.0 * math.pi

#: Free-running drift-rate inputs of the three link configurations
#: (rad/s; 2 pi x measured kHz figures).
TABLE_DRIFTS = {"sym546": TWO_PI * 2630.0, "sym603": TWO_PI * 2110.0,
                "asym452": TWO_PI * 2140.0}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ----------------------------------------------------------- 1: PLOB

def test_criterion_01_plob_identities():
    anchors = ((100.13, 1.400e-10), (108.59, 1.996e-11), (84.62, 4.979e-9))
    devs = [abs(plob_bound(loss) / want - 1.0) for loss, want in anchors]
    _report(1, "repeaterless-bound anchors within 0.5%",
            max(devs) <= 5e-3, f"max rel dev {max(devs):.2e}")


# ------------------------------------------------- 2: pairing error map

def test_criterion_02_aopp_phase_error_map():
    from tfqkd.postproc import aopp_phase_error
    pairs = ((0.1128, 0.2001), (0.0790, 0.1455), (0.0994, 0.1790))
    ok = all(abs(aopp_phase_error(e) - want) <= 1e-4 for e, want in pairs)
    _report(2, "pairing phase-error map to 4 significant digits", ok)


# -------------------------------------------------- 3: balance condition

def test_criterion_03_intensity_balance():
    sym = get_preset("sym546")
    asym = get_preset("asym452")
    dev_sym = check_sns_constraint(sym.party_a, sym.party_b)
    dev_asym = check_sns_constraint(asym.party_a, asym.party_b)
    _report(3, "intensity balance: symmetric exact, asymmetric <= 0.05",
            dev_sym == 0.0 and dev_asym <= 0.05,
            f"sym {dev_sym}, asym {dev_asym:.4f}")


# ------------------------------------------------------ 4: phase QBER

def test_criterion_04_phase_noise_qber():
    q = phase_misalignment_qber(0.20, 1.0)
    _report(4, "Gaussian-phase X-basis QBER at sigma=0.2 rad",
            abs(q - 0.0099) <= 5e-4, f"qber {q:.5f}")


# ------------------------------------------------------ 5: clock floor

def test_criterion_05_clock_drift_floor():
    floor = NoiseModel().clock_drift_floor()
    _report(5, "two-clock drift-rate floor 44.4 rad/s",
            abs(floor - 44.4) <= 0.5, f"{floor:.3f} rad/s")


# ------------------------------------------------- 6: servo reduction

def test_criterion_06_fast_lock_reduction():
    """Two seeded 2 s fast-lock runs; about a 0.4% false alarm per seed.

    With both runs on the same seed, 2 of seeds 0-499 fail this check,
    both on a clock-limited locked drift just under 40 rad/s (seeds 386
    and 456 at 39.89 and 39.27; mean 45.16, SD 1.48 over the seeds).
    The reduction factor stayed in 1835-2148, well inside its band.
    Seed 1 passes (1912, 44.13 rad/s).  Any change to the servo's draw
    order re-rolls the outcome for this seed.
    """
    ideal = NoiseModel(clock_accuracy=0.0)
    s_ideal, _ = run_stabilization(2.0, ideal, stages="fastOnly", seed=1)
    s_clock, _ = run_stabilization(2.0, NoiseModel(), stages="fastOnly",
                                   seed=1)
    red = s_ideal.reduction_factor
    locked = s_clock.fast_locked_drift_std_rad_per_s
    _report(6, "fast-lock reduction and clock-limited residual drift",
            1000.0 <= red <= 2500.0 and 40.0 <= locked <= 150.0,
            f"reduction {red:.0f}, locked drift {locked:.1f} rad/s")


# ---------------------------------------------- 7: closed-loop residual

def test_criterion_07_full_pipeline_residual():
    """Three seeded 2 s two-stage runs; no false alarm seen in 500 seeds.

    None of seeds 0-499 fails this check.  The largest residual was
    0.121 rad, and each link's residual has mean 0.115 rad and SD
    0.002 rad over the seeds, so the 0.30 rad bound sits about 90 SD
    above the mean.  Seed 2 passes (0.114, 0.111, 0.115 rad).
    """
    results = {}
    for name, drift in TABLE_DRIFTS.items():
        noise = NoiseModel(free_drift_rate_std=drift)
        summary, _ = run_stabilization(2.0, noise, stages="full", seed=2)
        results[name] = summary.residual_phase_std_q_rad
    _report(7, "two-stage residual signal-band phase std <= 0.30 rad",
            all(v <= 0.30 for v in results.values()),
            ", ".join(f"{k} {v:.3f}" for k, v in results.items()))


# ------------------------------------------- 8: Monte Carlo vs analytic

def test_criterion_08_monte_carlo_matches_expectation():
    """False-alarm rate: at most 3.4e-3 per seed, by the union bound.

    The test makes 54 checks (25 window counts, 25 herald counts and the
    four X11/X22 tallies).  Each is an exact two-sided Poisson interval
    at 4 sigma, with alpha = 2*Phi(-4) = 6.33e-5; the discrete quantiles
    keep each check's false-alarm probability at or below alpha.  So a
    correct program fails a given seed with probability at most
    54 * 6.33e-5 = 3.4e-3.
    """
    cfg = get_preset("sym546")
    n = 10**8
    mc = simulate(cfg, n, seed=0)
    exp = expected_counts(cfg, n)
    # Exact two-sided Poisson interval at the 4-sigma quantile; several
    # categories have single-digit expectations where a normal z-score
    # would mis-flag.
    alpha = 2.0 * norm.sf(4.0)
    failures = []
    checks = [(f"windows[{c}]", mc.windows[c], exp.windows[c])
              for c in CATEGORIES]
    checks += [(f"heralds[{c}]", mc.heralds[c], exp.heralds[c])
               for c in CATEGORIES]
    checks += [("x11_total", mc.x11_total, exp.x11_total),
               ("x11_errors", mc.x11_errors, exp.x11_errors),
               ("x22_total", mc.x22_total, exp.x22_total),
               ("x22_errors", mc.x22_errors, exp.x22_errors)]
    for name, obs, mu in checks:
        lo = poisson.ppf(alpha / 2.0, mu) if mu > 0 else 0.0
        hi = poisson.ppf(1.0 - alpha / 2.0, mu)
        if not lo <= obs <= hi:
            failures.append(f"{name}: {obs} outside [{lo:.0f}, {hi:.0f}]"
                            f" for mean {mu:.1f}")
    _report(8, "every category within 4-sigma Poisson of the expectation",
            not failures, "; ".join(failures) or f"{len(checks)} categories")


# --------------------------------------------------- 9: end-to-end rates

def test_criterion_09_end_to_end_rates():
    import dataclasses as dc
    cfg603 = get_preset("sym603")
    cfg603 = dc.replace(cfg603, security=dc.replace(cfg603.security,
                                                    mode="asymptotic"))
    skr603 = bench.analytic_keyrate(cfg603).skr
    cfg546 = get_preset("sym546")
    skr546 = bench.analytic_keyrate(cfg546).skr
    skc546 = plob_bound(cfg546.link.arm_loss_db("a")
                        - cfg546.link.extra_loss_a_db
                        + cfg546.link.arm_loss_db("b")
                        - cfg546.link.extra_loss_b_db)
    cfg452 = get_preset("asym452")
    skr452 = bench.analytic_keyrate(cfg452).skr
    ok603 = 2.455e-10 / 3.0 <= skr603 <= 2.455e-10 * 3.0
    ok546 = skr546 > skc546
    ok452 = skr452 > 0.0
    _report(9, "preset key rates: 603 within factor 3, 546 beats the "
            "repeaterless bound, asymmetric 452 positive",
            ok603 and ok546 and ok452,
            f"603 {skr603:.3e}, 546 {skr546:.3e} vs SKC0 {skc546:.3e}, "
            f"452 {skr452:.3e}")


# ---------------------------------------------- 10: pairing suppression

def test_criterion_10_aopp_suppression_monte_carlo():
    """One seeded 1e9-window session; about a 5% false alarm per seed.

    Under the exact session distribution (one multinomial draw), 23 of
    seeds 0-499 fail this check, 22 on ``n1'/n1 < 0.10`` and one on the
    10x error cut, so a correct program fails it for about 4.6% of
    seeds.  Seed 0 passes.  Any change to the cell layout or to the
    draw re-rolls the outcome for this seed.
    """
    cfg = get_preset("sym546")
    table = simulate(cfg, 10**9, seed=0)
    run = process(table, cfg)
    pre = run.z_stats.qber
    post = run.inputs.e_bit_prime
    ratio = run.inputs.n1_prime / run.decoy.n1 if run.decoy.n1 else 0.0
    _report(10, "pairing cuts the Z error 10x and keeps 10-30% of the "
            "untagged bits",
            post <= pre / 10.0 and 0.10 <= ratio <= 0.30,
            f"E_z {pre:.4f} -> {post:.4f}, n1'/n1 {ratio:.3f}")


# -------------------------------------------------------- 11: determinism

def test_criterion_11_byte_identical_reports(tmp_path):
    from tfqkd.cli import main
    sim_args = ["simulate", "--preset", "sym546", "--windows", "1e6",
                "--seed", "3"]
    stab_args = ["stabilize", "--preset", "sym546", "--duration", "0.2",
                 "--seed", "3"]
    paths = {k: tmp_path / f"{k}.txt"
             for k in ("sim1", "sim2", "stab1", "stab2")}
    assert main(sim_args + ["--out", str(paths["sim1"])]) == 0
    assert main(sim_args + ["--out", str(paths["sim2"])]) == 0
    assert main(stab_args + ["--out", str(paths["stab1"])]) == 0
    assert main(stab_args + ["--out", str(paths["stab2"])]) == 0
    ok = (paths["sim1"].read_bytes() == paths["sim2"].read_bytes()
          and paths["stab1"].read_bytes() == paths["stab2"].read_bytes())
    _report(11, "simulate and stabilize reports byte-identical per seed", ok)


# ------------------------------------------------- 12: bound validity

def _true_single_photon_yield(link: LinkConfig, det: DetectorModel,
                              arm: str) -> float:
    """Herald probability for exactly one photon in one arm, other arm dark."""
    t = link.arm_transmittance(arm)
    pd0, pd1 = det.dark_prob_d0, det.dark_prob_d1
    p_d0 = 0.5 * t * det.efficiency_d0
    p_d1 = 0.5 * t * det.efficiency_d1
    p_lost = 1.0 - p_d0 - p_d1
    herald = (p_d0 * (1.0 - pd1)  # photon at D0, no dark at D1
              + p_d1 * (1.0 - pd0)
              + p_lost * (pd0 * (1.0 - pd1) + pd1 * (1.0 - pd0)))
    return herald


def test_criterion_12_decoy_bound_validity():
    rng = np.random.default_rng(2024)
    sec = SecuritySettings(mode="asymptotic")
    violations = []
    for trial in range(100):
        party = PartySettings(
            mu_z=float(rng.uniform(0.3, 0.6)),
            mu2=float(rng.uniform(0.2, 0.5)),
            mu1=float(rng.uniform(0.03, 0.15)),
            mu0=0.0,
            p_signal_window=float(rng.uniform(0.5, 0.8)),
            epsilon_send=float(rng.uniform(0.15, 0.4)),
            p_mu0=0.1, p_mu1=0.6)
        loss = float(rng.uniform(10.0, 45.0))
        link = LinkConfig(loss_a_db=loss, loss_b_db=loss)
        det = DetectorModel(efficiency_d0=float(rng.uniform(0.4, 0.9)),
                            efficiency_d1=float(rng.uniform(0.4, 0.9)),
                            dark_rate_d0_hz=float(rng.uniform(0.0, 100.0)),
                            dark_rate_d1_hz=float(rng.uniform(0.0, 100.0)),
                            window_s=2e-9)
        sigma = float(rng.uniform(0.05, 0.6))
        vis = float(rng.uniform(0.90, 0.99))
        noise = NoiseModel(visibility=vis)
        settings = dataclasses.replace(
            get_preset("sym546"),
            party_a=party, party_b=party, link=link, detectors=det,
            noise=dataclasses.replace(noise, residual_phase_std_rad=sigma))
        n = 1e12
        table = expected_counts(settings, n)
        bounds = decoy_bounds(table, party, party, sec)

        y1 = _true_single_photon_yield(link, det, "a")
        pz2 = party.p_signal_window ** 2
        eps = party.epsilon_send
        n1_true = 2.0 * (n * pz2 * eps * (1.0 - eps) * party.mu_z
                         * math.exp(-party.mu_z) * y1)
        e1_true = phase_misalignment_qber(sigma, vis)
        if bounds.n1 > n1_true * (1.0 + 1e-9):
            violations.append(f"trial {trial}: n1 {bounds.n1:.4e} > "
                              f"true {n1_true:.4e}")
        if bounds.e1_upper < e1_true * (1.0 - 1e-9):
            violations.append(f"trial {trial}: e1 {bounds.e1_upper:.4f} < "
                              f"true {e1_true:.4f}")
    _report(12, "decoy bounds valid on 100 synthetic channels",
            not violations, "; ".join(violations[:3]) or "100 channels")
