"""Configuration ingestion, presets, sweeps, optimizer, and the CLI."""
import configparser
import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import tfqkd

from test_channel_truth import in_mode
from tfqkd import bench, cli, engine
from tfqkd.cli import main
from tfqkd.config import (_LAYOUT, ConfigError, load_config, override_config,
                          serialize_config)
from tfqkd.presets import STAGES, ExperimentConfig, get_preset, preset_names
from tfqkd.ratecore import SecuritySettings, check_sns_constraint, plob_bound


# --------------------------------------------------------------- presets

def test_preset_names():
    assert set(preset_names()) == {"sym546", "sym603", "asym452"}
    with pytest.raises(KeyError):
        get_preset("nope")


def test_preset_total_loss():
    """Each preset's coefficient is its total fiber loss over the total
    of the arm lengths in the ``presets`` docstring."""
    for name, arms_km, loss_db, attenuation in [
            ("sym546", (273.48, 273.13), 100.13, 0.18318),
            ("sym603", (298.71, 305.16), 108.59, 0.17982),
            ("asym452", (248.24, 204.22), 84.62, 0.18702)]:
        link = get_preset(name).link
        assert link.loss_a_db + link.loss_b_db == pytest.approx(loss_db,
                                                                abs=1e-9)
        assert link.attenuation_db_per_km == attenuation
        assert round(loss_db / sum(arms_km), 5) == attenuation
    # asym452's arms differ by 44.02 km, but its losses by 48.55 km at its
    # coefficient, since each arm's loss implies its own coefficient.
    link = get_preset("asym452").link
    assert round(link.loss_a_db - link.loss_b_db, 2) == 9.08
    assert round((link.loss_a_db - link.loss_b_db) / 0.18702, 2) == 48.55
    assert (round(link.loss_a_db / 248.24, 4),
            round(link.loss_b_db / 204.22, 4)) == (0.1887, 0.1849)


def test_presets_satisfy_balance():
    for name in preset_names():
        cfg = get_preset(name)
        assert check_sns_constraint(cfg.party_a, cfg.party_b) <= 0.05


def test_override_config():
    base = get_preset("sym546")
    raw = {"run": {"n_windows": "123", "seed": "7"},
           "security": {"mode": "finite"}}
    cfg = override_config(base, raw)
    assert cfg.run.n_windows == 123.0
    assert cfg.run.seed == 7
    assert cfg.security.mode == "finite"
    assert dataclasses.replace(cfg, run=base.run,
                               security=base.security) == base
    assert raw["run"] == {"n_windows": "123", "seed": "7"}
    for bad, match in [({"run": {"n_windows": "nan"}},
                        r"run: n_windows must lie in \[1, 2\*\*63\), got nan"),
                       ({"run": {"seed": "-1"}}, "run: seed must lie in"),
                       ({"security": {"mode": "exact"}}, "security: mode"),
                       ({"run": {"windows": "5"}}, "unknown key.*run.windows"),
                       ({"sim": {}}, r"unknown section \[sim\]")]:
        with pytest.raises(ConfigError, match=match):
            override_config(base, bad)


# ------------------------------------------------------------ config files

def _load(path, preset="sym546"):
    return load_config(str(path), get_preset(preset))


def test_config_roundtrip(tmp_path):
    cfg = get_preset("asym452")
    path = tmp_path / "a.ini"
    path.write_text(serialize_config(cfg))
    loaded = _load(path)
    assert loaded == cfg
    # Idempotence after one normalization pass.
    assert serialize_config(loaded) == serialize_config(cfg)


def test_config_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    for name in preset_names():
        assert _load(path, name) == get_preset(name)


def test_config_bad_probabilities(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[protocol]\na_p_mu0 = 0.5\na_p_mu1 = 0.6\n")
    with pytest.raises(ConfigError) as err:
        _load(path)
    assert "p_mu" in str(err.value) or "prob" in str(err.value).lower()


def test_config_decoy_probabilities_leave_the_strong_decoy_the_rest(tmp_path):
    # A decoy window's strong-decoy probability is what p_mu0 and p_mu1
    # leave, so a file that moves p_mu1 alone is valid as it stands.
    path = tmp_path / "pmu.ini"
    path.write_text("[protocol]\na_p_mu1 = 0.5\nb_p_mu1 = 0.5\n")
    base = get_preset("sym546")
    cfg = _load(path)
    assert cfg == dataclasses.replace(
        base, party_a=dataclasses.replace(base.party_a, p_mu1=0.5),
        party_b=dataclasses.replace(base.party_b, p_mu1=0.5))
    assert "p_mu2" not in serialize_config(cfg)
    # The asymptotic rates do not read the decoy-window split.
    golden, out = "keyrate_sym546_asymptotic.tsv", tmp_path / "keyrate.tsv"
    assert main(["keyrate", "--config", str(path), "--out", str(out)]) == 0
    assert pinned(golden, out) == (GOLDEN / golden).read_text()


# An arm is given by its loss alone: its length and the old measured-loss
# keys are not part of the schema, and neither is the strong-decoy
# probability, which p_mu0 and p_mu1 fix, nor the comb span, which the
# two wavelengths fix.
@pytest.mark.parametrize("section, key", [("link", "lenght_a_km"),
                                          ("link", "length_a_km"),
                                          ("link", "measured_loss_a_db"),
                                          ("protocol", "a_p_mu2"),
                                          ("noise", "comb_span_hz"),
                                          ("protocol", "c_mu_z"),
                                          ("run", "n_window"),
                                          ("noise", "timing_jitter_ps")])
def test_config_unknown_key(tmp_path, capsys, section, key):
    path = tmp_path / "typo.ini"
    path.write_text(f"[{section}]\n{key} = 0.4\n")
    with pytest.raises(ConfigError, match="unknown key"):
        _load(path)
    assert main(["keyrate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: unknown key(s): {section}.{key}\n")


def _domain_cases():
    """(section, key, value) for each numeric key ``preset show`` writes:
    nan, inf, -inf, the float just below the key's declared interval and,
    where it is finite, the float just above it."""
    cfg = get_preset("sym546")
    declared = {(section, prefix + name): (lo, hi)
                for section, attr, prefix in _LAYOUT
                for name, lo, hi, _ in type(getattr(cfg, attr))._DOMAINS}
    schema = configparser.ConfigParser()
    schema.read_string(serialize_config(cfg))
    cases = []
    for section in schema.sections():
        for key in schema[section]:
            if key == "mode":  # the one text field
                continue
            cases += [(section, key, v) for v in ("nan", "inf", "-inf")]
            lo, hi = declared.get((section, key), (None, math.inf))
            cases.append((section, key, "undeclared" if lo is None else
                          repr(math.nextafter(lo, -math.inf))))
            if math.isfinite(math.nextafter(hi, math.inf)):
                cases.append((section, key,
                              repr(math.nextafter(hi, math.inf))))
    return cases


@pytest.mark.parametrize("section, key, value", _domain_cases())
def test_config_non_finite_number(tmp_path, capsys, section, key, value):
    """Every numeric key has one declared interval on its settings type:
    nan, +-inf and a finite value outside it fail at construction, and
    through ``--config`` they exit 2 naming the section."""
    assert value != "undeclared", f"{section}.{key} has no declared interval"
    cfg = get_preset("sym546")
    attr, name = next((attr, key[len(prefix):])
                      for sec, attr, prefix in _LAYOUT
                      if sec == section and key.startswith(prefix))
    with pytest.raises(ValueError, match=f"{name} must lie in "):
        dataclasses.replace(getattr(cfg, attr), **{name: float(value)})
    path = tmp_path / "out.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    command = "stabilize" if section == "noise" else "keyrate"
    assert main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: {section}")


def test_out_of_domain_settings_fail_at_construction():
    """Values outside a field's interval fail where the settings are
    built, before any layer evaluates them: a nan phase spread, which
    the engine's quadrature would carry into the key rate, a clock
    accuracy that is no fraction, drift settings whose RMS drift rate
    overflows, a correlation time past the velocity calibration and an
    intensity whose exp(mu) overflows the decoy bound."""
    cfg = get_preset("sym546")
    for part, field, value in [
            (cfg.noise, "residual_phase_std_rad", math.nan),
            (cfg.noise, "clock_accuracy", 1e200),
            (cfg.noise, "free_drift_rate_std", 1e200),
            (cfg.noise, "laser_drift_hz_per_hour", 1e300),
            (cfg.noise, "laser_drift_hz_per_hour", -1e300),
            (cfg.noise, "drift_corr_time_s", 1e9),
            (cfg.party_a, "mu2", 800.0)]:
        with pytest.raises(ValueError, match=f"^{field} must lie in "):
            dataclasses.replace(part, **{field: value})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["asymptotic", "finite"])
def test_intensity_domain_corners_evaluate_cleanly(mode):
    """At the 690 intensity ceiling, on the preset link and a lossless
    one, with and without the widest phase spread, the analytic pipeline
    gives finite bounds and a finite rate with no floating-point
    warning."""
    cfg = in_mode(get_preset("sym546"), mode)
    top = 690.0
    for mu_z, mu2, mu1 in [(top, top, math.nextafter(top, 0.0)),
                           (top, top, 1e-3), (0.5, top, 0.1)]:
        party = dataclasses.replace(cfg.party_a, mu_z=mu_z, mu2=mu2, mu1=mu1,
                                    mu0=0.0)
        for link in (cfg.link, dataclasses.replace(cfg.link, loss_a_db=0.0,
                                                   loss_b_db=0.0)):
            for sigma in (0.0, 3.0):
                run = bench.analytic_keyrate(dataclasses.replace(
                    cfg, link=link, party_a=party, party_b=party,
                    noise=dataclasses.replace(cfg.noise,
                                              residual_phase_std_rad=sigma)))
                assert all(map(math.isfinite, (
                    run.skr, run.decoy.y1a_lower, run.decoy.y1b_lower,
                    run.decoy.n1, run.decoy.e1_upper)))


def test_config_none_rejected_for_every_key(tmp_path, capsys):
    # No settings field is optional, so ``none`` is a bad value for every
    # key preset show writes; the error names the key.
    path = tmp_path / "none.ini"
    schema = configparser.ConfigParser()
    schema.read_string(serialize_config(get_preset("sym546")))
    for section in schema.sections():
        for key in schema[section]:
            path.write_text(f"[{section}]\n{key} = none\n")
            assert main(["keyrate", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: {section}")
            assert key in err


@pytest.mark.parametrize("body, error", [
    ("[protocol]\na_mu1 = 0.2\n",
     "party_a/party_b: intensity-balance deviation 1.2222 exceeds 0.05"),
    # No key lifts the balance rule.
    ("[security]\nallow_unbalanced = false\n",
     "unknown key(s): security.allow_unbalanced"),
    ("[protocol]\na_mu1 = 0.2\n[security]\nallow_unbalanced = true\n",
     "unknown key(s): security.allow_unbalanced"),
    # An epsilon_send of 0 or 1 is outside its domain; the smallest float
    # inside it still makes a side of the balance condition underflow to 0.
    ("[protocol]\nb_epsilon_send = 5e-324\n",
     "balance condition undefined: denominator is zero"),
    ("[protocol]\na_epsilon_send = 5e-324\n",
     "balance condition undefined: RHS is zero"),
    ("[protocol]\nb_epsilon_send = 0\n",
     "protocol: epsilon_send must lie in (0, 1), got 0.0"),
], ids=["unbalanced", "opt-out-key", "opt-out-key-unbalanced",
        "zero-denominator", "zero-rhs", "epsilon-send-domain"])
def test_cli_balance_rule_has_no_opt_out(tmp_path, capsys, body, error):
    path = tmp_path / "unbalanced.ini"
    path.write_text(body)
    assert main(["keyrate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"configuration error: {error}\n"


def test_config_residual_field_and_balance_rule(tmp_path):
    path = tmp_path / "residual.ini"
    path.write_text("[noise]\nresidual_phase_std_rad = -0.1\n")
    with pytest.raises(ConfigError,
                       match=r"noise: residual_phase_std_rad must lie in"):
        _load(path)
    # Settings built in code meet the balance rule too, with no opt-out.
    cfg = get_preset("sym546")
    assert "allow_unbalanced" not in {
        f.name for f in dataclasses.fields(SecuritySettings)}
    with pytest.raises(ValueError, match="exceeds 0.05"):
        ExperimentConfig(link=cfg.link, detectors=cfg.detectors,
                         party_a=dataclasses.replace(cfg.party_a, mu1=0.2),
                         party_b=cfg.party_b, noise=cfg.noise)


@pytest.mark.parametrize("command, body", [
    ("keyrate", "[link]\nloss_a_db = -5\n"),
    ("keyrate", "[link]\nattenuation_db_per_km = -0.2\n"),
    ("keyrate", "[link]\nextra_loss_a_db = -60\n"),
    ("stabilize", "[noise]\nclock_accuracy = -1\n"),
    ("keyrate", "[detectors]\nefficiency_d0 = 1.5\n"),
    ("keyrate", "[detectors]\ndark_rate_d1_hz = -1\n"),
    ("keyrate", "[detectors]\nwindow_s = 0\n"),
    ("stabilize", "[noise]\nfree_drift_rate_std = -1\n"),
    ("stabilize", "[noise]\ndrift_corr_time_s = 0\n"),
    ("stabilize", "[noise]\nvisibility = 1.5\n"),
    ("stabilize", "[noise]\nlambda_q_nm = 0\n"),
    ("keyrate", "[protocol]\na_mu_z = 0\n"),
    ("keyrate", "[protocol]\na_p_signal_window = 1.5\n"),
    ("keyrate", "[security]\nf = 0.9\n"),
    ("keyrate", "[security]\neps_pa = 1\n"),
    # Finite mode divides by sqrt(2) * eps_pa * eps_hat, which is 0 here.
    ("keyrate", "[security]\nmode = finite\neps_pa = 1e-200\n"
     "eps_hat = 1e-200\n"),
    # Each would make the clock drift floor inf.
    ("stabilize", "[noise]\nclock_accuracy = 1e300\n"),
    ("stabilize", "[noise]\nlambda_q_nm = 1e-300\n"),
    # A clock accuracy is a fraction; the drift settings stop before the
    # servo's RMS drift rate overflows (reduction_factor nan or inf).
    ("stabilize", "[noise]\nclock_accuracy = 1e200\n"),
    ("stabilize", "[noise]\nfree_drift_rate_std = 1e200\n"),
    ("stabilize", "[noise]\nlaser_drift_hz_per_hour = 1e300\n"),
    ("stabilize", "[noise]\nlaser_drift_hz_per_hour = -1e300\n"),
    # Past 1 s the velocity calibration cancels; here it takes the root
    # of a negative number.
    ("stabilize", "[noise]\ndrift_corr_time_s = 1e9\n"),
    # The decoy bound's exp(mu2) overflows; at mu1 = 699 its products
    # overflow to nan, which the finite-size Chernoff solve never leaves.
    ("keyrate", "[protocol]\na_mu2 = 800\nb_mu2 = 800\n"),
    ("keyrate", "[protocol]\na_mu1 = 699\nb_mu1 = 699\na_mu2 = 700\n"
     "b_mu2 = 700\n[security]\nmode = finite\n"),
], ids=["arm-loss", "attenuation", "extra-loss", "clock-accuracy",
        "efficiency", "dark-rate", "gate-window", "drift-std",
        "drift-corr-time", "visibility", "wavelength", "mu-z",
        "signal-window", "ec-efficiency", "eps-pa", "eps-product-underflow",
        "clock-floor-accuracy", "clock-floor-wavelength",
        "clock-accuracy-fraction", "drift-std-overflow", "laser-drift-overflow",
        "laser-drift-overflow-negative", "drift-corr-time-calibration",
        "mu2-exp-overflow", "mu1-exp-overflow-finite"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_negative_loss_or_clock_setting_exit(tmp_path, capsys, command,
                                                 body):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    assert main([command, "--preset", "sym546", "--config", str(path)]) == 2
    section = body[1:body.index("]")]
    assert capsys.readouterr().err.startswith(
        f"configuration error: {section}: ")


# ----------------------------------------------------------------- sweep

def test_sweep_empty():
    assert bench.sweep(get_preset("sym546"), []) == []


def test_sweep_requires_monotone_distances():
    with pytest.raises(ValueError):
        bench.sweep(get_preset("sym546"), [500.0, 400.0])


def test_sweep_rows_and_monotonicity():
    cfg = get_preset("sym546")
    rows = bench.sweep(cfg, [450.0, 500.0, 546.61])
    assert [r["distance_km"] for r in rows] == [450.0, 500.0, 546.61]
    for r in rows:
        assert set(r) == set(bench.SWEEP_COLUMNS)
        assert r["skc0_bit_per_signal"] == plob_bound(r["total_loss_db"])
        assert r["ratio"] == (r["skr_bit_per_signal"]
                              / r["skc0_bit_per_signal"])
    skrs = [r["skr_bit_per_signal"] for r in rows]
    assert skrs[0] >= skrs[1] >= skrs[2]


def test_sweep_zero_rate_has_zero_ratio():
    # At 17,000 km the capacity is subnormal; at 17,700 km and beyond it
    # underflows to 0.  The key rate is 0 at both, and so is the ratio.
    rows = bench.sweep(get_preset("sym546"), [17_000.0, 17_700.0])
    assert rows[0]["skc0_bit_per_signal"] > 0
    assert rows[1]["skc0_bit_per_signal"] == 0
    for r in rows:
        assert r["skr_bit_per_signal"] == 0 and r["ratio"] == 0


def test_sweep_crossing_at_546():
    cfg = get_preset("sym546")
    row = bench.sweep(cfg, [546.61])[0]
    assert row["skr_bit_per_signal"] > row["skc0_bit_per_signal"]
    assert row["ratio"] > 1.0


@pytest.mark.parametrize("preset", ["sym546", "sym603", "asym452"])
def test_sweep_row_is_keyrate_of_equal_arm_losses(preset):
    """A sweep row at distance d is, bit for bit, the key rate of the
    template with both arm losses set to d/2 times its attenuation, and
    its fiber-only loss is d times the attenuation.  The conversion from
    length to loss lives only in ``sweep``."""
    cfg = get_preset(preset)
    att = cfg.link.attenuation_db_per_km
    distances = [0.0, 100.0, 452.0, 546.61, 650.0]
    for mode in ("asymptotic", "finite"):
        cfg_m = in_mode(cfg, mode)
        for d, row in zip(distances, bench.sweep(cfg_m, distances)):
            link = dataclasses.replace(cfg.link, loss_a_db=d / 2.0 * att,
                                       loss_b_db=d / 2.0 * att)
            skr = bench.analytic_keyrate(
                dataclasses.replace(cfg_m, link=link)).skr
            assert row["skr_bit_per_signal"] == skr
            assert row["total_loss_db"] == d * att


def test_format_sweep_header():
    rows = bench.sweep(get_preset("sym546"), [546.61])
    text = bench.format_sweep(rows)
    header = text.splitlines()[0].split("\t")
    assert tuple(header) == bench.SWEEP_COLUMNS


# -------------------------------------------------------------- optimizer

def test_optimize_budget_zero():
    cfg = get_preset("sym546")
    result = bench.optimize(cfg, budget=0)
    assert result.budget_exhausted
    assert result.config == cfg


def test_optimize_never_worse():
    cfg = get_preset("sym546")
    base = bench.analytic_keyrate(cfg).skr
    result = bench.optimize(cfg, budget=30)
    assert result.skr >= base
    assert check_sns_constraint(result.config.party_a,
                                result.config.party_b) <= 0.05


def test_optimize_recovers_perturbed_mu_z():
    cfg = get_preset("sym546")
    base = bench.analytic_keyrate(cfg).skr
    bad_party = dataclasses.replace(cfg.party_a, mu_z=cfg.party_a.mu_z * 1.5)
    bad = dataclasses.replace(cfg, party_a=bad_party, party_b=bad_party)
    result = bench.optimize(bad, budget=60)
    assert result.skr >= 0.95 * base


def _reference_optimize(cfg, budget):
    """The search loop that scores every visit afresh, as the oracle of
    ``bench.optimize`` over all free parameters."""
    symmetric = cfg.party_a == cfg.party_b
    best_cfg = bench._apply(cfg, "mu_z", cfg.party_a.mu_z, symmetric) or cfg
    best_skr = bench.analytic_keyrate(best_cfg).skr
    evals = 1
    step = 1.3
    exhausted = False
    while step > 1.005:
        improved = False
        for name in bench.FREE_PARAMETERS:
            for factor in (step, 1.0 / step):
                if evals >= budget:
                    exhausted = True
                    break
                cand = bench._apply(best_cfg, name,
                                    getattr(best_cfg.party_a, name) * factor,
                                    symmetric)
                if cand is None:
                    continue
                skr = bench.analytic_keyrate(cand).skr
                evals += 1
                if skr > best_skr:
                    best_cfg, best_skr = cand, skr
                    improved = True
            if exhausted:
                break
        if exhausted:
            break
        if not improved:
            step = math.sqrt(step)
    return bench.OptimizeResult(config=best_cfg, skr=best_skr,
                                evaluations=evals, budget_exhausted=exhausted)


@pytest.mark.parametrize("budget", [200, 25])
@pytest.mark.parametrize("preset, mode", [("sym546", "finite"),
                                          ("sym603", "asymptotic"),
                                          ("asym452", "asymptotic")])
def test_optimize_matches_reference_search(preset, mode, budget):
    cfg = in_mode(get_preset(preset), mode)
    assert bench.optimize(cfg, budget=budget) == _reference_optimize(cfg,
                                                                     budget)


@pytest.mark.parametrize("preset, mode, evaluations", [
    ("sym546", "asymptotic", 344), ("sym603", "asymptotic", 306),
    ("asym452", "asymptotic", 251), ("sym546", "finite", 238),
    ("sym603", "finite", 72), ("asym452", "finite", 282)])
def test_optimize_converges_inside_budget(preset, mode, evaluations):
    cfg = in_mode(get_preset(preset), mode)
    result = bench.optimize(cfg, budget=1000)
    assert result == _reference_optimize(cfg, 1000)
    assert result.evaluations == evaluations
    assert not result.budget_exhausted


def _spy(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns the list of the
    first argument of each call."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_optimize_scores_each_candidate_once(monkeypatch):
    calls = _spy(monkeypatch, bench, "analytic_keyrate")
    result = bench.optimize(in_mode(get_preset("sym546"), "finite"),
                            budget=200)
    assert result.evaluations == 200 and result.budget_exhausted
    scored = [(c.party_a, c.party_b) for c in calls]
    assert 0 < len(set(scored)) == len(scored) < result.evaluations


@pytest.mark.parametrize("preset, mode, runs", [("sym546", "finite", 100),
                                                ("asym452", "asymptotic", 135)])
def test_optimize_reuses_click_outcomes(monkeypatch, preset, mode, runs):
    """The two searches of the design-scan benchmark (budget 200) run the
    click model 100 and 135 times, the figures README's
    Analytic-evaluation cost quotes.  Scoring each candidate afresh runs
    it 161 and 168 times; once per distinct pair of intensity tuples
    would be 88 and 115.  That distinct count is also checked as a lower
    bound, so the check cannot pass by skipping the click model; the
    engine's kept tensors are cleared first, so tensors that earlier
    tests left there cannot satisfy it."""
    engine._click_outcomes.cache_clear()
    scored = _spy(monkeypatch, bench, "analytic_keyrate")
    clicks = _spy(monkeypatch, engine, "click_probability_arrays")
    result = bench.optimize(in_mode(get_preset(preset), mode), budget=200)
    assert result.evaluations == 200
    distinct = {(c.party_a.intensities, c.party_b.intensities) for c in scored}
    assert 0 < len(distinct) <= len(clicks) == runs


# ------------------------------------------------------------------ verify

def test_verify_passes():
    ok, report = bench.verify()
    assert ok
    assert "pass" in report


def test_verify_deterministic():
    assert bench.verify() == bench.verify()


# --------------------------------------------------------------------- CLI

def test_cli_preset_list(capsys):
    assert main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    assert "sym546" in out and "asym452" in out


def test_cli_preset_show_unknown():
    assert main(["preset", "show", "nope"]) == 2


@pytest.mark.parametrize("name", ["sym546", "nope", ""])
def test_cli_preset_list_rejects_name(name, capsys):
    assert main(["preset", "list", name]) == 2
    assert capsys.readouterr() == (
        "", f"configuration error: preset list takes no name, got {name!r}\n")


def test_cli_unknown_preset_message(capsys):
    assert main(["keyrate", "--preset", "nope"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: unknown preset 'nope'; choose from "
        "['asym452', 'sym546', 'sym603']\n")


def test_cli_verify_exit_code(capsys):
    assert main(["verify"]) == 0
    assert "pass" in capsys.readouterr().out


def test_cli_keyrate_report(tmp_path):
    out = tmp_path / "report.txt"
    assert main(["keyrate", "--preset", "sym546", "--out", str(out)]) == 0
    text = out.read_text()
    assert "skr_bit_per_signal\t" in text
    assert "mode\t" in text


def test_cli_bad_config_exit(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[protocol]\na_p_mu0 = 0.9\n")
    assert main(["keyrate", "--config", str(path)]) == 2


def _parse_run(*argv):
    """The settings a subcommand's argv resolves to."""
    return cli._resolve_config(cli._PARSER.parse_args(list(argv)))


@pytest.mark.parametrize("preset", ["sym546", "sym603", "asym452"])
def test_cli_settings_chain(tmp_path, preset, capsys):
    """The preset is the base, ``--config`` overrides its keys, and the
    run flags override both."""
    base = get_preset(preset)
    ini = tmp_path / "tweak.ini"
    ini.write_text("[run]\nseed = 5\n")
    seeded = dataclasses.replace(base, run=dataclasses.replace(base.run,
                                                               seed=5))
    assert _parse_run("simulate", "--preset", preset,
                      "--config", str(ini)) == seeded
    # keyrate reads no seed: the partial INI gives the preset's report.
    assert main(["keyrate", "--preset", preset, "--config", str(ini)]) == 0
    assert main(["keyrate", "--preset", preset]) == 0
    with_ini, without = capsys.readouterr().out.split("n_windows\t")[1:]
    assert with_ini == without
    ini.write_text("[run]\nseed = 5\nn_windows = 1000\n"
                   "[security]\nmode = finite\n")
    got = _parse_run("simulate", "--preset", preset, "--config", str(ini),
                     "--seed", "7", "--windows", "2000",
                     "--mode", "asymptotic")
    assert got == dataclasses.replace(
        base, run=dataclasses.replace(base.run, seed=7, n_windows=2000.0))


def test_cli_config_alone_starts_from_sym546(tmp_path):
    ini = tmp_path / "tweak.ini"
    ini.write_text("[run]\nseed = 5\n")
    base = get_preset("sym546")
    assert _parse_run("simulate", "--config", str(ini)) == (
        dataclasses.replace(base, run=dataclasses.replace(base.run, seed=5)))
    assert _parse_run("keyrate") == base


@pytest.mark.parametrize("windows", ["nan", "inf", "-5", "abc", "1.5", "0",
                                     "9.3e18"])
def test_cli_bad_window_count_exit(windows, capsys):
    # 9.3e18 is above 2**63, the largest multinomial draw numpy accepts.
    assert main(["simulate", "--preset", "sym546", "--windows", windows]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_negative_seed_exit(capsys):
    assert main(["simulate", "--preset", "sym546", "--windows", "1e3",
                 "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_cli_seed_is_read_as_an_int(tmp_path, capsys):
    # The seed's field type is int: a float is rejected from the flag and
    # from [run], and a parsed seed is an int, not a whole float.
    assert type(override_config(get_preset("sym546"),
                                {"run": {"seed": "7"}}).run.seed) is int
    ini = tmp_path / "seed.ini"
    ini.write_text("[run]\nseed = 1.5\n")
    for argv in (["--seed", "1.5"], ["--config", str(ini)]):
        assert main(["simulate", "--windows", "1e3"] + argv) == 2
        assert "run.seed" in capsys.readouterr().err


@pytest.mark.parametrize("windows", ["nan", "inf", "-5", "abc", "1.5",
                                     "9.3e18"])
def test_cli_bad_config_window_count_exit(tmp_path, windows):
    path = tmp_path / "run.ini"
    path.write_text(f"[run]\nn_windows = {windows}\n")
    assert main(["simulate", "--config", str(path)]) == 2


def test_cli_simulate_byte_identical(tmp_path):
    args = ["simulate", "--preset", "sym546", "--windows", "2e5",
            "--seed", "5"]
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_series_out_matches_per_row_format(tmp_path):
    from tfqkd.servo import run_stabilization
    path = tmp_path / "series.tsv"
    assert main(["stabilize", "--preset", "sym546", "--duration", "0.2",
                 "--seed", "3", "--out", str(tmp_path / "report.txt"),
                 "--series-out", str(path)]) == 0
    _, series = run_stabilization(0.2, get_preset("sym546").noise,
                                  stages="full", seed=3)
    cols = ("t_s", "phiC_rad", "phiQ_rad", "pm_rad", "fs_rad", "dc_counts")
    want = "\t".join(cols) + "\n" + "".join(
        "\t".join(f"{series[c][i]:.9e}" for c in cols) + "\n"
        for i in range(series["t_s"].size))
    assert path.read_text() == want


GOLDEN = Path(__file__).parent / "golden"

_PRESETS = ("sym546", "sym603", "asym452")
_STABILIZE = ["stabilize", "--preset", "sym546", "--duration", "0.2",
              "--seed", "3", "--stages"]

#: Every pinned command: golden file name -> the argv whose output the
#: file pins.  This is the one place to pair a command with its golden
#: file.  :func:`pinned` says which part of the output a golden pins.
#: Add rows at the end: a row's test id carries its index.
PINNED = {
    "verify.txt": ["verify"],
    "preset_list.txt": ["preset", "list"],
    "sweep_sym546.tsv": ["sweep", "--preset", "sym546",
                         "--distances", "300,546.61,650"],
    **{f"simulate_{p}.tsv": ["simulate", "--preset", p, "--windows", "1e6",
                             "--seed", "3"]
       for p in _PRESETS},
    **{f"stabilize_sym546_{s}.tsv": _STABILIZE + [s] for s in STAGES},
    "optimize_sym546_finite_head.tsv": ["optimize", "--preset", "sym546",
                                        "--mode", "finite", "--budget",
                                        "200"],
    # At the preset's own window count, so every category has heralds.
    **{f"simulate_{p}_preset_windows_{m}.tsv":
       ["simulate", "--preset", p, "--seed", "3", "--mode", m]
       for p in _PRESETS for m in ("asymptotic", "finite")},
    **{f"stabilize_{p}_{s}.tsv": ["stabilize", "--preset", p]
       + _STABILIZE[3:] + [s]
       for p in ("sym603", "asym452") for s in STAGES},
    # Asymmetric: the search moves party A alone and re-derives B's mu1.
    "optimize_asym452_head.tsv": ["optimize", "--preset", "asym452",
                                  "--budget", "200"],
    # The 2 s lock of criterion 6 and of the benchmark's ideal-clock run.
    **{f"stabilize_sym546_2s_{s}.tsv":
       ["stabilize", "--preset", "sym546", "--duration", "2", "--seed", "3",
        "--stages", s]
       for s in STAGES},
    **{f"preset_{p}.ini": ["preset", "show", p] for p in _PRESETS},
    **{f"keyrate_{p}_{m}.tsv": ["keyrate", "--preset", p, "--mode", m]
       for p in _PRESETS for m in ("asymptotic", "finite")},
    # Each stage's 0.2 s series, about 2 MB, written by --series-out.
    **{f"stabilize_sym546_{s}_series.sha256": _STABILIZE + [s]
       for s in STAGES},
}


def _pinned_argv(golden, path):
    """``golden``'s argv, writing what the golden pins to ``path``."""
    flag = "--series-out" if golden.endswith(".sha256") else "--out"
    return PINNED[golden] + [flag, str(path)]


def pinned(golden, path):
    """The part of the output at ``path`` that ``golden`` pins.

    A golden pins the whole report, but not computed floats printed with
    ``repr``, whose last digit can move between numpy builds: ``keyrate``
    pins its rate lines, from ``y1a_lower`` on, and ``optimize`` its
    three head lines, not the optimized INI.  A ``.sha256`` golden pins
    a series by its digest.
    """
    data = Path(path).read_bytes()
    if golden.endswith(".sha256"):
        return hashlib.sha256(data).hexdigest() + "\n"
    text = data.decode()
    if golden.startswith("keyrate"):
        return text[text.index("y1a_lower\t"):]
    if golden.startswith("optimize"):
        return "".join(text.splitlines(True)[:3])
    return text


@pytest.mark.parametrize(
    "golden, argv",
    [row for row in PINNED.items() if not row[0].endswith(".sha256")],
    ids=lambda v: v if isinstance(v, str) else None)
def test_cli_file_reports_match_golden_files(tmp_path, golden, argv):
    """Every subcommand's ``--out`` report is pinned."""
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 0
    assert pinned(golden, out) == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("stages", STAGES)
def test_cli_series_matches_golden_hash(tmp_path, stages):
    golden = f"stabilize_sym546_{stages}_series.sha256"
    series = tmp_path / "series.tsv"
    assert main(_pinned_argv(golden, series)) == 0
    assert pinned(golden, series) == (GOLDEN / golden).read_text()


def test_cli_sweep(tmp_path, capsys):
    assert main(["sweep", "--preset", "sym546",
                 "--distances", "500,546.61"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + two rows


def test_cli_optimize_output_loads(tmp_path):
    out = tmp_path / "opt.txt"
    assert main(["optimize", "--preset", "asym452", "--budget", "3",
                 "--out", str(out)]) == 0
    # Three report lines, then the optimized config as INI.
    ini = tmp_path / "opt.ini"
    text = "".join(out.read_text().splitlines(True)[3:])
    assert "allow_unbalanced" not in text
    ini.write_text(text)
    assert serialize_config(_load(ini)) == text


@pytest.mark.parametrize("argv", [["--preset", "asym452"],
                                  ["--preset", "sym546", "--mode", "finite"]])
def test_cli_optimized_config_reproduces_its_rate(tmp_path, argv):
    """``keyrate`` on the printed INI of a full search gives the rate the
    search reports.  Both searches step ``p_mu1``, so the reload also
    holds the derived strong-decoy probability."""
    out = tmp_path / "opt.txt"
    assert main(["optimize", *argv, "--budget", "200", "--out",
                 str(out)]) == 0
    lines = out.read_text().splitlines(True)
    ini = tmp_path / "opt.ini"
    ini.write_text("".join(lines[3:]))
    report = tmp_path / "keyrate.tsv"
    assert main(["keyrate", "--config", str(ini), "--out", str(report)]) == 0
    assert lines[0].startswith("skr_bit_per_signal\t")
    assert lines[0] in report.read_text().splitlines(True)


@pytest.mark.parametrize("argv", [
    ["stabilize", "--windows", "7"],
    ["stabilize", "--mode", "finite"],
    ["keyrate", "--seed", "3"],
    ["sweep", "--distances", "500", "--seed", "3"],
    ["optimize", "--seed", "3"],
])
def test_cli_flag_not_read_is_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["stabilize", "--duration", "0.05"],
    ["stabilize", "--duration", "nan"],
    ["sweep", "--distances", "abc"],
    ["sweep", "--distances", "500,400"],
    ["sweep", "--distances", ""],
    ["optimize", "--budget", "-3"],
    # Its first array is 728 TiB, beyond the address space, so it fails
    # before touching memory.  Shorter durations could really allocate.
    ["stabilize", "--duration", "1e9"],
])
def test_cli_bad_argument_exit(argv, capsys):
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_stabilize_names_duration_only_for_its_check(tmp_path, monkeypatch,
                                                        capsys):
    """An infinite clock floor fails at the config on every stage, and an
    error from the run itself is not reported as a bad ``--duration``."""
    ini = tmp_path / "clock.ini"
    ini.write_text("[noise]\nclock_accuracy = 1e300\n")
    assert main(["stabilize", "--stages", "fastOnly", "--duration", "0.1",
                 "--config", str(ini)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: noise: ")

    def fail(*args, **kwargs):
        raise ValueError("math domain error")

    monkeypatch.setattr("tfqkd.servo.run_stabilization", fail)
    with pytest.raises(ValueError, match="math domain error"):
        main(["stabilize", "--duration", "0.1"])


@pytest.mark.parametrize("argv, flag", [
    (["preset", "list", "--out"], "--out"),
    (["stabilize", "--duration", "0.2", "--series-out"], "--series-out"),
])
def test_cli_unwritable_output_path_exit(tmp_path, argv, flag, capsys):
    path = str(tmp_path / "missing" / "x")
    assert main(argv + [path]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and flag in err and path in err


@pytest.mark.parametrize("bad_flag", ["--out", "--series-out"])
def test_cli_stabilize_bad_output_path_runs_nothing(tmp_path, monkeypatch,
                                                    bad_flag):
    # A bad path exits 2 before the servo runs, and the other, valid
    # output is not created.
    def no_run(*args, **kwargs):
        raise AssertionError("run_stabilization was called")

    monkeypatch.setattr("tfqkd.servo.run_stabilization", no_run)
    good = tmp_path / "good.tsv"
    paths = {"--out": str(good), "--series-out": str(good),
             bad_flag: str(tmp_path / "missing" / "x")}
    argv = ["stabilize", "--duration", "2"]
    for flag, path in paths.items():
        argv += [flag, path]
    assert main(argv) == 2
    assert not good.exists()
    with pytest.raises(AssertionError, match="run_stabilization was called"):
        main(["stabilize", "--out", str(good)])


@pytest.mark.parametrize("series_out", ["same-path", "other-spelling",
                                        "link-to-existing"])
def test_cli_out_and_series_out_on_one_file_exit(tmp_path, monkeypatch,
                                                 capsys, series_out):
    # One file given to both outputs exits 2 before the servo runs, and
    # leaves the directory as it found it.
    def no_run(*args, **kwargs):
        raise AssertionError("run_stabilization was called")

    monkeypatch.setattr("tfqkd.servo.run_stabilization", no_run)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "s.tsv"
    if series_out == "link-to-existing":
        out.write_bytes(b"an earlier report\n")
        os.symlink("s.tsv", "link.tsv")
    other = {"same-path": str(out), "other-spelling": "./s.tsv",
             "link-to-existing": "link.tsv"}[series_out]
    assert main(["stabilize", "--duration", "0.1", "--out", str(out),
                 "--series-out", other]) == 2
    assert "--out and --series-out" in capsys.readouterr().err
    if series_out == "link-to-existing":
        assert out.read_bytes() == b"an earlier report\n"
        assert sorted(os.listdir()) == ["link.tsv", "s.tsv"]
    else:
        assert os.listdir() == []


@pytest.mark.parametrize("series_out", [False, True])
def test_cli_stabilize_builds_series_only_for_series_out(tmp_path, monkeypatch,
                                                         series_out):
    from tfqkd import servo
    calls = []
    run = servo.run_stabilization

    def spy(*args, **kwargs):
        calls.append(kwargs.get("series"))
        return run(*args, **kwargs)

    monkeypatch.setattr("tfqkd.servo.run_stabilization", spy)
    argv = ["stabilize", "--duration", "0.1", "--out", str(tmp_path / "r.tsv")]
    if series_out:
        argv += ["--series-out", str(tmp_path / "s.tsv")]
    assert main(argv) == 0
    assert calls == [series_out]


@pytest.mark.parametrize("argv, work", [
    (["verify"], "bench.verify"),
    (["keyrate"], "bench.analytic_keyrate"),
    # Explicit ids keep these two cases' test names stable.
    pytest.param(["simulate", "--windows", "1e3"], "engine.simulate",
                 id="simulate-simulate"),
    pytest.param(["stabilize", "--duration", "0.2"], "servo.run_stabilization",
                 id="stabilize-run_stabilization"),
    (["sweep", "--distances", "500"], "bench.sweep"),
    (["optimize"], "bench.optimize"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_cli_bad_output_path_runs_no_work(tmp_path, monkeypatch, capsys,
                                          argv, work):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} was called")

    monkeypatch.setattr(f"tfqkd.{work}", no_work)
    assert main(argv + ["--out", str(tmp_path / "missing" / "x")]) == 2
    assert "--out" in capsys.readouterr().err
    # The patched function is the one the command runs.
    with pytest.raises(AssertionError, match=f"{work} was called"):
        main(argv + ["--out", str(tmp_path / "x")])


@pytest.mark.parametrize("argv", [
    ["stabilize", "--duration", "0.05"],
    ["sweep", "--distances", "abc"],
    ["optimize", "--budget", "-3"],
    ["keyrate", "--preset", "nope"],
    ["stabilize", "--duration", "0.2", "--series-out", "missing/x"],
], ids=["short-duration", "bad-distances", "negative-budget",
        "unknown-preset", "bad-series-out"])
@pytest.mark.parametrize("existing", [True, False],
                         ids=["existing", "missing"])
def test_cli_failing_command_leaves_output_as_found(tmp_path, monkeypatch,
                                                    argv, existing):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "report.tsv"
    if existing:
        out.write_text("an earlier report\n")
    assert main(argv + ["--out", str(out)]) == 2
    if existing:
        assert out.read_text() == "an earlier report\n"
    else:
        assert not out.exists()
    assert sorted(os.listdir(tmp_path)) == (["report.tsv"] if existing
                                           else [])


def test_cli_overwrite_leaves_no_stale_tail(tmp_path, capsys):
    assert main(["preset", "list"]) == 0
    want = capsys.readouterr().out
    out = tmp_path / "list.txt"
    out.write_text("x" * 10 * len(want))
    assert main(["preset", "list", "--out", str(out)]) == 0
    assert out.read_text() == want


def test_cli_verify_writes_report_on_failure(tmp_path, monkeypatch):
    text = "identity suite: 1 failed\nFAIL planted\n"
    monkeypatch.setattr("tfqkd.bench.verify", lambda: (False, text))
    out = tmp_path / "verify.txt"
    out.write_text("an earlier, longer report\n" * 4)
    assert main(["verify", "--out", str(out)]) == 1
    assert out.read_text() == text


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_cli_writes_report_to_fifo(tmp_path, capsys):
    assert main(["preset", "list"]) == 0
    want = capsys.readouterr().out
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []

    def drain():
        with open(fifo) as fh:
            got.append(fh.read())

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()
    assert main(["preset", "list", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert got == [want]


def test_cli_stdout_is_never_truncated(tmp_path, monkeypatch):
    path = tmp_path / "stdout.txt"
    path.write_text("earlier output\n")
    with open(path, "a") as fh, monkeypatch.context() as m:
        m.setattr(sys, "stdout", fh)
        assert main(["preset", "list"]) == 0
    assert path.read_text() == "earlier output\n" + "".join(
        f"{name}\n" for name in preset_names())


def test_cli_main_reuses_parser_across_calls(tmp_path, capsys):
    """Every subcommand, a usage error and a configuration error run
    through one process's ``main``; each report matches the one the same
    argv gave earlier in the process, and no flag carries over to a later
    call that leaves it out."""
    series = tmp_path / "series.tsv"
    stabilize = ["stabilize", "--duration", "0.2", "--seed", "3"]
    simulate = ["simulate", "--windows", "1e6"]
    runs = [
        ["verify"],
        ["keyrate", "--preset", "asym452", "--mode", "finite"],
        simulate + ["--seed", "5"],
        simulate,
        simulate + ["--seed", str(get_preset("sym546").run.seed)],
        stabilize + ["--series-out", str(series)],
        stabilize,
        ["sweep", "--preset", "sym603", "--distances", "400,500"],
        ["optimize", "--preset", "asym452", "--budget", "20"],
        ["preset", "list"],
        ["preset", "show", "sym603"],
        ["keyrate", "--seed", "3"],
        ["keyrate", "--preset", "nope"],
    ]

    def run(argv):
        series.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        written = series.read_bytes() if series.exists() else None
        return code, out, written

    first = {}
    for argv in runs + runs[::-1]:
        result = run(argv)
        assert first.setdefault(tuple(argv), result) == result, argv
    results = [first[tuple(argv)] for argv in runs]
    assert [code for code, _, _ in results] == [0] * 11 + [2, 2]
    # Without --seed, simulate uses the preset seed, not the last one given.
    assert results[3] == results[4] != results[2]
    # Only the stabilize run given --series-out writes a series.
    assert results[5][2] and results[6][2] is None


def _fresh(args, cwd):
    """Run ``python args`` in a fresh interpreter that imports this tfqkd."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(tfqkd.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=300)


#: Modules blocked in a fresh interpreter -> the pinned commands that run
#: there all the same.  ``--help`` runs in every set.
_BLOCKED = {
    "numpy": ["preset_list.txt", *(f"preset_{p}.ini" for p in _PRESETS)],
    "tfqkd.engine,tfqkd.postproc,tfqkd.bench": [
        f"stabilize_sym546_{s}.tsv" for s in STAGES],
    "tfqkd.servo": ["keyrate_sym546_finite.tsv", "simulate_sym546.tsv",
                    "sweep_sym546.tsv", "optimize_sym546_finite_head.tsv",
                    "verify.txt"],
    "configparser": ["preset_list.txt", "keyrate_sym546_finite.tsv",
                     "simulate_sym546.tsv", "stabilize_sym546_full.tsv"],
    "scipy,numpy.polynomial": [
        "verify.txt", "keyrate_sym546_asymptotic.tsv",
        "keyrate_sym546_finite.tsv", "simulate_sym546.tsv",
        *(f"stabilize_sym546_{s}_series.sha256" for s in STAGES),
        "sweep_sym546.tsv", "optimize_sym546_finite_head.tsv",
        "preset_sym546.ini"],
    "typing": ["preset_list.txt", "preset_sym546.ini"],
}

_RUN_BLOCKED = """
import json, sys
for name in sys.argv[1].split(","):
    sys.modules[name] = None  # importing it now raises ImportError
from tfqkd.cli import main
for argv in json.loads(sys.argv[2]):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help
        code = exc.code
    if code:
        sys.exit(f"{argv} exited {code}")
"""


@pytest.mark.parametrize("blocked", list(_BLOCKED))
def test_cli_subcommands_load_only_their_layers(tmp_path, blocked):
    """Each subcommand imports only the layers it runs.

    With the named modules blocked in a fresh interpreter, ``--help``
    runs, and so do these: ``preset list`` and ``preset show`` without
    numpy or ``typing``; ``stabilize`` without the engine,
    post-processing and bench layers; ``keyrate``, ``simulate``,
    ``sweep``, ``optimize`` and ``verify`` without the servo; ``preset
    list``, ``keyrate``, ``simulate`` and ``stabilize`` without
    ``--config`` read no INI, so they run without ``configparser``.
    scipy is a test dependency only, so every subcommand runs without
    it, and without numpy.polynomial, which would cost every process
    about 2 MB of RSS.  The fresh interpreter only writes the reports;
    each still matches its golden file.
    """
    goldens = _BLOCKED[blocked]
    argvs = [["--help"], *(_pinned_argv(g, g) for g in goldens)]
    proc = _fresh(["-c", _RUN_BLOCKED, blocked, json.dumps(argvs)], tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert [g for g in goldens
            if pinned(g, tmp_path / g) != (GOLDEN / g).read_text()] == []


#: Pinned commands that evaluate a click setting.  The sweep's rows share
#: sym546's intensities but not its link, and each search starts from its
#: preset's intensities, so a tensor kept under too small a key would be
#: read by the wrong command.
_COLD_WARM = [
    *(f"keyrate_{p}_{m}.tsv"
      for p in _PRESETS for m in ("asymptotic", "finite")),
    *(f"simulate_{p}.tsv" for p in _PRESETS),
    "sweep_sym546.tsv", "optimize_sym546_finite_head.tsv",
    "optimize_asym452_head.tsv",
]


def test_cli_reports_same_cold_and_warm(tmp_path, capsys):
    """A command prints the same full report whether its process has
    evaluated the click setting before or not.

    Cold: each command runs in a fresh interpreter, whose engine keeps
    no click-outcome tensor yet.  Warm: from cleared kept tensors, all of
    them run twice in this process, in shuffled order, so a run can read
    a tensor an earlier one kept.  Raw counts and the optimized INI are
    compared too.
    """
    cold = []
    for golden in _COLD_WARM:
        proc = _fresh(["-m", "tfqkd.cli", *PINNED[golden]], tmp_path)
        assert proc.returncode == 0, proc.stderr[-2000:]
        cold.append(proc.stdout)
    order = 2 * list(range(len(_COLD_WARM)))
    random.Random(0).shuffle(order)
    engine._click_outcomes.cache_clear()
    for i in order:
        assert main(PINNED[_COLD_WARM[i]]) == 0
        assert capsys.readouterr().out == cold[i], _COLD_WARM[i]
    # 682 lookups: 2 x (9 keyrate and simulate runs, 3 sweep rows and the
    # searches' 161 and 168 scored candidates).  In this order 485 miss:
    # 100 and 135 per search run, the 6 sweep rows, whose links no other
    # command shares, and 9 of the 18 keyrate and simulate runs: the
    # first run of each preset, and 6 whose tensor a search or the sweep
    # had evicted.
    info = engine._click_outcomes.cache_info()
    assert info.misses <= 485
    assert info.hits >= 197
