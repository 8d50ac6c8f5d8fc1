"""Configuration ingestion, presets, sweeps, optimizer, and the CLI."""
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import tfqkd

from tfqkd import bench, cli, engine
from tfqkd.cli import main
from tfqkd.config import (ConfigError, load_config, override_config,
                          serialize_config)
from tfqkd.presets import ExperimentConfig, get_preset, preset_names
from tfqkd.ratecore import SecuritySettings, check_sns_constraint, plob_bound


# --------------------------------------------------------------- presets

def test_preset_names():
    assert set(preset_names()) == {"sym546", "sym603", "asym452"}
    with pytest.raises(KeyError):
        get_preset("nope")


def test_preset_total_loss():
    cfg = get_preset("sym546")
    link = cfg.link
    assert link.measured_loss_a_db + link.measured_loss_b_db == pytest.approx(
        100.13, abs=0.01)


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
                        "run.n_windows: 'nan' is not a finite number"),
                       ({"run": {"seed": "-1"}}, "run: seed must be"),
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
    path.write_text("[protocol]\na_p_mu0 = 0.1\na_p_mu1 = 0.5\na_p_mu2 = 0.3\n")
    with pytest.raises(ConfigError) as err:
        _load(path)
    assert "p_mu" in str(err.value) or "prob" in str(err.value).lower()


@pytest.mark.parametrize("section, key", [("link", "lenght_a_km"),
                                          ("protocol", "c_mu_z"),
                                          ("run", "n_window"),
                                          ("noise", "timing_jitter_ps")])
def test_config_unknown_key(tmp_path, section, key):
    path = tmp_path / "typo.ini"
    path.write_text(f"[{section}]\n{key} = 0.4\n")
    with pytest.raises(ConfigError, match="unknown key"):
        _load(path)


@pytest.mark.parametrize("section, key, value", [
    ("protocol", "a_mu_z", "nan"),
    ("link", "length_b_km", "inf"),
    ("noise", "residual_phase_std_rad", "nan"),
])
def test_config_non_finite_number(tmp_path, section, key, value):
    path = tmp_path / "nan.ini"
    path.write_text(f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match="finite"):
        _load(path)


def test_config_none_only_where_optional(tmp_path):
    path = tmp_path / "none.ini"
    path.write_text("[link]\nmeasured_loss_a_db = none\n")
    assert _load(path).link.measured_loss_a_db is None
    for body in ("[link]\nattenuation_db_per_km = none\n",
                 "[run]\nseed = none\n"):
        path.write_text(body)
        with pytest.raises(ConfigError, match="none"):
            _load(path)
        assert main(["keyrate", "--config", str(path)]) == 2


@pytest.mark.parametrize("body, error", [
    ("[protocol]\na_mu1 = 0.2\n",
     "party_a/party_b: intensity-balance deviation 1.2222 exceeds 0.05"),
    # No key lifts the balance rule.
    ("[security]\nallow_unbalanced = false\n",
     "unknown key(s): security.allow_unbalanced"),
    ("[protocol]\na_mu1 = 0.2\n[security]\nallow_unbalanced = true\n",
     "unknown key(s): security.allow_unbalanced"),
    # An epsilon_send of 0 or 1 leaves the balance condition undefined.
    ("[protocol]\nb_epsilon_send = 0\n",
     "balance condition undefined: denominator is zero"),
    ("[protocol]\na_epsilon_send = 0\n",
     "balance condition undefined: RHS is zero"),
], ids=["unbalanced", "opt-out-key", "opt-out-key-unbalanced",
        "zero-denominator", "zero-rhs"])
def test_cli_balance_rule_has_no_opt_out(tmp_path, capsys, body, error):
    path = tmp_path / "unbalanced.ini"
    path.write_text(body)
    assert main(["keyrate", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"configuration error: {error}\n"


def test_config_residual_field_and_balance_rule(tmp_path):
    path = tmp_path / "residual.ini"
    path.write_text("[noise]\nresidual_phase_std_rad = -0.1\n")
    with pytest.raises(ConfigError, match="noise: residual phase std"):
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
    ("keyrate", "[link]\nmeasured_loss_a_db = -5\n"),
    ("keyrate", "[link]\nextra_loss_a_db = -60\n"),
    ("stabilize", "[noise]\nclock_accuracy = -1\n"),
    ("stabilize", "[noise]\ncomb_span_hz = -1e11\n"),
], ids=["measured-loss", "extra-loss", "clock-accuracy", "comb-span"])
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
    base, _ = bench.analytic_keyrate(cfg)
    result = bench.optimize(cfg, budget=30)
    assert result.skr >= base
    assert check_sns_constraint(result.config.party_a,
                                result.config.party_b) <= 0.05


def test_optimize_recovers_perturbed_mu_z():
    cfg = get_preset("sym546")
    base, _ = bench.analytic_keyrate(cfg)
    bad_party = dataclasses.replace(cfg.party_a, mu_z=cfg.party_a.mu_z * 1.5)
    bad = dataclasses.replace(cfg, party_a=bad_party, party_b=bad_party)
    result = bench.optimize(bad, budget=60)
    assert result.skr >= 0.95 * base


def _reference_optimize(cfg, budget):
    """The search loop that scores every visit afresh, as the oracle of
    ``bench.optimize`` over all free parameters."""
    symmetric = cfg.party_a == cfg.party_b
    best_cfg = bench._apply(cfg, "mu_z", cfg.party_a.mu_z, symmetric) or cfg
    best_skr, _ = bench.analytic_keyrate(best_cfg)
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
                skr, _ = bench.analytic_keyrate(cand)
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


def _with_mode(preset, mode):
    cfg = get_preset(preset)
    return dataclasses.replace(
        cfg, security=dataclasses.replace(cfg.security, mode=mode))


@pytest.mark.parametrize("budget", [200, 25])
@pytest.mark.parametrize("preset, mode", [("sym546", "finite"),
                                          ("sym603", "asymptotic"),
                                          ("asym452", "asymptotic")])
def test_optimize_matches_reference_search(preset, mode, budget):
    cfg = _with_mode(preset, mode)
    assert bench.optimize(cfg, budget=budget) == _reference_optimize(cfg,
                                                                     budget)


@pytest.mark.parametrize("preset, mode, evaluations", [
    ("sym546", "asymptotic", 344), ("sym603", "asymptotic", 306),
    ("asym452", "asymptotic", 251), ("sym546", "finite", 238),
    ("sym603", "finite", 72), ("asym452", "finite", 282)])
def test_optimize_converges_inside_budget(preset, mode, evaluations):
    cfg = _with_mode(preset, mode)
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
    result = bench.optimize(_with_mode("sym546", "finite"), budget=200)
    assert result.evaluations == 200 and result.budget_exhausted
    scored = [(c.party_a, c.party_b) for c in calls]
    assert 0 < len(set(scored)) == len(scored) < result.evaluations


@pytest.mark.parametrize("preset, mode, most", [("sym546", "finite", 105),
                                                ("asym452", "asymptotic", 146)])
def test_optimize_reuses_click_outcomes(monkeypatch, preset, mode, most):
    """The two searches of the design-scan benchmark (budget 200) run the
    click model at most 105 and 146 times.  Scoring each candidate afresh
    runs it 161 and 168 times; once per distinct pair of intensity tuples
    would be 88 and 115.  The lower bound is that distinct count, so the
    check cannot pass by skipping the click model."""
    scored = _spy(monkeypatch, bench, "analytic_keyrate")
    clicks = _spy(monkeypatch, engine, "click_probability_arrays")
    result = bench.optimize(_with_mode(preset, mode), budget=200)
    assert result.evaluations == 200
    distinct = {(c.party_a.intensities, c.party_b.intensities) for c in scored}
    assert 0 < len(distinct) <= len(clicks) <= most


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


@pytest.mark.parametrize("preset", ["sym546", "sym603", "asym452"])
def test_cli_reports_match_golden_files(preset, capsys):
    """``preset show`` and the formatted ``keyrate`` rates are pinned.

    The golden files fix the INI schema (section and key order included)
    and the ``%.6e`` rate lines in both modes.  The raw expected counts
    are left out: they print with ``repr``, whose last digit can move
    between numpy builds.
    """
    assert main(["preset", "show", preset]) == 0
    assert capsys.readouterr().out == (
        GOLDEN / f"preset_{preset}.ini").read_text()
    for mode in ("asymptotic", "finite"):
        assert main(["keyrate", "--preset", preset, "--mode", mode]) == 0
        out = capsys.readouterr().out
        rates = out[out.index("y1a_lower\t"):]
        assert rates == (GOLDEN / f"keyrate_{preset}_{mode}.tsv").read_text()


_STABILIZE = ["stabilize", "--preset", "sym546", "--duration", "0.2",
              "--seed", "3", "--stages"]


@pytest.mark.parametrize("golden, argv", [
    ("verify.txt", ["verify"]),
    ("preset_list.txt", ["preset", "list"]),
    ("sweep_sym546.tsv", ["sweep", "--preset", "sym546",
                          "--distances", "300,546.61,650"]),
    *((f"simulate_{p}.tsv", ["simulate", "--preset", p, "--windows", "1e6",
                             "--seed", "3"])
      for p in ("sym546", "sym603", "asym452")),
    *((f"stabilize_sym546_{s}.tsv", _STABILIZE + [s])
      for s in ("none", "fastOnly", "full")),
    ("optimize_sym546_finite_head.tsv", ["optimize", "--preset", "sym546",
                                         "--mode", "finite", "--budget",
                                         "200"]),
    # At the preset's own window count, so every category has heralds.
    *((f"simulate_{p}_preset_windows_{m}.tsv",
       ["simulate", "--preset", p, "--seed", "3", "--mode", m])
      for p in ("sym546", "sym603", "asym452")
      for m in ("asymptotic", "finite")),
    *((f"stabilize_{p}_{s}.tsv",
       ["stabilize", "--preset", p] + _STABILIZE[3:] + [s])
      for p in ("sym603", "asym452")
      for s in ("none", "fastOnly", "full")),
    # Asymmetric: the search moves party A alone and re-derives B's mu1.
    ("optimize_asym452_head.tsv", ["optimize", "--preset", "asym452",
                                   "--budget", "200"]),
    # The 2 s lock of criterion 6 and of the benchmark's ideal-clock run.
    *((f"stabilize_sym546_2s_{s}.tsv",
       ["stabilize", "--preset", "sym546", "--duration", "2", "--seed", "3",
        "--stages", s])
      for s in ("none", "fastOnly", "full")),
], ids=lambda v: v if isinstance(v, str) else None)
def test_cli_file_reports_match_golden_files(tmp_path, golden, argv):
    """Every subcommand's ``--out`` report is pinned byte for byte.

    Only integer counts and ``%.6e`` values are pinned.  The optimized
    INI (``repr`` floats) is left out of the ``optimize`` goldens, which
    keep the three head lines.
    """
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 0
    text = out.read_text()
    if golden.startswith("optimize"):
        text = "".join(text.splitlines(True)[:3])
    assert text == (GOLDEN / golden).read_text()


def test_cli_series_matches_golden_hash(tmp_path):
    """The 0.2 s ``full`` series (about 2 MB) is pinned by its sha256."""
    series = tmp_path / "series.tsv"
    assert main(_STABILIZE + ["full", "--out", str(tmp_path / "report"),
                              "--series-out", str(series)]) == 0
    digest = hashlib.sha256(series.read_bytes()).hexdigest()
    assert digest + "\n" == (
        GOLDEN / "stabilize_sym546_full_series.sha256").read_text()


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


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
sys.modules["numpy.polynomial"] = None
from tfqkd.cli import main
runs = [
    ["verify"],
    ["keyrate", "--preset", "sym546"],
    ["keyrate", "--preset", "sym546", "--mode", "finite"],
    ["simulate", "--preset", "sym546", "--windows", "1e6"],
    *(["stabilize", "--preset", "sym546", "--duration", "0.2",
       "--stages", stages, "--series-out", f"{stages}.tsv"]
      for stages in ("none", "fastOnly", "full")),
    ["sweep", "--preset", "sym546", "--distances", "400,500"],
    ["optimize", "--preset", "sym546", "--budget", "20", "--out", "opt.ini"],
    ["preset", "show", "sym546"],
]
for argv in runs:
    code = main(argv)
    if code:
        sys.exit(f"{argv} exited {code}")
"""


def test_cli_subcommands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: every subcommand must run in an
    # interpreter where importing it fails.  numpy.polynomial is blocked
    # too, because loading it costs every process about 2 MB of RSS.
    env = dict(os.environ,
               PYTHONPATH=str(Path(tfqkd.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for stages in ("none", "fastOnly", "full"):
        assert (tmp_path / f"{stages}.tsv").stat().st_size > 0


_BLOCKED = """
import sys
for name in sys.argv[1].split(","):
    sys.modules[name] = None  # importing it now raises ImportError
from tfqkd.cli import main
golden = sys.argv[2]
runs = {
    "numpy": [
        ("preset_list.txt", ["preset", "list"]),
        *((f"preset_{p}.ini", ["preset", "show", p])
          for p in ("sym546", "sym603", "asym452")),
        (None, ["--help"]),
    ],
    "tfqkd.engine,tfqkd.postproc,tfqkd.bench": [
        (f"stabilize_sym546_{s}.tsv",
         ["stabilize", "--duration", "0.2", "--seed", "3", "--stages", s])
        for s in ("none", "fastOnly", "full")
    ],
    "tfqkd.servo": [
        ("keyrate_sym546_finite.tsv", ["keyrate", "--mode", "finite"]),
        ("simulate_sym546.tsv", ["simulate", "--windows", "1e6", "--seed", "3"]),
        ("sweep_sym546.tsv", ["sweep", "--distances", "300,546.61,650"]),
        ("optimize_sym546_finite_head.tsv",
         ["optimize", "--mode", "finite", "--budget", "200"]),
        ("verify.txt", ["verify"]),
    ],
}[sys.argv[1]]
for name, argv in runs:
    try:
        code = main(argv + ["--out", "report"] if name else argv)
    except SystemExit as exc:
        code = exc.code
    if code:
        sys.exit(f"{argv} exited {code}")
    if name:
        with open("report") as fh:
            text = fh.read()
        if name.startswith("keyrate"):
            text = text[text.index("y1a_lower\\t"):]
        elif name.startswith("optimize"):
            text = "".join(text.splitlines(True)[:3])
        with open(f"{golden}/{name}") as fh:
            if text != fh.read():
                sys.exit(f"{argv} does not match {name}")
"""


@pytest.mark.parametrize("blocked", [
    "numpy",
    "tfqkd.engine,tfqkd.postproc,tfqkd.bench",
    "tfqkd.servo",
])
def test_cli_subcommands_load_only_their_layers(tmp_path, blocked):
    """Each subcommand imports only the layers it runs.

    With the named modules blocked in a fresh interpreter: ``preset
    list``, ``preset show`` and ``--help`` run without numpy;
    ``stabilize`` without the engine, post-processing and bench layers;
    ``keyrate``, ``simulate``, ``sweep``, ``optimize`` and ``verify``
    without the servo.  Each report still matches its golden file.
    """
    env = dict(os.environ,
               PYTHONPATH=str(Path(tfqkd.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _BLOCKED, blocked,
                           str(GOLDEN)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
