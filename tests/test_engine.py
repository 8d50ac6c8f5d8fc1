"""Session-count engine: determinism, cell probabilities, a per-window
oracle, a per-category oracle, and analytic checks."""
import dataclasses
import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.stats import norm, poisson

from test_channel_truth import in_mode
from tfqkd import bench, engine
from tfqkd.counts import CATEGORIES, CountsTable
from tfqkd.engine import (_GH_NODES, _GH_WEIGHTS, N_SLICES, cell_probabilities,
                          click_outcomes, expected_counts, simulate)
from tfqkd.optics import click_probability_arrays
from tfqkd.presets import PRESETS, DetectorModel, ExperimentConfig, get_preset
from tfqkd.ratecore import PartySettings


@pytest.fixture(scope="module")
def cfg546():
    return get_preset("sym546")


# ------------------------------------------------------------ counts table

def test_category_set():
    # Every (basis A, basis B, intensity A, intensity B) key the sources
    # can emit, once: Z windows only use intensity indices {0, 3}, X
    # windows {0, 1, 2}.  Reports list them grouped by basis pair (ZZ,
    # ZX, XZ, XX), then by A's index, then by B's.
    levels = {"Z": "03", "X": "012"}
    every = [ba + bb + ia + ib for ba in "ZX" for bb in "ZX"
             for ia in levels[ba] for ib in levels[bb]]
    assert CATEGORIES == tuple(every)
    assert len(set(CATEGORIES)) == 25


# ----------------------------------------------------------- simulation

def test_empty_session(cfg546):
    table = simulate(cfg546, 0, seed=0)
    assert table.n_windows == 0
    assert sum(table.windows.values()) == 0


def test_seed_determinism(cfg546):
    t1 = simulate(cfg546, 500_000, seed=9)
    t2 = simulate(cfg546, 500_000, seed=9)
    assert t1 == t2
    t3 = simulate(cfg546, 500_000, seed=10)
    assert t3 != t1


def test_window_partition(cfg546):
    table = simulate(cfg546, 1_000_000, seed=2)
    assert sum(table.windows.values()) == table.n_windows
    for cat in CATEGORIES:
        assert 0 <= table.heralds[cat] <= table.windows[cat]
    assert 0 <= table.x11_errors <= table.x11_total
    assert 0 <= table.x22_errors <= table.x22_total
    assert table.x11_total <= table.heralds["XX11"]


def _mu1_decoy_windows(cfg, n: int, seed: int) -> int:
    """User A's decoy windows at ``mu1`` in an ``n``-window session."""
    table = simulate(cfg, n, seed=seed)
    return sum(table.windows[c] for c in CATEGORIES
               if c[0] == "X" and c[2] == "1")


def test_choice_frequencies(cfg546):
    """Decoy-window mu1 frequency: P(X) * p_mu1 within 3 sigma binomial.

    The count is exactly binomial, so a correct engine fails this
    two-sided check with probability 2.70e-3 per seed (exact binomial
    tail); 240 of seeds 0-99,999 failed (2.4e-3).
    :func:`test_choice_frequencies_pooled_over_seeds` is its pooled
    companion.
    """
    n = 10_000_000
    pa = cfg546.party_a
    p = (1.0 - pa.p_signal_window) * pa.p_mu1
    observed = _mu1_decoy_windows(cfg546, n, seed=6)
    sigma = math.sqrt(n * p * (1.0 - p))
    assert abs(observed - n * p) <= 3.0 * sigma


def test_choice_frequencies_pooled_over_seeds(cfg546):
    """Pooled companion of :func:`test_choice_frequencies` over seeds
    0-31: the summed count of 3.2e8 windows is binomial too, and must
    lie within 5 sigma, a two-sided false-alarm probability of 5.7e-7.
    Relative to the expected count, that band is 0.88 single-seed sigma
    wide, against the single-seed test's 3.  None of the 3,125 disjoint 32-seed blocks of seeds
    0-99,999 failed (largest |z| 3.19)."""
    n, seeds = 10_000_000, range(32)
    pa = cfg546.party_a
    p = (1.0 - pa.p_signal_window) * pa.p_mu1
    observed = sum(_mu1_decoy_windows(cfg546, n, seed) for seed in seeds)
    total = n * len(seeds)
    assert abs(observed - total * p) <= 5.0 * math.sqrt(total * p * (1.0 - p))


# ------------------------------------------------------ analytic expectation

def test_expected_counts_dark_limited(cfg546):
    # Opaque link: every heralded event is a dark count, so each
    # category expectation is N * P(category) * (pd0 + pd1) to first
    # order.
    link = dataclasses.replace(cfg546.link, loss_a_db=300.0, loss_b_db=300.0)
    s = dataclasses.replace(cfg546, link=link)
    n = 1e9
    table = expected_counts(s, n)
    det = s.detectors
    pd = det.dark_prob_d0 * (1 - det.dark_prob_d1) \
        + det.dark_prob_d1 * (1 - det.dark_prob_d0)
    for cat in ("ZZ33", "ZZ00", "XX11", "XZ20"):
        p_cat = table.windows[cat] / n
        assert table.heralds[cat] == pytest.approx(n * p_cat * pd, rel=1e-3)


def test_expected_counts_zz_ratio(cfg546):
    # Both-sent vs one-sent signal-window herald ratio on the long link.
    table = expected_counts(cfg546, 1e12)
    ratio = table.heralds["ZZ33"] / table.heralds["ZZ03"]
    assert ratio == pytest.approx(3107361 / 4005761, rel=0.15)


def test_expected_counts_deterministic(cfg546):
    t1 = expected_counts(cfg546, 1e10)
    t2 = expected_counts(cfg546, 1e10)
    assert t1 == t2


def test_simulation_matches_expectation_totals(cfg546):
    """Summed heralds within 4 sqrt(expected) of the expectation.

    At 2e6 windows the expected total is only 1.81 heralds, so the sum
    is Poisson to good accuracy and the check fails a correct engine
    when it reaches 8: 5.9e-4 per seed (Poisson tail); 55 of seeds
    0-99,999 failed (5.5e-4).
    """
    n = 2_000_000
    mc = simulate(cfg546, n, seed=8)
    exp = expected_counts(cfg546, n)
    total_mc = sum(mc.heralds.values())
    total_exp = sum(exp.heralds.values())
    assert abs(total_mc - total_exp) <= 4.0 * math.sqrt(total_exp)


def test_simulation_matches_expectation_totals_at_1e12_windows(cfg546):
    """Companion of the 2e6-window check, where it has the power to fail.

    At 2e6 windows the expected total is only 1.81 heralds, so that
    check passes any engine yielding 0 to 7 heralds and cannot see a
    herald-rate error below a factor of about 4.  ``simulate`` costs the
    same at 1e12 windows, where 906,534 heralds are expected and the
    band 4 sqrt(expected) = 3,808 is 0.42% of the total.  The sum is
    Poisson to good accuracy, so the check is a two-sided 4 sigma test
    that fails a correct engine with probability 6.3e-5 per seed; 3 of
    seeds 0-99,999 failed (z-score SD 0.997).
    """
    n = 10**12
    mc = simulate(cfg546, n, seed=8)
    exp = expected_counts(cfg546, n)
    total_mc = sum(mc.heralds.values())
    total_exp = sum(exp.heralds.values())
    assert abs(total_mc - total_exp) <= 4.0 * math.sqrt(total_exp)


# ------------------------------------------------- per-window oracle

def _draw_window(u: np.ndarray, p: PartySettings):
    """Map one uniform per window to (is_signal_window, intensity_index).

    Signal windows send (index 3) with probability epsilon, else stay
    at the vacuum index; decoy windows split over the three decoy
    intensities.
    """
    pz = p.p_signal_window
    is_z = u < pz
    idx = np.full(u.shape, 2, dtype=np.int8)
    idx[u < pz * p.epsilon_send] = 3
    idx[(u >= pz * p.epsilon_send) & is_z] = 0
    px = 1.0 - pz
    idx[(u >= pz) & (u < pz + px * p.p_mu0)] = 0
    idx[(u >= pz + px * p.p_mu0) & (u < pz + px * (p.p_mu0 + p.p_mu1))] = 1
    return is_z, idx


def _per_window_counts(cfg: ExperimentConfig, n: int, seed: int) -> CountsTable:
    """Simulate ``n`` windows one by one, each with its own random draws.

    Every window draws both users' basis, intensity and phase slice, a
    Gaussian residual phase and a detector outcome, so this checks the
    aggregate cell probabilities against window-level physics.
    """
    pa, pb = cfg.party_a, cfg.party_b
    rng = np.random.default_rng(seed)
    za, ia = _draw_window(rng.random(n), pa)
    sa = (rng.random(n) * N_SLICES).astype(np.int16)
    zb, ib = _draw_window(rng.random(n), pb)
    sb = (rng.random(n) * N_SLICES).astype(np.int16)
    resid = rng.standard_normal(n) * cfg.noise.residual_phase_std_rad
    dtheta = (sa - sb) % N_SLICES
    delta = 2.0 * math.pi * dtheta / N_SLICES + resid
    p0, p1 = click_probability_arrays(
        np.asarray(pa.intensities)[ia], np.asarray(pb.intensities)[ib], delta,
        cfg.link, cfg.detectors, cfg.noise)
    u = rng.random(n)
    none_p = (1.0 - p0) * (1.0 - p1)
    only0_p = none_p + p0 * (1.0 - p1)
    only1_p = only0_p + (1.0 - p0) * p1
    c0 = (u >= none_p) & (u < only0_p)
    c1 = (u >= only0_p) & (u < only1_p)
    herald = c0 | c1

    code = ((za * 4 + ia) * 2 + zb) * 4 + ib
    win_counts = np.bincount(code, minlength=128)
    her_counts = np.bincount(code[herald], minlength=128)
    windows, heralds = {}, {}
    for cat in CATEGORIES:
        c = (((cat[0] == "Z") * 4 + int(cat[2])) * 2 + (cat[1] == "Z")) * 4 \
            + int(cat[3])
        windows[cat] = int(win_counts[c])
        heralds[cat] = int(her_counts[c])
    matched = ~za & ~zb & (ia == ib) & ((dtheta == 0) | (dtheta == 8)) & herald
    # Slice difference 0 targets detector 0 and difference 8 detector 1.
    wrong = np.where(dtheta == 0, c1, c0)
    decoys = {}
    for level in (1, 2):
        m = matched & (ia == level)
        decoys[f"x{level}{level}_total"] = int(m.sum())
        decoys[f"x{level}{level}_errors"] = int((m & wrong).sum())
    return CountsTable(n_windows=n, windows=windows, heralds=heralds, **decoys)


def _table_entries(t: CountsTable) -> dict:
    entries = {f"windows[{c}]": t.windows[c] for c in CATEGORIES}
    entries.update({f"heralds[{c}]": t.heralds[c] for c in CATEGORIES})
    for key in ("x11_total", "x11_errors", "x22_total", "x22_errors"):
        entries[key] = getattr(t, key)
    return entries


def test_gauss_hermite_constants_match_hermegauss():
    # The quadrature is written out as literals to keep numpy.polynomial
    # off the import path; they must equal the computed rule bit for bit.
    nodes, weights = np.polynomial.hermite_e.hermegauss(17)
    assert _GH_NODES.tobytes() == nodes.tobytes()
    assert _GH_WEIGHTS.tobytes() == (weights / weights.sum()).tobytes()


@pytest.mark.parametrize("preset", ["sym546", "asym452"])
def test_cell_probabilities_normalized(preset):
    p = cell_probabilities(get_preset(preset))
    assert p.shape == (len(CATEGORIES), N_SLICES, 4)
    assert (p >= 0).all()
    assert abs(p.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("preset", ["sym546", "asym452"])
def test_per_window_oracle_matches_expectation(preset):
    """A window-by-window sampler lands inside exact 4-sigma Poisson
    intervals around ``expected_counts`` on all 54 table entries.

    The arms are shortened to 10/12 dB so that the herald and x11/x22
    cells are populated at 2e6 windows.  Each entry fails with
    probability at most 2 * norm.sf(4) = 6.3e-5 (the counts are binomial,
    which is less dispersed than Poisson), so by the union bound the
    two presets' 108 checks raise a false alarm with probability below
    7e-3.
    """
    cfg = get_preset(preset)
    link = dataclasses.replace(cfg.link, loss_a_db=10.0, loss_b_db=12.0)
    cfg = dataclasses.replace(cfg, link=link)
    n = 2_000_000
    observed = _table_entries(_per_window_counts(cfg, n, seed=0))
    expected = _table_entries(expected_counts(cfg, n))
    alpha = 2.0 * norm.sf(4.0)
    failures = []
    for key, mu in expected.items():
        lo, hi = poisson.ppf(alpha / 2.0, mu), poisson.ppf(1.0 - alpha / 2.0, mu)
        if not lo <= observed[key] <= hi:
            failures.append(f"{key}: {observed[key]} outside [{lo:.0f}, "
                            f"{hi:.0f}] for mean {mu:.1f}")
    assert len(expected) == 54
    assert expected["x11_errors"] > 1.0 and expected["x22_errors"] > 1.0
    assert not failures, "; ".join(failures)


# ------------------------------------------------- per-category oracle

_GH = np.polynomial.hermite_e.hermegauss(17)


def _reference_class_prob(basis: str, i: int, p: PartySettings) -> float:
    if basis == "Z":
        pz = p.p_signal_window
        return pz * (p.epsilon_send if i == 3 else 1.0 - p.epsilon_send)
    return (1.0 - p.p_signal_window) * (p.p_mu0, p.p_mu1, p.p_mu2)[i]


def _reference_cell_probabilities(cfg: ExperimentConfig) -> np.ndarray:
    """The straightforward kernel, as the bit-for-bit oracle of
    :func:`cell_probabilities`: the click model evaluated on all 25
    categories (no intensity-pair gather), then each outcome product
    averaged by its own 3-D ``matmul`` and the four stacked."""
    pa, pb = cfg.party_a, cfg.party_b
    sigma = cfg.noise.residual_phase_std_rad
    if sigma > 0:
        nodes, weights = _GH
        offsets, weights = nodes * sigma, weights / weights.sum()
    else:
        offsets = np.zeros(1)
        weights = np.ones(1)
    delta = (2.0 * math.pi * np.arange(N_SLICES) / N_SLICES)[:, None] + offsets
    ia = np.array([int(c[2]) for c in CATEGORIES])
    ib = np.array([int(c[3]) for c in CATEGORIES])
    mu_a = np.asarray(pa.intensities)[ia][:, None, None]
    mu_b = np.asarray(pb.intensities)[ib][:, None, None]
    cat_prob = np.array([_reference_class_prob(c[0], int(c[2]), pa)
                         * _reference_class_prob(c[1], int(c[3]), pb)
                         for c in CATEGORIES])
    p0, p1 = click_probability_arrays(mu_a, mu_b, delta, cfg.link,
                                      cfg.detectors, cfg.noise)
    q0, q1 = 1.0 - p0, 1.0 - p1
    outcomes = np.stack([(a * b) @ weights for a, b in
                         ((q0, q1), (p0, q1), (q0, p1), (p0, p1))], axis=2)
    return outcomes * (cat_prob / N_SLICES)[:, None, None]


def _assert_same_cells(cfg) -> None:
    got = cell_probabilities(cfg)
    want = _reference_cell_probabilities(cfg)
    assert got.shape == want.shape == (len(CATEGORIES), N_SLICES, 4)
    # C order matters beyond the values: _project sums over axes, and
    # another memory order adds the same cells in another order.
    assert got.flags.c_contiguous and click_outcomes(cfg).flags.c_contiguous
    assert got.tobytes() == want.tobytes(), cfg


def _random_party(rng: np.random.Generator, mu0: float) -> PartySettings:
    mu1, mu2 = np.sort(rng.uniform(mu0 + 1e-3, 1.0, size=2))
    p_mu0 = rng.uniform(0.0, 0.3)
    p_mu1 = rng.uniform(0.0, 1.0 - p_mu0)
    return PartySettings(mu_z=rng.uniform(0.01, 1.0), mu2=mu2, mu1=mu1,
                         mu0=mu0, p_signal_window=rng.uniform(0.05, 0.95),
                         epsilon_send=rng.uniform(0.01, 0.99), p_mu0=p_mu0,
                         p_mu1=p_mu1)


class _EngineParts(NamedTuple):
    """The five parts of a config that the engine reads.  Random parties
    break the intensity-balance rule, which ``ExperimentConfig`` enforces;
    the engine does not depend on it."""

    link: object
    detectors: object
    party_a: PartySettings
    party_b: PartySettings
    noise: object


def _random_config(rng: np.random.Generator, mu0: float | None,
                   sigma: float | None) -> _EngineParts:
    """A random asymmetric config; ``None`` draws ``mu0`` per party and
    the residual phase std at random."""
    base = PRESETS[sorted(PRESETS)[rng.integers(len(PRESETS))]]
    mu0s = rng.uniform(0.0, 5e-3, size=2) if mu0 is None else (mu0, mu0)
    noise = dataclasses.replace(
        base.noise, visibility=rng.uniform(0.7, 1.0),
        residual_phase_std_rad=rng.uniform(0.0, 0.6) if sigma is None
        else sigma)
    link = dataclasses.replace(base.link,
                               loss_a_db=rng.uniform(0.0, 60.0),
                               loss_b_db=rng.uniform(0.0, 60.0))
    return _EngineParts(
        link=link, detectors=base.detectors,
        party_a=_random_party(rng, mu0s[0]),
        party_b=_random_party(rng, mu0s[1]), noise=noise)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_cell_probabilities_match_per_category_oracle_on_presets(preset):
    _assert_same_cells(get_preset(preset))


@pytest.mark.parametrize("sigma", [0.0, None], ids=["sigma0", "sigma_random"])
@pytest.mark.parametrize("mu0", [0.0, 2e-4, None],
                         ids=["mu0_zero", "mu0_2e-4", "mu0_random"])
def test_cell_probabilities_match_per_category_oracle(mu0, sigma):
    """Bit-for-bit equality on 60 seeded random asymmetric configs per
    case, 360 in all: random parties, arm losses and visibility, with
    the ``mu0`` and residual-phase cases named in the parameters."""
    rng = np.random.default_rng(0)
    for _ in range(60):
        _assert_same_cells(_random_config(rng, mu0, sigma))


#: The eight intensities the click model reads, as (party, field).
_INTENSITIES = tuple((party, mu) for party in ("party_a", "party_b")
                     for mu in ("mu0", "mu1", "mu2", "mu_z"))
#: Every input the click model reads, as (settings attribute, field):
#: the eight intensities, the four arm losses, each detector field, and
#: the two noise fields of the interference.
_CLICK_INPUTS = (
    *_INTENSITIES,
    *(("link", f) for f in ("loss_a_db", "loss_b_db", "extra_loss_a_db",
                            "extra_loss_b_db")),
    *(("detectors", f.name)
      for f in dataclasses.fields(DetectorModel)),
    ("noise", "visibility"), ("noise", "residual_phase_std_rad"))


def _fresh_outcomes(cfg) -> np.ndarray:
    """All 16 intensity-pair rows of ``cfg``'s click-outcome tensor,
    built afresh, with no kept tensor read."""
    return engine._outcome_rows(cfg.party_a.intensities,
                                cfg.party_b.intensities, np.arange(16),
                                cfg.link, cfg.detectors, cfg.noise)


def test_click_outcomes_cached_by_click_inputs():
    """The kept tensor is shared by configs that differ only outside the
    click model, is read-only, and is never served for another input:
    a 1% change of any one click input gives a new tensor, equal byte
    for byte to a fresh build."""
    cfg = get_preset("asym452")
    base = click_outcomes(cfg)
    party = dataclasses.replace(cfg.party_a, p_signal_window=0.5, p_mu1=0.5)
    other = dataclasses.replace(cfg, party_a=party, run=dataclasses.replace(
        cfg.run, seed=cfg.run.seed + 1))
    assert click_outcomes(other) is base
    with pytest.raises(ValueError):
        base[0, 0, 0] = 0.5
    for attr, name in _CLICK_INPUTS:
        part = getattr(cfg, attr)
        changed = dataclasses.replace(
            cfg, **{attr: dataclasses.replace(
                part, **{name: getattr(part, name) * 1.01})})
        got = click_outcomes(changed)
        assert got.tobytes() != base.tobytes(), (attr, name)
        assert got.tobytes() == _fresh_outcomes(changed).tobytes(), (attr, name)


def _engine_parts(cfg: ExperimentConfig) -> _EngineParts:
    return _EngineParts(link=cfg.link, detectors=cfg.detectors,
                        party_a=cfg.party_a, party_b=cfg.party_b,
                        noise=cfg.noise)


@pytest.mark.parametrize("case", [*sorted(PRESETS), "sym546_sigma0"])
def test_patched_click_outcomes_match_fresh_build(case):
    """A tensor patched from a kept one equals a fresh build byte for
    byte, for every change of one or two of the eight intensities over
    both parties (7% each; no balance rule applies), with and without
    the residual-phase average.  Only the changed rows are computed:
    ``16 - (4 - a)(4 - b)`` of them for ``a`` changed user A and ``b``
    changed user B intensities."""
    preset = get_preset(case.split("_")[0])
    if case.endswith("sigma0"):
        preset = dataclasses.replace(preset, noise=dataclasses.replace(
            preset.noise, residual_phase_std_rad=0.0))
    base = _engine_parts(preset)
    for k in (1, 2):
        for changes in itertools.combinations(_INTENSITIES, k):
            engine._KEPT.clear()
            click_outcomes(base)
            cfg = base
            for attr, name in changes:
                part = getattr(cfg, attr)
                cfg = cfg._replace(**{attr: dataclasses.replace(
                    part, **{name: getattr(part, name) * 1.07})})
            got = click_outcomes(cfg)
            n_a = sum(attr == "party_a" for attr, _ in changes)
            assert engine._KEPT.rows == 16 + 16 - (4 - n_a) * (4 - k + n_a)
            assert got.tobytes() == _fresh_outcomes(cfg).tobytes(), changes


def test_search_replay_serves_only_fresh_builds(monkeypatch):
    """Both searches of the design-scan benchmark (budget 200), run from
    a cleared table, are served no tensor that differs from a fresh
    build, and most of their misses are patched, not built afresh."""
    served = []

    def recording(cfg):
        outcomes = click_outcomes(cfg)
        served.append((cfg, outcomes))
        return outcomes

    monkeypatch.setattr(engine, "click_outcomes", recording)
    engine._KEPT.clear()
    for cfg in (in_mode(get_preset("sym546"), "finite"),
                get_preset("asym452")):
        bench.optimize(cfg, budget=200)
    assert served and 2 * engine._KEPT.rows < 16 * engine._KEPT.misses
    for cfg, outcomes in served:
        assert outcomes.tobytes() == _fresh_outcomes(cfg).tobytes()
