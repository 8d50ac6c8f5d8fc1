"""Post-processing: decoy bounds, Chernoff intervals, sifting, pairing."""
import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from test_channel_truth import in_mode
from tfqkd.bench import analytic_keyrate
from tfqkd.counts import CountsTable
from tfqkd.engine import expected_counts, simulate
from tfqkd.postproc import (PairingResult, ZBasisStats, aopp_phase_error,
                            chernoff_lower, chernoff_upper, decoy_bounds,
                            odd_parity_pairing, process, z_basis_stats)
from tfqkd.presets import get_preset
from tfqkd.ratecore import PartySettings, SecuritySettings, key_rate


# ------------------------------------------------------ phase-error map

def test_aopp_phase_error_paper_values():
    # Agreement to one unit in the fourth significant digit; the source
    # figures were themselves rounded to four digits before the map.
    assert aopp_phase_error(0.1128) == pytest.approx(0.2001, abs=1e-4)
    assert aopp_phase_error(0.0790) == pytest.approx(0.1455, abs=1e-4)
    assert aopp_phase_error(0.0994) == pytest.approx(0.1790, abs=1e-4)


def test_aopp_phase_error_edges():
    assert aopp_phase_error(0.0) == 0.0
    assert aopp_phase_error(0.5) == 0.5
    with pytest.raises(ValueError):
        aopp_phase_error(0.6)
    with pytest.raises(ValueError):
        aopp_phase_error(-0.1)


@given(st.floats(min_value=1e-6, max_value=0.5 - 1e-6))
def test_aopp_phase_error_no_interior_fixed_point(e):
    assert aopp_phase_error(e) > e


# ------------------------------------------------------ Chernoff bounds

def test_chernoff_upper_zero_observation():
    assert chernoff_upper(0, 1e-10) == pytest.approx(23.03, abs=0.01)


def test_chernoff_large_count_scaling():
    gap = chernoff_upper(1e6, 1e-10) - 1e6
    assert 6.6e3 <= gap <= 7.0e3


def test_chernoff_vanishing_confidence():
    assert chernoff_upper(1000.0, 1 - 1e-12) == pytest.approx(1000.0, rel=1e-3)
    assert chernoff_lower(1000.0, 1 - 1e-12) == pytest.approx(1000.0, rel=1e-3)


def test_chernoff_lower_zero():
    assert chernoff_lower(0, 1e-10) == 0.0


@given(st.floats(min_value=1.0, max_value=1e9),
       st.floats(min_value=1e-12, max_value=0.1))
@hyp_settings(deadline=None)
def test_chernoff_brackets_observation(obs, eps):
    lo = chernoff_lower(obs, eps)
    hi = chernoff_upper(obs, eps)
    assert lo <= obs <= hi
    # Bound consistency: solving at the bound recovers the budget.
    assert hi > obs > lo or obs < 1.0


def test_chernoff_tightens_with_eps():
    assert chernoff_upper(1e4, 1e-3) < chernoff_upper(1e4, 1e-10)
    assert chernoff_lower(1e4, 1e-3) > chernoff_lower(1e4, 1e-10)


@pytest.mark.parametrize("bound", [chernoff_upper, chernoff_lower])
@pytest.mark.parametrize("observed, eps, error", [
    (-1.0, 1e-3, "observed count must be nonnegative"),
    # The root search would never settle on either.
    (math.nan, 1e-3, "observed count must be nonnegative and finite"),
    (math.inf, 1e-3, "observed count must be nonnegative and finite"),
    (5.0, 0.0, r"eps must lie in \(0, 1\)"),
    (5.0, 1.0, r"eps must lie in \(0, 1\)"),
])
def test_chernoff_rejects_bad_arguments(bound, observed, eps, error):
    with pytest.raises(ValueError, match=error):
        bound(observed, eps)


def test_chernoff_matches_brentq_reference():
    """Both bounds agree with a tight bracketing solve to rel 1e-9.

    The grid spans m from 0.5 to 3e11 and eps from 1e-30 to 0.3, plus
    counts just above, at and below ln(1/eps), where the lower bound
    switches to 0.
    """
    from scipy.optimize import brentq

    for eps in np.geomspace(1e-30, 0.3, 15):
        lam = -math.log(eps)
        counts = list(np.geomspace(0.5, 3e11, 40))
        counts += [lam * k for k in (0.5, 1.0, 1.0 + 1e-6, 1.5, 7.0, 8.0)]
        for m in counts:
            def g(x):
                return x * math.log(m / x) + x - m + lam

            hi = brentq(g, m, m + 2.0 * math.sqrt(lam * m) + 2.0 * lam + 1.0,
                        xtol=1e-300, rtol=9e-16, maxiter=500)
            assert chernoff_upper(m, eps) == pytest.approx(hi, rel=1e-9)
            if m <= lam:
                assert chernoff_lower(m, eps) == 0.0
            else:
                lo = brentq(g, m * 1e-300, m, xtol=1e-300, rtol=9e-16,
                            maxiter=500)
                assert chernoff_lower(m, eps) == pytest.approx(lo, rel=1e-9)


# --------------------------------------------------------------- pairing

def aopp_pair(alice_bits, bob_bits, rng) -> PairingResult:
    """Odd-parity pairing of explicit sifted bit strings.

    Bob pairs each of his 0-bits with a distinct, randomly chosen 1-bit
    (pair count = min of the group sizes).  A pair survives when Alice's
    two bits have odd parity; each surviving pair emits the bit at the
    pair's first position.  The strings are compared under the
    anti-correlated key convention: a position is correct when the two
    bits differ, so an emitted bit is wrong exactly when both members
    of the pair were wrong.  This bit-level oracle checks the aggregate
    ``odd_parity_pairing``.
    """
    alice = list(alice_bits)
    bob = list(bob_bits)
    if len(alice) != len(bob):
        raise ValueError("bit strings must have equal length")
    zeros = [i for i, b in enumerate(bob) if b == 0]
    ones = [i for i, b in enumerate(bob) if b == 1]
    n_pairs = min(len(zeros), len(ones))
    if n_pairs == 0:
        return PairingResult(0, 0.0, 0.0, 0.0)
    zeros = [zeros[k] for k in rng.permutation(len(zeros))[:n_pairs]]
    ones = [ones[k] for k in rng.permutation(len(ones))[:n_pairs]]
    surviving = 0
    errors = 0
    for i, j in zip(zeros, ones):
        if alice[i] == alice[j]:
            continue
        surviving += 1
        first = min(i, j)
        if alice[first] == bob[first]:
            errors += 1
    e_prime = errors / surviving if surviving else 0.0
    return PairingResult(pairs=n_pairs, surviving_pairs=float(surviving),
                         e_bit_prime=e_prime, n1_prime=0.0)


def test_aopp_pair_complementary_strings():
    rng = np.random.default_rng(0)
    r = aopp_pair([1, 0, 1, 0], [0, 1, 0, 1], rng)
    assert r.pairs == 2
    assert r.surviving_pairs == 2.0
    assert r.e_bit_prime == 0.0


def test_aopp_pair_nothing_to_pair():
    rng = np.random.default_rng(0)
    assert aopp_pair([1, 1, 1], [0, 0, 0], rng).pairs == 0
    assert aopp_pair([], [], rng).pairs == 0


def test_aopp_pair_length_mismatch():
    with pytest.raises(ValueError):
        aopp_pair([0, 1], [0], np.random.default_rng(0))


def _pairing_oracle(alice, bob):
    """Exact expected (surviving, errors) by enumerating all pairings."""
    zeros = [i for i, b in enumerate(bob) if b == 0]
    ones = [i for i, b in enumerate(bob) if b == 1]
    m = min(len(zeros), len(ones))
    total_s = total_e = count = 0
    for zs in itertools.permutations(zeros, m):
        for os_ in itertools.permutations(ones, m):
            count += 1
            for i, j in zip(zs, os_):
                if alice[i] == alice[j]:
                    continue
                total_s += 1
                first = min(i, j)
                if alice[first] == bob[first]:
                    total_e += 1
    return total_s / count, total_e / count


def test_aopp_pair_matches_exhaustive_oracle():
    bob = [0, 1, 0, 1, 0, 1, 0, 1, 1, 0]
    # Alice: complement of Bob (all-correct) with errors planted at
    # positions 0, 3 and 7.
    alice = [1 - b for b in bob]
    for pos in (0, 3, 7):
        alice[pos] = bob[pos]
    want_s, want_e = _pairing_oracle(alice, bob)
    n_trials = 4000
    got_s = np.empty(n_trials)
    got_e = np.empty(n_trials)
    for k in range(n_trials):
        r = aopp_pair(alice, bob, np.random.default_rng(k))
        got_s[k] = r.surviving_pairs
        got_e[k] = r.e_bit_prime * r.surviving_pairs
    for got, want in ((got_s, want_s), (got_e, want_e)):
        sem = got.std(ddof=1) / math.sqrt(n_trials)
        assert abs(got.mean() - want) <= 4.0 * max(sem, 1e-12)


def test_odd_parity_pairing_matches_bit_level_oracle():
    """The aggregate pairing equals the bit-level pairing's mean.

    4000 sifted bits with error fractions 0.3 planted in Bob's 0-group
    and 0.1 in his 1-group, paired under 200 seeds.  Each of the two
    checks uses a 4-sigma band on the seed mean; together they raise a
    false alarm with probability about 1.3e-4.
    """
    rng = np.random.default_rng(0)
    bob = rng.integers(0, 2, 4000)
    alice = 1 - bob
    groups = []
    for bit, e in ((0, 0.3), (1, 0.1)):
        idx = np.flatnonzero(bob == bit)
        alice[rng.choice(idx, round(e * idx.size), replace=False)] = bit
        groups.append((idx.size, float(np.mean(alice[idx] == bit))))
    (g0, e0), (g1, e1) = groups
    z = ZBasisStats(nt=g0 + g1, errors=round(e0 * g0 + e1 * g1),
                    group0=g0, group1=g1, e0=e0, e1=e1)
    want = odd_parity_pairing(z, 0.0, 0.0)
    runs = [aopp_pair(alice, bob, np.random.default_rng(k)) for k in range(200)]
    assert all(r.pairs == want.pairs for r in runs)
    for attr in ("surviving_pairs", "e_bit_prime"):
        got = np.array([getattr(r, attr) for r in runs])
        sem = got.std(ddof=1) / math.sqrt(got.size)
        assert abs(got.mean() - getattr(want, attr)) <= 4.0 * sem


# ------------------------------------------------------ sifting statistics

def _z_table(zz33, zz30, zz03, zz00):
    t = CountsTable(n_windows=10**9)
    for cat, v in (("ZZ33", zz33), ("ZZ30", zz30), ("ZZ03", zz03),
                   ("ZZ00", zz00)):
        t.heralds[cat] = v
        t.windows[cat] = 10 * v + 1
    return t


def test_z_basis_stats_hand_example():
    z = z_basis_stats(_z_table(10, 100, 200, 5))
    assert z.group0 == 210 and z.group1 == 105
    assert z.nt == 315 and z.errors == 15
    assert z.e0 == pytest.approx(10 / 210)
    assert z.e1 == pytest.approx(5 / 105)
    assert z.qber == pytest.approx(15 / 315)


#: A measured Z-window herald column (ZZ33, ZZ30, ZZ03, ZZ00), with the
#: magnitudes of the 546 km link.
_PAPER_Z_COLUMN = (3107361, 4396652, 4005761, 51305)


def test_z_basis_stats_paper_column():
    z = z_basis_stats(_z_table(*_PAPER_Z_COLUMN))
    assert z.qber == pytest.approx(0.2732, abs=2e-4)


def test_sym546_expected_heralds_match_paper_column():
    """sym546's calibrated link reproduces the measured Z-window column.

    At the preset's 2.772e13 windows the expected heralds deviate from
    the column by ZZ33 +1.28%, ZZ30 +0.73%, ZZ03 +3.38% and ZZ00
    -6.68%.  The three signal categories are held to 5% and the
    dark-count-dominated ZZ00 to 10%, so the calibrated losses and dark
    gate are checked against data, not only against the code's past.
    """
    cfg = get_preset("sym546")
    table = expected_counts(cfg, cfg.run.n_windows)
    for cat, measured, tol in zip(("ZZ33", "ZZ30", "ZZ03", "ZZ00"),
                                  _PAPER_Z_COLUMN, (0.05, 0.05, 0.05, 0.10)):
        assert table.heralds[cat] == pytest.approx(measured, rel=tol), cat


def test_pairing_paper_column():
    z = z_basis_stats(_z_table(*_PAPER_Z_COLUMN))
    r = odd_parity_pairing(z, 2.4e6, 2.4e6)
    assert r.e_bit_prime == pytest.approx(0.0090, abs=2e-4)
    assert r.pairs == min(z.group0, z.group1)
    assert r.surviving_pairs <= r.pairs


def test_pairing_empty_group():
    z = z_basis_stats(_z_table(0, 100, 0, 0))
    assert odd_parity_pairing(z, 10.0, 10.0).pairs == 0


# --------------------------------------------------------- decoy bounds

def _pure_loss_table(eta, party, n=10**12):
    """Counts for a lossless-model channel: S_mu = 1 - exp(-eta mu)."""
    t = CountsTable(n_windows=n)
    per_cat = 10**9
    for side, mus in (("XZ", (party.mu0, party.mu1, party.mu2)),
                      ("ZX", (party.mu0, party.mu1, party.mu2))):
        for idx, mu in enumerate(mus):
            cat = f"{side}{idx}0" if side == "XZ" else f"{side}0{idx}"
            t.windows[cat] = per_cat
            t.heralds[cat] = round(per_cat * (1.0 - math.exp(-eta * mu)))
    return t


def test_decoy_pure_loss_oracle():
    party = PartySettings(mu_z=0.5, mu2=0.3, mu1=0.1, mu0=0.0,
                          p_signal_window=0.7, epsilon_send=0.3,
                          p_mu0=0.1, p_mu1=0.6)
    table = _pure_loss_table(0.01, party)
    sec = SecuritySettings(mode="asymptotic")
    bounds = decoy_bounds(table, party, party, sec)
    assert bounds.y1a_lower == pytest.approx(9.83e-3, rel=2e-3)
    assert bounds.y1a_lower <= 0.01  # true single-photon yield eta
    assert not bounds.clamped or bounds.e1_upper == 0.5


def test_decoy_zero_counts():
    party = PartySettings(mu_z=0.5, mu2=0.3, mu1=0.1, mu0=0.0,
                          p_signal_window=0.7, epsilon_send=0.3,
                          p_mu0=0.1, p_mu1=0.6)
    t = CountsTable(n_windows=1000)
    for cat in t.windows:
        t.windows[cat] = 10
    bounds = decoy_bounds(t, party, party, SecuritySettings())
    assert bounds.n1 == 0.0


def test_decoy_finite_mode_is_conservative():
    party = PartySettings(mu_z=0.5, mu2=0.3, mu1=0.1, mu0=0.0,
                          p_signal_window=0.7, epsilon_send=0.3,
                          p_mu0=0.1, p_mu1=0.6)
    table = dataclasses.replace(_pure_loss_table(0.01, party), x11_errors=1000)
    table.windows["XX11"] = 10**8
    table.windows["XX00"] = 10**6
    asym = decoy_bounds(table, party, party, SecuritySettings(mode="asymptotic"))
    fin = decoy_bounds(table, party, party, SecuritySettings(mode="finite"))
    assert fin.n1 <= asym.n1
    assert fin.e1_upper >= asym.e1_upper


@functools.cache
def _preset_table(name, source):
    """A preset's counts at its window count: expected, or one seed-0 draw."""
    cfg = get_preset(name)
    if source == "expected":
        return expected_counts(cfg, cfg.run.n_windows)
    return simulate(cfg, int(cfg.run.n_windows), seed=0)


_PRESET_TABLES = pytest.mark.parametrize(
    "name, source", list(itertools.product(("sym546", "sym603", "asym452"),
                                           ("expected", "simulated"))))


@_PRESET_TABLES
def test_decoy_ledger_spends_eps_est_evenly(name, source):
    cfg = get_preset(name)
    table = _preset_table(name, source)
    fin_sec = dataclasses.replace(cfg.security, mode="finite")
    fin = decoy_bounds(table, cfg.party_a, cfg.party_b, fin_sec)
    asym = decoy_bounds(table, cfg.party_a, cfg.party_b,
                        dataclasses.replace(fin_sec, mode="asymptotic"))
    s = fin_sec.eps_est / 3
    assert fin.ledger == (("n1a", "lower", s), ("n1b", "lower", s),
                          ("x11_errors", "upper", s))
    assert math.fsum(share for _, _, share in fin.ledger) == fin_sec.eps_est
    assert asym.ledger == ()
    # Each bounded count is the Chernoff bound of its asymptotic value.
    assert fin.n1a == chernoff_lower(asym.n1a, s)
    assert fin.n1b == chernoff_lower(asym.n1b, s)


@pytest.mark.parametrize("name", ["sym546", "sym603", "asym452"])
@pytest.mark.parametrize("mode", ["asymptotic", "finite"])
def test_decoy_bounds_without_xx11_windows_bound_nothing(name, mode):
    """No phase-matched windows give no phase-error bound: ``e1_upper``
    is 0.5, flagged ``clamped``, and the ledger books only ``n1a`` and
    ``n1b``, at half of ``eps_est`` each."""
    cfg = get_preset(name)
    full = _preset_table(name, "expected")
    table = dataclasses.replace(full, windows={**full.windows, "XX11": 0.0},
                                heralds={**full.heralds, "XX11": 0.0},
                                x11_total=0.0, x11_errors=0.0)
    sec = dataclasses.replace(cfg.security, mode=mode)
    b = decoy_bounds(table, cfg.party_a, cfg.party_b, sec)
    assert b.e1_upper == 0.5 and b.clamped
    s = sec.eps_est / 2
    assert b.ledger == ((("n1a", "lower", s), ("n1b", "lower", s))
                        if mode == "finite" else ())
    # The per-side yields and their estimates do not read XX11.
    ref = decoy_bounds(full, cfg.party_a, cfg.party_b,
                       dataclasses.replace(sec, mode="asymptotic"))
    assert (b.y1a_lower, b.y1b_lower) == (ref.y1a_lower, ref.y1b_lower)
    if mode == "finite":
        assert b.n1a == chernoff_lower(ref.n1a, s)
        assert b.n1b == chernoff_lower(ref.n1b, s)


@pytest.mark.parametrize("name", ["sym546", "sym603", "asym452"])
@pytest.mark.parametrize("mode", ["asymptotic", "finite"])
def test_decoy_bounds_without_vacuum_decoy_windows_bound_nothing(name, mode):
    """A side whose vacuum decoy category has no windows bounds nothing:
    its yield is 0 and flagged ``clamped``, not the bound an unknown
    vacuum yield of 0 would give.  Bob's side does not read ``XZ00``."""
    cfg = get_preset(name)
    full = _preset_table(name, "expected")
    table = dataclasses.replace(full, windows={**full.windows, "XZ00": 0.0},
                                heralds={**full.heralds, "XZ00": 0.0})
    sec = dataclasses.replace(cfg.security, mode=mode)
    b = decoy_bounds(table, cfg.party_a, cfg.party_b, sec)
    ref = decoy_bounds(full, cfg.party_a, cfg.party_b, sec)
    assert not ref.clamped
    assert (b.y1a_lower, b.n1a, b.clamped) == (0.0, 0.0, True)
    assert (b.y1b_lower, b.n1b) == (ref.y1b_lower, ref.n1b)
    assert b.e1_upper == 0.5


def test_decoy_bounds_clip_yields_to_one():
    """A yield is a probability: a bound above 1 is clipped and flagged.

    Every ``mu1`` decoy of Alice's heralds and no vacuum or ``mu2`` one
    does, which the decoy formula reads as a yield of about 15.
    """
    cfg = get_preset("sym546")
    full = _preset_table("sym546", "expected")
    heralds = {**full.heralds, "XZ00": 0.0, "XZ20": 0.0,
               "XZ10": full.windows["XZ10"]}
    table = dataclasses.replace(full, heralds=heralds)
    b = decoy_bounds(table, cfg.party_a, cfg.party_b, cfg.security)
    ref = decoy_bounds(full, cfg.party_a, cfg.party_b, cfg.security)
    assert (b.y1a_lower, b.clamped) == (1.0, True)
    assert b.y1b_lower == ref.y1b_lower


def _swap_users(table):
    """The same table with the users' roles exchanged: ``ABij`` -> ``BAji``."""
    def swap(counts):
        return {c[1] + c[0] + c[3] + c[2]: v for c, v in counts.items()}

    return dataclasses.replace(table, windows=swap(table.windows),
                               heralds=swap(table.heralds))


@_PRESET_TABLES
@pytest.mark.parametrize("mode", ["asymptotic", "finite"])
def test_decoy_bounds_swap_symmetric(name, source, mode):
    """Swapping the users swaps the per-side bounds, bit for bit."""
    cfg = get_preset(name)
    table = _preset_table(name, source)
    sec = dataclasses.replace(cfg.security, mode=mode)
    b = decoy_bounds(table, cfg.party_a, cfg.party_b, sec)
    w = decoy_bounds(_swap_users(table), cfg.party_b, cfg.party_a, sec)
    assert (w.y1a_lower, w.y1b_lower) == (b.y1b_lower, b.y1a_lower)
    assert (w.n1a, w.n1b) == (b.n1b, b.n1a)
    assert (w.n1, w.e1_upper, w.clamped, w.ledger) == (b.n1, b.e1_upper,
                                                       b.clamped, b.ledger)


# ----------------------------------------------------------- integration

def test_process_outputs_consistent():
    from tfqkd.engine import expected_counts
    from tfqkd.presets import get_preset
    cfg = get_preset("sym546")
    table = expected_counts(cfg, 1e12)
    run = process(table, cfg)
    assert run.inputs.n1_prime <= run.inputs.nt_prime
    assert 0.0 <= run.inputs.e_bit_prime <= 0.5
    assert run.inputs.e1_ph_prime == pytest.approx(
        aopp_phase_error(min(0.5, run.decoy.e1_upper)), abs=1e-12)
    assert run.z_stats.qber == pytest.approx(0.2732, abs=0.03)


@pytest.mark.parametrize("mode", ["asymptotic", "finite"])
@pytest.mark.parametrize("name", ["sym546", "sym603", "asym452"])
def test_analytic_run_carries_its_key_rate(name, mode):
    cfg = in_mode(get_preset(name), mode)
    run = analytic_keyrate(cfg)
    assert run.skr == key_rate(run.inputs, cfg.security)


def test_simulated_run_carries_its_key_rate():
    """One full-size sym546 session, whose asymptotic rate is positive."""
    cfg = get_preset("sym546")
    run = process(simulate(cfg, int(cfg.run.n_windows), seed=1), cfg)
    assert run.skr == key_rate(run.inputs, cfg.security) > 0


def test_pairing_suppression_pooled_over_seeds():
    """Pooled companion of acceptance criterion 10 over seeds 0-199.

    Each seed draws one 1e9-window sym546 session.  The seed means of
    n1'/n1 (0.166, SEM 0.003) and of e_bit'/E_z (0.030, SEM 0.002) lie
    more than 20 SEM inside the bands [0.10, 0.30] and <= 0.10, so under
    a normal approximation of the seed mean a correct program fails
    with probability below 1e-80; the per-seed check of criterion 10
    fails for about 4.6% of seeds.
    """
    from tfqkd.engine import simulate
    from tfqkd.presets import get_preset
    cfg = get_preset("sym546")
    ratios, cuts = [], []
    for seed in range(200):
        run = process(simulate(cfg, 10**9, seed=seed), cfg)
        ratios.append(run.inputs.n1_prime / run.decoy.n1)
        cuts.append(run.inputs.e_bit_prime / run.z_stats.qber)
    assert 0.10 <= np.mean(ratios) <= 0.30
    assert np.mean(cuts) <= 0.10
