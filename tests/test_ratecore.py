"""Key-rate math: entropy, rate formula, bounds, and protocol constraints."""
import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from tfqkd.presets import DetectorModel, LinkConfig, NoiseModel, RunSettings
from tfqkd.ratecore import (KeyRateInputs, PartySettings, SecuritySettings,
                            binary_entropy, check_sns_constraint, key_rate,
                            phase_misalignment_qber, plob_bound,
                            rate_per_second, sns_balance_rhs)


# ---------------------------------------------------------------- domains

@pytest.mark.parametrize("settings", [LinkConfig, DetectorModel, NoiseModel,
                                      RunSettings, PartySettings,
                                      SecuritySettings, KeyRateInputs])
def test_every_numeric_field_has_one_interval(settings):
    """Each settings type declares one interval per numeric field, in
    field order, with finite ends, so nan and +-inf fail its one check."""
    numeric = [f.name for f in dataclasses.fields(settings)
               if f.type in (float, int)]
    assert [name for name, *_ in settings._DOMAINS] == numeric
    for _, lo, hi, _ in settings._DOMAINS:
        assert -math.inf < lo <= hi < math.inf


# ---------------------------------------------------------------- entropy

def test_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_entropy_known_values():
    # Oracle: direct evaluation of -p log2 p - (1-p) log2 (1-p).
    assert binary_entropy(0.1) == pytest.approx(0.4690, abs=5e-5)
    assert binary_entropy(0.01) == pytest.approx(0.0808, abs=5e-5)


def test_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_symmetry(p):
    assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


@given(st.floats(min_value=1e-6, max_value=0.5 - 1e-6),
       st.floats(min_value=1e-6, max_value=0.5 - 1e-6))
def test_entropy_concavity(p, q):
    mid = binary_entropy(0.5 * (p + q))
    avg = 0.5 * (binary_entropy(p) + binary_entropy(q))
    assert mid >= avg - 1e-12


# ---------------------------------------------------------------- key rate

def _example_inputs():
    return KeyRateInputs(n_windows=1e13, n1_prime=1e6, e1_ph_prime=0.10,
                         nt_prime=2e6, e_bit_prime=0.01)


def test_key_rate_finite_example():
    # Oracle: hand evaluation of the finite-size rate formula with
    # h(0.1)=0.4690, h(0.01)=0.0808, f=1.1, all epsilons 1e-10.
    sec = SecuritySettings(mode="finite")
    r = key_rate(_example_inputs(), sec)
    assert r == pytest.approx(3.53e-8, rel=0.01)


def test_key_rate_asymptotic_drops_log_terms():
    fin = key_rate(_example_inputs(), SecuritySettings(mode="finite"))
    asy = key_rate(_example_inputs(), SecuritySettings(mode="asymptotic"))
    # The four epsilon log terms total 200.32 bits at 1e-10 each.
    assert asy > fin
    assert asy - fin == pytest.approx(200.32 / 1e13, rel=1e-3)


def test_key_rate_clamps_at_zero():
    bad = KeyRateInputs(n_windows=1e13, n1_prime=1e3, e1_ph_prime=0.49,
                        nt_prime=2e6, e_bit_prime=0.25)
    sec = SecuritySettings(mode="finite")
    assert key_rate(bad, sec) == 0.0
    assert key_rate(bad, sec, clamp=False) < 0.0


def test_key_rate_input_validation():
    with pytest.raises(ValueError):
        KeyRateInputs(n_windows=100, n1_prime=300, e1_ph_prime=0.1,
                      nt_prime=200, e_bit_prime=0.01)  # n1' > nt'
    with pytest.raises(ValueError):
        KeyRateInputs(n_windows=1e6, n1_prime=10, e1_ph_prime=0.6,
                      nt_prime=20, e_bit_prime=0.01)


@given(st.floats(min_value=1e3, max_value=1e7),
       st.floats(min_value=0.0, max_value=0.45))
def test_key_rate_monotone_in_untagged_count_and_phase_error(n1, e1ph):
    sec = SecuritySettings(mode="finite")
    base = KeyRateInputs(n_windows=1e13, n1_prime=n1, e1_ph_prime=e1ph,
                         nt_prime=2e7, e_bit_prime=0.01)
    more = KeyRateInputs(n_windows=1e13, n1_prime=n1 * 1.1, e1_ph_prime=e1ph,
                         nt_prime=2e7, e_bit_prime=0.01)
    worse = KeyRateInputs(n_windows=1e13, n1_prime=n1, e1_ph_prime=min(0.5, e1ph + 0.02),
                          nt_prime=2e7, e_bit_prime=0.01)
    assert key_rate(more, sec, clamp=False) >= key_rate(base, sec, clamp=False)
    assert key_rate(worse, sec, clamp=False) <= key_rate(base, sec, clamp=False) + 1e-18


def test_finite_never_exceeds_asymptotic():
    inputs = _example_inputs()
    assert (key_rate(inputs, SecuritySettings(mode="finite"))
            <= key_rate(inputs, SecuritySettings(mode="asymptotic")))


def test_rate_per_second():
    assert rate_per_second(2e-9) == pytest.approx(1.0)


# ---------------------------------------------------------------- PLOB

def test_plob_zero_loss_diverges():
    assert plob_bound(0.0) == math.inf


@given(st.floats(min_value=1.0, max_value=200.0))
def test_plob_decreasing(loss):
    assert plob_bound(loss) > plob_bound(loss + 1.0)


# ---------------------------------------------------------- balance check

def _party(mu_z, mu2, mu1, eps):
    return PartySettings(mu_z=mu_z, mu2=mu2, mu1=mu1, mu0=0.0002,
                         p_signal_window=0.735, epsilon_send=eps,
                         p_mu0=0.078, p_mu1=0.606)


def test_balance_symmetric_is_exact():
    a = _party(0.493, 0.493, 0.090, 0.269)
    b = _party(0.493, 0.493, 0.090, 0.269)
    assert check_sns_constraint(a, b) == 0.0


def test_balance_asymmetric_example():
    a = _party(0.493, 0.493, 0.113, 0.405)
    b = _party(0.247, 0.077, 0.018, 0.141)
    dev = check_sns_constraint(a, b)
    assert dev == pytest.approx(0.02998, abs=2e-4)
    assert dev <= 0.05
    # LHS mu_a1/mu_b1 vs the settings-implied RHS.
    assert a.mu1 / b.mu1 == pytest.approx(6.278, abs=0.01)
    assert sns_balance_rhs(a, b) == pytest.approx(6.471, abs=0.01)


def test_party_settings_validation():
    with pytest.raises(ValueError):
        _party(0.493, 0.090, 0.493, 0.269)  # mu1 > mu2
    with pytest.raises(ValueError):
        PartySettings(mu_z=0.5, mu2=0.5, mu1=0.1, mu0=0.0,
                      p_signal_window=0.7, epsilon_send=0.3,
                      p_mu0=0.5, p_mu1=0.6)  # probs > 1


def test_strong_decoy_probability_is_the_rest():
    # Subtracting p_mu1 first gives the presets' 0.316 exactly.
    assert _party(0.493, 0.493, 0.090, 0.269).p_mu2 == 0.316
    # 1 - 0.9 - 0.1 is -2.8e-17 in floating point; the rest is 0.
    p = dataclasses.replace(_party(0.493, 0.493, 0.090, 0.269),
                            p_mu0=0.1, p_mu1=0.9)
    assert p.p_mu2 == 0.0
    assert "p_mu2" not in {f.name for f in dataclasses.fields(p)}


# ----------------------------------------------------- misalignment QBER

def test_phase_qber_example():
    # Oracle: (1 - V exp(-sigma^2/2)) / 2.
    assert phase_misalignment_qber(0.2, 1.0) == pytest.approx(0.0099, abs=5e-5)


def test_phase_qber_limits():
    assert phase_misalignment_qber(0.0, 1.0) == 0.0
    assert phase_misalignment_qber(0.0, 0.0) == 0.5


@given(st.floats(min_value=0.0, max_value=10.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_phase_qber_range(sigma, vis):
    q = phase_misalignment_qber(sigma, vis)
    assert 0.0 <= q <= 0.5
