"""The analytic pipeline against physics: the channel's true values, the
decoy bounds' validity against them, and the key rate's monotonicity and
convergence on whole configs.

A golden file can only say that a rate changed.  These checks say
whether a rate is still physical, so a change to the decoy bounds is
judged against the channel, not against its own past.  The suite draws
its synthetic channels with :func:`draw_channel`, and
:func:`check_valid` compares a config's bounds with
:func:`channel_truth`.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

import test_acceptance
from test_acceptance import _true_single_photon_yield
from tfqkd.bench import analytic_keyrate
from tfqkd.presets import (DetectorModel, ExperimentConfig, LinkConfig,
                           NoiseModel, RunSettings, get_preset, preset_names)
from tfqkd.ratecore import (PartySettings, phase_misalignment_qber,
                            sns_balance_rhs)

#: Relative slack of every monotonicity and convergence comparison.
REL_TOL = 1e-12

#: Relative slack of every validity comparison, criterion 12's.
VALID_TOL = 1e-9

MODES = ("asymptotic", "finite")


def in_mode(cfg: ExperimentConfig, mode: str) -> ExperimentConfig:
    """``cfg`` with its security analysis in ``mode``."""
    return replace(cfg, security=replace(cfg.security, mode=mode))


def draw_channel(rng: np.random.Generator, *,
                 asymmetric: bool = False) -> ExperimentConfig:
    """A random channel on sym546's remaining settings, 1e12 windows.

    At the defaults this is criterion 12's channel, drawn in its order:
    one party on both sides, ``mu0 = 0`` and equal arm losses.
    ``asymmetric`` then draws party b's ``mu_z`` and ``epsilon_send``,
    from ranges that also hold asym452's party b, derives ``b.mu1``
    from the intensity-balance condition and redraws the two while that
    is not below ``mu2``, and last draws 0-10 dB of extra fiber loss on
    arm b.
    """
    party = PartySettings(
        mu_z=float(rng.uniform(0.3, 0.6)),
        mu2=float(rng.uniform(0.2, 0.5)),
        mu1=float(rng.uniform(0.03, 0.15)),
        mu0=0.0,
        p_signal_window=float(rng.uniform(0.5, 0.8)),
        epsilon_send=float(rng.uniform(0.15, 0.4)),
        p_mu0=0.1, p_mu1=0.6)
    loss = float(rng.uniform(10.0, 45.0))
    det = DetectorModel(efficiency_d0=float(rng.uniform(0.4, 0.9)),
                        efficiency_d1=float(rng.uniform(0.4, 0.9)),
                        dark_rate_d0_hz=float(rng.uniform(0.0, 100.0)),
                        dark_rate_d1_hz=float(rng.uniform(0.0, 100.0)),
                        window_s=2e-9)
    sigma = float(rng.uniform(0.05, 0.6))
    vis = float(rng.uniform(0.90, 0.99))
    party_b, loss_b = party, loss
    if asymmetric:
        while True:
            party_b = replace(party, mu_z=float(rng.uniform(0.2, 0.6)),
                              epsilon_send=float(rng.uniform(0.1, 0.4)))
            mu1_b = party.mu1 / sns_balance_rhs(party, party_b)
            if mu1_b < party_b.mu2:
                break
        party_b = replace(party_b, mu1=mu1_b)
        loss_b = loss + float(rng.uniform(0.0, 10.0))
    return replace(
        get_preset("sym546"), party_a=party, party_b=party_b,
        link=LinkConfig(loss_a_db=loss, loss_b_db=loss_b), detectors=det,
        noise=NoiseModel(visibility=vis, residual_phase_std_rad=sigma),
        run=RunSettings(n_windows=1e12))


def channel_truth(cfg: ExperimentConfig) -> dict[str, float]:
    """True single-photon yield per arm, ``n1`` and ``e1`` of a config.

    ``y1a`` and ``y1b`` are criterion 12's herald probability for one
    photon from that arm with the other arm dark.  ``n1`` is
    ``n1a + n1b`` over ``cfg.run.n_windows`` windows, each term
    ``n pz_a pz_b eps_self (1 - eps_other) mu_z exp(-mu_z) y1``: both
    users open a signal window, only one sends, and its pulse holds one
    photon that heralds.

    ``e1`` is the single-photon phase-error rate of the decoy windows.
    Each arm's coherent pulse reaches the beam splitter with mean photon
    number ``x = mu1 eta``, ``eta`` the arm's transmittance.  The joint
    state's one-photon part is ``(sqrt(x_a) e^{i phi_a} a^+ + sqrt(x_b)
    e^{i phi_b} b^+) |0>`` up to a norm of ``x_a + x_b``, so behind the
    50:50 splitter the photon reaches D0 with probability
    ``(x_a + x_b + 2 sqrt(x_a x_b) cos(dphi)) / (2 (x_a + x_b))``, which
    is ``(1 + F cos(dphi)) / 2`` with ``F = 2 sqrt(x_a x_b) / (x_a + x_b)``.
    Detector efficiencies act after the splitter on both paths alike and
    leave ``F`` alone.  The device visibility ``V`` scales the fringe on
    top of ``F``, and the Gaussian residual phase of std ``sigma`` gives
    ``E[cos(dphi)] = exp(-sigma^2 / 2)``, so the error rate is
    ``(1 - V F exp(-sigma^2 / 2)) / 2``:
    ``phase_misalignment_qber(sigma, V F)``.  On equal arms ``F = 1``.
    On asym452 ``F`` is 0.97895, and the true ``e1`` is 0.06859, against
    0.05932 from ``phase_misalignment_qber(sigma, V)`` alone.
    """
    link, det, pa, pb = cfg.link, cfg.detectors, cfg.party_a, cfg.party_b
    n = cfg.run.n_windows
    pz = pa.p_signal_window * pb.p_signal_window
    y1a = _true_single_photon_yield(link, det, "a")
    y1b = _true_single_photon_yield(link, det, "b")
    n1a = (n * pz * pa.epsilon_send * (1.0 - pb.epsilon_send) * pa.mu_z
           * math.exp(-pa.mu_z) * y1a)
    n1b = (n * pz * pb.epsilon_send * (1.0 - pa.epsilon_send) * pb.mu_z
           * math.exp(-pb.mu_z) * y1b)
    xa = pa.mu1 * link.arm_transmittance("a")
    xb = pb.mu1 * link.arm_transmittance("b")
    fringe = 2.0 * math.sqrt(xa * xb) / (xa + xb)
    e1 = phase_misalignment_qber(cfg.noise.residual_phase_std_rad,
                                 cfg.noise.visibility * fringe)
    return {"y1a": y1a, "y1b": y1b, "n1": n1a + n1b, "e1": e1}


def check_valid(cfg: ExperimentConfig) -> list[str]:
    """One message per decoy bound of ``cfg`` that the channel breaks.

    The bounds are ``analytic_keyrate``'s, in ``cfg.security.mode``.
    Each lower bound must not exceed, and ``e1_upper`` must not fall
    below, its value in :func:`channel_truth`, to criterion 12's
    relative slack.
    """
    bounds = analytic_keyrate(cfg)[1].decoy
    truth = channel_truth(cfg)
    problems = [f"{name} {bound:.6e} > true {true:.6e}"
                for name, bound, true in (
                    ("y1a_lower", bounds.y1a_lower, truth["y1a"]),
                    ("y1b_lower", bounds.y1b_lower, truth["y1b"]),
                    ("n1", bounds.n1, truth["n1"]))
                if bound > true * (1.0 + VALID_TOL)]
    if bounds.e1_upper < truth["e1"] * (1.0 - VALID_TOL):
        problems.append(f"e1_upper {bounds.e1_upper:.6e} < true "
                        f"{truth['e1']:.6e}")
    return problems


def test_channel_truth_asymmetric_visibility():
    """The two ``e1`` figures :func:`channel_truth` quotes for asym452."""
    cfg = get_preset("asym452")
    assert channel_truth(cfg)["e1"] == pytest.approx(0.06859, abs=5e-6)
    assert phase_misalignment_qber(
        cfg.noise.residual_phase_std_rad,
        cfg.noise.visibility) == pytest.approx(0.05932, abs=5e-6)


def test_channel_truth_matches_criterion_12(monkeypatch):
    """Criterion 12's 100 channels are :func:`draw_channel`'s, and on
    them the helper gives criterion 12's truth bit for bit.

    Criterion 12 runs with its ``expected_counts`` recording each
    ``(settings, n)``.  Each recorded config equals the generator's draw
    from seed 2024 in every field but ``run``, and ``n`` is that draw's
    window count.  Criterion 12 asserts only after its loop, so its own
    verdict is set aside here: this test fails only when the draws or
    the truths differ.  Two facts make the truths equal, not just close.  On
    equal arms ``sqrt(x * x)`` is exactly ``x`` (the square root is
    correctly rounded), so the visibility factor is exactly 1.0.
    Criterion 12 squares the window probability as ``p ** 2`` and the
    helper multiplies ``p * p``; these differ in the last bit on about
    0.08% of values drawn uniformly from criterion 12's range, but on
    none of these 100 draws.  ``n1a + n1b`` of two equal terms is
    exactly criterion 12's doubled term.
    """
    seen = []
    count = test_acceptance.expected_counts

    def recording(settings, n):
        seen.append((settings, n))
        return count(settings, n)

    monkeypatch.setattr(test_acceptance, "expected_counts", recording)
    try:
        test_acceptance.test_criterion_12_decoy_bound_validity()
    except AssertionError:
        pass
    assert len(seen) == 100
    rng = np.random.default_rng(2024)
    for trial, (settings, n) in enumerate(seen):
        cfg = draw_channel(rng)
        assert replace(settings, run=cfg.run) == cfg, trial
        assert n == cfg.run.n_windows, trial
        # Criterion 12's truth, as it computes it.
        party, noise = settings.party_a, settings.noise
        y1 = _true_single_photon_yield(settings.link, settings.detectors, "a")
        pz2 = party.p_signal_window ** 2
        eps = party.epsilon_send
        n1_true = 2.0 * (n * pz2 * eps * (1.0 - eps) * party.mu_z
                         * math.exp(-party.mu_z) * y1)
        e1_true = phase_misalignment_qber(noise.residual_phase_std_rad,
                                          noise.visibility)

        truth = channel_truth(cfg)
        assert truth["y1a"] == truth["y1b"] == y1, trial
        assert float.hex(truth["n1"]) == float.hex(n1_true), trial
        assert float.hex(truth["e1"]) == float.hex(e1_true), trial


def test_check_valid_names_each_broken_bound(monkeypatch):
    """Against a channel whose truth lies beyond every bound, each of the
    four comparisons reports, so a passing validity test is not vacuous."""
    cfg = get_preset("sym546")
    truth = channel_truth(cfg)
    monkeypatch.setitem(globals(), "channel_truth", lambda _: {
        "y1a": truth["y1a"] / 2, "y1b": truth["y1b"] / 2,
        "n1": truth["n1"] / 2, "e1": 0.5})
    assert [p.split()[0] for p in check_valid(cfg)] == [
        "y1a_lower", "y1b_lower", "n1", "e1_upper"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", preset_names())
def test_preset_bounds_are_valid(name, mode):
    assert check_valid(in_mode(get_preset(name), mode)) == []


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", preset_names())
def test_sweep_row_bounds_are_valid(name, mode):
    """Each row of a 100-700 km sweep, in 50 km steps, at the preset's
    own attenuation: both arm losses at half the distance's loss."""
    cfg = in_mode(get_preset(name), mode)
    for d in range(100, 701, 50):
        arm = d / 2.0 * cfg.link.attenuation_db_per_km
        row = replace(cfg, link=replace(cfg.link, loss_a_db=arm,
                                        loss_b_db=arm))
        assert check_valid(row) == [], d


def test_criterion_12_channels_are_valid_in_finite_mode():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        assert check_valid(in_mode(draw_channel(rng), "finite")) == [], trial


#: Draws of :func:`test_asymmetric_channel_bounds_are_valid` whose
#: ``e1_upper`` sits at its cap of 0.5, measured at commit ``de91d76``.
CAPPED_ASYMMETRIC_DRAWS = {"asymptotic": 77, "finite": 82}


@pytest.mark.parametrize("mode", MODES)
def test_asymmetric_channel_bounds_are_valid(mode):
    """200 asymmetric draws, seed 7.

    The bounds hold, but ``e1_upper`` is loose on unequal arms: it
    divides by ``min(y1a, y1b)``.  Its ratio to the true ``e1`` over
    these draws, measured at commit ``de91d76``:

    ==========  =====  ======  =====  =====
    mode        min    median  p95    max
    ==========  =====  ======  =====  =====
    asymptotic  1.100  1.958   3.248  4.509
    finite      1.120  2.012   3.310  4.509
    ==========  =====  ======  =====  =====

    Many draws reach its cap of 0.5, where the ``e1`` check cannot
    fail; each is flagged ``clamped``, and the test pins how many.
    """
    rng = np.random.default_rng(7)
    capped = 0
    for trial in range(200):
        cfg = in_mode(draw_channel(rng, asymmetric=True), mode)
        assert check_valid(cfg) == [], trial
        decoy = analytic_keyrate(cfg)[1].decoy
        if decoy.e1_upper == 0.5:
            assert decoy.clamped, trial
            capped += 1
    # A capped draw's e1 check cannot fail, so more of them would leave
    # the check above covering less while it still passes.
    assert capped <= CAPPED_ASYMMETRIC_DRAWS[mode]


def _rate(cfg: ExperimentConfig) -> float:
    return analytic_keyrate(cfg)[0]


def _assert_nonincreasing(rates, label):
    for i, (a, b) in enumerate(zip(rates, rates[1:])):
        assert b <= a * (1.0 + REL_TOL), (label, i, rates)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", preset_names())
def test_rate_never_rises_with_loss_dark_rate_or_sigma(name, mode):
    """The rate does not rise as the channel gets worse.

    The same extra loss goes on both arms.  Loss on one arm alone is not
    covered: at these presets it can raise the rate (asym452 with +2 dB
    on arm b goes from 3.31e-9 to 1.93e-8 bit/signal, asymptotic, measured
    at commit ``de91d76``).  The
    ``e1`` bound divides by ``min(y1a, y1b)`` and leaves out the
    visibility lost between unequal arms (see :func:`channel_truth`).
    """
    cfg = in_mode(get_preset(name), mode)
    link, det, noise = cfg.link, cfg.detectors, cfg.noise
    _assert_nonincreasing(
        [_rate(replace(cfg, link=replace(link, loss_a_db=link.loss_a_db + d,
                                         loss_b_db=link.loss_b_db + d)))
         for d in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)], "loss")
    for field in ("dark_rate_d0_hz", "dark_rate_d1_hz"):
        _assert_nonincreasing(
            [_rate(replace(cfg, detectors=replace(
                det, **{field: getattr(det, field) * s})))
             for s in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)], field)
    _assert_nonincreasing(
        [_rate(replace(cfg, noise=replace(noise, residual_phase_std_rad=s)))
         for s in (0.2, 0.3, 0.4, 0.5, 0.6)], "sigma")


@pytest.mark.parametrize("name", preset_names())
def test_finite_rate_rises_toward_asymptotic(name):
    """As the session grows, the finite rate never falls and never
    exceeds the asymptotic rate of the same session."""
    cfg = get_preset(name)
    finite, asymptotic = [], []
    for n in (1e12, 1e13, 1e14, 1e15, 1e16):
        run = RunSettings(n_windows=n)
        finite.append(_rate(in_mode(replace(cfg, run=run), "finite")))
        asymptotic.append(_rate(in_mode(replace(cfg, run=run),
                                        "asymptotic")))
    for i, (a, b) in enumerate(zip(finite, finite[1:])):
        assert b >= a * (1.0 - REL_TOL), (i, finite)
    for fin, asy in zip(finite, asymptotic):
        assert fin <= asy * (1.0 + REL_TOL), (finite, asymptotic)
    # The largest session keys, so the checks compare more than zeros.
    assert finite[-1] > 0
