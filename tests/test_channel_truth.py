"""The analytic pipeline against physics: the channel's true values, and
the key rate's monotonicity and convergence on whole configs.

A golden file can only say that a rate changed.  These checks say
whether a rate is still physical, so a change to the decoy bounds is
judged against the channel, not against its own past.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from test_acceptance import _true_single_photon_yield
from tfqkd.bench import analytic_keyrate
from tfqkd.presets import (DetectorModel, ExperimentConfig, LinkConfig,
                           NoiseModel, RunSettings, get_preset, preset_names)
from tfqkd.ratecore import PartySettings, phase_misalignment_qber

#: Relative slack of every monotonicity and convergence comparison.
REL_TOL = 1e-12


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


def test_channel_truth_asymmetric_visibility():
    truth = channel_truth(get_preset("asym452"))
    assert truth["e1"] == pytest.approx(0.06859, abs=5e-6)


def test_channel_truth_matches_criterion_12():
    """On criterion 12's 100 channels the helper gives its truth bit for bit.

    The draws repeat criterion 12's, seed 2024.  Two facts make the
    values equal, not just close.  On equal arms ``sqrt(x * x)`` is
    exactly ``x`` (the square root is correctly rounded), so the
    visibility factor is exactly 1.0.  Criterion 12 squares the window
    probability as ``p ** 2`` and the helper multiplies ``p * p``;
    these differ in the last bit on about 0.08% of values drawn
    uniformly from criterion 12's range, but on none of these 100
    draws.  ``n1a + n1b`` of two equal terms is exactly
    criterion 12's doubled term.
    """
    rng = np.random.default_rng(2024)
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
        n = 1e12
        settings = replace(
            get_preset("sym546"),
            party_a=party, party_b=party, link=link, detectors=det,
            noise=replace(noise, residual_phase_std_rad=sigma),
            run=RunSettings(n_windows=n))
        # Criterion 12's truth, as it computes it.
        y1 = _true_single_photon_yield(link, det, "a")
        pz2 = party.p_signal_window ** 2
        eps = party.epsilon_send
        n1_true = 2.0 * (n * pz2 * eps * (1.0 - eps) * party.mu_z
                         * math.exp(-party.mu_z) * y1)
        e1_true = phase_misalignment_qber(sigma, vis)

        truth = channel_truth(settings)
        assert truth["y1a"] == truth["y1b"] == y1, trial
        assert float.hex(truth["n1"]) == float.hex(n1_true), trial
        assert float.hex(truth["e1"]) == float.hex(e1_true), trial


def _rate(cfg: ExperimentConfig) -> float:
    return analytic_keyrate(cfg)[0]


def _assert_nonincreasing(rates, label):
    for i, (a, b) in enumerate(zip(rates, rates[1:])):
        assert b <= a * (1.0 + REL_TOL), (label, i, rates)


def _in_mode(name: str, mode: str) -> ExperimentConfig:
    cfg = get_preset(name)
    return replace(cfg, security=replace(cfg.security, mode=mode))


@pytest.mark.parametrize("mode", ["asymptotic", "finite"])
@pytest.mark.parametrize("name", preset_names())
def test_rate_never_rises_with_loss_dark_rate_or_sigma(name, mode):
    """The rate does not rise as the channel gets worse.

    The same extra loss goes on both arms.  Loss on one arm alone is not
    covered: at these presets it can raise the rate (asym452 with +2 dB
    on arm b goes from 3.31e-9 to 1.93e-8 bit/signal, asymptotic).  The
    ``e1`` bound divides by ``min(y1a, y1b)`` and leaves out the
    visibility lost between unequal arms (see :func:`channel_truth`).
    """
    cfg = _in_mode(name, mode)
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
    finite, asymptotic = [], []
    for n in (1e12, 1e13, 1e14, 1e15, 1e16):
        run = RunSettings(n_windows=n)
        finite.append(_rate(replace(_in_mode(name, "finite"), run=run)))
        asymptotic.append(_rate(replace(_in_mode(name, "asymptotic"),
                                        run=run)))
    for i, (a, b) in enumerate(zip(finite, finite[1:])):
        assert b >= a * (1.0 - REL_TOL), (i, finite)
    for fin, asy in zip(finite, asymptotic):
        assert fin <= asy * (1.0 + REL_TOL), (finite, asymptotic)
    # The largest session keys, so the checks compare more than zeros.
    assert finite[-1] > 0
