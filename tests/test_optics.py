"""Physical-layer models: transmittance, interference clicks, drift noise."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.signal import lfilter

from tfqkd.optics import (click_probability_arrays, fiber_phase, ramp_phases,
                          signal_band_phase, velocity_step_coeffs)
from tfqkd.presets import PRESETS, DetectorModel, LinkConfig, NoiseModel


# --------------------------------------------------------- transmittance

def test_transmittance_unit_link():
    link = LinkConfig(loss_a_db=0.0, loss_b_db=0.0)
    det = DetectorModel(1.0, 1.0, 0.0, 0.0)
    assert link.arm_transmittance("a") * det.efficiency_d0 == 1.0


def test_transmittance_fiber_only():
    # 100 km at 0.183 dB/km, with no node insertion loss.
    link = LinkConfig(loss_a_db=18.3, loss_b_db=0.0)
    det = DetectorModel(1.0, 1.0, 0.0, 0.0)
    assert link.arm_transmittance("a") * det.efficiency_d0 == pytest.approx(
        0.01479, rel=1e-3)


def test_transmittance_measured_arm_loss():
    # sym546's measured 273.48 km arm.
    link = LinkConfig(loss_a_db=50.50, loss_b_db=0.0)
    det = DetectorModel(0.66, 0.66, 0.0, 0.0)
    assert link.arm_transmittance("a") * det.efficiency_d1 == pytest.approx(
        5.88e-6, rel=2e-3)


@given(st.floats(min_value=0.0, max_value=91.5),
       st.floats(min_value=0.1, max_value=50.0))
def test_transmittance_decreases_with_loss_and_extra(loss, extra):
    det = DetectorModel(1.0, 1.0, 0.0, 0.0)
    base = LinkConfig(loss_a_db=loss, loss_b_db=0.0)
    longer = LinkConfig(loss_a_db=loss + 0.183, loss_b_db=0.0)
    lossy = LinkConfig(loss_a_db=loss, loss_b_db=0.0, extra_loss_a_db=extra)
    t = base.arm_transmittance("a") * det.efficiency_d0
    assert longer.arm_transmittance("a") * det.efficiency_d0 < t
    assert lossy.arm_transmittance("a") * det.efficiency_d0 < t


# ------------------------------------------------------------- detectors

def test_dark_probability():
    det = DetectorModel(0.83, 0.49, dark_rate_d0_hz=7.8, dark_rate_d1_hz=1.77,
                        window_s=2e-9)
    assert det.dark_prob_d0 == pytest.approx(7.8 * 2e-9, rel=1e-6)


def test_dark_probability_cap():
    with pytest.raises(ValueError):
        DetectorModel(0.8, 0.8, dark_rate_d0_hz=1e6, dark_rate_d1_hz=0.0,
                      window_s=2e-9)


# ---------------------------------------------------------- click model

def _fock_click_probs(mu_a, mu_b, delta, visibility, pd0, pd1, nmax=20):
    """Brute-force oracle: expand the input coherent states in the Fock
    basis (truncated at ``nmax`` photons), interfere on an ideal 50/50
    beamsplitter, and apply threshold detectors.

    Imperfect visibility enters as amplitude mode mismatch: a fraction
    sqrt(1-V^2) of the second field occupies an orthogonal mode whose
    photons split incoherently between the ports.
    """
    alpha = math.sqrt(mu_a) * complex(math.cos(delta), math.sin(delta))
    beta = visibility * math.sqrt(mu_b)
    mu_orth = (1.0 - visibility ** 2) * mu_b

    def coh_amp(z, n):
        return (math.exp(-abs(z) ** 2 / 2.0) * z ** n
                / math.sqrt(math.factorial(n)))

    # psi[j, k]: joint amplitude of j photons at D0, k at D1 in the
    # matched mode pair after the beamsplitter.
    dim = 2 * nmax + 1
    psi = np.zeros((dim, dim), dtype=complex)
    for m in range(nmax + 1):
        ca = coh_amp(alpha, m)
        for n in range(nmax + 1):
            cb = coh_amp(beta, n)
            pref = ca * cb / math.sqrt(2.0 ** (m + n) * math.factorial(m)
                                       * math.factorial(n))
            for p in range(m + 1):
                for q in range(n + 1):
                    j = p + q
                    k = (m - p) + (n - q)
                    psi[j, k] += (pref * math.comb(m, p) * math.comb(n, q)
                                  * (-1) ** (n - q)
                                  * math.sqrt(math.factorial(j)
                                              * math.factorial(k)))
    prob = np.abs(psi) ** 2
    # Orthogonal-mode photons: independent coherent field of mean
    # mu_orth / 2 per port; its vacuum amplitude multiplies in.
    p_vac_orth = math.exp(-mu_orth / 2.0)
    p0_dark = prob[0, :].sum() * p_vac_orth
    p1_dark = prob[:, 0].sum() * p_vac_orth
    return (1.0 - (1.0 - pd0) * p0_dark, 1.0 - (1.0 - pd1) * p1_dark)


#: No loss, unit efficiencies: the source means arrive at the ports.
_LOSSLESS = LinkConfig(loss_a_db=0.0, loss_b_db=0.0)


def _clicks(mu_a, mu_b, delta, visibility, det=DetectorModel(1.0, 1.0, 0.0, 0.0)):
    p0, p1 = click_probability_arrays(np.asarray(mu_a), np.asarray(mu_b),
                                      np.asarray(delta), _LOSSLESS, det,
                                      NoiseModel(visibility=visibility))
    return float(p0), float(p1)


def test_click_vacuum():
    assert _clicks(0.0, 0.0, 0.0, 1.0) == (0.0, 0.0)


def test_click_destructive_port():
    p0, p1 = _clicks(0.05, 0.05, math.pi, 1.0)
    assert p0 == pytest.approx(0.0, abs=1e-15)
    assert p1 > 0.0


def test_click_matches_fock_oracle():
    grid_mu = (0.0, 1e-4, 1e-2, 0.1)
    grid_delta = (0.0, math.pi / 4, math.pi / 2, math.pi)
    for mu in grid_mu:
        for delta in grid_delta:
            for vis in (1.0, 0.98):
                got = _clicks(mu, mu, delta, vis)
                want = _fock_click_probs(mu, mu, delta, vis, 0.0, 0.0)
                assert got[0] == pytest.approx(want[0], abs=1e-10)
                assert got[1] == pytest.approx(want[1], abs=1e-10)


def test_click_matches_fock_oracle_asymmetric_with_dark():
    # Dark rates giving per-window dark probabilities near 1e-8 and 3e-8.
    det = DetectorModel(1.0, 1.0, dark_rate_d0_hz=5.0, dark_rate_d1_hz=15.0,
                        window_s=2e-9)
    got = _clicks(0.01, 0.04, 0.7, 0.98, det)
    want = _fock_click_probs(0.01, 0.04, 0.7, 0.98,
                             det.dark_prob_d0, det.dark_prob_d1)
    assert got[0] == pytest.approx(want[0], abs=1e-10)
    assert got[1] == pytest.approx(want[1], abs=1e-10)


@given(st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=0.0, max_value=0.5),
       st.floats(min_value=-math.pi, max_value=math.pi),
       st.floats(min_value=0.0, max_value=1.0))
def test_click_energy_conservation(mu_a, mu_b, delta, vis):
    p0, p1 = _clicks(mu_a, mu_b, delta, vis)
    n_total = -math.log(max(1e-300, (1.0 - p0) * (1.0 - p1)))
    assert n_total == pytest.approx(mu_a + mu_b, abs=1e-9)


def test_click_arrays_match_scalar():
    # Lossy arms and unequal detectors, element by element against the
    # Fock oracle: each port sees the arriving means mu * t_arm scaled by
    # its own detection efficiency.
    link = LinkConfig(loss_a_db=18.3, loss_b_db=21.96,
                      extra_loss_a_db=2.0, extra_loss_b_db=3.0)
    det = DetectorModel(0.83, 0.49, 7.8, 1.77, window_s=2e-9)
    noise = NoiseModel()
    mu_a = np.array([0.0, 0.1, 0.49])
    mu_b = np.array([0.1, 0.0, 0.49])
    delta = np.array([0.0, 1.0, 2.5])
    p0, p1 = click_probability_arrays(mu_a, mu_b, delta, link, det, noise)
    ta = link.arm_transmittance("a")
    tb = link.arm_transmittance("b")
    for i in range(3):
        for eff, got, port in ((det.efficiency_d0, p0[i], 0),
                               (det.efficiency_d1, p1[i], 1)):
            want = _fock_click_probs(mu_a[i] * ta * eff, mu_b[i] * tb * eff,
                                     delta[i], noise.visibility,
                                     det.dark_prob_d0, det.dark_prob_d1)[port]
            assert got == pytest.approx(want, rel=1e-9)


# -------------------------------------------------------- noise model

def test_equal_wavelengths_rejected():
    with pytest.raises(ValueError):
        NoiseModel(lambda_c_nm=1550.0, lambda_q_nm=1550.0)


def test_clock_drift_floor():
    assert NoiseModel().clock_drift_floor() == pytest.approx(44.40, abs=0.05)


def test_clock_drift_floor_follows_the_band_gap():
    """The floor scales the clock accuracy by c/lambda_c - c/lambda_q.

    The preset wavelengths, 1549.694 and 1550.495 nm, are 99.94 GHz
    apart.  Only the gap counts, so swapping the bands keeps the floor.
    """
    noise = NoiseModel()
    assert noise.clock_drift_floor() == 44.401921828575986
    swapped = NoiseModel(lambda_q_nm=noise.lambda_c_nm,
                         lambda_c_nm=noise.lambda_q_nm)
    assert swapped.clock_drift_floor() == noise.clock_drift_floor()
    moved = NoiseModel(lambda_c_nm=1549.0)
    gap_hz = 299_792_458.0e9 * (1.0 / 1549.0 - 1.0 / noise.lambda_q_nm)
    assert gap_hz == pytest.approx(186.6e9, rel=1e-3)
    assert moved.clock_drift_floor() == pytest.approx(
        math.tau * math.sqrt(2.0) * noise.clock_accuracy * gap_hz, rel=1e-12)


# ------------------------------------------------------ phase process

def _free_running_parts(noise, dt, n, rng):
    """The fiber, laser and clock phases at t = dt, 2 dt, ..., n dt."""
    fiber = fiber_phase(noise, dt, n, rng)
    t = np.arange(1, n + 1, dtype=float)
    t *= dt
    return (fiber, *ramp_phases(noise, t))


def _bands(noise, fiber, laser, clock):
    """The reference and signal bands of the free-running phase parts."""
    return fiber + laser, signal_band_phase(fiber, laser, clock,
                                            noise.band_ratio)


def test_free_running_phase_quiet_channel():
    noise = NoiseModel(free_drift_rate_std=0.0, laser_drift_hz_per_hour=0.0,
                       clock_accuracy=0.0)
    parts = _free_running_parts(noise, 1e-5, 100, np.random.default_rng(0))
    for phase in (*parts, *_bands(noise, *parts)):
        assert not phase.any()


def test_free_running_phase_clock_floor_only():
    noise = NoiseModel(free_drift_rate_std=0.0, laser_drift_hz_per_hour=0.0)
    fiber, laser, clock = _free_running_parts(noise, 1e-5, 1000,
                                              np.random.default_rng(0))
    phi_c, phi_q = _bands(noise, fiber, laser, clock)
    t = np.arange(1, 1001) * 1e-5
    assert not phi_c.any()
    # The floor is a constant drift rate in the signal band only, and it
    # is returned as built.
    assert np.array_equal(clock, noise.clock_drift_floor() * t)
    assert np.array_equal(phi_q, clock)
    assert phi_q[-1] / t[-1] == pytest.approx(44.40, abs=0.05)


def test_free_running_phase_laser_ramp():
    noise = NoiseModel(free_drift_rate_std=0.0, clock_accuracy=0.0)
    fiber, laser, clock = _free_running_parts(noise, 1e-3, 1000,
                                              np.random.default_rng(0))
    phi_c, phi_q = _bands(noise, fiber, laser, clock)
    t = np.arange(1, 1001) * 1e-3
    # Frequency offset ramping from 0 at f_drift: phi = 2 pi (f_drift/2) t^2
    # in both bands, reaching pi * 1777/3600 rad after 1 s.
    expect = 2 * math.pi * 0.5 * (1777.0 / 3600.0) * t ** 2
    np.testing.assert_allclose(laser, expect, rtol=1e-12)
    assert np.array_equal(phi_c, laser)
    assert np.array_equal(phi_q, laser)
    assert phi_c[-1] == pytest.approx(math.pi * 1777.0 / 3600.0, rel=1e-12)


def _lfilter_free_running_phase(noise, dt, n, rng):
    """The free-running phase as it was built with ``scipy.signal.lfilter``.

    Returns the reference and signal bands, then the fiber, laser and
    clock parts.
    """
    a, s = velocity_step_coeffs(noise, dt)
    velocity = lfilter([s], [1.0, -a], rng.standard_normal(n))
    fiber_phase = np.cumsum(velocity) * dt
    t = np.arange(1, n + 1) * dt
    f0 = noise.laser_drift_hz_per_hour / 3600.0
    laser_phase = 2.0 * math.pi * (0.5 * f0 * t * t)
    phi_c = fiber_phase + laser_phase
    clock_phase = noise.clock_drift_floor() * t
    phi_q = noise.band_ratio * fiber_phase + laser_phase + clock_phase
    return phi_c, phi_q, fiber_phase, laser_phase, clock_phase


@pytest.mark.parametrize("dt", [7e-6, 1e-5, 2e-5], ids=["7us", "10us", "20us"])
@pytest.mark.parametrize("noise", [
    *(PRESETS[name].noise for name in sorted(PRESETS)),
    dataclasses.replace(PRESETS["sym546"].noise, clock_accuracy=0.0),
], ids=[*sorted(PRESETS), "ideal_clock"])
def test_free_running_phase_matches_lfilter(noise, dt):
    # The velocity recurrence is a Python loop; it must reproduce the
    # lfilter it replaced bit for bit, or every servo series changes.
    # So must the bands built from its parts, whole or at a stride.
    for n in (10_000, 200_000):
        for seed in (0, 3, 17):
            parts = _free_running_parts(noise, dt, n,
                                        np.random.default_rng(seed))
            got = (*_bands(noise, *parts), *parts)
            want = _lfilter_free_running_phase(noise, dt, n,
                                               np.random.default_rng(seed))
            for g, w in zip(got, want, strict=True):
                assert g.tobytes() == w.tobytes(), (n, seed)
            strided = signal_band_phase(*(p[::100] for p in parts),
                                        noise.band_ratio)
            assert strided.tobytes() == want[1][::100].tobytes(), (n, seed)


def test_drift_rate_calibration_closed_form():
    # Monte Carlo check of the AR(1) window-variance inversion: the RMS
    # of the 1 ms drift rate must equal free_drift_rate_std.
    noise = NoiseModel()
    dt = 1e-4
    m = round(1e-3 / dt)
    a, s = velocity_step_coeffs(noise, dt)
    sig_v = s / math.sqrt(1.0 - a * a)
    rng = np.random.default_rng(7)
    n_rep, n_steps = 3000, 60 * m
    v = lfilter([s], [1.0, -a], rng.standard_normal((n_rep, n_steps)), axis=1)
    # Start each replica from the stationary velocity distribution by
    # adding the homogeneous decay of a stationary initial value.
    v0 = rng.standard_normal(n_rep) * sig_v
    v += np.outer(v0, a ** np.arange(1, n_steps + 1))
    phase = np.cumsum(v, axis=1) * dt
    rates = np.diff(phase[:, ::m], axis=1) / 1e-3
    rms = float(np.sqrt(np.mean(rates ** 2)))
    assert rms == pytest.approx(noise.free_drift_rate_std, rel=0.02)


def test_drift_rate_calibration_step_size_invariant():
    noise = NoiseModel()
    sig = []
    for dt in (1e-3, 1e-4, 1e-5):
        a, s = velocity_step_coeffs(noise, dt)
        sig.append(s / math.sqrt(1.0 - a * a))  # stationary velocity std
    assert sig[1] == pytest.approx(sig[2], rel=0.01)


def test_free_running_phase_empirical_drift_rate():
    # 40 independent records of 1e5 steps at 0.1 ms (10 s each) from one
    # generator; the 1 ms mean-square drift rate is pooled over all of
    # them.  The pooled RMS scatters by 0.5% between seeds, so each edge
    # of the band is more than 5 sigma from the 1.65e4 mean: the false
    # alarm probability is below 1e-6.
    noise = NoiseModel(laser_drift_hz_per_hour=0.0, clock_accuracy=0.0)
    dt = 1e-4
    m = round(1e-3 / dt)
    rng = np.random.default_rng(1)
    mean_squares = []
    for _ in range(40):
        # Without a laser ramp the reference band is the fiber phase.
        phases = fiber_phase(noise, dt, 100_000, rng)
        rates = np.diff(phases[::m]) / 1e-3
        mean_squares.append(np.mean(rates * rates))
    rms = float(np.sqrt(np.mean(mean_squares)))
    assert 1.60e4 <= rms <= 1.70e4
