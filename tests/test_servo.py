"""Stabilization loops: fast/slow phase locks, readouts, closed-loop runs."""
import math

import numpy as np
import pytest

from tfqkd.optics import NoiseModel
from tfqkd.servo import (LoopConfig, PIDState, drift_rate_rms, fast_loop_step,
                         frequency_readout, run_stabilization, slow_loop_step)

TWO_PI = 2.0 * math.pi


# ----------------------------------------------------------- loop config

@pytest.mark.parametrize("kwargs", [{"dc_target_counts_hz": 0.0},
                                    {"d0_reference_rate_hz": 0.0},
                                    {"fast_gains": (0.8, 0.05, 0.0)}])
def test_loop_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        LoopConfig(**kwargs)


# ------------------------------------------------------------- fast loop

def test_fast_loop_zero_error():
    loop = LoopConfig()
    state = PIDState()
    for _ in range(20):
        fast_loop_step(loop.dc_setpoint_counts, loop, state)
    assert state.output == 0.0
    assert state.unwrapped == 0.0


def test_fast_loop_locks_static_offset():
    # Noiseless closed loop: counts follow the fringe model for a fixed
    # +0.5 rad plant offset; the correction must converge to -0.5 rad.
    loop = LoopConfig()
    state = PIDState()
    offset = 0.5
    for _ in range(50):
        counts = loop.dc_setpoint_counts * (1.0 + math.sin(offset + state.output))
        fast_loop_step(counts, loop, state)
    assert state.output == pytest.approx(-0.5, abs=5e-3)


def test_fast_loop_rejects_negative_counts():
    with pytest.raises(ValueError):
        fast_loop_step(-1.0, LoopConfig(), PIDState())


def test_fast_loop_output_wraps():
    loop = LoopConfig()
    state = PIDState(unwrapped=0.0)
    # Saturated error signal every step walks the unwrapped value far
    # past one fringe; the physical output stays within (-pi, pi].
    for _ in range(200):
        fast_loop_step(2.0 * loop.dc_setpoint_counts, loop, state)
    assert abs(state.output) <= math.pi + 1e-12
    assert abs(state.unwrapped) > TWO_PI


# ------------------------------------------------------------- slow loop

def test_slow_loop_zero_drift():
    loop = LoopConfig()
    state = PIDState()
    for _ in range(20):
        slow_loop_step(loop.d0_reference_rate_hz, loop, state)
    assert state.output == 0.0
    assert not state.saturated


def test_slow_loop_locks_static_offset():
    loop = LoopConfig()
    state = PIDState()
    offset = 0.4
    for _ in range(60):
        rate = loop.d0_reference_rate_hz * (1.0 + math.sin(offset + state.output))
        slow_loop_step(rate, loop, state)
    assert state.output == pytest.approx(-0.4, abs=1e-3)


def test_slow_loop_range_reset_flag():
    loop = LoopConfig(fs_range_rad=10.0)
    state = PIDState()
    saw_reset = False
    for _ in range(400):
        # Pegged error signal: rate at twice the set point.
        slow_loop_step(2.0 * loop.d0_reference_rate_hz, loop, state)
        if state.saturated:
            saw_reset = True
            assert abs(state.output) <= 10.0 + TWO_PI
    assert saw_reset


# ------------------------------------------------------------- readouts

def test_frequency_readout_constant():
    assert frequency_readout(np.zeros(100), 1.0) == pytest.approx(0.0)


def test_frequency_readout_ramp():
    t = np.linspace(0.0, 1.0, 1000)
    assert frequency_readout(TWO_PI * t, 1.0) == pytest.approx(1.0, rel=1e-9)


def test_frequency_readout_noisy_offset():
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 10.0, 100_000)
    pm = TWO_PI * 500.0 * t + rng.normal(0.0, 0.3, t.size)
    assert frequency_readout(pm, 10.0) == pytest.approx(500.0, abs=50.0)


def test_frequency_readout_needs_samples():
    with pytest.raises(ValueError):
        frequency_readout(np.array([1.0]), 1.0)


# ----------------------------------------------------------- rate stats

def test_drift_rate_rms_linear_ramp():
    dt = 1e-5
    phase = 123.0 * np.arange(200_000) * dt
    assert drift_rate_rms(phase, dt) == pytest.approx(123.0, rel=1e-9)


def test_drift_rate_rms_too_short():
    with pytest.raises(ValueError):
        drift_rate_rms(np.zeros(5), 1e-5, window_s=1e-3)


# ------------------------------------------------------ full simulation

def test_run_stabilization_validates_inputs():
    with pytest.raises(ValueError):
        run_stabilization(0.01, NoiseModel(), LoopConfig())
    with pytest.raises(ValueError):
        run_stabilization(1.0, NoiseModel(), LoopConfig(), stages="bogus")


def test_run_stabilization_seed_determinism():
    noise = NoiseModel()
    loop = LoopConfig()
    s1, ser1 = run_stabilization(0.15, noise, loop, stages="full", seed=11)
    s2, ser2 = run_stabilization(0.15, noise, loop, stages="full", seed=11)
    assert s1 == s2
    for key in ser1:
        assert np.array_equal(ser1[key], ser2[key])
    s3, _ = run_stabilization(0.15, noise, loop, stages="full", seed=12)
    assert s3 != s1


def test_run_stabilization_free_drift_calibration():
    # Long free-running record (vectorized, no loop dynamics): the
    # 1 ms drift-rate statistic must sit within 5% of the model input.
    noise = NoiseModel()
    summary, _ = run_stabilization(30.0, noise, LoopConfig(),
                                   stages="none", seed=4)
    assert summary.free_drift_std_rad_per_s == pytest.approx(1.65e4, rel=0.05)
    assert summary.reduction_factor == pytest.approx(1.0)


def test_run_stabilization_series_shapes():
    _, series = run_stabilization(0.15, NoiseModel(), LoopConfig(),
                                  stages="fastOnly", seed=0)
    n = series["t_s"].size
    assert n == 15_000
    for key in ("phiC_rad", "phiQ_rad", "pm_rad", "fs_rad", "dc_counts"):
        assert series[key].size == n


def test_run_stabilization_slow_rate_follows_fast_interval():
    # 20 us fast steps: the slow loop still runs at slow_rate_hz = 1 kHz,
    # so 0.4 s gives 400 stretcher updates.  Each moves the stretcher
    # unless its error and integral are both zero.
    _, series = run_stabilization(0.4, NoiseModel(),
                                  LoopConfig(fast_interval_us=20.0),
                                  stages="full", seed=0)
    changes = np.count_nonzero(np.diff(series["fs_rad"]))
    assert 395 <= changes <= 400
