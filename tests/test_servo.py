"""Stabilization loops: fast/slow phase locks, readouts, closed-loop runs."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from tfqkd import servo
from tfqkd.optics import fiber_phase, ramp_phases
from tfqkd.presets import PRESETS, NoiseModel
from tfqkd.servo import (_ERROR_TABLE, FAST_GAINS, FAST_SETPOINT_COUNTS,
                         FAST_STEP_S, FS_RANGE_RAD, SLOW_SETPOINT_COUNTS, STAGES, PIDState,
                         StabilizationSummary, _std_in_place, _wrap_fringe,
                         clock_limited_drift_rate, drift_rate_rms,
                         fast_loop_span, frequency_readout, run_stabilization,
                         slow_loop_step)

TWO_PI = 2.0 * math.pi


# ------------------------------------------------------------- fast loop

def _noiseless(lam):
    return lam


def _run_span(phi_c, state, draw=_noiseless):
    n = phi_c.size
    pm, dc_counts = np.zeros(n), np.zeros(n)
    fast_loop_span(0, n, phi_c, pm, dc_counts, 1.0, state, draw)
    return pm, dc_counts


def test_fast_loop_zero_error():
    state = PIDState()
    pm, dc_counts = _run_span(np.zeros(20), state)
    assert state.output == 0.0
    assert state.unwrapped == 0.0
    assert np.all(pm == 0.0)
    assert np.all(dc_counts == FAST_SETPOINT_COUNTS)


def test_fast_loop_locks_static_offset():
    # Noiseless closed loop: counts follow the fringe model for a fixed
    # +0.5 rad plant offset; the correction must converge to -0.5 rad.
    state = PIDState()
    pm, _ = _run_span(np.full(50, 0.5), state)
    assert state.output == pytest.approx(-0.5, abs=5e-3)
    assert pm[-1] == state.unwrapped


def test_fast_loop_output_wraps():
    state = PIDState()
    # A pegged count (three times the set point, so the error clips at
    # pi/2) every step walks the unwrapped value far past one fringe; the
    # physical output stays within (-pi, pi].
    pm, _ = _run_span(np.zeros(200), state,
                      draw=lambda lam: 3.0 * FAST_SETPOINT_COUNTS)
    kp, ki = FAST_GAINS
    assert pm[0] == pytest.approx(-(kp + ki) * math.pi / 2, rel=1e-12)
    assert abs(state.output) <= math.pi + 1e-12
    assert abs(state.unwrapped) > TWO_PI
    assert pm[-1] == state.unwrapped


def _formula_error(counts, setpoint):
    err = counts / setpoint - 1.0
    return math.asin(err if err < 1.0 else 1.0)


@pytest.mark.parametrize("fast_interval_us", [10.0])
def test_error_table_matches_formula(fast_interval_us):
    # The table is built for the 10 us fast step: its set point, 6 MHz
    # over one step, is just under 60 counts, so the table ends at its
    # first clipped count, 120.
    assert FAST_STEP_S == fast_interval_us * 1e-6
    setpoint = FAST_SETPOINT_COUNTS
    assert setpoint == 6e6 * (fast_interval_us * 1e-6)
    errs = _ERROR_TABLE
    assert len(errs) == 121
    want = [_formula_error(c, setpoint) for c in range(len(errs))]
    assert np.array(errs).tobytes() == np.array(want).tobytes()
    assert errs[-1] == math.pi / 2 > errs[-2]

    # Counts past the table's end, then counts that are not integers,
    # take the formula; in-table counts come before and between them.
    end = len(errs)
    counts = [0, end - 1, end, end + 7, 10 * end, 3, np.int64(end + 1),
              0.0, setpoint, 1.5 * setpoint, float(end - 1), 2]
    draws = iter(counts)
    state = PIDState()
    pm, dc_counts = _run_span(np.zeros(len(counts)), state,
                              draw=lambda lam: next(draws))
    assert dc_counts.tolist() == [float(c) for c in counts]
    kp, ki = FAST_GAINS
    integral = unwrapped = 0.0
    want_pm = []
    for c in counts:
        err = _formula_error(c, setpoint)
        integral += err
        unwrapped -= kp * err + ki * integral
        want_pm.append(unwrapped)
    assert pm.tobytes() == np.array(want_pm).tobytes()


# ------------------------------------------------------------- slow loop

def test_slow_loop_zero_drift():
    state = PIDState()
    for _ in range(20):
        assert not slow_loop_step(SLOW_SETPOINT_COUNTS, state)
    assert state.output == 0.0


def test_slow_loop_locks_static_offset():
    state = PIDState()
    offset = 0.4
    for _ in range(60):
        counts = SLOW_SETPOINT_COUNTS * (1.0 + math.sin(offset
                                                        + state.output))
        slow_loop_step(counts, state)
    assert state.output == pytest.approx(-0.4, abs=1e-3)
    # The stretcher value is the only actuator field the slow loop keeps.
    assert state.unwrapped == 0.0


def test_slow_loop_range_reset_flag():
    state = PIDState()
    saw_reset = False
    for _ in range(400):
        # Pegged error signal: counts at twice the set point.
        if slow_loop_step(2.0 * SLOW_SETPOINT_COUNTS, state):
            saw_reset = True
            assert abs(state.output) <= FS_RANGE_RAD + TWO_PI
    assert saw_reset


# ------------------------------------------------------------- readouts

def test_frequency_readout_constant():
    assert frequency_readout(np.zeros(100), 0.01) == pytest.approx(0.0)


def test_frequency_readout_ramp():
    t = np.linspace(0.0, 1.0, 1000)
    assert frequency_readout(TWO_PI * t, t[1]) == pytest.approx(1.0, rel=1e-9)


def test_frequency_readout_noisy_offset():
    rng = np.random.default_rng(5)
    t = np.linspace(0.0, 10.0, 100_000)
    pm = TWO_PI * 500.0 * t + rng.normal(0.0, 0.3, t.size)
    assert frequency_readout(pm, t[1]) == pytest.approx(500.0, abs=50.0)


@pytest.mark.parametrize("m", [2, 3, 10, 1000, 100_000, 1_000_000])
def test_frequency_readout_matches_polyfit(m):
    """The closed-form slope equals the first-degree ``np.polyfit``.

    Two histories per length: a pure ramp, and a unit-step random walk
    10^4 rad (about 1,600 fringes) off zero, riding on a frequency ramp
    as the correction history does.  Without the ramp a short walk's
    slope can come close to 0, and the relative difference then
    measures polyfit's own rounding (about eps * offset / slope), not
    the closed form.  Over seeds 0-39 the worst difference was 1.4e-13.
    """
    rng = np.random.default_rng(m)
    window = 1.8
    t = np.linspace(0.0, window, m)
    ramp = TWO_PI * 123.4 * t
    walk = np.cumsum(rng.standard_normal(m)) + 1e4 - TWO_PI * 87.6 * t
    for pm in (ramp, walk):
        want = np.polyfit(t, pm, 1)[0] / TWO_PI
        assert frequency_readout(pm, window / (m - 1)) == pytest.approx(want, rel=1e-12)


def test_run_stabilization_none_reads_the_laser_ramp():
    """Without fiber drift the free-running readout is the laser's mean offset.

    The laser frequency ramps as f0 t, so its phase pi f0 t^2 has the
    least-squares slope 2 pi f0 (n + 1) dt / 2 over t = dt, ..., n dt.
    Reading the samples as spread over a window of n dt instead of
    (n - 1) dt would put the readout low by 1 / n, 5e-5 here.
    """
    noise = NoiseModel(free_drift_rate_std=0.0)
    n = round(0.2 / FAST_STEP_S)
    f0 = noise.laser_drift_hz_per_hour / 3600.0
    summary, _ = run_stabilization(0.2, noise, "none", seed=0, series=False)
    want = f0 * 0.5 * (n + 1) * FAST_STEP_S
    assert summary.freq_readout_hz == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_run_stabilization_stages_read_one_sign(seed):
    """Every stage reads the laser's offset, which ramps up from zero.

    Without fiber drift, ``none`` reads the reference band's own ramp:
    its mean offset f0 (n + 1) dt / 2 over the run.  The locked stages
    read the modulator's correction after the 0.2 s warm-up, so they
    see the mean offset over samples ``[warm, n)``, f0 (warm + 1 + n) dt
    / 2, up to the lock's shot noise; over these seeds and stages that
    was at most 0.18% off, against the 1% allowed.
    """
    noise = NoiseModel(free_drift_rate_std=0.0)
    n = round(1.0 / FAST_STEP_S)
    warm = n // 5
    f0 = noise.laser_drift_hz_per_hour / 3600.0
    for stages in STAGES:
        summary, _ = run_stabilization(1.0, noise, stages, seed, series=False)
        freq = summary.freq_readout_hz
        assert freq > 0, stages
        if stages == "none":
            assert freq == pytest.approx(f0 * 0.5 * (n + 1) * FAST_STEP_S,
                                         rel=1e-9)
        else:
            want = f0 * 0.5 * (warm + 1 + n) * FAST_STEP_S
            assert freq == pytest.approx(want, rel=0.01), stages


def test_frequency_readout_needs_samples():
    with pytest.raises(ValueError):
        frequency_readout(np.array([1.0]), 1.0)


# ----------------------------------------------------------- fringe wrap

def test_wrap_fringe_matches_math_remainder():
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    # Exact half-fringe ties: 1, 3, ..., 9 times pi are representable, and
    # their quotients by a fringe alternate between even and odd.
    ties = np.arange(1, 10, 2) * math.pi
    x = np.concatenate([raw[np.isfinite(raw)],
                        rng.uniform(-1e3, 1e3, 100_000),
                        ties, -ties, [0.0, -0.0, 1e6]])
    want = np.array([math.remainder(v, TWO_PI) for v in x])
    assert _wrap_fringe(x).tobytes() == want.tobytes()


# ----------------------------------------------------------- rate stats

def test_drift_rate_rms_linear_ramp():
    # A 123 rad/s ramp sampled once per 1 ms window.
    window_s = 1e-3
    phase = 123.0 * np.arange(2_000) * window_s
    assert drift_rate_rms(phase, window_s) == pytest.approx(123.0, rel=1e-9)


def test_drift_rate_rms_too_short():
    with pytest.raises(ValueError):
        drift_rate_rms(np.zeros(1), 1e-3)


# ------------------------------------------------------ full simulation

def test_run_stabilization_validates_inputs():
    with pytest.raises(ValueError):
        run_stabilization(0.01, NoiseModel())
    with pytest.raises(ValueError):
        run_stabilization(1.0, NoiseModel(), stages="bogus")


def test_run_stabilization_seed_determinism():
    noise = NoiseModel()
    s1, ser1 = run_stabilization(0.15, noise, stages="full", seed=11)
    s2, ser2 = run_stabilization(0.15, noise, stages="full", seed=11)
    assert s1 == s2
    for key in ser1:
        assert np.array_equal(ser1[key], ser2[key])
    s3, _ = run_stabilization(0.15, noise, stages="full", seed=12)
    assert s3 != s1


def test_run_stabilization_free_drift_calibration():
    """Long free-running record (vectorized, no loop dynamics): the
    1 ms drift-rate statistic must sit within 5% of the model input.

    Over seeds 0-239 the statistic's deviation from 1.65e4 has mean
    -0.2% and SD 2.3%, and 9 seeds fail the 5% band (3.8% per seed; the
    worst is seed 200 at -8.0%).  Seed 4 gives -3.2%.
    :func:`test_free_drift_calibration_pooled_over_seeds` is its pooled
    companion.
    """
    noise = NoiseModel()
    summary, _ = run_stabilization(30.0, noise, stages="none", seed=4)
    assert summary.free_drift_std_rad_per_s == pytest.approx(1.65e4, rel=0.05)
    assert summary.reduction_factor == pytest.approx(1.0)


def test_free_drift_calibration_pooled_over_seeds():
    """Pooled companion of the free-drift calibration over seeds 5-8.

    The mean of four 30 s records has an SEM of about 1.2% (per-seed SD
    2.3% over seeds 0-239), so the same 5% band lies about 4.3 SEM from
    the model input.  Under a normal approximation of the seed mean a
    correct program fails with probability about 2e-5; none of the 60
    disjoint 4-seed blocks of seeds 0-239 failed (largest |mean| 2.7%).
    """
    drifts = [run_stabilization(30.0, NoiseModel(), stages="none",
                                seed=seed)[0].free_drift_std_rad_per_s
              for seed in range(5, 9)]
    assert np.mean(drifts) == pytest.approx(1.65e4, rel=0.05)


def test_run_stabilization_series_shapes():
    """Every series has one sample per fast step, at t = dt, ..., n dt.

    The run rebuilds ``t_s`` after its statistics; it must equal the
    plain product bit for bit.  Only the slow loop writes the stretcher,
    so without it ``fs_rad`` stays +0.0 throughout.
    """
    n = 15_000
    want_t = np.arange(1, n + 1, dtype=float) * FAST_STEP_S
    for stages in STAGES:
        _, series = run_stabilization(0.15, NoiseModel(), stages=stages,
                                      seed=0)
        assert series["t_s"].tobytes() == want_t.tobytes(), stages
        for key in ("phiC_rad", "phiQ_rad", "pm_rad", "fs_rad", "dc_counts"):
            assert series[key].size == n, (stages, key)
        if stages != "full":
            assert series["fs_rad"].tobytes() == bytes(8 * n), stages


#: Traced peak of a 2 s sym546 run, in float64 arrays of its length, by
#: stage and by whether it builds its series.
_PEAK_ARRAYS = {
    ("none", True): 6.01, ("fastOnly", True): 6.01, ("full", True): 6.02,
    ("none", False): 2.33, ("fastOnly", False): 2.39, ("full", False): 2.39,
}


@pytest.mark.parametrize("stages", STAGES)
def test_run_stabilization_peak_memory(stages):
    """A 2 s sym546 run holds at most its measured peak + 0.5 arrays.

    numpy reports its data buffers to ``tracemalloc``, so the traced
    peak counts every array the run allocates, and it does not depend on
    the C library's heap.  With its series the run peaks at 6.01 arrays
    of n (6.02 in ``full``): the six returned series.  Without them it
    holds two full-length float arrays, the reference band and the
    modulator history (in ``none``, the free signal band), and peaks at
    2.33 to 2.39 with the blanking mask, the stretcher levels and the
    block temporaries.  Keeping the laser ramp, the clock floor and the
    stretcher history at full length, and building ``none``'s signal
    band beside all three, peaked at 3.34 to 4.34 arrays without series
    and 6.22 to 6.34 with them; keeping ``t``, a second clock-floor
    product and full-length statistics temporaries alive peaked at 8.39
    and 9.39.
    """
    noise = PRESETS["sym546"].noise
    n = round(2.0 / FAST_STEP_S)
    # numpy loads numpy.random on first use; load it untraced.
    np.random.default_rng
    for series in (True, False):
        tracemalloc.start()
        try:
            run_stabilization(2.0, noise, stages, seed=1, series=series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (_PEAK_ARRAYS[stages, series] + 0.5) * n * 8, series


#: Block edges of a 2 s run: its ends and both sides of the first
#: ``_BLOCK`` boundary (16384 samples).
_EDGES = (0, 1, 16383, 16384, 16385, 199_999, 200_000)


@pytest.mark.parametrize("noise", [
    *(PRESETS[name].noise for name in sorted(PRESETS)),
    dataclasses.replace(PRESETS["sym546"].noise, clock_accuracy=0.0),
], ids=[*sorted(PRESETS), "ideal_clock"])
def test_ramp_phases_by_block_match_whole_run(noise):
    """The closed-form phases of any slice equal the whole run's, bit for bit.

    The run builds the laser ramp, the clock floor and the drift left by
    the lock a block at a time, and at the strided samples the drift
    rates (from sample 0) and the slow loop (from sample 99) read.
    """
    n = _EDGES[-1]
    t = np.arange(1, n + 1, dtype=float)
    t *= FAST_STEP_S
    laser, clock = ramp_phases(noise, t)
    drift = clock + laser * (1.0 - noise.band_ratio)
    slices = [*zip(_EDGES, _EDGES[1:], [1] * len(_EDGES)),
              *((b, min(b + servo._BLOCK, n), 1) for b in _EDGES[:-1]),
              (0, n, 100), (99, n, 100)]
    for start, stop, step in slices:
        part = slice(start, stop, step)
        got = ramp_phases(noise, servo._sample_times(start, stop, step))
        assert got[0].tobytes() == laser[part].tobytes(), part
        assert got[1].tobytes() == clock[part].tobytes(), part
        assert (servo._lock_drift(noise, start, stop, step).tobytes()
                == drift[part].tobytes()), part


@pytest.mark.parametrize("n", [200_000, 200_050])
def test_stretcher_levels_by_block(n):
    """Sample i sees the stretcher level after slow step (i + 1) // 100."""
    levels = np.random.default_rng(n).standard_normal(n // 100 + 1)
    want = levels[np.arange(1, n + 1) // 100]
    edges = sorted({*_EDGES[:-1], n - 50, n})
    for start, stop in [*zip(edges, edges[1:]), (0, n), (99, 100),
                        (98, 201)]:
        got = servo._stretcher_levels(levels, start, stop)
        assert got.tobytes() == want[start:stop].tobytes(), (start, stop)


def _hex_summary(summary):
    return [float.hex(v) for v in dataclasses.astuple(summary)]


@pytest.mark.parametrize("duration_s, fs_range_rad", [
    pytest.param(0.2, FS_RANGE_RAD, id="default"),
    # The last slow-loop span is partial: 50 steps.
    pytest.param(0.2005, FS_RANGE_RAD, id="partial_span"),
    # Every preset rewinds the stretcher and blanks in a 0.2 s run.
    pytest.param(0.2, 3.0, id="fs_range_3"),
])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("stages", STAGES)
def test_run_stabilization_summary_without_series(monkeypatch, stages, preset,
                                                  seed, duration_s,
                                                  fs_range_rad):
    """A run without its series gives the same summary bit for bit."""
    monkeypatch.setattr(servo, "FS_RANGE_RAD", fs_range_rad)
    noise = PRESETS[preset].noise
    want, _ = run_stabilization(duration_s, noise, stages, seed)
    got, series = run_stabilization(duration_s, noise, stages, seed,
                                    series=False)
    assert series is None
    assert _hex_summary(got) == _hex_summary(want)


@pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 127, 128, 129, 1000,
                                  180_000])
@pytest.mark.parametrize("offset", [0.0, 1e4, 1e8])
def test_std_in_place_matches_np_std(size, offset):
    rng = np.random.default_rng(size)
    for x in (rng.standard_normal(size) + offset,
              rng.uniform(-math.pi, math.pi, size) + offset):
        want = np.std(x)
        assert float.hex(_std_in_place(x)) == float.hex(float(want))


def test_fast_lock_drift_pooled_over_seeds():
    """Pooled companion of acceptance criterion 6 over seeds 2-9.

    Each seed runs 2 s of the fast lock against the clock-limited
    reference, the second run of criterion 6, which uses seed 1.  The
    pooled mean must lie within 4 SEM of the physics, not of a past
    run: :func:`clock_limited_drift_rate` predicts 45.21 rad/s.  The
    per-seed locked drift has mean 45.16 and SD 1.48 rad/s over seeds
    0-499, so the 8-seed mean (45.53 here) has an SEM of about 0.53, and
    the band is about +-2.1 rad/s.  Under a normal approximation of the
    seed mean a correct program fails with probability about 6.3e-5
    (two-sided 4 sigma); on these seeds a servo change that moves the
    locked drift by 6% either way fails it.  The per-seed check of
    criterion 6 fails for about 0.4% of seeds.
    """
    noise = NoiseModel()
    drifts = [run_stabilization(2.0, noise, "fastOnly",
                                seed)[0].fast_locked_drift_std_rad_per_s
              for seed in range(2, 10)]
    sem = 1.5 / math.sqrt(len(drifts))
    assert np.mean(drifts) == pytest.approx(clock_limited_drift_rate(noise),
                                            abs=4 * sem)


def _reference_stabilization(duration_s, noise, stages, seed,
                             fs_range_rad=60.0):
    """The per-step loop that ``fast_loop_span`` replaced, as its oracle.

    It states the loop design as rates: 10 us fast steps, a 6 MHz
    fast set point, a 1 kHz slow loop with a 100 kHz reference rate and
    1 ms blanking.  The slow loop keeps its earlier arithmetic inline:
    the drawn count goes through a rate in Hz and back, and the PI
    correction is added negated.  ``fs_range_rad`` is the stretcher
    range.  Returns the summary, the series and the number of stretcher
    resets.
    """
    dt = 10.0 * 1e-6
    slow_rate_hz = 1e3
    n = round(duration_s / dt)
    rng = np.random.default_rng(seed)
    fiber = fiber_phase(noise, dt, n, rng)
    laser_phase, clock = ramp_phases(noise,
                                     np.arange(1, n + 1, dtype=float) * dt)
    phi_c = fiber + laser_phase
    phi_q_free = noise.band_ratio * fiber + laser_phase + clock
    t = np.arange(1, n + 1) * dt
    pm = np.zeros(n)
    dc_counts = np.zeros(n)
    fs = np.zeros(n)
    resid_q = phi_q_free.copy()
    blanked = np.zeros(n, dtype=bool)
    resets = 0
    if stages != "none":
        fast = PIDState()
        kp, ki = 0.8, 0.05
        slow_kp, slow_ki = 0.8, 0.3
        fs_integral = 0.0
        delta = 1.0 - noise.band_ratio
        floor = noise.clock_drift_floor()
        setpoint = 6e6 * dt
        vis = noise.visibility
        slow_every = max(1, int(round(1.0 / (dt * slow_rate_hz))))
        blank_steps = max(1, int(round(1e-3 / dt)))
        blank_until = -1
        d0_set = 1e5 / slow_rate_hz
        fs_val = 0.0
        for i in range(n):
            err_c = phi_c[i] + fast.output
            counts = rng.poisson(setpoint * (1.0 + vis * math.sin(err_c)))
            dc_counts[i] = counts
            err = math.asin(max(-1.0, min(1.0, counts / setpoint - 1.0)))
            fast.integral += err
            fast.unwrapped += -(kp * err + ki * fast.integral)
            fast.output = math.remainder(fast.unwrapped, TWO_PI)
            pm[i] = fast.unwrapped
            fringe = round(fast.unwrapped / TWO_PI)
            resid_q[i] = (floor * t[i] + delta * laser_phase[i]
                          - delta * TWO_PI * fringe)
            if stages == "full" and (i + 1) % slow_every == 0:
                d0_rate = rng.poisson(
                    d0_set * (1.0 + vis * math.sin(resid_q[i] + fs_val))
                ) * slow_rate_hz
                err = math.asin(max(-1.0, min(
                    1.0, d0_rate / slow_rate_hz / d0_set - 1.0)))
                fs_integral += err
                fs_val += -(slow_kp * err + slow_ki * fs_integral)
                if abs(fs_val) > fs_range_rad:
                    fs_val -= TWO_PI * round(fs_val / TWO_PI)
                    resets += 1
                    blank_until = i + blank_steps
            fs[i] = fs_val
            if i <= blank_until:
                blanked[i] = True

    warm = min(n // 5, int(round(0.2 / dt)))
    valid = ~blanked
    valid[:warm] = False
    free_rate = drift_rate_rms(phi_q_free[::100], 100 * dt)
    if stages == "none":
        locked_rate = free_rate
        resid_c = phi_c
        resid_total = phi_q_free
        freq = frequency_readout(phi_c, dt)
    else:
        locked_rate = drift_rate_rms(resid_q[warm:][::100], 100 * dt)
        resid_c = phi_c + pm
        resid_total = resid_q + fs
        freq = -frequency_readout(pm[warm:], dt)
    wrap = np.vectorize(math.remainder)
    summary = StabilizationSummary(
        free_drift_std_rad_per_s=free_rate,
        fast_locked_drift_std_rad_per_s=locked_rate,
        residual_phase_std_c_rad=float(np.std(wrap(resid_c[valid], TWO_PI))),
        residual_phase_std_q_rad=float(np.std(wrap(resid_total[valid], TWO_PI))),
        reduction_factor=free_rate / locked_rate if locked_rate > 0 else math.inf,
        freq_readout_hz=freq,
    )
    series = {"t_s": t, "phiC_rad": phi_c, "phiQ_rad": phi_q_free,
              "pm_rad": pm, "fs_rad": fs, "dc_counts": dc_counts}
    return summary, series, resets


def _assert_matches_oracle(duration_s, noise, stages, seed,
                           fs_range_rad=FS_RANGE_RAD):
    """Check a run against the oracle bit for bit; return its resets."""
    summary, series = run_stabilization(duration_s, noise, stages=stages,
                                        seed=seed)
    want, want_series, resets = _reference_stabilization(
        duration_s, noise, stages, seed, fs_range_rad)
    assert (np.array(dataclasses.astuple(summary)).tobytes()
            == np.array(dataclasses.astuple(want)).tobytes())
    assert series.keys() == want_series.keys()
    for key, values in want_series.items():
        assert series[key].tobytes() == values.tobytes(), key
    return resets


@pytest.mark.parametrize("duration_s, fs_range_rad", [
    # Whole 1 ms spans; the last slow step is the last sample.
    pytest.param(0.2, FS_RANGE_RAD, id="default"),
    # The last slow-loop span is partial: 50 steps.
    pytest.param(0.2005, FS_RANGE_RAD, id="partial_span"),
    # The stretcher range patched down to 3 rad, so a 0.2 s run rewinds
    # the stretcher and blanks on every preset.
    pytest.param(0.2, 3.0, id="fs_range_3"),
])
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("stages", STAGES)
def test_run_stabilization_matches_per_step_oracle(monkeypatch, stages,
                                                   preset, duration_s,
                                                   fs_range_rad):
    monkeypatch.setattr(servo, "FS_RANGE_RAD", fs_range_rad)
    resets = _assert_matches_oracle(duration_s, PRESETS[preset].noise,
                                    stages, seed=3, fs_range_rad=fs_range_rad)
    if stages == "full" and fs_range_rad == 3.0:
        assert resets > 0


def test_run_stabilization_rewinds_at_default_range():
    """At the 60 rad range a 2 s run rewinds the stretcher and blanks.

    The stretcher follows the 44.4 rad/s clock-accuracy floor, so it
    passes 60 rad after about 1.35 s whatever the seed: each of seeds
    0-239 rewound exactly once in a 2 s sym546 ``full`` run (seeds 0-5
    at 1.27-1.39 s).  The per-seed false-alarm rate is thus 0 of 240.
    The blanked millisecond enters the summary's residuals, which the
    oracle checks bit for bit.
    """
    resets = _assert_matches_oracle(2.0, PRESETS["sym546"].noise, "full",
                                    seed=3)
    assert resets >= 1
