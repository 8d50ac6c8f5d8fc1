"""Names, units and reference values shared by the benchmark driver and worker.

This module imports nothing from ``tfqkd`` so the driver can read it without
paying the package's import cost.
"""
from __future__ import annotations

WORKLOADS = ("mc_session", "servo_lock", "design_scan")
PRESETS = ("sym546", "sym603", "asym452")

#: End-to-end metrics printed by an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "cmd_s.p50": "s",
}

#: What ``work_per_s`` counts on each workload, and the command kind whose
#: single-command latency ``cmd_s.*`` samples.
WORK_UNIT = {
    "mc_session": ("windows_per_s", "simulate"),
    "servo_lock": ("servo_steps_per_s", "stabilize --stages full"),
    "design_scan": ("keyrate_evals_per_s", "keyrate"),
}

#: Public functions wrapped by the traced run, as ``<module>.<function>``
#: under ``tfqkd``.  A name the package no longer defines is reported absent.
SPANS = (
    "cli.main",
    "config.load_config",
    "bench.analytic_keyrate", "bench.optimize", "bench.sweep",
    "engine.simulate", "engine.run_block", "engine.expected_counts",
    "optics.click_probability_arrays",
    "postproc.process", "postproc.decoy_bounds", "postproc.chernoff_upper",
    "postproc.chernoff_lower", "postproc.odd_parity_pairing",
    "ratecore.key_rate",
    "servo.run_stabilization", "servo.fast_loop_step", "servo.slow_loop_step",
    "servo.drift_rate_rms", "servo.frequency_readout",
)

#: Counters of the traced run: name -> (unit, better).  Span and counter
#: values are per traced command sequence.
COUNTERS = {
    "engine.windows": ("count/seq", "higher"),
    "engine.herald_fraction": ("ratio", "higher"),
    "optics.click_probability_arrays.elements": ("count/seq", "lower"),
    "bench.optimize.evaluations": ("count/seq", "lower"),
    "bench.optimize.budget_exhausted": ("count/seq", "lower"),
    "cli.bytes_written": ("B/seq", "lower"),
    "trace.overhead_s": ("s/seq", "lower"),
    "trace.absent_targets": ("count", "lower"),
    "ops_failed_frac": ("ratio", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = ("count/seq", "lower")
        out[f"{span}.total_s"] = ("s/seq", "lower")
        out[f"{span}.self_s"] = ("s/seq", "lower")
    out.update(COUNTERS)
    return out


# --------------------------------------------------------------- checks

#: Asymptotic ``skr_bit_per_signal`` of ``tfqkd keyrate --preset <p>``.
KEYRATE_ASYMPTOTIC_SKR = {
    "sym546": 2.642311e-09,
    "sym603": 5.662589e-10,
    "asym452": 3.305191e-09,
}
KEYRATE_REL_TOL = 1e-4

#: Per-entry two-sided false-alarm probability of the Monte Carlo count
#: checks.  A run checks fewer than 1e5 entries, so by the union bound a
#: correct program fails a run's suite with probability below 1e-4.
POISSON_ALPHA = 1e-9

#: Servo ranges: closed-loop signal-band residual, and the fast-loop drift
#: reduction with an ideal clock over the 2 s lock of the paper.
RESIDUAL_Q_MAX_RAD = 0.30
REDUCTION_RANGE = (1000.0, 2500.0)
FAST_LOOP_DT_S = 10e-6
