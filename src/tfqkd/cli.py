"""Command-line interface.

Subcommands: ``verify``, ``keyrate``, ``simulate``, ``stabilize``,
``sweep``, ``optimize``, ``preset list|show``.  Exit codes: 0 success
(including zero-rate runs), 1 verification failure, 2 configuration
error.  The parser is built once, at import, so :func:`main` may be
called any number of times in one process.
"""
from __future__ import annotations

import argparse
import contextlib
import math
import sys

from . import bench
from .config import (ConfigError, load_config, override_config,
                     serialize_config)
from .counts import CATEGORIES
from .engine import simulate
from .postproc import ProcessedRun
from .presets import ExperimentConfig, get_preset, preset_names
from .ratecore import rate_per_second
from .servo import STAGES, LoopConfig, run_stabilization


def _resolve_config(args) -> ExperimentConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        name = getattr(args, "preset", None) or "sym546"
        try:
            cfg = get_preset(name)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    raw = {}
    for flag, (section, key, _) in _RUN_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            raw.setdefault(section, {})[key] = value
    return override_config(cfg, raw)


def _open_for_writing(path: str, flag: str):
    try:
        return open(path, "w")
    except OSError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with _open_for_writing(out_path, "--out") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def format_run_report(cfg: ExperimentConfig, run: ProcessedRun,
                      skr: float) -> str:
    table = run.table
    lines = [
        f"n_windows\t{table.n_windows}",
        f"mode\t{cfg.security.mode}",
    ]
    for cat in CATEGORIES:
        lines.append(f"windows[{cat}]\t{table.windows[cat]}")
        lines.append(f"heralds[{cat}]\t{table.heralds[cat]}")
    lines += [
        f"x11_total\t{table.x11_total}",
        f"x11_errors\t{table.x11_errors}",
        f"x22_total\t{table.x22_total}",
        f"x22_errors\t{table.x22_errors}",
        f"y1a_lower\t{run.decoy.y1a_lower:.6e}",
        f"y1b_lower\t{run.decoy.y1b_lower:.6e}",
        f"n1\t{run.decoy.n1:.6e}",
        f"e1_upper\t{run.decoy.e1_upper:.6e}",
        f"z_qber\t{run.z_stats.qber:.6e}",
        f"pairs\t{run.pairing.pairs:.6e}",
        f"nt_prime\t{run.pairing.surviving_pairs:.6e}",
        f"n1_prime\t{run.pairing.n1_prime:.6e}",
        f"e_bit_prime\t{run.pairing.e_bit_prime:.6e}",
        f"e1_ph_prime\t{run.inputs.e1_ph_prime:.6e}",
        f"skr_bit_per_signal\t{skr:.6e}",
        f"skr_bit_per_s\t{rate_per_second(skr):.6e}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    ok, report = bench.verify()
    _emit(report, args.out)
    return 0 if ok else 1


def _cmd_keyrate(args) -> int:
    cfg = _resolve_config(args)
    skr, run = bench.analytic_keyrate(cfg)
    _emit(format_run_report(cfg, run, skr), args.out)
    return 0


def _cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    table = simulate(cfg, int(cfg.run.n_windows), seed=cfg.run.seed)
    skr, run = bench.keyrate_from_counts(cfg, table)
    _emit(format_run_report(cfg, run, skr), args.out)
    return 0


def _cmd_stabilize(args) -> int:
    cfg = _resolve_config(args)
    with contextlib.ExitStack() as files:
        # Open every output first: a bad path then fails before the run,
        # and no output gets bytes unless the run succeeds.
        out, series_out = [
            files.enter_context(_open_for_writing(path, flag))
            if path else None
            for path, flag in ((args.out, "--out"),
                               (args.series_out, "--series-out"))]
        try:
            summary, series = run_stabilization(args.duration, cfg.noise,
                                                LoopConfig(),
                                                stages=args.stages,
                                                seed=cfg.run.seed)
        except ValueError as exc:  # the config is checked; --duration is not
            raise ConfigError(f"--duration: {exc}") from exc
        except MemoryError as exc:  # the series arrays grow with --duration
            raise ConfigError(f"--duration {args.duration} s is too long: "
                              f"{exc}") from exc
        names = ("free_drift_std_rad_per_s", "fast_locked_drift_std_rad_per_s",
                 "residual_phase_std_c_rad", "residual_phase_std_q_rad",
                 "reduction_factor", "freq_readout_hz")
        lines = [f"stages\t{args.stages}", f"duration_s\t{args.duration}"]
        lines += [f"{name}\t{getattr(summary, name):.6e}" for name in names]
        if series_out:  # one column per series, in order
            row = "\t".join(["%.9e"] * len(series)) + "\n"
            rows = zip(*(col.tolist() for col in series.values()))
            series_out.write("\t".join(series) + "\n"
                             + "".join(row % r for r in rows))
        (out or sys.stdout).write("\n".join(lines) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _resolve_config(args)
    try:
        distances = [float(x) for x in args.distances.split(",") if x.strip()]
        if not distances or not all(map(math.isfinite, distances)):
            raise ValueError("need one or more finite distances, "
                             f"got {args.distances!r}")
        rows = bench.sweep(cfg, distances)
    except ValueError as exc:  # the config is checked; --distances is not
        raise ConfigError(f"--distances: {exc}") from exc
    _emit(bench.format_sweep(rows), args.out)
    return 0


def _cmd_optimize(args) -> int:
    cfg = _resolve_config(args)
    if args.budget < 0:
        raise ConfigError(f"--budget must be nonnegative, got {args.budget}")
    result = bench.optimize(cfg, budget=args.budget)
    text = (f"skr_bit_per_signal\t{result.skr:.6e}\n"
            f"evaluations\t{result.evaluations}\n"
            f"budget_exhausted\t{str(result.budget_exhausted).lower()}\n"
            + serialize_config(result.config))
    _emit(text, args.out)
    return 0


def _cmd_preset(args) -> int:
    if args.action == "list":
        _emit("\n".join(preset_names()) + "\n", args.out)
        return 0
    if not args.name:
        raise ConfigError("preset show requires a name")
    try:
        cfg = get_preset(args.name)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    _emit(serialize_config(cfg), args.out)
    return 0


#: Run flags as the INI (section, key) they set, with their help text.
_RUN_FLAGS = {
    "windows": ("run", "n_windows", "window count override"),
    "seed": ("run", "seed", "RNG seed override"),
    "mode": ("security", "mode",
             "security accounting mode: asymptotic or finite"),
}


def _add_common(p: argparse.ArgumentParser, *run_flags: str) -> None:
    """Config source and output flags, plus the ``_RUN_FLAGS`` named."""
    p.add_argument("--config", help="INI config file path")
    p.add_argument("--preset", help="built-in preset name")
    for name in run_flags:
        p.add_argument(f"--{name}", help=_RUN_FLAGS[name][2])
    p.add_argument("--out", help="write the report to this path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfqkd",
        description="Twin-field QKD link simulator and key-rate toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the built-in identity suite")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("keyrate", help="analytic key rate (no Monte Carlo)")
    _add_common(p, "windows", "mode")
    p.set_defaults(func=_cmd_keyrate)

    p = sub.add_parser("simulate", help="Monte Carlo session")
    _add_common(p, "windows", "seed", "mode")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stabilize", help="servo-loop simulation")
    _add_common(p, "seed")
    p.add_argument("--duration", type=float, default=2.0,
                   help="simulated seconds")
    p.add_argument("--stages", choices=STAGES, default="full")
    p.add_argument("--series-out", help="write the time series to this path")
    p.set_defaults(func=_cmd_stabilize)

    p = sub.add_parser("sweep", help="key rate vs distance table")
    _add_common(p, "windows", "mode")
    p.add_argument("--distances", required=True,
                   help="comma-separated distances in km")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="source-parameter search")
    _add_common(p, "windows", "mode")
    p.add_argument("--budget", type=int, default=200,
                   help="evaluation budget")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("preset", help="list or show built-in presets")
    p.add_argument("action", choices=("list", "show"))
    p.add_argument("name", nargs="?")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_preset)
    return parser


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
