"""Command-line interface.

Subcommands: ``verify``, ``keyrate``, ``simulate``, ``stabilize``,
``sweep``, ``optimize``, ``preset list|show``.  Exit codes: 0 success
(including zero-rate runs), 1 verification failure, 2 configuration
error.  The parser is built once, at import, so :func:`main` may be
called any number of times in one process.

Each ``_cmd_*`` writes nothing: it returns its exit code and, by output
dest, the list of text chunks to write, and only :func:`main` writes.
It opens every given path before the work without truncating it, so a
bad path, or one file given to both outputs, exits 2 at once.  Once the
command returns (exit 1 included) it overwrites each target in place
with ``writelines``, keeping mode, owner and links; a failing command
leaves an existing target byte-identical and creates none.  The write
is not crash-atomic.  Text without a path goes to ``sys.stdout``.

``stabilize`` builds its time series only for ``--series-out``; without
it the run keeps only what its summary needs, which prints the same.

At import this module loads only numpy-free layers: ``config``,
``counts``, ``presets`` (which holds the link, detector, noise and run
settings and the whole ``ExperimentConfig``) and ``ratecore`` (which
holds the party and security settings).  Each ``_cmd_*`` imports the
layers it runs in its own body, so ``preset list|show`` and ``--help``
load no numpy, ``stabilize`` adds ``servo`` and ``optics`` only,
``simulate`` adds ``engine``, ``optics`` and ``postproc``, and
``verify``, ``keyrate``, ``sweep`` and ``optimize`` add ``bench`` too,
but none of them ``servo``.
The first command of each kind in a process pays that import; README's
Cold start section gives the wall times.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from .config import (ConfigError, load_config, override_config,
                     serialize_config)
from .counts import CATEGORIES
from .presets import STAGES, ExperimentConfig, get_preset, preset_names
from .ratecore import rate_per_second

#: Rows of the ``--series-out`` text formatted per block: one block's
#: ``tolist()`` copies and row strings stay small next to the text, and
#: next to the run's arrays.
_SERIES_BLOCK_ROWS = 512


def _preset(name: str) -> ExperimentConfig:
    try:
        return get_preset(name)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc


def _resolve_config(args) -> ExperimentConfig:
    """The preset, overridden by ``--config``, then by the run flags."""
    cfg = _preset(args.preset)
    if args.config:
        cfg = load_config(args.config, cfg)
    raw = {}
    for flag, (section, key, _) in _RUN_FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            raw.setdefault(section, {})[key] = value
    return override_config(cfg, raw)


def _format_run_report(cfg: ExperimentConfig, run) -> str:
    """The report of a :class:`postproc.ProcessedRun`."""
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
        f"pairs\t{run.z_stats.pairs:.6e}",
        f"nt_prime\t{run.inputs.nt_prime:.6e}",
        f"n1_prime\t{run.inputs.n1_prime:.6e}",
        f"e_bit_prime\t{run.inputs.e_bit_prime:.6e}",
        f"e1_ph_prime\t{run.inputs.e1_ph_prime:.6e}",
        f"skr_bit_per_signal\t{run.skr:.6e}",
        f"skr_bit_per_s\t{rate_per_second(run.skr):.6e}",
    ]
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> tuple[int, dict[str, list[str]]]:
    from . import bench
    ok, report = bench.verify()
    return (0 if ok else 1), {"out": [report]}


def _cmd_keyrate(args) -> tuple[int, dict[str, list[str]]]:
    from . import bench
    cfg = _resolve_config(args)
    return 0, {"out": [_format_run_report(cfg, bench.analytic_keyrate(cfg))]}


def _cmd_simulate(args) -> tuple[int, dict[str, list[str]]]:
    from .engine import simulate
    from .postproc import process
    cfg = _resolve_config(args)
    table = simulate(cfg, int(cfg.run.n_windows), seed=cfg.run.seed)
    return 0, {"out": [_format_run_report(cfg, process(table, cfg))]}


def _cmd_stabilize(args) -> tuple[int, dict[str, list[str]]]:
    from .servo import fast_steps, run_stabilization
    cfg = _resolve_config(args)
    try:
        fast_steps(args.duration)
    except ValueError as exc:  # the config is checked; --duration is not
        raise ConfigError(f"--duration: {exc}") from exc
    try:
        summary, series = run_stabilization(args.duration, cfg.noise,
                                            stages=args.stages,
                                            seed=cfg.run.seed,
                                            series=bool(args.series_out))
    except MemoryError as exc:  # the run's arrays grow with --duration
        raise ConfigError(f"--duration {args.duration} s is too long: "
                          f"{exc}") from exc
    lines = [f"stages\t{args.stages}", f"duration_s\t{args.duration}"]
    lines += [f"{f.name}\t{getattr(summary, f.name):.6e}"
              for f in dataclasses.fields(summary)]
    texts = {"out": ["\n".join(lines) + "\n"]}
    if args.series_out:  # one column per series, in order
        row = "\t".join(["%.9e"] * len(series)) + "\n"
        cols = list(series.values())
        blocks = ["\t".join(series) + "\n"]
        for i in range(0, cols[0].size, _SERIES_BLOCK_ROWS):
            rows = zip(*(c[i:i + _SERIES_BLOCK_ROWS].tolist() for c in cols))
            blocks.append("".join([row % r for r in rows]))
        texts["series_out"] = blocks
    return 0, texts


def _cmd_sweep(args) -> tuple[int, dict[str, list[str]]]:
    from . import bench
    cfg = _resolve_config(args)
    try:
        distances = [float(x) for x in args.distances.split(",") if x.strip()]
        if not distances or not all(map(math.isfinite, distances)):
            raise ValueError("need one or more finite distances, "
                             f"got {args.distances!r}")
        rows = bench.sweep(cfg, distances)
    except ValueError as exc:  # the config is checked; --distances is not
        raise ConfigError(f"--distances: {exc}") from exc
    return 0, {"out": [bench.format_sweep(rows)]}


def _cmd_optimize(args) -> tuple[int, dict[str, list[str]]]:
    from . import bench
    cfg = _resolve_config(args)
    if args.budget < 0:
        raise ConfigError(f"--budget must be nonnegative, got {args.budget}")
    result = bench.optimize(cfg, budget=args.budget)
    text = (f"skr_bit_per_signal\t{result.skr:.6e}\n"
            f"evaluations\t{result.evaluations}\n"
            f"budget_exhausted\t{str(result.budget_exhausted).lower()}\n"
            + serialize_config(result.config))
    return 0, {"out": [text]}


def _cmd_preset(args) -> tuple[int, dict[str, list[str]]]:
    if args.action == "list":
        if args.name is not None:
            raise ConfigError(f"preset list takes no name, got {args.name!r}")
        return 0, {"out": ["\n".join(preset_names()) + "\n"]}
    if not args.name:
        raise ConfigError("preset show requires a name")
    return 0, {"out": [serialize_config(_preset(args.name))]}


#: Run flags as the INI (section, key) they set, with their help text.
_RUN_FLAGS = {
    "windows": ("run", "n_windows", "window count override"),
    "seed": ("run", "seed", "RNG seed override"),
    "mode": ("security", "mode",
             "security accounting mode: asymptotic or finite"),
}


def _add_common(p: argparse.ArgumentParser, *run_flags: str) -> None:
    """Config source and output flags, plus the ``_RUN_FLAGS`` named."""
    p.add_argument("--preset", default="sym546",
                   help="base preset, overridden by --config and then by the "
                   "run flags (default %(default)s)")
    p.add_argument("--config", help="INI file whose keys override the preset")
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
    files = {}  # dest -> (whether the path existed before the open, file)
    try:
        for dest, flag in (("out", "--out"), ("series_out", "--series-out")):
            path = getattr(args, dest, None)
            if path:
                try:
                    files[dest] = os.path.lexists(path), open(path, "a")
                except OSError as exc:
                    raise ConfigError(f"{flag}: {exc}") from exc
        stats = [os.fstat(fh.fileno()) for _, fh in files.values()]
        if len({(st.st_dev, st.st_ino) for st in stats}) < len(stats):
            raise ConfigError("--out and --series-out name the same file")
        code, texts = args.func(args)
    except BaseException as exc:
        for existed, fh in files.values():  # "a" has not touched old bytes
            fh.close()
            if not existed:
                os.remove(fh.name)
        if not isinstance(exc, ConfigError):
            raise
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for dest, chunks in texts.items():
        if dest not in files:
            sys.stdout.writelines(chunks)
            continue
        with files[dest][1] as fh:
            # ftruncate on an empty file costs more than the whole write.
            if fh.seekable() and fh.tell():
                fh.truncate(0)
            fh.writelines(chunks)
    return code


if __name__ == "__main__":
    sys.exit(main())
