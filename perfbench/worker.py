"""Workload child process: a closed loop of ``tfqkd`` commands.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``.
One caller issues each command through ``tfqkd.cli.main`` when the previous
one has returned, repeating the workload's command sequence until the time
budget is spent, then checks every output and writes ``result.json`` into
the work directory.

With ``--trace 1`` every sequence runs twice on the same inputs, once
untraced and once with the span wrappers installed (alternating which goes
first); both must pass the checks and give byte-identical outputs.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import Calibrator
from spec import SPANS
from tracer import Tracer
from workloads import WORKLOAD_CLASSES, Result, ini_part

MAX_FINDINGS = 20


def run_sequence(cli, cmds, workdir: Path, suffix: str, tracer, first_id: int,
                 cal: Calibrator) -> list[Result]:
    results = []
    for i, c in enumerate(cmds):
        cal_index = cal.mark()
        out = workdir / f"cmd{i}{suffix}.out"
        out.unlink(missing_ok=True)
        argv = list(c.argv)
        if c.config_from is not None:
            cfg = workdir / f"cmd{i}{suffix}.ini"
            cfg.write_text(ini_part(results[c.config_from].text))
            argv += ["--config", str(cfg)]
        series = None
        if c.series:
            series = workdir / f"series{suffix}.tsv"
            series.unlink(missing_ok=True)
            argv += ["--series-out", str(series)]
        argv += ["--out", str(out)]
        if tracer is not None:
            tracer.set_command(first_id + i)
        rc = error = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            error = f"exit {exc.code}"
        except Exception as exc:  # a failing command is counted, not fatal
            error = traceback.format_exception_only(exc)[-1].strip()
        seconds = time.perf_counter() - t0
        text = out.read_text() if out.exists() else ""
        nbytes = len(text.encode())
        if series is not None and series.exists():
            nbytes += series.stat().st_size
        results.append(Result(seconds, rc, error, text, series, nbytes,
                              cal_index))
    return results


def same_outputs(a: list[Result], b: list[Result]) -> list[tuple[int, str]]:
    bad = []
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra.text != rb.text:
            bad.append((i, "traced and untraced reports differ"))
        if ra.series_path is not None and (
                not rb.series_path.exists() or not ra.series_path.exists()
                or ra.series_path.read_bytes() != rb.series_path.read_bytes()):
            bad.append((i, "traced and untraced series differ"))
    return bad


def observers():
    def simulate(counts, table):
        counts["engine.windows"] = counts.get("engine.windows", 0) + table.n_windows
        counts["engine.heralds"] = (counts.get("engine.heralds", 0)
                                    + sum(table.heralds.values()))

    def clicks(counts, result):
        key = "optics.click_probability_arrays.elements"
        counts[key] = counts.get(key, 0) + result[0].size

    def optimize(counts, result):
        for key, value in (("bench.optimize.evaluations", result.evaluations),
                           ("bench.optimize.budget_exhausted",
                            int(bool(result.budget_exhausted)))):
            counts[key] = counts.get(key, 0) + value

    return {"engine.simulate": simulate,
            "optics.click_probability_arrays": clicks,
            "bench.optimize": optimize}


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def environment() -> dict:
    import numpy
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy_version, "nproc": len(os.sched_getaffinity(0))}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    import tfqkd.cli as cli

    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.workdir, cli)
    workload.prepare()
    tracer = Tracer(SPANS, observers()) if args.trace else None
    cal = Calibrator(workload.kernel)

    # (traced, first command id, per command: (seconds, calibration index,
    # probe, rate, work, bytes written))
    passes = []
    attempted = failed = 0
    findings = []
    cmd_id = 0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < args.seconds:
        cmds = workload.sequence(k)
        order = [False, True] if k % 2 == 0 else [True, False]
        runs = {}
        for use_trace in (order if tracer else [False]):
            if use_trace:
                tracer.install()
            try:
                res = run_sequence(cli, cmds, args.workdir,
                                   "t" if use_trace else "",
                                   tracer if use_trace else None, cmd_id, cal)
            finally:
                if use_trace:
                    tracer.uninstall()
            passes.append((use_trace, cmd_id, [
                (r.seconds, r.cal_index, c.probe, c.rate,
                 workload.work(c, r) if c.rate and r.ok else 0.0,
                 r.bytes_written) for c, r in zip(cmds, res)]))
            cmd_id += len(cmds)
            runs[use_trace] = res
            bad = [(i, f"{' '.join(cmds[i].argv)}: "
                       f"{res[i].error or 'exit ' + str(res[i].rc)}")
                   for i in range(len(cmds)) if not res[i].ok]
            bad += workload.check(cmds, res)
            if len(runs) == 2:
                bad += same_outputs(runs[False], runs[True])
            attempted += len(cmds)
            failed += min(len({i for i, _ in bad}), len(cmds))
            findings += [f"sequence {k}{' traced' if use_trace else ''}: {msg}"
                         for _, msg in bad]
        k += 1
    cal.measure()

    for line in findings[:MAX_FINDINGS]:
        print(f"FINDING {line}")
    if len(findings) > MAX_FINDINGS:
        print(f"FINDING ... {len(findings) - MAX_FINDINGS} more")

    scales = [1.0] * cmd_id
    walls = {False: [], True: []}      # scaled sequence walls
    raw_walls, rates, probes, raw_probes = [], [], [], []
    bytes_written = 0
    for use_trace, first, records in passes:
        scaled = []
        for i, (seconds, cal_index, *_) in enumerate(records):
            scales[first + i] = cal.scale(cal_index)
            scaled.append(seconds * scales[first + i])
        walls[use_trace].append(sum(scaled))
        if use_trace:
            bytes_written += sum(rec[5] for rec in records)
            continue
        raw_walls.append(sum(rec[0] for rec in records))
        rates.append(sum(rec[4] for rec in records)
                     / sum(t for t, rec in zip(scaled, records) if rec[3]))
        probes += [t for t, rec in zip(scaled, records) if rec[2]]
        raw_probes += [rec[0] for rec in records if rec[2]]

    p90 = percentile(probes, 90)
    out = {
        "env": environment(),
        "attempted": attempted,
        "failed": failed,
        "sequences": len(walls[False]),
        "probe_samples": len(probes),
        "wall_s": statistics.median(walls[False]),
        "work_per_s": statistics.median(rates),
        "cmd_s.p50": statistics.median(probes),
        "cmd_s.p90": p90,
        "cmd_s.p90_beyond": sum(t > p90 for t in probes),
        "raw": {"wall_s": statistics.median(raw_walls),
                "cmd_s.p50": statistics.median(raw_probes),
                "cmd_s.p90": percentile(raw_probes, 90)},
        "calibration": {"kernel": workload.kernel, "ref_s": cal.ref_s,
                        "median_s": statistics.median(cal.values),
                        "count": len(cal.values)},
    }
    if tracer is not None:
        n = len(walls[True])
        layers = {}
        for span, stats in tracer.summary(scales).items():
            for key, value in stats.items():
                layers[f"{span}.{key}"] = value / n
        counts = tracer.counts
        windows = counts.get("engine.windows", 0)
        for key in ("engine.windows", "optics.click_probability_arrays.elements",
                    "bench.optimize.evaluations",
                    "bench.optimize.budget_exhausted"):
            layers[key] = counts.get(key, 0) / n
        layers["engine.herald_fraction"] = (
            counts.get("engine.heralds", 0) / windows if windows else 0.0)
        layers["cli.bytes_written"] = bytes_written / n
        layers["trace.overhead_s"] = (statistics.median(walls[True])
                                      - out["wall_s"])
        layers["trace.absent_targets"] = len(tracer.absent)
        out["per_layer"] = layers
        out["traced_sequences"] = n
        out["absent"] = tracer.absent
        tracer.save(args.workdir / "spans.npz", scales)
    (args.workdir / "result.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
