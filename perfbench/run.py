"""End-to-end and per-layer benchmark of the ``tfqkd`` command-line tool.

Run from the repository root:

    python3 perfbench/run.py --workload mc_session --seed 1 --seconds 20 --trace 0

``setup_s`` is the median cold start of ``python -m tfqkd.cli preset list``
in fresh interpreters.  The workload then runs in one fresh child
interpreter (``worker.py``), whose peak RSS is read with ``os.wait4``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero without a result if the package is missing or
the child fails.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator
from spec import END_TO_END, PRESETS, WORK_UNIT, WORKLOADS, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLD_STARTS = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cap = min(nproc, int(env.get(var, nproc)))
        except ValueError:
            cap = nproc
        env[var] = str(max(1, cap))
    return env


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cold_starts(env: dict[str, str]) -> tuple[list[float], list[float], int]:
    """Time fresh ``tfqkd preset list`` runs.

    Returns the raw times, the times scaled by the NumPy-import calibration
    taken before and after each run, and the failure count.  The first run
    only warms the file cache.
    """
    cmd = [sys.executable, "-m", "tfqkd.cli", "preset", "list"]
    times, scaled, failures = [], [], 0
    cal = None
    for i in range(COLD_STARTS + 1):
        if i == 1:
            cal = Calibrator("numpy_import", env=env)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not set(PRESETS) <= set(proc.stdout.split()):
            failures += 1
            sys.stdout.write(f"FINDING cold start {i}: exit {proc.returncode}: "
                             f"{proc.stderr.strip()[-200:]}\n")
        if cal is not None:
            times.append(elapsed)
            scaled.append(elapsed * cal.scale(cal.measure() - 1))
    return times, scaled, failures


def run_worker(args, env: dict[str, str], workdir: Path, deadline: float):
    """Run the workload child; returns (exit code, peak RSS in MB)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.send_signal(signal.SIGKILL)
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "tfqkd" / "cli.py").is_file():
        print("benchmark: src/tfqkd is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()

    raw_setup, setup, setup_failed = cold_starts(env)
    code, rss_mb = run_worker(args, env, workdir, deadline)
    result_path = workdir / "result.json"
    if code != 0 or not result_path.exists():
        print(f"benchmark: workload child failed with exit code {code}",
              file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())
    attempted = res["attempted"] + len(setup) + 1
    failed = res["failed"] + setup_failed

    env_info = dict(res["env"], commit=git_commit(),
                    thread_cap=env[THREAD_VARS[0]],
                    calibration=res["calibration"])
    print("env " + json.dumps(env_info, sort_keys=True))
    alias, probe_kind = WORK_UNIT[args.workload]
    print(f"workload {args.workload}: seed {args.seed}, "
          f"{res['sequences']} untraced sequences, "
          f"{attempted} commands, {failed} failed "
          f"(ops_failed_frac {failed / attempted:.4g})")
    if args.trace:
        units = per_layer_metrics()
        values = res["per_layer"]
        values["ops_failed_frac"] = failed / attempted
        print(f"per-layer metrics, per traced sequence "
              f"({res['traced_sequences']} traced sequences):")
        for name, (unit, _) in units.items():
            print(f"  {name} = {values[name]:.6g} {unit}")
        if res["absent"]:
            print("absent trace targets: " + ", ".join(res["absent"]))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in units.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": res["wall_s"],
            "peak_rss_mb": rss_mb,
            "work_per_s": res["work_per_s"],
            "cmd_s.p50": res["cmd_s.p50"],
        }
        raw = dict(res["raw"], setup_s=statistics.median(raw_setup))
        print("times are scaled to the calibration kernel's reference speed; "
              "raw values: " + ", ".join(f"{k} {v:.6g} s"
                                          for k, v in sorted(raw.items())))
        counts = {"setup_s": f"median of {len(setup)} cold starts",
                  "wall_s": f"median of {res['sequences']} sequences",
                  "peak_rss_mb": "workload child",
                  "work_per_s": f"{alias}, median of {res['sequences']} "
                                "sequences",
                  "cmd_s.p50": f"{probe_kind}, {res['probe_samples']} samples"}
        for name, unit in END_TO_END.items():
            print(f"  {name} = {values[name]:.6g} {unit} ({counts[name]})")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(f"  cmd_s.p90 = {res['cmd_s.p90']:.6g} s ({probe_kind}, "
              f"{res['cmd_s.p90_beyond']} samples beyond; printed only, "
              "not a bounded metric)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
