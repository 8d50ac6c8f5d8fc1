"""The benchmark workloads: their command sequences and output checks.

Each workload turns the benchmark seed into a fixed command sequence per
iteration ``k`` (``sequence``) and checks the outputs of one run of that
sequence (``check``).  Inputs reach the program only as command-line
arguments and as INI files generated here from ``tfqkd preset show``.
"""
from __future__ import annotations

import configparser
import math
import random
from dataclasses import dataclass
from pathlib import Path

from checks import parse_report, poisson_interval
from spec import (FAST_LOOP_DT_S, KEYRATE_ASYMPTOTIC_SKR, KEYRATE_REL_TOL,
                  POISSON_ALPHA, PRESETS, REDUCTION_RANGE, RESIDUAL_Q_MAX_RAD)


@dataclass
class Command:
    argv: list[str]
    tag: tuple = ()
    probe: bool = False           # sampled into cmd_s
    rate: bool = True             # its time counts toward work_per_s
    work: float = 0.0             # work units, when known before the run
    series: bool = False          # also writes --series-out
    repeat_of: int | None = None  # must reproduce that command's report
    config_from: int | None = None  # --config from that command's INI output


@dataclass
class Result:
    seconds: float
    rc: int | None
    error: str | None
    text: str
    series_path: Path | None
    bytes_written: int
    cal_index: int

    @property
    def ok(self) -> bool:
        return self.error is None and self.rc == 0


def derive_seed(seed: int, k: int, j: int) -> int:
    return (seed * 1_000_003 + k * 64 + j) % (2 ** 31)


def _float(report: dict[str, str], key: str) -> float:
    value = float(report[key])
    if not math.isfinite(value):
        raise ValueError(f"{key} is not finite")
    return value


def _write_preset_ini(cli, name: str, path: Path, edits: dict) -> None:
    """``tfqkd preset show <name>`` with ``{(section, key): value}`` edits."""
    if cli.main(["preset", "show", name, "--out", str(path)]) != 0:
        raise RuntimeError(f"preset show {name} failed")
    parser = configparser.ConfigParser()
    parser.read(path)
    for (section, key), value in edits.items():
        parser[section][key] = str(value)
    with open(path, "w") as fh:
        parser.write(fh)


class McSession:
    """Monte Carlo sessions: ``simulate`` on the three presets."""

    kernel = "large_numpy"
    windows = 1 << 19

    def __init__(self, seed: int, workdir: Path, cli):
        self.seed = seed

    def prepare(self) -> None:
        from tfqkd import bench
        from tfqkd.counts import CATEGORIES
        from tfqkd.engine import expected_counts
        from tfqkd.presets import get_preset

        self.intervals = {}
        for p in PRESETS:
            exp = expected_counts(bench.engine_settings(get_preset(p)),
                                  self.windows)
            means = {f"windows[{c}]": exp.windows[c] for c in CATEGORIES}
            means.update({f"heralds[{c}]": exp.heralds[c] for c in CATEGORIES})
            for key in ("x11_total", "x11_errors", "x22_total", "x22_errors"):
                means[key] = getattr(exp, key)
            self.intervals[p] = {key: poisson_interval(mu, POISSON_ALPHA)
                                 for key, mu in means.items()}

    def sequence(self, k: int) -> list[Command]:
        cmds = []
        for j, p in enumerate(PRESETS):
            s = derive_seed(self.seed, k, j)
            cmds.append(Command(["simulate", "--preset", p, "--windows",
                                 str(self.windows), "--seed", str(s)],
                                tag=(p,), probe=True, work=self.windows))
        j = k % len(PRESETS)
        cmds.append(Command(list(cmds[j].argv), tag=cmds[j].tag, probe=True,
                            work=self.windows, repeat_of=j))
        return cmds

    def check(self, cmds, results) -> list[tuple[int, str]]:
        bad = []
        for i, (c, r) in enumerate(zip(cmds, results)):
            if not r.ok:
                continue
            rep = parse_report(r.text)
            try:
                if int(rep["n_windows"]) != self.windows:
                    bad.append((i, f"n_windows {rep['n_windows']}"))
                total = 0
                for key, (lo, hi) in self.intervals[c.tag[0]].items():
                    obs = int(rep[key])
                    if key.startswith("windows["):
                        total += obs
                    if not lo <= obs <= hi:
                        bad.append((i, f"{c.tag[0]} {' '.join(c.argv[-2:])}: "
                                       f"{key} = {obs} outside [{lo}, {hi}]"))
                if total != self.windows:
                    bad.append((i, f"windows sum to {total}"))
            except (KeyError, ValueError) as exc:
                bad.append((i, f"unreadable report: {exc!r}"))
            if c.repeat_of is not None and r.text != results[c.repeat_of].text:
                bad.append((i, "repeated seed gave a different report"))
        return bad

    def work(self, cmd: Command, result: Result) -> float:
        return cmd.work


class ServoLock:
    """Phase stabilization: ``stabilize`` on the presets' noise models."""

    kernel = "python"
    full_s = 0.1
    full_repeats = 8
    ideal_s = 2.0

    def __init__(self, seed: int, workdir: Path, cli):
        self.seed = seed
        self.ideal_ini = workdir / "ideal_clock.ini"
        self.cli = cli

    def prepare(self) -> None:
        _write_preset_ini(self.cli, "sym546", self.ideal_ini,
                          {("noise", "clock_accuracy"): 0})

    def sequence(self, k: int) -> list[Command]:
        full_steps = round(self.full_s / FAST_LOOP_DT_S)
        cmds = []
        for j, p in enumerate(PRESETS * self.full_repeats):
            s = derive_seed(self.seed, k, j)
            cmds.append(Command(["stabilize", "--preset", p, "--duration",
                                 str(self.full_s), "--stages", "full",
                                 "--seed", str(s)],
                                tag=("full",), probe=True, work=full_steps))
        s = derive_seed(self.seed, k, 16)
        cmds.append(Command(["stabilize", "--config", str(self.ideal_ini),
                             "--duration", str(self.ideal_s), "--stages",
                             "fastOnly", "--seed", str(s)], tag=("ideal",),
                            work=round(self.ideal_s / FAST_LOOP_DT_S)))
        j = k % (self.full_repeats * len(PRESETS))
        cmds.append(Command(list(cmds[j].argv), tag=("full",), rate=False,
                            series=True, repeat_of=j, work=full_steps))
        return cmds

    def check(self, cmds, results) -> list[tuple[int, str]]:
        bad = []
        for i, (c, r) in enumerate(zip(cmds, results)):
            if not r.ok:
                continue
            rep = parse_report(r.text)
            args = " ".join(c.argv[1:])
            try:
                if c.tag[0] == "full":
                    q = _float(rep, "residual_phase_std_q_rad")
                    if not q <= RESIDUAL_Q_MAX_RAD:
                        bad.append((i, f"{args}: residual_phase_std_q_rad "
                                       f"{q:.4g} > {RESIDUAL_Q_MAX_RAD}"))
                else:
                    f = _float(rep, "reduction_factor")
                    lo, hi = REDUCTION_RANGE
                    if not lo <= f <= hi:
                        bad.append((i, f"{args}: reduction_factor {f:.4g} "
                                       f"outside [{lo:g}, {hi:g}]"))
            except (KeyError, ValueError) as exc:
                bad.append((i, f"unreadable report: {exc!r}"))
            if c.repeat_of is not None and r.text != results[c.repeat_of].text:
                bad.append((i, "repeated seed gave a different report"))
            if c.series:
                bad += [(i, m) for m in self._check_series(r.series_path,
                                                           int(c.work))]
        return bad

    @staticmethod
    def _check_series(path: Path | None, steps: int) -> list[str]:
        if path is None or not path.exists():
            return ["series file missing"]
        lines = path.read_text().splitlines()
        if len(lines) != steps + 1:
            return [f"series has {len(lines)} lines, want {steps} rows "
                    "plus a header"]
        width = len(lines[0].split("\t"))
        if any(len(row.split("\t")) != width for row in lines[1:]):
            return ["series rows differ in width from the header"]
        return []

    def work(self, cmd: Command, result: Result) -> float:
        return cmd.work


class DesignScan:
    """Analytic design work: ``keyrate``, ``sweep`` and ``optimize``."""

    kernel = "small_numpy"
    modes = ("asymptotic", "finite")
    repeats = 5
    budget = 200
    distances = (300.0, 350.0, 400.0, 450.0, 500.0, 546.61, 600.0, 650.0)

    def __init__(self, seed: int, workdir: Path, cli):
        self.seed = seed
        self.asym_ini = workdir / "asym452.ini"
        self.cli = cli

    def prepare(self) -> None:
        _write_preset_ini(self.cli, "asym452", self.asym_ini,
                          {("run", "seed"): derive_seed(self.seed, 0, 63)})

    def sequence(self, k: int) -> list[Command]:
        pairs = [(p, m) for p in PRESETS for m in self.modes] * self.repeats
        random.Random(derive_seed(self.seed, k, 0)).shuffle(pairs)
        cmds = [Command(["keyrate", "--preset", p, "--mode", m],
                        tag=("keyrate", p, m), probe=True, work=1)
                for p, m in pairs]
        cmds.append(Command(["sweep", "--preset", "sym546", "--distances",
                             ",".join(f"{d:g}" for d in self.distances)],
                            tag=("sweep",), work=len(self.distances)))
        for argv, p, m in (
                (["--preset", "sym546", "--mode", "finite"], "sym546", "finite"),
                (["--config", str(self.asym_ini)], "asym452", "asymptotic")):
            cmds.append(Command(["optimize", *argv, "--budget",
                                 str(self.budget)], tag=("optimize", p, m)))
            cmds.append(Command(["keyrate"], tag=("reload",), work=1,
                                config_from=len(cmds) - 1))
        return cmds

    def check(self, cmds, results) -> list[tuple[int, str]]:
        bad = []
        skr = {}
        first = {}
        for i, (c, r) in enumerate(zip(cmds, results)):
            if not r.ok:
                continue
            try:
                if c.tag[0] == "keyrate":
                    bad += [(i, m) for m in self._check_keyrate(i, c, r, skr,
                                                                first, results)]
                elif c.tag[0] == "sweep":
                    bad += [(i, m) for m in self._check_sweep(r.text)]
                elif c.tag[0] == "optimize":
                    bad += [(i, m) for m in self._check_optimize(c, r, skr)]
                else:
                    got = _float(parse_report(r.text), "skr_bit_per_signal")
                    want = _float(parse_report(results[c.config_from].text),
                                  "skr_bit_per_signal")
                    if not math.isclose(got, want, rel_tol=1e-6):
                        bad.append((i, f"reloaded optimum gives {got:.6e}, "
                                       f"optimize reported {want:.6e}"))
            except (KeyError, ValueError, IndexError) as exc:
                bad.append((i, f"unreadable output: {exc!r}"))
        for p in PRESETS:
            fin, asym = skr.get((p, "finite")), skr.get((p, "asymptotic"))
            if fin is not None and asym is not None and not fin <= asym:
                bad.append((-1, f"{p}: finite {fin:.6e} > asymptotic {asym:.6e}"))
        return bad

    @staticmethod
    def _check_keyrate(i, c, r, skr, first, results) -> list[str]:
        _, p, m = c.tag
        bad = []
        value = _float(parse_report(r.text), "skr_bit_per_signal")
        j = first.setdefault((p, m), i)
        if r.text != results[j].text:
            bad.append(f"keyrate {p} {m}: repeat differs")
        skr[(p, m)] = value
        if m == "asymptotic":
            ref = KEYRATE_ASYMPTOTIC_SKR[p]
            if not math.isclose(value, ref, rel_tol=KEYRATE_REL_TOL):
                bad.append(f"keyrate {p}: {value:.6e} != reference {ref:.6e}")
        return bad

    def _check_sweep(self, text: str) -> list[str]:
        rows = [line.split("\t") for line in text.splitlines()[1:]]
        if len(rows) != len(self.distances):
            return [f"sweep gave {len(rows)} rows for {len(self.distances)} "
                    "distances"]
        rates = [float(row[2]) for row in rows]
        if any(b > a for a, b in zip(rates, rates[1:])):
            return ["sweep key rate increases with distance"]
        return []

    def _check_optimize(self, c, r, skr) -> list[str]:
        _, p, m = c.tag
        rep = parse_report(r.text)
        got = _float(rep, "skr_bit_per_signal")
        evals = int(rep["evaluations"])
        bad = []
        start = skr.get((p, m))
        if start is not None and got < start:
            bad.append(f"optimize {p} {m}: {got:.6e} below start {start:.6e}")
        if not 1 <= evals <= self.budget:
            bad.append(f"optimize {p} {m}: {evals} evaluations")
        return bad

    def work(self, cmd: Command, result: Result) -> float:
        if cmd.tag[0] == "optimize":
            return float(parse_report(result.text).get("evaluations", 0))
        return cmd.work


WORKLOAD_CLASSES = {"mc_session": McSession, "servo_lock": ServoLock,
                    "design_scan": DesignScan}


def ini_part(text: str) -> str:
    """The INI config that ``tfqkd optimize`` prints after its summary."""
    start = text.find("\n[")
    return text[start + 1:] if start >= 0 else ""
