#!/usr/bin/env python3
"""Benchmark of the admmnet command line: verified run, then check, on one workload.

    python3 bench/run.py --workload circulant-long --seed 1 --seconds 25 --trace 0

Run it from the repository root. It writes the workload's seeded INI config
(see workloads.py), then acts as one researcher in a closed loop: it calls
``admmnet.cli.main`` in-process with ``run --config W --check-all`` and then
``check --config W --trace <that run's trace.csv>``, back to back, after one
discarded warm-up pair, until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics, from untraced commands:
``run_s`` and ``check_s`` (median wall time per command), ``setup_s`` (median
wall time of a fresh interpreter importing ``admmnet.cli``) and
``peak_rss_mb`` (peak RSS of this process, which ran only this workload).
Times are rescaled to the machine's fast mode (see ``Clock``).
``--trace 1`` alternates traced and untraced pairs and reports the per-layer
metrics of spans.py for each command, plus the tracing overhead.

Every command passes a correctness gate outside its timed region (see
``Gate``); the last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 whenever a
result is printed, and nonzero without a result when ``src/admmnet`` is
missing.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: multithreaded OpenBLAS was both
# slower and noisier on these matrix sizes on a shared 2-CPU machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import csv
import io
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from spans import Tracer
from workloads import WORKLOADS, config_text, expected_optimum

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
# Duration of calibrate() while the machine runs in its fast mode (see README.md).
CAL_REF_S = 0.053
REPLAY_TOL = 1e-9  # |got - want| / max(1, |want|), the rule of `admmnet check`
FLOAT_COLUMNS = ("obj_gap", "ergodic_obj_gap", "feasibility", "dist_sq", "gnorm_sq")
EXPECTED_CHECKS = {
    "run": ("psd", "sublinear", "contraction", "recurrence"),
    "check": ("replay", "sublinear_objective", "sublinear_feasibility", "contraction"),
}
VERDICT = re.compile(r"^check (\w+): (PASS|FAIL|SKIP)\b", re.M)
OPTIMUM = re.compile(r"^optimal: x_star=(\S+) f_star=(\S+)", re.M)


_CAL_RNG = np.random.default_rng(0)
_CAL_VECS = _CAL_RNG.random((64, 3))
_CAL_SMALL = _CAL_RNG.random((300, 300))
_CAL_LARGE = _CAL_RNG.random((600, 600))
_CAL_SYM = _CAL_SMALL @ _CAL_SMALL.T


def calibrate() -> float:
    """Wall time of fixed reference work.

    The parts mirror what admmnet spends its time on: Python loops over
    small arrays (about half), cache-resident and larger one-thread BLAS
    products, and a dense symmetric eigendecomposition.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(12000):
        x = _CAL_VECS[k % 64] * 1.5 + _CAL_VECS[(k + 1) % 64]
        acc += float(x @ x)
    for _ in range(12):
        _CAL_SMALL @ _CAL_SMALL
    _CAL_LARGE @ _CAL_LARGE
    np.linalg.eigh(_CAL_SYM)
    return time.perf_counter() - t0


class Clock:
    """Rescales wall times to the reference machine speed.

    The shared machine's speed drifts by up to 1.6x over seconds to minutes,
    for Python and BLAS alike, so raw medians of runs made minutes apart
    disagree by 20-30%. calibrate() runs before and after every timed
    operation; the operation's wall time is multiplied by CAL_REF_S over the
    mean of the two calibrations around it.
    """

    def __init__(self):
        self.last = calibrate()

    def factor(self) -> float:
        """Scale for the operation that ended just now."""
        after = calibrate()
        scale = CAL_REF_S / ((self.last + after) / 2.0)
        self.last = after
        return scale


def load_cli():
    """Import admmnet.cli from this checkout's src/, or exit without a result."""
    if not (SRC / "admmnet" / "cli.py").is_file():
        sys.exit(f"bench: {SRC / 'admmnet'} is missing; run from the root of an admmnet checkout")
    sys.path.insert(0, str(SRC))
    from admmnet import cli

    if Path(cli.__file__).resolve().parent != SRC / "admmnet":
        sys.exit(f"bench: imported admmnet from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Command:
    kind: str  # "run" or "check"
    argv: list
    code: int | None
    stdout: str
    error: str | None
    wall_s: float


def invoke(cli, argv: list) -> Command:
    out, err = io.StringIO(), io.StringIO()
    code = error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an escaping exception is a failed operation, not a crash
            error = traceback.format_exc()
        wall_s = time.perf_counter() - t0
    if error is None and code != 0:
        error = err.getvalue().strip()
    return Command(argv[0], argv, code, out.getvalue(), error, wall_s)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="ascii") as fh:
        fh.readline()  # schema line
        return list(csv.DictReader(fh))


def replay_deviation(got: list[dict], want: list[dict]) -> float:
    if len(got) != len(want):
        return float("inf")
    worst = 0.0
    for g, w in zip(got, want):
        for key in FLOAT_COLUMNS:
            gv, wv = float(g[key]), float(w[key])
            worst = max(worst, abs(gv - wv) / max(1.0, abs(wv)))
    return worst


class Gate:
    """Correctness of every command, judged outside the timed region.

    A command fails on a nonzero exit or an exception, on any check verdict
    other than PASS (bar the SKIPs the workload expects), on a reported
    optimum that differs from the independently computed one, and, for
    ``run``, on a trace.csv that is not byte-identical to the first one.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.x_star, self.f_star = expected_optimum(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.trace_bytes: bytes | None = None

    def judge(self, cmd: Command, trace_path: Path) -> None:
        problems = []
        if cmd.error is not None or cmd.code != 0:
            problems.append(f"exit {cmd.code}: {cmd.error}")
        else:
            problems += self._verdicts(cmd)
            if cmd.kind == "run":
                problems += self._optimum(cmd.stdout)
                data = trace_path.read_bytes()
                if self.trace_bytes is None:
                    self.trace_bytes = data
                elif data != self.trace_bytes:
                    problems.append("trace.csv differs from the first run of the same config")
        self.record(cmd.kind, problems)

    def record(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def _verdicts(self, cmd: Command) -> list:
        seen = dict(VERDICT.findall(cmd.stdout))
        skips = self.workload.run_skips if cmd.kind == "run" else self.workload.check_skips
        problems = []
        for name in EXPECTED_CHECKS[cmd.kind]:
            verdict = seen.get(name)
            if verdict != "PASS" and not (verdict == "SKIP" and name in skips):
                problems.append(f"check {name}: {verdict or 'missing'}")
        return problems

    def _optimum(self, stdout: str) -> list:
        match = OPTIMUM.search(stdout)
        if match is None:
            return ["no optimal: line in the report"]
        problems = []
        for label, got, want in (("x_star", match[1], self.x_star), ("f_star", match[2], self.f_star)):
            if abs(float(got) - want) > REPLAY_TOL * max(1.0, abs(want)):
                problems.append(f"{label}={got}, expected {want!r}")
        return problems


class Bench:
    """One workload's config, output directory, commands and gate."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = work / "workload.ini"
        self.config.write_text(config_text(workload, seed), encoding="ascii")
        self.out = work / "out"
        self.trace = self.out / "trace.csv"
        self.gate = Gate(workload, seed)

    def run(self) -> Command:
        cmd = invoke(self.cli, ["run", "--config", str(self.config), "--out", str(self.out), "--check-all"])
        self.gate.judge(cmd, self.trace)
        return cmd

    def check(self) -> Command:
        cmd = invoke(self.cli, ["check", "--config", str(self.config), "--trace", str(self.trace)])
        self.gate.judge(cmd, self.trace)
        return cmd

    def check_node_edge(self) -> None:
        """Edge-engine trace against a node-engine run of the same config."""
        node_cfg = self.work / "node.ini"
        node_cfg.write_text(config_text(self.workload, self.seed, engine="node"), encoding="ascii")
        node_out = self.work / "node-out"
        cmd = invoke(self.cli, ["run", "--config", str(node_cfg), "--out", str(node_out)])
        if cmd.error is not None or cmd.code != 0:
            self.gate.record("node-engine run", [f"exit {cmd.code}: {cmd.error}"])
            return
        dev = replay_deviation(read_rows(self.trace), read_rows(node_out / "trace.csv"))
        problems = [] if dev <= REPLAY_TOL else [f"edge vs node deviation {dev!r} > {REPLAY_TOL}"]
        self.gate.record("node-engine run", problems)
        print(f"node/edge equivalence: worst relative deviation {dev:.3g} (limit {REPLAY_TOL:g})")


def measure_setup(clock: Clock) -> tuple[list, list]:
    """Raw and rescaled wall times of fresh interpreters that only import admmnet.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import admmnet.cli"],
            cwd=ROOT, env=env, check=True, timeout=60,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * clock.factor())
    return raw, scaled


def describe(label: str, unit: str, values: list) -> str:
    """Median, range, count and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    tail = "no percentile above p50 has ten samples beyond it"
    for q in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - q / 100.0) >= 10:
            tail = f"p{q:g} {ordered[math.ceil(q / 100.0 * n) - 1]:.4f}"
            break
    return (
        f"{label}: median {statistics.median(ordered):.4f} {unit}, min {ordered[0]:.4f}, "
        f"max {ordered[-1]:.4f}, n={n}, {tail}"
    )


def untraced(bench: Bench, seconds: float) -> dict:
    clock = Clock()
    setup_raw, setup = measure_setup(clock)
    bench.run()  # warm-up pair, discarded: first LAPACK calls, caches
    bench.check()
    clock.factor()
    raw = {"run": [], "check": []}
    scaled = {"run": [], "check": []}
    deadline = time.perf_counter() + seconds
    while not raw["run"] or time.perf_counter() < deadline:
        for kind in ("run", "check"):
            wall = getattr(bench, kind)().wall_s
            raw[kind].append(wall)
            scaled[kind].append(wall * clock.factor())
    if WORKLOADS[bench.workload].compare_node_engine:
        bench.check_node_edge()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    for kind in ("run", "check"):
        print(describe(f"{kind}_s", "s at reference speed", scaled[kind]))
        print(describe(f"  raw {kind} wall", "s", raw[kind]))
    print(describe("setup_s", "s at reference speed", setup))
    print(describe("  raw setup wall", "s", setup_raw))
    print(f"peak_rss_mb: {peak_mb:.1f} MB (ru_maxrss of this process)")
    return {
        "run_s": (statistics.median(scaled["run"]), "s"),
        "check_s": (statistics.median(scaled["check"]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def metric_unit(key: str) -> str:
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("_bytes"):
        return "bytes"
    return "s" if key.endswith("_s") else "count"


def traced(bench: Bench, seconds: float) -> dict:
    """Per-layer metrics from traced commands, each paired with an untraced one."""
    tracer = Tracer()
    clock = Clock()
    bench.run()  # warm-up pair, discarded
    bench.check()
    clock.factor()
    samples = {"run": [], "check": []}
    overhead = {"run": [], "check": []}  # traced minus untraced wall, per pair
    broken = {"run": [], "check": []}
    deadline = time.perf_counter() + seconds
    while not samples["run"] or time.perf_counter() < deadline:
        traced_wall = {}
        for kind in ("run", "check"):
            tracer.reset()
            with tracer.installed():
                cmd = getattr(bench, kind)()
            scale = clock.factor()
            problems = tracer.nesting_problems(cmd.wall_s)
            if problems:
                broken[kind].append(f"sample {len(samples[kind]) + 1}: " + "; ".join(problems))
            csv_bytes = bench.trace.stat().st_size if bench.trace.exists() else 0
            samples[kind].append(tracer.command_metrics(kind, cmd.wall_s, csv_bytes, scale))
            traced_wall[kind] = cmd.wall_s * scale
        for kind in ("run", "check"):
            overhead[kind].append(traced_wall[kind] - getattr(bench, kind)().wall_s * clock.factor())

    metrics = {}
    for kind, rows in samples.items():
        med = {key: statistics.median(r[key] for r in rows) for key in rows[0]}
        med["trace.overhead_s"] = statistics.median(overhead[kind])
        wall = med["cli.wall_s"]
        print(f"{kind}: traced wall {wall:.4f} s at reference speed (median of {len(rows)}), self times:")
        times = [k for k in med if metric_unit(k) == "s" and k not in ("cli.wall_s", "trace.overhead_s")]
        for key in sorted(times, key=lambda k: -med[k]):
            print(f"  {key:26s} {med[key]:9.4f} s  {100 * med[key] / wall:5.1f}%")
        print(f"  trace.overhead_s {med['trace.overhead_s']:.4f} s (median over pairs of traced minus untraced wall)")
        for problem in broken[kind][:10]:
            print(f"  span nesting: {problem}")
        print(f"  span nesting: {len(broken[kind])} of {len(rows)} samples broken "
              "(a layer self time or cli.self_s below 0)")
        for key, value in med.items():
            metrics[f"{kind}.{key}"] = (value, metric_unit(key))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(cli, args.workload, args.seed, work)
        print(f"workload {args.workload} seed {args.seed}")
        metrics = (traced if args.trace else untraced)(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    gate = bench.gate
    for problem in gate.problems[:20]:
        print(f"gate: {problem}")
    print(f"failed_share: {gate.failed / gate.attempted:.4g} ({gate.failed} of {gate.attempted} commands)")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
