"""wassersurf benchmark: time to a checked solution on three CLI workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload graph-catenoid --seed 1 --seconds 33 --trace 0

Every CLI command runs as a fresh ``python -m wassersurf.cli`` process with
``src/`` on ``PYTHONPATH``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before it
(``detail: {...}``) records the seed, provenance and per-repetition times.
See README.md in this directory for workloads, metrics and exclusions.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

from speed import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HOOKS = HERE / "hooks.py"
SPEED = HERE / "speed.py"

SETUP_ROUNDS = 5  # set-up probes per command; setup_s sums their per-command medians
# RUN_BUDGET seconds after a run starts, no new repetition begins and any
# command still running is killed, so a hung program cannot hold a run for
# longer than the 180 s it may take.
RUN_BUDGET = 150.0
# A speed probe may still finish this long after RUN_BUDGET, so that a run
# cut by the budget still reports its failed operations.
PROBE_GRACE = 15.0
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Rep(NamedTuple):
    """One timed repetition: raw and speed-scaled wall seconds per command, largest peak RSS."""

    wall_s: list
    scaled_s: list
    rss_mb: float


def median_total(rows: list) -> float:
    """Sum over commands of each command's median; each row holds one time per command.

    A slow outlier in one command spoils only that command's sample, not the
    whole repetition, so this holds steadier than the median of row sums.
    """
    return sum(statistics.median(column) for column in zip(*rows))


class Spawned(NamedTuple):
    """Exit code, wall time, peak RSS and stdout of one finished child process."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv: list, log_dir: Path, env: dict, timeout: float) -> Spawned:
    """Run ``argv`` to completion; time it from spawn to exit and read its rusage."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "wb") as out, open(log_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                   (log_dir / "stdout.txt").read_text(errors="replace"))


def report_failure(label: str, problems: list, log_dir: Path) -> None:
    print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    err = log_dir / "stderr.txt"
    if err.exists():
        for line in err.read_text(errors="replace").strip().splitlines()[-5:]:
            print(f"    {line}", file=sys.stderr)


class Run:
    """One benchmark run of one workload: set-up probes, timed repetitions, trace."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_BUDGET
        self.attempted = 0
        self.failed = 0
        self.speed_s = []  # every speed-probe time, in call order
        self.reps = []  # Rep per timed repetition
        self.setup_rounds = []  # (raw, scaled) set-up seconds per command, per round
        self.gates = {}  # values measured by the gates of the last repetition

    def _spawn(self, argv: list, log_dir: Path) -> Spawned:
        return spawn(argv, log_dir, self.env, self.deadline - time.monotonic())

    def _speed(self) -> float:
        """Run the host speed probe (see speed.py) once and return its wall time."""
        res = spawn([sys.executable, str(SPEED)], self.work / "speed", self.env,
                    self.deadline + PROBE_GRACE - time.monotonic())
        if res.code != 0:
            raise RuntimeError(f"speed probe exit code {res.code}")
        self.speed_s.append(res.wall_s)
        return res.wall_s

    def _count(self, label: str, problems: list, log_dir: Path) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            report_failure(label, problems, log_dir)

    def setup_probes(self, rounds: int) -> None:
        commands = [c for c in self.workload.commands(self.work / "probe") if c.setup_stop]
        before = self._speed()
        for _ in range(rounds):
            times = []
            for cmd in commands:
                log = self.work / "probe" / f"log-{cmd.label}"
                start = time.monotonic()
                res = self._spawn([sys.executable, str(HOOKS), "setup", cmd.setup_stop, *cmd.argv], log)
                problems = [] if res.code == 0 else [f"set-up probe exit code {res.code}"]
                try:
                    times.append(float(res.stdout.strip().splitlines()[-1]) - start)
                except (ValueError, IndexError):
                    times.append(0.0)
                    problems.append("set-up probe printed no time")
                self._count(f"setup {cmd.label}", problems, log)
            after = self._speed()
            self.setup_rounds.append((times, [scaled(t, before, after) for t in times]))
            before = after

    def repetition(self, index: int, traced: bool = False):
        """Run every command once and gate its outputs.

        Returns the wall time of each command, the largest peak RSS, the span
        documents of a traced repetition and the iteration count of each solve.
        """
        out = self.work / f"rep{index}"
        walls, rss, traces, iters = [], 0.0, [], {}
        for cmd in self.workload.commands(out):
            log = out / f"log-{cmd.label}"
            if traced:
                spans = out / f"spans-{cmd.label}.json"
                argv = [sys.executable, str(HOOKS), "trace", str(spans), *cmd.argv]
            else:
                argv = [sys.executable, "-m", "wassersurf.cli", *cmd.argv]
            res = self._spawn(argv, log)
            walls.append(res.wall_s)
            rss = max(rss, res.rss_mb)
            try:
                outcome = self.workload.check(cmd, res.code)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            else:
                problems = outcome.problems
                self.gates.update(outcome.values)
                if cmd.iters_metric and "iters" in outcome.values:
                    iters[cmd.iters_metric] = outcome.values["iters"]
            self._count(cmd.label, problems, log)
            if traced and spans.exists():
                traces.append(json.loads(spans.read_text()))
        shutil.rmtree(out, ignore_errors=True)
        return walls, rss, traces, iters

    def timed(self, seconds: float) -> None:
        stop = time.monotonic() + seconds
        before = self._speed()
        while True:
            walls, rss, _, _ = self.repetition(len(self.reps))
            after = self._speed()
            self.reps.append(Rep(walls, [scaled(w, before, after) for w in walls], rss))
            before = after
            if time.monotonic() >= min(stop, self.deadline):
                break


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def provenance() -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "src_lines": src_lines(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload_name: str, seed: int, seconds: float, trace: bool, sizes, work: Path) -> dict:
    """Run one workload and return the result object (also printed by ``main``)."""
    from layers import SpanStats, layer_metrics
    from workloads import WORKLOADS

    work.mkdir(parents=True, exist_ok=True)
    bench = Run(WORKLOADS[workload_name](work, seed, sizes), work)
    if not trace:
        bench.setup_probes(SETUP_ROUNDS)
    bench.timed(seconds)
    if trace:
        walls, _, traces, iters = bench.repetition(len(bench.reps), traced=True)
        stats = SpanStats()
        for doc in traces:
            stats.add(doc)
        overhead = sum(walls) - median_total([r.wall_s for r in bench.reps])
        metrics = layer_metrics(stats, iters, bench.gates.get("oracle_gap", 0.0), overhead)
    else:
        metrics = {
            "wall_s": metric(median_total([r.scaled_s for r in bench.reps]), "s"),
            "setup_s": metric(median_total([s for _, s in bench.setup_rounds]), "s"),
            "peak_rss_mb": metric(statistics.median(r.rss_mb for r in bench.reps), "MB"),
        }
    detail = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "reps": len(bench.reps),
        "commands": [cmd.label for cmd in bench.workload.commands(work)],
        "rep_wall_s": [r.wall_s for r in bench.reps],
        "rep_scaled_s": [r.scaled_s for r in bench.reps],
        "setup_rounds_s": [r for r, _ in bench.setup_rounds],
        "setup_scaled_s": [s for _, s in bench.setup_rounds],
        "speed_probe_s": bench.speed_s,
        "provenance": provenance(),
    }
    return {
        "detail": detail,
        "result": {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills the command it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "wassersurf" / "cli.py").is_file():
        print(f"no wassersurf sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print("detail: " + json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
