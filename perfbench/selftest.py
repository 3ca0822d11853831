"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload, timed and traced, prints exactly the metrics
``BENCHMARK.json`` names, each with its unit; that each correctness gate
passes on real outputs and trips on a tampered copy; and that the benchmark
refuses to run without the package sources.  Takes well under a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from run import ROOT, SRC, child_env, run

sys.path.insert(0, str(SRC))

from workloads import TINY, WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            out = run(name, seed=7, seconds=0, trace=trace, sizes=TINY, work=WORK / f"{name}-{key}")
            result = out["result"]
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{name}: result keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={int(trace)}: all {result['attempted']} operations correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name} trace={int(trace)}: every {key} metric printed with its unit")
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   f"{name} trace={int(trace)}: metric values are numbers")
            if not trace:
                expect(all(v["value"] > 0 for v in result["metrics"].values()),
                       f"{name}: end-to-end metrics are positive")
            expect(out["detail"]["seed"] == 7 and out["detail"]["provenance"]["src_lines"] > 0,
                   f"{name}: seed and provenance recorded")


# Each tamper edits one output file of a passing command so that exactly
# one gate should trip.


def _surface_row(ns: int, dim: int, i: int, j: int, k: int) -> int:
    """Line of node (i, j), coordinate k, in a square surface.csv (line 0 is the header)."""
    return 1 + (i * ns + j) * dim + k


def _edit_csv_value(path: Path, row: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    parts = lines[row].split(",")
    parts[-1] = repr(float(parts[-1]) + delta)
    lines[row] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _swap_quantiles(doc: dict) -> None:
    # interior node (1, 1), levels 0 and 1: a non-monotone quantile row
    base = (1 * doc["nt"] + 1) * doc["dim"]
    v = doc["values"]
    v[base], v[base + 1] = v[base + 1], v[base]


def _shift_interior(doc: dict) -> None:
    # add 1e-2 to every coordinate of node (1, 1): stays monotone, not critical
    base = (1 * doc["nt"] + 1) * doc["dim"]
    for k in range(doc["dim"]):
        doc["values"][base + k] += 1e-2


TAMPERS = {
    "graph-catenoid": {
        "solve.9": [
            ("edge value edited",
             lambda d: _edit_csv_value(d / "surface.csv", _surface_row(9, 3, 0, 4, 2), 1e-14)),
            ("interior gap above bound",
             lambda d: _edit_csv_value(d / "surface.csv", _surface_row(9, 3, 4, 4, 2), 1e-2)),
        ],
    },
    "density-mixture": {
        "solve": [
            ("monotonicity.json reports a violation",
             lambda d: _edit_json(d / "monotonicity.json", lambda doc: doc.update(violations=1))),
            ("non-monotone quantile row", lambda d: _edit_json(d / "surface.json", _swap_quantiles)),
            ("residual above grad_tol/(hs*ht)", lambda d: _edit_json(d / "surface.json", _shift_interior)),
        ],
    },
    "verify-export": {
        "verify.density": [
            ("residuals.json max_norm edited",
             lambda d: _edit_json(d / "residuals.json",
                                  lambda doc: doc["euler_lagrange"].update(max_norm=1.5 * doc["euler_lagrange"]["max_norm"]))),
        ],
        "verify.cov": [
            ("critical_point entry dropped",
             lambda d: _edit_json(d / "residuals.json", lambda doc: doc.pop("critical_point"))),
        ],
        "export-plot": [
            ("coordinate grid edited", lambda d: _edit_csv_value(d / "coord_1.csv", 1, 1e-9)),
            ("density node dropped", lambda d: _edit_json(d / "densities.json", lambda doc: doc.pop())),
        ],
    },
}


def check_gates() -> None:
    for name, cls in WORKLOADS.items():
        work = WORK / f"gates-{name}"
        work.mkdir(parents=True)
        workload = cls(work, 3, TINY)
        commands = workload.commands(work / "out")
        for cmd in commands:
            res = subprocess.run([sys.executable, "-m", "wassersurf.cli", *cmd.argv], cwd=ROOT,
                                 env=child_env(), capture_output=True, text=True)
            expect(res.returncode == 0, f"{name} {cmd.label}: exits 0")
            expect(workload.check(cmd, 0).problems == [], f"{name} {cmd.label}: gate passes")
            expect(workload.check(cmd, 3).problems != [], f"{name} {cmd.label}: gate trips on exit code 3")
        for cmd in commands:
            for what, tamper in TAMPERS[name].get(cmd.label, []):
                pristine = work / "pristine"
                shutil.copytree(cmd.out, pristine)
                tamper(cmd.out)
                expect(workload.check(cmd, 0).problems != [], f"{name} {cmd.label}: gate trips on {what}")
                shutil.rmtree(cmd.out)
                pristine.rename(cmd.out)
        expect(set(TAMPERS[name]) <= {c.label for c in commands}, f"{name}: tamper cases name real commands")


def check_refuses_without_sources() -> None:
    bare = WORK / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(Path(__file__).parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    res = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180,
                         env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    expect(res.returncode != 0 and not res.stdout.strip(), "refuses to run without the sources")


def main() -> int:
    try:
        check_gates()
        check_metrics()
        check_refuses_without_sources()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
