"""The benchmark's workloads: seeded inputs, CLI commands and correctness gates.

Each workload writes its configs (and, for ``verify-export``, its input
surfaces) once per run, before anything is timed.  A repetition runs the
workload's CLI commands in order; ``check`` then decides for each command
whether its outputs are correct.  A command that exits non-zero or fails
its gate counts as a failed operation.

Output files are parsed with the small readers below, not with the
library's own loaders, so a broken loader cannot hide a broken writer.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wassersurf import analytic
from wassersurf.area import AreaConfig, quantile_weights
from wassersurf.densities import QuantileGrid, boundary_from_corners, parse_density
from wassersurf.gaussian import DiagonalCovSurface, critical_point_residual
from wassersurf.grid import Grid2, SurfaceField, coons_init, save_csv, save_json
from wassersurf.solver import euler_lagrange_residual, perturb_interior

# The README's density rectangle: a bimodal mixture at c00, Gaussians elsewhere.
README_CORNERS = {
    "c00": {"type": "mixture", "components": [
        {"weight": 0.5, "mean": -1.5, "std": 0.6},
        {"weight": 0.5, "mean": 1.5, "std": 0.6}]},
    "c10": {"type": "gaussian", "mean": 1.0, "std": 1.3},
    "c01": {"type": "gaussian", "mean": -0.5, "std": 2.0},
    "c11": {"type": "gaussian", "mean": 1.5, "std": 2.5},
}
CATENOID = {"oracle": "catenoid", "c1": 0.0, "r1": 1.0, "window": [0.8, 2.1]}
CATENOID_WINDOW = ((0.8, 2.1), (0.8, 2.1))
# The Euler-Lagrange residual may exceed grad_tol/(hs*ht) by rounding only.
ROUNDING = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``FULL`` is the benchmark, ``TINY`` the harness self-test."""

    # (ns, stated bound on the max interior gap to the closed form); the
    # bounds sit about 10% above the discretisation error of the discrete
    # minimizer (7.23e-5 at 33^2, 1.797e-5 at 65^2).
    graph: tuple = ((33, 8.0e-5), (65, 2.0e-5))
    graph_grad_tol: float = 1e-9
    density_ns: int = 17
    density_m: int = 128
    density_grad_tol: float = 1e-5
    verify_ns: int = 65
    verify_m: int = 128
    cov_ns: int = 257


FULL = Sizes()
TINY = Sizes(
    graph=((9, 1.5e-3), (17, 3.2e-4)),
    graph_grad_tol=1e-7,
    density_ns=9,
    density_m=8,
    density_grad_tol=3e-4,
    verify_ns=9,
    verify_m=8,
    cov_ns=9,
)


@dataclass
class Command:
    """One CLI invocation: ``python -m wassersurf.cli <argv>``."""

    label: str
    argv: list
    out: Path
    # where the set-up probe stops ("minimize" or "load"); None: no probe
    setup_stop: str | None = None
    # per-layer metric that receives this solve's iteration count
    iters_metric: str | None = None


@dataclass
class Outcome:
    """Gate verdict for one command plus values measured while checking."""

    problems: list = field(default_factory=list)
    values: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# readers independent of wassersurf.grid
# ---------------------------------------------------------------------------


def read_surface_csv(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "i,j,s,t,k,value":
        raise ValueError(f"{path.name}: unexpected header")
    rows = [line.split(",") for line in lines[1:]]
    index = np.array([(int(r[0]), int(r[1]), int(r[4])) for r in rows])
    values = np.array([float(r[5]) for r in rows])
    out = np.full(tuple(index.max(axis=0) + 1), np.nan)
    out[index[:, 0], index[:, 1], index[:, 2]] = values
    if np.isnan(out).any():
        raise ValueError(f"{path.name}: missing entries")
    return out


def read_surface_json(path: Path) -> np.ndarray:
    doc = json.loads(path.read_text())
    return np.asarray(doc["values"], dtype=float).reshape(doc["ns"], doc["nt"], doc["dim"])


def read_matrix_csv(path: Path) -> np.ndarray:
    return np.array([[float(x) for x in line.split(",")] for line in path.read_text().splitlines()])


def _write_json(doc, path: Path) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _exit_problem(code: int) -> list:
    return [] if code == 0 else [f"exit code {code}"]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class GraphCatenoid:
    """Catenoid oracle solved at two grid sizes (nonlinear CG, tight tolerance)."""

    name = "graph-catenoid"

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        self.configs = {}
        self.closed_form = {}
        self.gap_bound = {}
        for ns, bound in sizes.graph:
            doc = {
                "problem": "graph",
                "grid": {"ns": ns, "nt": ns},
                "oracle": CATENOID,
                "solver": {"method": "nonlinear-cg", "grad_tol": sizes.graph_grad_tol},
                "area": {"epsilon": 0.0},
                "perturb": {"amplitude": 1e-2, "seed": seed},
            }
            self.configs[ns] = _write_json(doc, work / f"graph{ns}.json")
            surf = analytic.Catenoid(0.0, 1.0)
            self.closed_form[ns] = analytic.graph_field(surf, Grid2(ns, ns), CATENOID_WINDOW).values
            self.gap_bound[ns] = bound

    def commands(self, out: Path) -> list:
        names = ("solver.iters.33", "solver.iters.65")
        return [
            Command(f"solve.{ns}", ["solve", str(self.configs[ns]), "--out", str(out / f"g{ns}")],
                    out / f"g{ns}", setup_stop="minimize", iters_metric=names[n])
            for n, ns in enumerate(self.configs)
        ]

    def check(self, cmd: Command, code: int) -> Outcome:
        res = Outcome(_exit_problem(code))
        if code != 0:
            return res
        ns = int(cmd.label.split(".")[1])
        expect = self.closed_form[ns]
        got = read_surface_csv(cmd.out / "surface.csv")
        if got.shape != expect.shape:
            res.problems.append(f"surface shape {got.shape} != {expect.shape}")
            return res
        for edge in (np.s_[0], np.s_[-1], np.s_[:, 0], np.s_[:, -1]):
            if not np.array_equal(got[edge], expect[edge]):
                res.problems.append("edges differ from the closed form")
                break
        gap = float(np.max(np.abs(got - expect)[1:-1, 1:-1]))
        if not gap <= self.gap_bound[ns]:
            res.problems.append(f"gap to closed form {gap:.4g} > {self.gap_bound[ns]:.4g}")
        res.values["oracle_gap"] = gap
        res.values["iters"] = json.loads((cmd.out / "report.json").read_text())["iters"]
        return res


class DensityMixture:
    """README density rectangle, quantile coordinates with wide vectors."""

    name = "density-mixture"

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        ns, m = sizes.density_ns, sizes.density_m
        self.grad_tol = sizes.density_grad_tol
        doc = {
            "problem": "density1d",
            "grid": {"ns": ns, "nt": ns, "m": m},
            "corners": README_CORNERS,
            "solver": {"grad_tol": self.grad_tol, "max_iters": 5000},
            "perturb": {"amplitude": 1e-3, "seed": seed},
        }
        self.config = _write_json(doc, work / "density.json")

    def commands(self, out: Path) -> list:
        return [Command("solve", ["solve", str(self.config), "--out", str(out / "d")], out / "d",
                        setup_stop="minimize", iters_metric="solver.iters")]

    def check(self, cmd: Command, code: int) -> Outcome:
        res = Outcome(_exit_problem(code))
        if code != 0:
            return res
        mono = json.loads((cmd.out / "monotonicity.json").read_text())
        if mono["violations"] != 0:
            res.problems.append(f"monotonicity.json reports {mono['violations']} violations")
        values = read_surface_json(cmd.out / "surface.json")
        if np.any(np.diff(values, axis=2) < 0.0):
            res.problems.append("surface.json has a non-monotone quantile row")
        # Recompute the residual; the solver's own stopping test is not trusted.
        ns, nt, m = values.shape
        grid = Grid2(ns, nt)
        rep = euler_lagrange_residual(SurfaceField(grid, values), AreaConfig(weights=quantile_weights(m)))
        limit = self.grad_tol / (grid.hs * grid.ht) * (1.0 + ROUNDING)
        if not rep.max_norm <= limit:
            res.problems.append(f"Euler-Lagrange residual {rep.max_norm:.4g} > {limit:.4g}")
        res.values["iters"] = json.loads((cmd.out / "report.json").read_text())["iters"]
        return res


class VerifyExport:
    """Residual checks and plot export on large saved surfaces; no solver."""

    name = "verify-export"
    NODES = "0,0;{mid},{mid};-1,-1"
    TOLERANCES = {"euler_lagrange": 1.0, "critical_point": 1.0}

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        ns, m = sizes.verify_ns, sizes.verify_m
        dens = {k: parse_density(v) for k, v in README_CORNERS.items()}
        boundary = boundary_from_corners(
            dens["c00"], dens["c10"], dens["c01"], dens["c11"], Grid2(ns, ns), QuantileGrid(m)
        )
        self.density = perturb_interior(coons_init(boundary), 1e-3, seed)
        self.density_csv = work / "density_surface.csv"
        self.density_json = work / "density_surface.json"
        save_csv(self.density, self.density_csv)
        save_json(self.density, self.density_json)

        _, cov = analytic.to_cov_boundary(
            analytic.Catenoid(0.0, 1.0), Grid2(sizes.cov_ns, sizes.cov_ns), CATENOID_WINDOW, 0.5
        )
        self.cov = perturb_interior(cov.field, 1e-3, seed, (2,))
        self.cov_json = work / "cov_surface.json"
        save_json(self.cov, self.cov_json)

        self.config_density = _write_json(
            {"problem": "density1d", "surface": str(self.density_csv),
             "tolerances": {"euler_lagrange": self.TOLERANCES["euler_lagrange"]}},
            work / "verify_density.json",
        )
        self.config_cov = _write_json(
            {"problem": "gaussian-diag", "surface": str(self.cov_json),
             "tolerances": self.TOLERANCES},
            work / "verify_cov.json",
        )
        self.expected = {
            "verify.density": self._expected(self.density, AreaConfig(weights=quantile_weights(m))),
            "verify.cov": self._expected(self.cov, AreaConfig(), critical=True),
        }
        self.nodes = self.NODES.format(mid=ns // 2)

    def _expected(self, surface: SurfaceField, acfg: AreaConfig, critical: bool = False) -> dict:
        """The entries ``cmd_verify`` must write to residuals.json for this surface."""
        el = euler_lagrange_residual(surface, acfg)
        tol = self.TOLERANCES
        doc = {"euler_lagrange": {"max_norm": el.max_norm, "excluded_nodes": el.excluded_nodes,
                                  "tol": tol["euler_lagrange"], "pass": el.max_norm <= tol["euler_lagrange"]}}
        if critical:
            cp = critical_point_residual(DiagonalCovSurface(surface))
            doc["critical_point"] = {"max_norm": cp.max_norm, "border": cp.border,
                                     "tol": tol["critical_point"], "pass": cp.max_norm <= tol["critical_point"]}
        return doc

    def commands(self, out: Path) -> list:
        return [
            Command("verify.density", ["verify", str(self.config_density), "--out", str(out / "vd")],
                    out / "vd", setup_stop="load"),
            Command("verify.cov", ["verify", str(self.config_cov), "--out", str(out / "vc")],
                    out / "vc", setup_stop="load"),
            Command("export-plot", ["export-plot", str(self.density_json), "--out", str(out / "plot"),
                                    "--density-nodes", self.nodes], out / "plot"),
        ]

    def check(self, cmd: Command, code: int) -> Outcome:
        res = Outcome(_exit_problem(code))
        if code != 0:
            return res
        if cmd.label in self.expected:
            got = json.loads((cmd.out / "residuals.json").read_text())
            for section, entries in self.expected[cmd.label].items():
                for key, want in entries.items():
                    have = got.get(section, {}).get(key)
                    if have != want:
                        res.problems.append(f"residuals.json {section}.{key} = {have!r}, recomputed {want!r}")
            return res
        values = self.density.values
        for k in range(values.shape[2]):
            grid_k = read_matrix_csv(cmd.out / f"coord_{k + 1}.csv")
            if not np.array_equal(grid_k, values[:, :, k]):
                res.problems.append(f"coord_{k + 1}.csv does not parse back to the field")
                break
        snaps = json.loads((cmd.out / "densities.json").read_text())
        if len(snaps) != len(self.nodes.split(";")):
            res.problems.append(f"densities.json has {len(snaps)} nodes")
        return res


WORKLOADS = {w.name: w for w in (GraphCatenoid, DensityMixture, VerifyExport)}
