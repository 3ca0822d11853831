"""Command-line front end: solve, verify, and export-plot workflows.

All problem assembly is driven by a single JSON config document; the only
flag that overrides it is ``--out`` (artifact directory).

Exit codes: 0 success/converged, 1 verification tolerance failure,
2 config or input error, 3 solver stall, 4 degenerate problem,
5 numerical failure (non-finite values during a solve, or a quantile
iteration that did not converge).
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytic
from .area import AreaConfig, quantile_weights
from .densities import (
    QuantileGrid,
    QuantileSurface,
    boundary_from_corners,
    monotonicity_report,
    parse_density,
)
from .errors import (
    DegenerateSurfaceError,
    DomainValidityError,
    PositivityError,
    QuantileConvergenceError,
    SolverNaNError,
)
from .gaussian import DiagonalCovSurface, critical_point_residual
from .grid import (
    BoundarySpec,
    Grid2,
    SurfaceField,
    _fill_g17,
    coons_init,
    edges_from_corner_vectors,
    load_csv,
    load_json,
    real_number,
    save_csv,
    save_json,
    whole_number,
)
from .solver import SolverConfig, euler_lagrange_residual, minimize, perturb_interior

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_STALL = 3
EXIT_DEGENERATE = 4
EXIT_NUMERIC = 5

PROBLEMS = ("graph", "density1d", "gaussian-diag", "analytic-verify")


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _parse_window(doc, name: str) -> tuple:
    if doc is None:
        raise ConfigError("oracle needs a 'window'")
    if isinstance(doc, list) and len(doc) == 2:
        if all(isinstance(part, list) and len(part) == 2 for part in doc):
            return tuple(
                tuple(real_number(x, f"{name}[{a}][{b}]") for b, x in enumerate(part))
                for a, part in enumerate(doc)
            )
        if not any(isinstance(part, list) for part in doc):
            lo, hi = (real_number(x, f"{name}[{a}]") for a, x in enumerate(doc))
            return ((lo, hi), (lo, hi))
    raise ConfigError(f"{name} must be [lo, hi] or [[s_lo, s_hi], [t_lo, t_hi]]")


#: keys accepted at the top level ("") and in each fixed-schema section; any
#: other key is a config error, so a misspelt setting never falls back silently
CONFIG_KEYS = {
    "": ("problem", "grid", "corners", "oracle", "oracles", "solver", "area", "perturb",
         "tolerances", "surface", "samples", "formats", "out"),
    "grid": ("ns", "nt", "m"),
    "solver": ("method", "max_iters", "grad_tol", "armijo_c1", "backtrack", "step0",
               "max_backtracks"),
    "area": ("epsilon",),
    "perturb": ("amplitude", "seed"),
    "tolerances": ("minimal_surface", "euler_lagrange", "critical_point"),
}


def _check_keys(doc: dict, section: str) -> None:
    known = CONFIG_KEYS[section]
    for key in doc:
        if key not in known:
            name = f"{section}.{key}" if section else key
            raise ConfigError(
                f"unknown key {name!r}; {section or 'the top level'} takes {', '.join(known)}"
            )


def _section(doc: dict, key: str) -> dict:
    """The object under ``key`` (empty if absent), key-checked if its schema is fixed."""
    sub = doc.get(key, {})
    if not isinstance(sub, dict):
        raise ConfigError(f"'{key}' must be a JSON object")
    if key in CONFIG_KEYS:
        _check_keys(sub, key)
    return sub


def parse_oracle(doc: dict, name: str = "oracle"):
    """Build an analytic surface plus window/offset from its config form.

    ``name`` is where ``doc`` sits in the config; error messages name keys by it.
    """
    if not isinstance(doc, dict):
        raise ConfigError("an oracle must be a JSON object")

    def real(key, default=None):
        value = doc[key] if default is None else doc.get(key, default)
        return real_number(value, f"{name}.{key}")

    kind = doc.get("oracle")
    if kind == "plane":
        surf = analytic.Plane(real("a1"), real("a2"), real("a3"))
    elif kind == "scherk":
        surf = analytic.Scherk(real("c"), real("k1", 0.0), real("k2", 0.0), real("offset", 0.0))
    elif kind == "catenoid":
        surf = analytic.Catenoid(
            real("c1"), real("r1"), whole_number(doc.get("sign", 1), f"{name}.sign")
        )
    elif kind == "helicoid":
        surf = analytic.Helicoid(real("c1"), real("c2"))
    else:
        raise ConfigError(f"unknown oracle {kind!r}")
    window = _parse_window(doc.get("window"), f"{name}.window")
    return surf, window, real("z_offset", 0.0)


@dataclass
class RunConfig:
    problem: str
    grid: Grid2
    m: int
    corners: dict | None
    oracle: tuple | None
    oracles: list
    solver: SolverConfig
    area_epsilon: float
    perturb_amplitude: float
    perturb_seed: int
    out: Path
    formats: list
    tolerances: dict
    surface_path: str | None
    samples: int


def load_config(path, out_override=None) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    try:
        return _parse_config(doc, out_override)
    except TypeError as exc:
        # e.g. null or a list where a number is expected
        raise ConfigError(f"malformed value in config {path}: {exc}") from exc


def _parse_config(doc: dict, out_override) -> RunConfig:
    _check_keys(doc, "")
    problem = doc.get("problem")
    if problem not in PROBLEMS:
        raise ConfigError(f"problem must be one of {PROBLEMS}, got {problem!r}")

    gdoc = _section(doc, "grid")
    ns, nt, m = (whole_number(gdoc.get(key, default), f"grid.{key}")
                 for key, default in (("ns", 17), ("nt", 17), ("m", 64)))
    if problem != "analytic-verify" and min(ns, nt) < 3:
        raise ConfigError("grids must have ns, nt >= 3 for solving")

    corners = None
    if "corners" in doc:
        cdoc = _section(doc, "corners")
        corners = {}
        for key in ("c00", "c10", "c01", "c11"):
            corners[key] = _section(cdoc, key)
            if not corners[key]:
                raise ConfigError(f"corners must define {key}")

    oracle = None
    oracles = []
    if "oracle" in doc:
        oracle = parse_oracle(doc["oracle"])
        oracles = [oracle]
    if "oracles" in doc:
        oracles = [parse_oracle(o, f"oracles[{n}]") for n, o in enumerate(doc["oracles"])]
        if oracle is None and oracles:
            oracle = oracles[0]

    sdoc = _section(doc, "solver")
    method = sdoc.get("method", "nonlinear-cg")
    if method != "nonlinear-cg":
        raise ConfigError(f"solver.method must be 'nonlinear-cg', got {method!r}")
    try:
        solver = SolverConfig(
            max_iters=whole_number(sdoc.get("max_iters", 5000), "solver.max_iters"),
            grad_tol=(None if sdoc.get("grad_tol") is None
                      else real_number(sdoc["grad_tol"], "solver.grad_tol")),
            armijo_c1=real_number(sdoc.get("armijo_c1", 1e-4), "solver.armijo_c1"),
            backtrack=real_number(sdoc.get("backtrack", 0.5), "solver.backtrack"),
            step0=real_number(sdoc.get("step0", 1.0), "solver.step0"),
            max_backtracks=whole_number(sdoc.get("max_backtracks", 40),
                                        "solver.max_backtracks"),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid solver config: {exc}") from exc

    adoc = _section(doc, "area")
    area_epsilon = real_number(adoc.get("epsilon", 1e-12), "area.epsilon")
    try:
        AreaConfig(epsilon=area_epsilon)
    except ValueError as exc:
        raise ConfigError(f"area.{exc}") from exc
    pdoc = _section(doc, "perturb")
    amplitude = real_number(pdoc.get("amplitude", 0.0), "perturb.amplitude")
    if not math.isfinite(amplitude):
        raise ConfigError(f"perturb.amplitude must be finite, got {amplitude!r}")
    tolerances = {}
    for key, value in _section(doc, "tolerances").items():
        tol = tolerances[key] = real_number(value, f"tolerances.{key}")
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ConfigError(f"tolerances.{key} must be nonnegative and finite, got {tol!r}")
    samples = whole_number(doc.get("samples", 21), "samples")
    if samples < 1:
        raise ConfigError(f"samples must be at least 1, got {samples}")
    out = Path(out_override if out_override is not None else doc.get("out", "."))
    formats = list(doc.get("formats", ["csv", "json"]))
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown export format {fmt!r}")
    return RunConfig(
        problem=problem,
        grid=Grid2(ns, nt),
        m=m,
        corners=corners,
        oracle=oracle,
        oracles=oracles,
        solver=solver,
        area_epsilon=area_epsilon,
        perturb_amplitude=amplitude,
        perturb_seed=whole_number(pdoc.get("seed", 0), "perturb.seed"),
        out=out,
        formats=formats,
        tolerances=tolerances,
        surface_path=doc.get("surface"),
        samples=samples,
    )


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


def _assemble(cfg: RunConfig):
    """Build (boundary, init, area config, free coords, oracle field, qgrid)."""
    acfg = AreaConfig(epsilon=cfg.area_epsilon)
    if cfg.problem == "graph":
        if cfg.oracle is None:
            raise ConfigError("graph problems need an 'oracle' boundary")
        surf, window, z_offset = cfg.oracle
        boundary, full = analytic.graph_boundary(surf, cfg.grid, window, z_offset)
        return boundary, coons_init(boundary), acfg, (2,), full, None

    if cfg.problem == "gaussian-diag":
        if cfg.oracle is not None:
            surf, window, z_offset = cfg.oracle
            boundary, cov = analytic.to_cov_boundary(surf, cfg.grid, window, z_offset)
            return boundary, coons_init(boundary), acfg, (2,), cov.field, None
        if cfg.corners is None:
            raise ConfigError("gaussian-diag needs 'corners' or an 'oracle'")
        roots = {}
        for key, cdoc in cfg.corners.items():
            if cdoc.get("type") != "gaussian_diag":
                raise ConfigError(f"corner {key} must have type 'gaussian_diag'")
            try:
                diag = np.asarray(cdoc["diag"], dtype=float)
            except TypeError as exc:
                raise ConfigError(f"corner {key} diag must be positive reals") from exc
            if diag.ndim != 1 or np.any(diag <= 0.0):
                raise ConfigError(f"corner {key} diag must be positive reals")
            roots[key] = np.sqrt(diag)
        boundary = edges_from_corner_vectors(
            roots["c00"], roots["c10"], roots["c01"], roots["c11"], cfg.grid
        )
        return boundary, coons_init(boundary), acfg, None, None, None

    if cfg.problem == "density1d":
        if cfg.corners is None:
            raise ConfigError("density1d needs 'corners'")
        try:
            dens = {k: parse_density(v) for k, v in cfg.corners.items()}
        except TypeError as exc:
            raise ConfigError(f"malformed density corner: {exc}") from exc
        qg = QuantileGrid(cfg.m)
        boundary = boundary_from_corners(
            dens["c00"], dens["c10"], dens["c01"], dens["c11"], cfg.grid, qg
        )
        acfg = AreaConfig(epsilon=cfg.area_epsilon, weights=quantile_weights(cfg.m))
        return boundary, coons_init(boundary), acfg, None, None, qg

    raise ConfigError(f"problem {cfg.problem!r} cannot be solved directly")


def _write_boundary_csv(b: BoundarySpec, path: Path) -> None:
    parts = ["edge,idx,k,value\n"]
    for name, arr in (
        ("s0", b.edge_s0), ("s1", b.edge_s1), ("t0", b.edge_t0), ("t1", b.edge_t1)
    ):
        n, m = arr.shape
        template = "".join(f"{name},{idx},{k},%.17g\n" for idx in range(n) for k in range(m))
        parts.append(_fill_g17(template, arr))
    path.write_text("".join(parts))


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: RunConfig) -> int:
    boundary, init, acfg, free, oracle_field, qg = _assemble(cfg)
    if cfg.perturb_amplitude != 0.0:
        init = perturb_interior(init, cfg.perturb_amplitude, cfg.perturb_seed, free)
    report = minimize(init, boundary, cfg.solver, acfg, free_coords=free)

    cfg.out.mkdir(parents=True, exist_ok=True)
    if "csv" in cfg.formats:
        save_csv(report.field, cfg.out / "surface.csv")
    if "json" in cfg.formats:
        save_json(report.field, cfg.out / "surface.json")
    _write_boundary_csv(boundary, cfg.out / "boundary.csv")
    _dump_json(report.to_json_dict(), cfg.out / "report.json")

    if oracle_field is not None:
        gap = np.abs(report.field.values - oracle_field.values)
        _dump_json(
            {
                "max_abs_interior": float(np.max(gap[1:-1, 1:-1])) if cfg.grid.ns > 2 else 0.0,
                "max_abs": float(np.max(gap)),
                "ns": cfg.grid.ns,
                "nt": cfg.grid.nt,
            },
            cfg.out / "oracle_gap.json",
        )
    if qg is not None:
        mono = monotonicity_report(QuantileSurface(report.field, qg))
        _dump_json(
            {"violations": mono.violations, "worst_gap": mono.worst_gap},
            cfg.out / "monotonicity.json",
        )

    if cfg.problem == "gaussian-diag" and float(report.field.values.min()) <= 0.0:
        print(
            "warning: solved surface left the positive cone; covariances are "
            "not positive definite everywhere",
            file=sys.stderr,
        )
    if report.degenerate_cells > 0:
        print(f"degenerate cells: {report.degenerate_cells} (area at epsilon floor)")
    print(
        f"solve: converged={report.converged} iters={report.iterations} "
        f"area={report.area_trace[-1]:.12g} grad={report.grad_norm:.3e}"
    )
    if report.stall is not None:
        print(f"stall: {report.stall}", file=sys.stderr)
        return EXIT_STALL
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    cfg.out.mkdir(parents=True, exist_ok=True)
    results = {}
    passed = True

    if cfg.problem == "analytic-verify" or cfg.oracles:
        tol = cfg.tolerances.get("minimal_surface", 1e-10)
        entries = []
        for surf, window, _ in cfg.oracles:
            (u0, u1), (v0, v1) = window
            u = np.linspace(u0, u1, cfg.samples)
            v = np.linspace(v0, v1, cfg.samples)
            uu, vv = np.meshgrid(u, v, indexing="ij")
            res = analytic.minimal_surface_residual(surf, uu, vv)
            max_abs = float(np.max(np.abs(res)))
            ok = max_abs <= tol
            passed &= ok
            entries.append(
                {
                    "variant": type(surf).__name__.lower(),
                    "max_abs": max_abs,
                    "samples": cfg.samples,
                    "tol": tol,
                    "pass": ok,
                }
            )
        results["minimal_surface"] = entries

    if cfg.surface_path is not None:
        field = _load_surface(cfg.surface_path)
        weights = quantile_weights(field.dim) if cfg.problem == "density1d" else None
        acfg = AreaConfig(epsilon=cfg.area_epsilon, weights=weights)
        rep = euler_lagrange_residual(field, acfg)
        entry = {"max_norm": rep.max_norm, "excluded_nodes": rep.excluded_nodes}
        if "euler_lagrange" in cfg.tolerances:
            entry["tol"] = cfg.tolerances["euler_lagrange"]
            entry["pass"] = rep.max_norm <= entry["tol"]
            passed &= entry["pass"]
        results["euler_lagrange"] = entry

        if cfg.problem == "gaussian-diag":
            cov = DiagonalCovSurface(field)
            mw = critical_point_residual(cov)
            centry = {"max_norm": mw.max_norm, "border": mw.border}
            if "critical_point" in cfg.tolerances:
                centry["tol"] = cfg.tolerances["critical_point"]
                centry["pass"] = mw.max_norm <= centry["tol"]
                passed &= centry["pass"]
            results["critical_point"] = centry

    if not results:
        raise ConfigError("verify needs an oracle list or a surface file")
    _dump_json(results, cfg.out / "residuals.json")
    print(f"verify: {'pass' if passed else 'FAIL'} ({cfg.out / 'residuals.json'})")
    return EXIT_OK if passed else EXIT_TOLERANCE


def _load_surface(path) -> SurfaceField:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"surface file {p} does not exist")
    if p.suffix == ".csv":
        return load_csv(p)
    return load_json(p)


def _parse_nodes(spec: str, ns: int, nt: int) -> list:
    nodes = []
    for part in spec.split(";"):
        i_str, j_str = part.split(",")
        i, j = int(i_str), int(j_str)
        if i < 0:
            i += ns
        if j < 0:
            j += nt
        if not (0 <= i < ns and 0 <= j < nt):
            raise ConfigError(f"node ({i},{j}) out of range for {ns}x{nt} grid")
        nodes.append((i, j))
    return nodes


def cmd_export_plot(surface_path, out_dir, density_nodes=None) -> int:
    field = _load_surface(surface_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ns, nt = field.grid.ns, field.grid.nt
    template = (",".join(["%.17g"] * nt) + "\n") * ns
    for k in range(field.dim):
        (out / f"coord_{k + 1}.csv").write_text(_fill_g17(template, field.values[:, :, k]))

    if density_nodes is not None:
        # reconstruct densities from the quantile surface: at level z_k the
        # density at x = Z(z_k) is 1 / dZ/dz, with dZ/dz by central
        # differences over the midpoint grid spacing 1/m.
        m = field.dim
        if m < 3:
            raise ConfigError("density reconstruction needs m >= 3 quantile levels")
        nodes = _parse_nodes(density_nodes, ns, nt)
        zs = (np.arange(m) + 0.5) / m
        snaps = []
        for i, j in nodes:
            Z = field.values[i, j, :]
            dZ = (Z[2:] - Z[:-2]) * (0.5 * m)
            snaps.append(
                {
                    "i": i,
                    "j": j,
                    "s": float(field.grid.s_nodes[i]),
                    "t": float(field.grid.t_nodes[j]),
                    "z": zs[1:-1].tolist(),
                    "x": Z[1:-1].tolist(),
                    "pdf": (1.0 / dZ).tolist(),
                }
            )
        _dump_json(snaps, out / "densities.json")
    print(f"export-plot: wrote {field.dim} coordinate grids to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wassersurf",
        description="Minimal-surface solver for graphs, 1-D density families, "
        "and diagonal Gaussian covariance families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the problem described by a JSON config")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default=None, help="override the config output directory")

    p_verify = sub.add_parser("verify", help="check residual tolerances for oracles or surfaces")
    p_verify.add_argument("config")
    p_verify.add_argument("--out", default=None, help="override the config output directory")

    p_export = sub.add_parser("export-plot", help="write per-coordinate grid matrices")
    p_export.add_argument("surface", help="surface.csv or surface.json file")
    p_export.add_argument("--out", default=".", help="output directory")
    p_export.add_argument(
        "--density-nodes",
        default=None,
        help="semicolon list of i,j nodes for density reconstruction, e.g. '0,0;-1,-1'",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "export-plot":
            return cmd_export_plot(args.surface, args.out, args.density_nodes)
        cfg = load_config(args.config, out_override=args.out)
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_verify(cfg)
    except (DegenerateSurfaceError, PositivityError, DomainValidityError) as exc:
        print(f"degenerate problem: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (SolverNaNError, QuantileConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
