"""Command-line front end: solve, verify, and export-plot workflows.

``solve`` and ``verify`` each read one JSON config document of their own keys;
the only flag that overrides it is ``--out`` (artifact directory).

Exit codes: 0 success/converged, 1 verification tolerance failure,
2 config or input error (an unusable input or output path, a JSON file
nested too deep to parse and a problem too large for memory included),
3 solver stall, 4 degenerate problem, 5 numerical failure (non-finite
values during a solve, or a quantile iteration that did not converge).
"""

import argparse
import gc
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import analytic
from .area import AreaConfig, quantile_weights
from .densities import (
    QuantileGrid,
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
from .gaussian import DiagonalCovSurface, critical_point_residual, diag_corner_roots
from .grid import (
    Grid2,
    SurfaceField,
    _fill_g17,
    check_keys,
    coons_init,
    edges_from_corner_vectors,
    json_typed,
    load_csv,
    load_json,
    real_number,
    required,
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

#: the sections each problem may take its surface from, an oracle as ``solve``'s ``oracle``
#: or ``verify``'s list ``oracles``; a problem with two takes one of them, not both
SOURCES = {"graph": ("oracle",), "density1d": ("corners",),
           "gaussian-diag": ("corners", "oracle"), "analytic-verify": ("oracle",)}
PROBLEMS = tuple(SOURCES)

#: points per direction on which ``verify`` samples each oracle's window
ORACLE_SAMPLES = 21


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _finite_real(value, name: str) -> float:
    """``value`` through ``real_number``; a NaN or an infinity is a config error too."""
    number = real_number(value, name)
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number!r}")
    return number


def _parse_window(doc, name: str) -> tuple:
    window = None
    if isinstance(doc, list) and len(doc) == 2:
        if all(isinstance(part, list) and len(part) == 2 for part in doc):
            window = tuple(
                tuple(_finite_real(x, f"{name}[{a}][{b}]") for b, x in enumerate(part))
                for a, part in enumerate(doc)
            )
        elif not any(isinstance(part, list) for part in doc):
            lo, hi = (_finite_real(x, f"{name}[{a}]") for a, x in enumerate(doc))
            window = ((lo, hi), (lo, hi))
    if window is None:
        raise ConfigError(f"{name} must be [lo, hi] or [[s_lo, s_hi], [t_lo, t_hi]]")
    if any(lo >= hi for lo, hi in window):
        raise ConfigError(f"{name} intervals must have lo < hi, got {doc!r}")
    return window


#: the keys each command reads at the top level, and those of each section (``grid.m`` for
#: density1d only); any other key is a config error, so no setting is silently ignored
CONFIG_KEYS = {
    "solve": ("problem", "grid", "corners", "oracle", "solver", "area", "perturb", "out"),
    "verify": ("problem", "oracles", "surface", "tolerances", "area", "out"),
    "grid": ("ns", "nt", "m"),
    "corners": ("c00", "c10", "c01", "c11"),
    "solver": ("method", "max_iters", "grad_tol"),
    "area": ("epsilon",),
    "perturb": ("amplitude", "seed"),
    "tolerances": ("minimal_surface", "euler_lagrange", "critical_point"),
}
#: the closed form of each oracle type; the fields of its class are its parameters
ORACLES = {"plane": analytic.Plane, "scherk": analytic.Scherk,
           "catenoid": analytic.Catenoid, "helicoid": analytic.Helicoid}


def _section(doc: dict, key: str, known=None) -> dict:
    """The object under ``key`` (empty if absent), holding no key outside ``known`` (its own)."""
    return check_keys(json_typed(doc.get(key, {}), dict, key), known or CONFIG_KEYS[key], key + ".")


def _settings(doc: dict, section: str, parsers: dict) -> dict:
    """The keys of ``doc`` that ``parsers`` names, each parsed; absent keys keep their defaults."""
    return {key: parse(doc[key], f"{section}.{key}") for key, parse in parsers.items()
            if key in doc}


def parse_oracle(doc: dict, name: str = "oracle"):
    """Build an analytic surface plus window/offset from its config form.

    A parameter of the oracle's class without a default is required, and an
    int one (the catenoid's ``sign``) must be a whole number.  ``name`` is
    where ``doc`` sits in the config; error messages name keys by it.
    """
    kind = json_typed(doc, dict, name).get("oracle")
    if not (isinstance(kind, str) and kind in ORACLES):
        raise ConfigError(f"{name}: unknown oracle {kind!r}")
    params = fields(ORACLES[kind])
    check_keys(doc, ("oracle", "window", "z_offset", *(p.name for p in params)), name + ".")
    values = {
        p.name: (whole_number if p.type is int else _finite_real)(
            required(doc, p.name, f"{name}.{p.name}"), f"{name}.{p.name}")
        for p in params if p.name in doc or p.default is MISSING
    }
    try:
        surf = ORACLES[kind](**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    window = _parse_window(required(doc, "window", f"{name}.window"), f"{name}.window")
    return surf, window, _finite_real(doc.get("z_offset", 0.0), f"{name}.z_offset")


@dataclass
class RunConfig:
    problem: str
    area: AreaConfig
    out: Path
    grid: Grid2 | None = None  # solve's settings, up to perturb_seed; None in verify
    m: int | None = None
    corners: tuple | None = None  # c00, c10, c01, c11 as their problem's reader returns them
    oracle: tuple | None = None  # (surface, window, z_offset)
    solver: SolverConfig | None = None
    perturb_amplitude: float | None = None
    perturb_seed: int | None = None
    oracles: list | None = None  # verify's, None in solve; (surface, window, z_offset) each
    tolerances: dict | None = None
    surface_path: str | None = None

    def area_for(self, m: int) -> AreaConfig:
        """``area`` for a surface of ``m`` coordinates; density1d weighs each quantile 1/m."""
        weights = quantile_weights(m) if self.problem == "density1d" else None
        return replace(self.area, weights=weights)


def load_config(path, command: str, out_override=None) -> RunConfig:
    """The config at ``path`` as ``command`` reads it; a key it does not read is an error."""
    try:
        # bytes, so json decodes them as UTF-8 in any locale
        doc = json.loads(Path(path).read_bytes())
    # ValueError: not JSON, or not Unicode; RecursionError: nested too deep for json
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    doc = check_keys(json_typed(doc, dict, f"config {path}"), CONFIG_KEYS[command])
    problem = doc.get("problem")
    problems = PROBLEMS if command == "verify" else PROBLEMS[:-1]  # analytic-verify: no solve
    if problem not in problems:
        raise ConfigError(f"problem must be one of {problems}, got {problem!r}")
    settings = (_solve_settings if command == "solve" else _verify_settings)(doc, problem)
    area_settings = _settings(_section(doc, "area"), "area", {"epsilon": real_number})
    try:
        area = AreaConfig(**area_settings)
    except ValueError as exc:
        raise ConfigError(f"area.{exc}") from exc
    out = doc.get("out", ".")
    if not isinstance(out, str):
        raise ConfigError(f"out must be a path string, got {out!r}")
    return RunConfig(problem, area, Path(out_override if out_override is not None else out),
                     **settings)


def _solve_settings(doc: dict, problem: str) -> dict:
    """The settings only ``solve`` reads, each parsed and checked."""
    # only a density1d has quantile levels to count
    gdoc = _section(doc, "grid", None if problem == "density1d" else ("ns", "nt"))
    ns, nt, m = (whole_number(gdoc.get(key, default), f"grid.{key}")
                 for key, default in (("ns", 17), ("nt", 17), ("m", 64)))
    if min(ns, nt) < 3:
        raise ConfigError("grids must have ns, nt >= 3 for solving")
    if m < 1:
        raise ConfigError(f"grid.m must be at least 1, got {m}")

    given = [key for key in ("corners", "oracle") if key in doc]
    for key in given:
        if key not in SOURCES[problem]:
            raise ConfigError(f"{problem} takes no '{key}'")
    sources = " or ".join(map(repr, SOURCES[problem]))
    if len(given) != 1:
        raise ConfigError(f"{problem} takes {sources}, not both" if given else
                          f"{problem} needs {sources}")
    corners = None
    if "corners" in doc:
        cdoc = _section(doc, "corners")
        docs = {key: json_typed(required(cdoc, key, f"corners.{key}"), dict, f"corners.{key}")
                for key in CONFIG_KEYS["corners"]}
        corners = (diag_corner_roots(docs) if problem == "gaussian-diag" else
                   tuple(parse_density(corner, f"corners.{key}.") for key, corner in docs.items()))
    oracle = parse_oracle(doc["oracle"]) if "oracle" in doc else None

    sdoc = _section(doc, "solver")
    method = sdoc.get("method", "nonlinear-cg")
    if method != "nonlinear-cg":
        raise ConfigError(f"solver.method must be 'nonlinear-cg', got {method!r}")
    try:
        solver = SolverConfig(**_settings(sdoc, "solver", {
            "max_iters": whole_number,
            # null keeps the grid-scaled default
            "grad_tol": lambda value, name: None if value is None else real_number(value, name),
        }))
    except ValueError as exc:
        raise ConfigError(f"invalid solver config: {exc}") from exc

    pdoc = _section(doc, "perturb")
    amplitude = _finite_real(pdoc.get("amplitude", 0.0), "perturb.amplitude")
    seed = whole_number(pdoc.get("seed", 0), "perturb.seed")
    if seed < 0:
        raise ConfigError(f"perturb.seed must be non-negative, got {seed}")
    return dict(grid=Grid2(ns, nt), m=m, corners=corners, oracle=oracle, solver=solver,
                perturb_amplitude=amplitude, perturb_seed=seed)


def _verify_settings(doc: dict, problem: str) -> dict:
    """The settings only ``verify`` reads, each parsed and checked."""
    if "oracles" in doc and "oracle" not in SOURCES[problem]:
        raise ConfigError(f"{problem} takes no 'oracles'")
    oracles = [parse_oracle(o, f"oracles[{n}]")
               for n, o in enumerate(json_typed(doc.get("oracles", []), list, "oracles"))]
    tolerances = {}
    for key, value in _section(doc, "tolerances").items():
        tol = tolerances[key] = real_number(value, f"tolerances.{key}")
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ConfigError(f"tolerances.{key} must be nonnegative and finite, got {tol!r}")
    surface = doc.get("surface")
    if not (surface is None or isinstance(surface, str)):
        raise ConfigError(f"surface must be a path string, got {surface!r}")
    if not (oracles or surface is not None):
        raise ConfigError("verify needs an oracle list or a surface file")
    # a tolerance is taken only where its check runs
    for key, runs, need in (("minimal_surface", oracles, "an oracle list"),
                            ("euler_lagrange", surface is not None, "a surface file"),
                            ("critical_point", surface is not None and problem == "gaussian-diag",
                             "a surface file of problem 'gaussian-diag'")):
        if key in tolerances and not runs:
            raise ConfigError(f"tolerances.{key} is checked only with {need}")
    return dict(oracles=oracles, tolerances=tolerances, surface_path=surface)


# ---------------------------------------------------------------------------
# problem assembly
# ---------------------------------------------------------------------------


def _assemble(cfg: RunConfig):
    """(edges, free coords, oracle field) from the config's source in ``SOURCES``.

    The edges are a field for ``coons_init``: the oracle's sampled graph, which is
    also the oracle field, or the geodesic edges between the corners.
    """
    if cfg.oracle is not None:
        surf, window, z_offset = cfg.oracle
        try:
            if cfg.problem == "graph":
                full = analytic.graph_field(surf, cfg.grid, window, z_offset)
            else:  # the same field as sqrt-covariance coordinates, checked positive
                full, _ = analytic.to_cov_boundary(surf, cfg.grid, window, z_offset)
        except FloatingPointError as exc:  # heights beyond the float range
            raise ConfigError(f"oracle: {exc}") from exc
        return full, (2,), full
    if cfg.problem == "density1d":
        return boundary_from_corners(*cfg.corners, cfg.grid, QuantileGrid(cfg.m)), None, None
    return edges_from_corner_vectors(*cfg.corners, cfg.grid), None, None


def _make_dir(path: Path) -> None:
    """Create the output directory ``path`` and its parents; an error names it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:  # a name the file-system encoding cannot hold, or a NUL
        raise ConfigError(f"cannot create directory {path}: {exc}") from exc


def _dump_json(obj, path: Path) -> None:
    """Write ``obj`` as strict JSON: a NaN or infinite value raises instead of being written."""
    path.write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: RunConfig) -> int:
    edges, free, oracle_field = _assemble(cfg)
    init = coons_init(edges)
    if cfg.perturb_amplitude != 0.0:
        init = perturb_interior(init, cfg.perturb_amplitude, cfg.perturb_seed, free)
    # an unusable --out fails here, before the solve; a config error earlier
    # leaves no directory behind
    _make_dir(cfg.out)
    report = minimize(init, cfg.solver, cfg.area_for(cfg.m), free_coords=free)

    save_csv(report.field, cfg.out / "surface.csv")
    save_json(report.field, cfg.out / "surface.json")
    _dump_json(report.to_json_dict(), cfg.out / "report.json")

    if oracle_field is not None:
        gap = np.abs(report.field.values - oracle_field.values)
        # solve grids have ns, nt >= 3, so the interior is never empty
        _dump_json({"max_abs_interior": float(np.max(gap[1:-1, 1:-1])),
                    "max_abs": float(np.max(gap)), "ns": cfg.grid.ns, "nt": cfg.grid.nt},
                   cfg.out / "oracle_gap.json")
    if cfg.problem == "density1d":
        mono = monotonicity_report(report.field)
        _dump_json({"violations": mono.violations, "worst_gap": mono.worst_gap},
                   cfg.out / "monotonicity.json")

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
    results = {}
    passed = True

    if cfg.oracles:
        tol = cfg.tolerances.get("minimal_surface", 1e-10)
        entries = []
        for n, (surf, window, _) in enumerate(cfg.oracles):
            uu, vv = np.meshgrid(*(np.linspace(lo, hi, ORACLE_SAMPLES) for lo, hi in window),
                                 indexing="ij")
            with np.errstate(all="ignore"):  # a residual beyond the float range is named below
                max_abs = float(np.max(np.abs(analytic.minimal_surface_residual(surf, uu, vv))))
            _finite_real(max_abs, f"oracles[{n}]: minimal-surface residual")
            ok = max_abs <= tol
            passed &= ok
            entries.append(
                {
                    "variant": type(surf).__name__.lower(),
                    "max_abs": max_abs,
                    "samples": ORACLE_SAMPLES,
                    "tol": tol,
                    "pass": ok,
                }
            )
        results["minimal_surface"] = entries

    _make_dir(cfg.out)  # after the oracles, so one beyond the float range leaves no directory
    if cfg.surface_path is not None:
        field = _load_surface(cfg.surface_path)
        rep = euler_lagrange_residual(field, cfg.area_for(field.dim))
        results["euler_lagrange"] = {"max_norm": rep.max_norm, "excluded_nodes": rep.excluded_nodes}
        if cfg.problem == "gaussian-diag":
            mw = critical_point_residual(DiagonalCovSurface(field))
            results["critical_point"] = {"max_norm": mw.max_norm, "border": mw.border}
        # a residual is judged only against a tolerance the config sets
        for key in ("euler_lagrange", "critical_point"):
            if key in cfg.tolerances:  # then its check ran (checked when loaded)
                entry = results[key]
                entry["tol"] = cfg.tolerances[key]
                entry["pass"] = entry["max_norm"] <= entry["tol"]
                passed &= entry["pass"]

    _dump_json(results, cfg.out / "residuals.json")
    print(f"verify: {'pass' if passed else 'FAIL'} ({cfg.out / 'residuals.json'})")
    return EXIT_OK if passed else EXIT_TOLERANCE


def _load_surface(path) -> SurfaceField:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"surface file {p} does not exist")
    if p.suffix.lower() == ".csv":
        return load_csv(p)
    return load_json(p)


def _parse_nodes(spec: str, ns: int, nt: int) -> list:
    """The ``--density-nodes`` list as (i, j) pairs; negative indices count from the end."""
    nodes = []
    for part in spec.split(";"):
        try:
            i, j = (int(x) for x in part.split(","))
        except ValueError:
            raise ConfigError(
                f"--density-nodes: {part!r} is not an i,j pair of integers"
            ) from None
        if not (-ns <= i < ns and -nt <= j < nt):
            raise ConfigError(f"--density-nodes: node ({i},{j}) out of range for {ns}x{nt} grid")
        nodes.append((i % ns, j % nt))
    return nodes


def _density(dz: float):
    """1/dz, or None where that is no finite density (dz <= 0, or 1/dz overflows)."""
    pdf = 1.0 / dz if dz > 0.0 else math.inf
    return pdf if pdf < math.inf else None


def cmd_export_plot(surface_path, out_dir, density_nodes=None) -> int:
    field = _load_surface(surface_path)
    ns, nt, m = field.grid.ns, field.grid.nt, field.dim
    if density_nodes is not None:
        if m < 3:
            raise ConfigError("density reconstruction needs m >= 3 quantile levels")
        nodes = _parse_nodes(density_nodes, ns, nt)
    out = Path(out_dir)
    _make_dir(out)
    template = (",".join(["%.17g"] * nt) + "\n") * ns
    for k in range(m):
        (out / f"coord_{k + 1}.csv").write_text(_fill_g17(template, field.values[:, :, k]))

    if density_nodes is not None:
        # reconstruct densities from the quantile surface: at level z_k the
        # density at x = Z(z_k) is 1 / dZ/dz, with dZ/dz by central
        # differences over the midpoint grid spacing 1/m.
        zs = QuantileGrid(m).nodes
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
                    "pdf": [_density(dz) for dz in dZ.tolist()],
                }
            )
        _dump_json(snaps, out / "densities.json")
    print(f"export-plot: wrote {m} coordinate grids to {out}")
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

    for command, text in (("solve", "solve the problem described by a JSON config"),
                          ("verify", "check residual tolerances for oracles or surfaces")):
        p_config = sub.add_parser(command, help=text)
        p_config.add_argument("config")
        p_config.add_argument("--out", default=None, help="override the config output directory")

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
        cfg = load_config(args.config, args.command, args.out)
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_verify(cfg)
    except (DegenerateSurfaceError, PositivityError, DomainValidityError) as exc:
        print(f"degenerate problem: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (SolverNaNError, QuantileConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        # OSError: an input or output path of the command that cannot be used
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid or a quantile count too large to hold
        print(f"config error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    """Process entry of the ``wassersurf`` script and ``python -m wassersurf.cli``.

    With the package loaded about 22k objects are tracked by the cyclic
    garbage collector, and each full collection costs 5-7 ms; interpreter
    shutdown runs several.  ``gc.freeze`` moves them all to the permanent
    generation first, which saves 10-30 ms of wall and CPU time per process.
    ``main`` itself leaves the collector alone, since it also runs inside
    longer-lived processes.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
