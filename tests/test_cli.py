import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import wassersurf as ws
from wassersurf.cli import (
    CONFIG_KEYS,
    ORACLES,
    PROBLEMS,
    load_config,
    main,
)
from wassersurf.densities import COMPONENT_KEYS, DENSITY_TYPES
from wassersurf.gaussian import GAUSSIAN_DIAG_KEYS


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def scherk_graph_config(tmp_path, out="run"):
    return write_config(tmp_path, {
        "problem": "graph",
        "grid": {"ns": 17, "nt": 17},
        "oracle": {"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]},
        "solver": {"grad_tol": 1e-9, "max_iters": 5000},
        "area": {"epsilon": 0.0},
        "out": str(tmp_path / out),
    }, name=f"config_{out}.json")


def test_solve_scherk_graph_oracle(tmp_path):
    cfg = scherk_graph_config(tmp_path)
    assert main(["solve", cfg]) == 0
    out = tmp_path / "run"
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["stall"] is None
    assert (out / "surface.csv").exists() and not (out / "boundary.csv").exists()
    gap = json.loads((out / "oracle_gap.json").read_text())
    assert gap["max_abs_interior"] <= 1e-6
    trace = report["area_trace"]
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_solve_gaussian_diag_plane_corners(tmp_path):
    # sqrt-covariance corners forming a parallelogram: the bilinear fill is
    # affine per coordinate, hence already stationary
    cfg = write_config(tmp_path, {
        "problem": "gaussian-diag",
        "grid": {"ns": 9, "nt": 9},
        "corners": {
            "c00": {"type": "gaussian_diag", "diag": [1.0, 1.0, 1.0]},
            "c10": {"type": "gaussian_diag", "diag": [4.0, 1.0, 4.0]},
            "c01": {"type": "gaussian_diag", "diag": [1.0, 4.0, 4.0]},
            "c11": {"type": "gaussian_diag", "diag": [4.0, 4.0, 9.0]},
        },
        "out": str(tmp_path / "gd"),
    })
    assert main(["solve", cfg]) == 0
    report = json.loads((tmp_path / "gd" / "report.json").read_text())
    assert report["converged"] is True
    assert report["iters"] <= 2


def test_solve_degenerate_density_rectangle(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "density1d",
        "grid": {"ns": 9, "nt": 9, "m": 32},
        "corners": {
            "c00": {"type": "gaussian", "mean": 0, "std": 1},
            "c10": {"type": "gaussian", "mean": 0, "std": 2},
            "c01": {"type": "gaussian", "mean": 0, "std": 1.5},
            "c11": {"type": "gaussian", "mean": 0, "std": 3},
        },
        "out": str(tmp_path / "degen"),
    })
    assert main(["solve", cfg]) == 0
    report = json.loads((tmp_path / "degen" / "report.json").read_text())
    assert report["converged"] is True
    assert report["area_trace"][-1] <= 1.01 * 1e-6
    assert report["degenerate_cells"] == 64
    mono = json.loads((tmp_path / "degen" / "monotonicity.json").read_text())
    assert mono["violations"] == 0


def test_solve_identical_corners(tmp_path):
    corner = {"type": "gaussian", "mean": 0, "std": 1}
    cfg = write_config(tmp_path, {
        "problem": "density1d",
        "grid": {"ns": 5, "nt": 5, "m": 16},
        "corners": {"c00": corner, "c10": corner, "c01": corner, "c11": corner},
        "out": str(tmp_path / "same"),
    })
    assert main(["solve", cfg]) == 0
    report = json.loads((tmp_path / "same" / "report.json").read_text())
    assert report["degenerate_cells"] == 16
    assert report["area_trace"][-1] <= 1.01e-6


def test_solve_with_perturbation_seed_reconverges(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "graph",
        "grid": {"ns": 17, "nt": 17},
        "oracle": {"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]},
        "solver": {"grad_tol": 1e-9, "max_iters": 5000},
        "area": {"epsilon": 0.0},
        "perturb": {"amplitude": 0.02, "seed": 7},
        "out": str(tmp_path / "shaken"),
    })
    assert main(["solve", cfg]) == 0
    gap = json.loads((tmp_path / "shaken" / "oracle_gap.json").read_text())
    assert gap["max_abs_interior"] <= 1e-6


def test_solve_curved_density_rectangle_monotone(tmp_path):
    # mixture corner makes the quantile surface genuinely curved; a loose
    # gradient tolerance is reachable before tangential drift dominates
    cfg = write_config(tmp_path, {
        "problem": "density1d",
        "grid": {"ns": 9, "nt": 9, "m": 24},
        "corners": {
            "c00": {"type": "mixture", "components": [
                {"weight": 0.5, "mean": -1.5, "std": 0.6},
                {"weight": 0.5, "mean": 1.5, "std": 0.6},
            ]},
            "c10": {"type": "gaussian", "mean": 1, "std": 1.3},
            "c01": {"type": "gaussian", "mean": -0.5, "std": 2},
            "c11": {"type": "gaussian", "mean": 1.5, "std": 2.5},
        },
        "solver": {"grad_tol": 2e-4, "max_iters": 2000},
        "out": str(tmp_path / "curved"),
    })
    assert main(["solve", cfg]) == 0
    report = json.loads((tmp_path / "curved" / "report.json").read_text())
    assert report["converged"] is True and report["iters"] > 0
    mono = json.loads((tmp_path / "curved" / "monotonicity.json").read_text())
    assert mono["violations"] == 0


def test_config_error_exit_codes(tmp_path):
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["solve", str(bad_json)]) == 2

    missing = write_config(tmp_path, {"problem": "density1d", "grid": {"ns": 5, "nt": 5, "m": 8}})
    assert main(["solve", missing]) == 2

    unknown = write_config(tmp_path, {"problem": "spectral"}, name="u.json")
    assert main(["solve", unknown]) == 2

    tiny = write_config(tmp_path, {
        "problem": "graph", "grid": {"ns": 2, "nt": 5},
        "oracle": {"oracle": "plane", "a1": 1, "a2": 1, "a3": 0, "window": [0, 1]},
    }, name="tiny.json")
    assert main(["solve", tiny]) == 2


def test_malformed_config_values_exit_2(tmp_path, capsys):
    scherk = {"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]}
    docs = {
        "null_grid_size": {"problem": "graph", "grid": {"ns": None}, "oracle": scherk},
        "null_oracle_param": {"problem": "graph", "oracle": dict(scherk, c=None)},
        "top_level_list": [{"problem": "graph", "oracle": scherk}],
        "grid_not_object": {"problem": "graph", "grid": [9, 9], "oracle": scherk},
        "oracle_not_object": {"problem": "graph", "oracle": 3},
        "corner_not_object": {
            "problem": "density1d",
            "corners": {"c00": 1, "c10": 2, "c01": 3, "c11": 4},
        },
        "null_mixture_components": {
            "problem": "density1d",
            "corners": {k: {"type": "mixture", "components": None}
                        for k in ("c00", "c10", "c01", "c11")},
        },
        "nan_grad_tol": {"problem": "graph", "oracle": scherk, "solver": {"grad_tol": math.nan}},
        "inf_grad_tol": {"problem": "graph", "oracle": scherk, "solver": {"grad_tol": math.inf}},
        "inf_step0": {"problem": "graph", "oracle": scherk, "solver": {"step0": math.inf}},
        "fractional_max_iters": {"problem": "graph", "oracle": scherk, "solver": {"max_iters": 2.5}},
        "fractional_max_backtracks": {
            "problem": "graph", "oracle": scherk, "solver": {"max_backtracks": 0.5},
        },
        "negative_max_backtracks": {
            "problem": "graph", "oracle": scherk, "solver": {"max_backtracks": -1},
        },
        "fractional_seed": {
            "problem": "graph", "oracle": scherk, "perturb": {"amplitude": 1e-2, "seed": 1.5},
        },
    }
    for name, doc in docs.items():
        cfg = write_config(tmp_path, doc, name=f"{name}.json")
        assert main(["solve", cfg]) == 2, name
        assert "config error" in capsys.readouterr().err, name


def test_solver_method_other_than_nonlinear_cg_exits_2(tmp_path, capsys):
    for method in ("gradient-descent", "cg"):
        doc = json.loads(Path(scherk_graph_config(tmp_path)).read_text())
        doc["solver"]["method"] = method
        cfg = write_config(tmp_path, doc, name=f"method_{method}.json")
        assert main(["solve", cfg]) == 2, method
        err = capsys.readouterr().err
        assert err.startswith("config error: solver.method must be 'nonlinear-cg'"), method
        assert err.count("\n") == 1, method


def test_unknown_config_keys_exit_2(tmp_path, capsys):
    scherk = {"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]}
    edits = {
        "solver.grad_tl": ("graph", "solver", "grad_tl", 1e-3),
        "area.compensated": ("graph", "area", "compensated", True),
        "grid.nss": ("graph", "grid", "nss", 9),
        "perturb.sead": ("graph", "perturb", "sead", 3),
        "tolerances.euler_lagrang": ("analytic-verify", "tolerances", "euler_lagrang", 1.0),
        "outdir": ("graph", None, "outdir", "x"),
        "formats": ("graph", None, "formats", ["csv"]),
        # each oracle type takes its own parameters besides oracle, window, z_offset
        "oracle.ofset": ("graph", "oracle", "ofset", 0.5),
        "oracle.a4": ("graph", None, "oracle",
                      {"oracle": "plane", "a1": 1, "a2": 1, "a3": 0, "a4": 7, "window": [0, 1]}),
        "oracles[1].sgn": ("analytic-verify", None, "oracles", [scherk, {
            "oracle": "catenoid", "c1": 0.0, "r1": 1.0, "sgn": -1, "window": [0.8, 2.1]}]),
        "oracle.c3": ("graph", None, "oracle",
                      {"oracle": "helicoid", "c1": 1, "c2": 2, "c3": 0, "window": [0.5, 1.0]}),
        # and so does each corner type
        "corners.c12": ("density1d", "corners", "c12", {}),
        "corners.c00.men": ("density1d", "corners", "c00.men", 0.0),
        "corners.c10.components[1].wieght": ("density1d", "corners", "c10.components.1.wieght",
                                             0.5),
        "corners.c01.y": ("density1d", "corners", "c01.y", [0.0, 1.0, 0.0]),
        "corners.c11.variance": ("gaussian-diag", "corners", "c11.variance", [1.0, 1.0, 1.0]),
        # and each command takes only its own keys: here one that only the other reads
        "tolerances": ("graph", None, "tolerances", {"euler_lagrange": 1e-30}),
        "surface": ("graph", None, "surface", "nothing.json"),
        "oracles": ("graph", None, "oracles", [scherk]),
        "grid": ("analytic-verify", None, "grid", {"ns": 2, "nt": 2}),
        "corners": ("analytic-verify", None, "corners", CORNER_CONFIGS["gaussian-diag"]["corners"]),
        "oracle": ("analytic-verify", None, "oracle", scherk),
        "solver": ("analytic-verify", None, "solver", {"method": "nonlinear-cg"}),
        "perturb": ("analytic-verify", None, "perturb", {"amplitude": 1e-2, "seed": 1}),
    }
    for name, (problem, section, key, value) in edits.items():
        doc = _edited_config(tmp_path, problem, section, key, value)
        cfg = write_config(tmp_path, doc, name=f"unknown_{name}.json")
        assert main([_command(problem), cfg]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown key '{name}'"), name
        assert err.count("\n") == 1, name
        assert not (tmp_path / "run").exists(), name


def readme_configs():
    """README's JSON blocks, each with the command it documents.

    Each source has one spelling: a block that gives ``oracles`` or a
    ``surface`` is a verify config, any other a solve config.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.M | re.S)
    return [("verify" if {"oracles", "surface"} & json.loads(b).keys() else "solve", b)
            for b in blocks]


def test_readme_json_configs_load(tmp_path):
    configs = readme_configs()
    assert {command for command, _ in configs} == {"solve", "verify"}
    for n, (command, block) in enumerate(configs):
        path = tmp_path / f"readme_{n}.json"
        path.write_text(block)
        load_config(path, command)


def test_readme_documents_every_config_key():
    # each key appears in backticks, dotted in backticks as in `area.epsilon`,
    # or quoted as a JSON key as in "seed"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    oracle_keys = [[p.name for p in fields(cls)] for cls in ORACLES.values()]
    density_keys = [schema for _, schema in DENSITY_TYPES.values()]
    keys = {key for known in (*CONFIG_KEYS.values(), *oracle_keys, *density_keys,
                              COMPONENT_KEYS, GAUSSIAN_DIAG_KEYS) for key in known}
    keys |= {"oracle", "window", "z_offset", "type"}
    undocumented = sorted(key for key in keys
                          if not re.search(rf'`(?:[\w\[\]]+\.)*{key}`|"{key}":', readme))
    # and each problem's value in backticks, as in `density1d`
    undocumented += [problem for problem in PROBLEMS if f"`{problem}`" not in readme]
    assert undocumented == []


@pytest.mark.parametrize("key", ["ns", "nt", "m"])
def test_fractional_grid_size_exits_2(tmp_path, capsys, key):
    # a density1d, the one problem whose grid takes m
    doc = _edited_config(tmp_path, "density1d", "grid", key, 17.9)
    assert main(["solve", write_config(tmp_path, doc, name=f"frac_{key}.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: grid.{key} must be a whole number, got 17.9\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("area", "epsilon", math.nan, "must be nonnegative and finite, got nan"),
    ("area", "epsilon", math.inf, "must be nonnegative and finite, got inf"),
    ("perturb", "amplitude", math.inf, "must be finite, got inf"),
    ("perturb", "amplitude", math.nan, "must be finite, got nan"),
], ids=["nan_epsilon", "inf_epsilon", "inf_amplitude", "nan_amplitude"])
def test_non_finite_area_and_perturb_values_exit_2_naming_the_key(
    tmp_path, capsys, section, key, value, message
):
    doc = json.loads(Path(scherk_graph_config(tmp_path)).read_text())
    doc.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, doc, name=f"{section}_{key}.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {section}.{key} {message}\n"
    assert not (tmp_path / "run").exists()


CORNER_CONFIGS = {
    "density1d": {
        "problem": "density1d",
        "grid": {"ns": 5, "nt": 5, "m": 8},
        "corners": {
            "c00": {"type": "gaussian", "mean": 0.0, "std": 1.0},
            "c10": {"type": "mixture", "components": [
                {"weight": 0.5, "mean": -1.0, "std": 0.5},
                {"weight": 0.5, "mean": 1.0, "std": 0.5},
            ]},
            "c01": {"type": "tabulated", "x": [0.0, 1.0, 2.0], "pdf": [0.0, 1.0, 0.0]},
            "c11": {"type": "gaussian", "mean": 1.0, "std": 2.0},
        },
    },
    "gaussian-diag": {
        "problem": "gaussian-diag",
        "grid": {"ns": 5, "nt": 5},
        "corners": {key: {"type": "gaussian_diag", "diag": [1.0, 2.0, 0.5]}
                    for key in ("c00", "c10", "c01", "c11")},
    },
}


SOLVER_KEYS = "method, max_iters, grad_tol"
SOLVE_KEYS = ", ".join(CONFIG_KEYS["solve"])
VERIFY_KEYS = ", ".join(CONFIG_KEYS["verify"])
# oracles whose heights leave the float range on their windows
OVERFLOWING_ORACLES = {
    "Plane": {"oracle": "plane", "a1": 1e308, "a2": 1e308, "a3": 0.0, "window": [0.0, 10.0]},
    "Catenoid": {"oracle": "catenoid", "c1": 0.0, "r1": 1e-300, "window": [1e300, 1e301]},
    "Helicoid": {"oracle": "helicoid", "c1": 1e308, "c2": 1e308, "window": [1.0, 2.0]},
}


@pytest.mark.parametrize("problem, section, key, value, message", [
    ("graph", "area", "epsilon", "abc", "area.epsilon must be a real number, got 'abc'"),
    ("graph", "solver", "grad_tol", True,
     "invalid solver config: solver.grad_tol must be a real number, got True"),
    # line-search constants, not settings: rejected by name whatever their value
    ("graph", "solver", "armijo_c1", "1e-4",
     "unknown key 'solver.armijo_c1'; solver takes " + SOLVER_KEYS),
    ("graph", "solver", "backtrack", False,
     "unknown key 'solver.backtrack'; solver takes " + SOLVER_KEYS),
    ("graph", "solver", "step0", "1",
     "unknown key 'solver.step0'; solver takes " + SOLVER_KEYS),
    ("graph", "perturb", "amplitude", "1e-3",
     "perturb.amplitude must be a real number, got '1e-3'"),
    ("graph", "oracle", "c", "1.0", "oracle.c must be a real number, got '1.0'"),
    ("graph", "oracle", "k1", True, "oracle.k1 must be a real number, got True"),
    ("graph", "oracle", "z_offset", "2", "oracle.z_offset must be a real number, got '2'"),
    ("graph", "oracle", "window", ["0.1", 0.4],
     "oracle.window[0] must be a real number, got '0.1'"),
    ("graph", "oracle", "window", [[0.1, 0.4], [0.1, True]],
     "oracle.window[1][1] must be a real number, got True"),
    ("graph", "oracle", "window", [0.1, 0.2, 0.4],
     "oracle.window must be [lo, hi] or [[s_lo, s_hi], [t_lo, t_hi]]"),
    # json reads the NaN and Infinity literals; an oracle takes finite numbers only
    ("graph", "oracle", "c", math.inf, "oracle.c must be finite, got inf"),
    ("graph", "oracle", "z_offset", math.nan, "oracle.z_offset must be finite, got nan"),
    ("graph", "oracle", "window", [0.1, -math.inf], "oracle.window[1] must be finite, got -inf"),
    ("graph", "oracle", "window", [[0.1, 0.4], [0.4, 0.1]],
     "oracle.window intervals must have lo < hi, got [[0.1, 0.4], [0.4, 0.1]]"),
    ("density1d", "corners", "c00.std", "2", "corners.c00.std must be a real number, got '2'"),
    ("density1d", "corners", "c11.mean", True,
     "corners.c11.mean must be a real number, got True"),
    ("density1d", "corners", "c10.components",
     [{"weight": 0.5, "mean": -1.0, "std": 0.5}, {"weight": "0.5", "mean": 1.0, "std": 0.5}],
     "corners.c10.components[1].weight must be a real number, got '0.5'"),
    ("density1d", "corners", "c01.x", [0, 1, "2"],
     "corners.c01.x[2] must be a real number, got '2'"),
    ("density1d", "corners", "c01.pdf", [0.0, False, 0.0],
     "corners.c01.pdf[1] must be a real number, got False"),
    ("gaussian-diag", "corners", "c00.diag", [1.0, True, "0.5"],
     "corners.c00.diag[1] must be a real number, got True"),
    ("gaussian-diag", "corners", "c00.diag", [1.0, math.nan, 0.5],
     "corner c00 diag must be positive reals"),
    # a required key that is missing is named the same way
    ("graph", None, "oracle",
     {"oracle": "plane", "a1": 1.0, "a2": 0.0, "window": [0.0, 1.0]}, "oracle.a3 is required"),
    ("analytic-verify", None, "oracles",
     [{"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]},
      {"oracle": "catenoid", "r1": 1.0, "window": [0.8, 2.1]}], "oracles[1].c1 is required"),
    ("density1d", "corners", "c00", {"type": "gaussian", "mean": 0.0},
     "corners.c00.std is required"),
    ("density1d", "corners", "c01",
     {"type": "mixture", "components": [{"weight": 1.0, "mean": 0.0}]},
     "corners.c01.components[0].std is required"),
    ("density1d", "corners", "c01", {"type": "tabulated", "x": [0.0, 1.0]},
     "corners.c01.pdf is required"),
    ("gaussian-diag", "corners", "c00", {"type": "gaussian_diag"},
     "corners.c00.diag is required"),
    # paths must be strings
    ("graph", None, "out", 5, "out must be a path string, got 5"),
    ("density1d", "grid", "m", 0, "grid.m must be at least 1, got 0"),
    ("density1d", "grid", "m", -3, "grid.m must be at least 1, got -3"),
    # a corner or oracle value of the wrong JSON type is named the same way
    ("density1d", "corners", "c10.components", 5, "corners.c10.components must be a JSON array"),
    ("density1d", "corners", "c10.components", [5],
     "corners.c10.components[0] must be a JSON object"),
    ("density1d", "corners", "c01.x", 5, "corners.c01.x must be a JSON array"),
    ("gaussian-diag", "corners", "c00.diag", 5, "corners.c00.diag must be a JSON array"),
    ("analytic-verify", None, "oracles", 5, "oracles must be a JSON array"),
    ("analytic-verify", None, "oracles", {"a": 1}, "oracles must be a JSON array"),
    ("analytic-verify", None, "oracles", [5], "oracles[0] must be a JSON object"),
    ("graph", None, "oracle", 5, "oracle must be a JSON object"),
    ("analytic-verify", None, "oracles", [{"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]},
                                          {"oracle": "catenoid", "c1": 0.0, "r1": 1.0}],
     "oracles[1].window is required"),
    # a problem without corners rejects a corners section, read or not
    ("graph", None, "corners", {key: {"type": "gaussian_diag", "diag": 5}
                                for key in ("c00", "c10", "c01", "c11")},
     "graph takes no 'corners'"),
    # gaussian-diag takes its boundary from one of the two, never both
    ("gaussian-diag", None, "oracle", {"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]},
     "gaussian-diag takes 'corners' or 'oracle', not both"),
    # an oracle list is verify's spelling, which no solve reads
    ("gaussian-diag", None, "oracles", [{"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]}],
     "unknown key 'oracles'; the top level takes " + SOLVE_KEYS),
    # density1d takes its boundary from corners only
    ("density1d", None, "oracle", {"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]},
     "density1d takes no 'oracle'"),
    ("density1d", None, "oracles", [{"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]}],
     "unknown key 'oracles'; the top level takes " + SOLVE_KEYS),
    # json reads an integer literal exactly, however far beyond the float range
    ("graph", "oracle", "c", 10 ** 400,
     "oracle.c must be finite, got an integer too large for a float"),
    ("graph", "area", "epsilon", 10 ** 400,
     "area.epsilon must be finite, got an integer too large for a float"),
    # the oracle's own check of a value that reads as a number
    ("graph", "oracle", "c", 0.0, "oracle: Scherk parameter c must be nonzero (c=0 is a plane)"),
    # m counts quantile levels, which only a density1d has
    ("graph", "grid", "m", 64, "unknown key 'grid.m'; grid takes ns, nt"),
    ("gaussian-diag", "grid", "m", 64, "unknown key 'grid.m'; grid takes ns, nt"),
    # heights beyond the float range on the solve grid, with no numpy warning
    *(("graph", None, "oracle", oracle, f"oracle: {name} heights must be finite on the window")
      for name, oracle in OVERFLOWING_ORACLES.items()),
], ids=["string_epsilon", "bool_grad_tol", "string_armijo_c1", "bool_backtrack",
        "string_step0", "string_amplitude", "string_oracle_c", "bool_oracle_k1",
        "string_z_offset", "string_window_entry", "bool_window_entry", "long_window",
        "inf_oracle_c", "nan_z_offset", "inf_window_entry", "reversed_window",
        "string_corner_std", "bool_corner_mean", "string_mixture_weight",
        "string_tabulated_x", "bool_tabulated_pdf", "bool_gaussian_diag_entry",
        "nan_gaussian_diag_entry",
        "missing_plane_a3", "missing_catenoid_c1", "missing_gaussian_std", "missing_component_std", "missing_tabulated_pdf",
        "missing_gaussian_diag", "int_out", "zero_grid_m", "negative_grid_m",
        "int_components", "int_component", "int_tabulated_x", "int_gaussian_diag",
        "int_oracles", "object_oracles", "int_oracles_entry", "int_oracle",
        "missing_oracles_window", "graph_corners", "gaussian_diag_corners_and_oracle",
        "gaussian_diag_corners_and_oracles", "density1d_oracle", "density1d_oracles",
        "huge_int_oracle_c", "huge_int_area_epsilon", "zero_oracle_c", "graph_grid_m",
        "gaussian_diag_grid_m",
        *(f"overflowing_{name.lower()}_heights" for name in OVERFLOWING_ORACLES)])
def test_non_numeric_config_values_exit_2_naming_the_key(
    tmp_path, capsys, problem, section, key, value, message
):
    _assert_rejects(tmp_path, capsys, problem, section, key, value, message)


@pytest.mark.parametrize("problem, sources, message", [
    ("graph", {}, "graph needs 'oracle'"),
    ("density1d", {}, "density1d needs 'corners'"),
    ("gaussian-diag", {}, "gaussian-diag needs 'corners' or 'oracle'"),
    # verify's problem alone: it has oracles to check but no surface to solve for
    ("analytic-verify", {},
     "problem must be one of ('graph', 'density1d', 'gaussian-diag'), got 'analytic-verify'"),
], ids=["graph", "density1d", "gaussian_diag", "analytic_verify"])
def test_solve_without_a_source_exits_2_naming_it(tmp_path, capsys, problem, sources, message):
    doc = {"problem": problem, "grid": {"ns": 5, "nt": 5}, **sources, "out": str(tmp_path / "run")}
    assert main(["solve", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


SCHERK_ORACLE = {"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]}
# the base verify config of the cases above whose problem is analytic-verify
VERIFY_CONFIG = {"problem": "analytic-verify", "oracles": [SCHERK_ORACLE]}
CATENOID_ORACLE = {"oracle": "catenoid", "c1": 0.0, "r1": 1.0, "window": [0.8, 2.1]}


@pytest.mark.parametrize("problem, oracles, message", [
    # a problem's table of sources holds for verify too
    ("density1d", [{"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]}],
     "density1d takes no 'oracles'"),
    ("analytic-verify", [{"oracle": "scherk", "c": 1.0, "window": [0.1, math.inf]}],
     "oracles[0].window[1] must be finite, got inf"),
    # an oracle's own checks name the entry too
    ("analytic-verify", [SCHERK_ORACLE, dict(CATENOID_ORACLE, r1=-1.0)],
     "oracles[1]: Catenoid waist r1 must be positive"),
    ("analytic-verify", [dict(SCHERK_ORACLE, c=0.0)],
     "oracles[0]: Scherk parameter c must be nonzero (c=0 is a plane)"),
    ("analytic-verify", [SCHERK_ORACLE, dict(CATENOID_ORACLE, sign=2)],
     "oracles[1]: Catenoid sign must be +1 or -1"),
    ("analytic-verify", [SCHERK_ORACLE, {"oracle": "enneper", "window": [0.1, 0.4]}],
     "oracles[1]: unknown oracle 'enneper'"),
    # heights beyond the float range make a residual that is no number; no numpy warning
    ("analytic-verify", [SCHERK_ORACLE, OVERFLOWING_ORACLES["Plane"]],
     "oracles[1]: minimal-surface residual must be finite, got nan"),
], ids=["density1d_oracles", "inf_window_entry", "negative_catenoid_r1", "zero_scherk_c",
        "catenoid_sign_2", "unknown_oracle", "overflowing_plane"])
def test_verify_config_errors_exit_2_before_out_exists(tmp_path, capsys, problem, oracles, message):
    doc = {"problem": problem, "oracles": oracles, "out": str(tmp_path / "verify")}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "verify").exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("problem", ["graph", "gaussian-diag", "analytic-verify"])
def test_oracle_and_oracles_together_exit_2_before_out_exists(tmp_path, capsys, problem, command):
    # solve reads one oracle and verify an oracle list, each the other's key unknown
    doc = {"problem": problem, "oracle": SCHERK_ORACLE,
           "oracles": [{"oracle": "plane", "a1": 2, "a2": 3, "a3": 1, "window": [0, 1]}],
           "out": str(tmp_path / "run")}
    assert main([command, write_config(tmp_path, doc)]) == 2
    unknown, keys = ("oracles", SOLVE_KEYS) if command == "solve" else ("oracle", VERIFY_KEYS)
    assert capsys.readouterr().err == (
        f"config error: unknown key '{unknown}'; the top level takes {keys}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("problem", ["graph", "gaussian-diag"])
def test_solve_of_several_oracles_exits_2_before_out_exists(tmp_path, capsys, problem):
    # a solve has one surface to fill, so it reads no oracle list; verify checks each entry
    doc = {"problem": problem,
           "oracles": [SCHERK_ORACLE, {"oracle": "plane", "a1": 2, "a2": 3, "a3": 1,
                                       "window": [0, 1], "z_offset": 1.0}],
           "out": str(tmp_path / "run")}
    config = write_config(tmp_path, doc)
    assert main(["solve", config]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown key 'oracles'; the top level takes {SOLVE_KEYS}\n")
    assert not (tmp_path / "run").exists()
    assert main(["verify", config]) == 0
    residuals = json.loads((tmp_path / "run" / "residuals.json").read_text())
    assert [e["variant"] for e in residuals["minimal_surface"]] == ["scherk", "plane"]


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("command", ["export-plot", "solve"])
def test_deeply_nested_json_exits_2_naming_the_file(tmp_path, capsys, command):
    # deeper than json's recursion limit, in a surface's values or a config's oracle
    if command == "export-plot":
        path = tmp_path / "deep.json"
        path.write_text('{"ns": 2, "nt": 2, "dim": 1, "values": ' + _nested(100_000) + "}")
        argv = ["export-plot", str(path), "--out", str(tmp_path / "run")]
    else:
        path = tmp_path / "deep_config.json"
        path.write_text('{"problem": "graph", "oracle": ' + _nested(100_000) + "}")
        argv = ["solve", str(path), "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert str(path) in err and "recursion" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 7.28 TiB for an array"), MemoryError()])
def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, error):
    # raised in place of a real allocation, whose outcome depends on the host
    def exhausted(boundary):
        raise error

    monkeypatch.setattr("wassersurf.cli.coons_init", exhausted)
    assert main(["solve", scherk_graph_config(tmp_path)]) == 2
    detail = f": {error}" if str(error) else ""
    assert capsys.readouterr().err == f"config error: out of memory{detail}\n"
    assert not (tmp_path / "run").exists()


def _edited_config(tmp_path, problem, section, key, value):
    """The base config of ``problem`` with ``value`` set at ``key``, writing to ``run``.

    ``key`` may be a dotted path inside ``section`` (None: the top level); a
    numeric part indexes a list.
    """
    if problem == "graph":
        doc = json.loads(Path(scherk_graph_config(tmp_path)).read_text())
    else:
        doc = json.loads(json.dumps(CORNER_CONFIGS.get(problem, VERIFY_CONFIG)))
        doc["out"] = str(tmp_path / "run")
    target = doc if section is None else doc.setdefault(section, {})
    *path, last = key.split(".")
    for part in path:
        target = target[int(part) if isinstance(target, list) else part]
    target[last] = value
    return doc


def _command(problem):
    """The command an edited config of ``problem`` runs: ``analytic-verify`` is verify's only."""
    return "verify" if problem == "analytic-verify" else "solve"


def _assert_rejects(tmp_path, capsys, problem, section, key, value, message):
    doc = _edited_config(tmp_path, problem, section, key, value)
    cfg = write_config(tmp_path, doc, name=f"{section}_{key}.json")
    assert main([_command(problem), cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("problem, key, value, message", [
    ("density1d", "c00.std", 0.0,
     "corners.c00.mean and std must be finite with std > 0, got N(0.0, 0.0)"),
    ("density1d", "c10.components",
     [{"weight": 0.5, "mean": -1.0, "std": 0.5}, {"weight": 0.5, "mean": 1.0, "std": -0.5}],
     "corners.c10.components[1].mean and std must be finite with std > 0, got N(1.0, -0.5)"),
    ("density1d", "c10.components",
     [{"weight": 0.5, "mean": -1.0, "std": 0.5}, {"weight": 0.25, "mean": 1.0, "std": 0.5}],
     "corners.c10.components: weights sum to 0.75, not 1 within 1e-12"),
    ("density1d", "c10.components",
     [{"weight": 1.5, "mean": -1.0, "std": 0.5}, {"weight": -0.5, "mean": 1.0, "std": 0.5}],
     "corners.c10.components: weights must be positive"),
    # json reads the NaN literal; a NaN weight fails the positivity check
    ("density1d", "c10.components",
     [{"weight": math.nan, "mean": -1.0, "std": 0.5}, {"weight": 1.0, "mean": 1.0, "std": 0.5}],
     "corners.c10.components: weights must be positive"),
    ("density1d", "c01.x", [0.0, 2.0, 1.0], "corners.c01.x must be strictly increasing"),
    ("density1d", "c01.pdf", [0.0, 0.0, 0.0], "corners.c01.pdf has no mass"),
    ("density1d", "c11.type", "laplace",
     "corners.c11.type must be 'gaussian', 'mixture' or 'tabulated', got 'laplace'"),
    ("gaussian-diag", "c00.diag", [], "corners.c00.diag must not be empty"),
    ("gaussian-diag", "c11.diag", [1.0, 2.0],
     "corners.c11.diag has 2 entries, not 3 like corners.c00.diag"),
    # json reads 1e400 and the Infinity literal as inf, which is positive
    ("gaussian-diag", "c10.diag", [1.0, math.inf, 0.5],
     "corners.c10.diag[1] must be finite, got inf"),
    ("gaussian-diag", "c01.type", "gaussian", "corner c01 must have type 'gaussian_diag'"),
], ids=["zero_std", "negative_component_std", "weights_not_summing_to_1",
        "negative_weight", "nan_weight", "non_increasing_x", "no_mass", "unknown_type",
        "empty_gaussian_diag", "unequal_gaussian_diag_lengths", "inf_gaussian_diag_entry",
        "gaussian_diag_corner_of_another_type"])
def test_invalid_corner_values_exit_2_naming_the_key(
    tmp_path, capsys, problem, key, value, message
):
    _assert_rejects(tmp_path, capsys, problem, "corners", key, value, message)


@pytest.mark.parametrize("problem", sorted(CORNER_CONFIGS))
def test_numeric_corner_configs_solve(tmp_path, problem):
    # the base configs of the corner cases above are valid as they stand
    doc = dict(CORNER_CONFIGS[problem], out=str(tmp_path / "run"))
    assert main(["solve", write_config(tmp_path, doc)]) == 0
    assert (tmp_path / "run" / "surface.json").is_file()


@pytest.mark.parametrize("seed", [-1, -3, -3.0])
def test_negative_perturb_seed_exits_2_naming_the_key(tmp_path, capsys, seed):
    doc = json.loads(Path(scherk_graph_config(tmp_path)).read_text())
    doc["perturb"] = {"amplitude": 1e-2, "seed": seed}
    assert main(["solve", write_config(tmp_path, doc, name="seed.json")]) == 2
    assert capsys.readouterr().err == (
        f"config error: perturb.seed must be non-negative, got {int(seed)}\n"
    )
    assert not (tmp_path / "run").exists()


PERTURBED_SOLVES = {
    "graph": {
        "problem": "graph",
        "grid": {"ns": 9, "nt": 9},
        "oracle": {"oracle": "catenoid", "c1": 0.0, "r1": 1.0, "window": [0.8, 2.1]},
        "area": {"epsilon": 0.0},
        "perturb": {"amplitude": 1e-2, "seed": 3},
    },
    "density": {
        "problem": "density1d",
        "grid": {"ns": 9, "nt": 9, "m": 8},
        "corners": {
            "c00": {"type": "mixture", "components": [
                {"weight": 0.5, "mean": -1.5, "std": 0.6},
                {"weight": 0.5, "mean": 1.5, "std": 0.6},
            ]},
            "c10": {"type": "gaussian", "mean": 1, "std": 1.3},
            "c01": {"type": "gaussian", "mean": -0.5, "std": 2},
            "c11": {"type": "gaussian", "mean": 1.5, "std": 2.5},
        },
        "solver": {"grad_tol": 3e-4},
        "perturb": {"amplitude": 1e-3, "seed": 3},
    },
}


@pytest.mark.parametrize("problem", sorted(PERTURBED_SOLVES))
def test_perturbed_solve_does_not_import_numpy_random(tmp_path, problem):
    # a fresh interpreter: test plugins may already have imported numpy.random here
    cfg = write_config(tmp_path, dict(PERTURBED_SOLVES[problem], out=str(tmp_path / "out")))
    script = (
        "import sys\n"
        "from wassersurf import cli\n"
        f"code = cli.main(['solve', {cfg!r}])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
        "print('statistics' in sys.modules)\n"
    )
    src = str(Path(ws.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    *_, random_line, statistics_line = run.stdout.splitlines()
    assert random_line == "0 False"
    if problem == "graph":
        # only a quantile-building solve loads the standard library's inverse normal
        assert statistics_line == "False"
    assert json.loads((tmp_path / "out" / "report.json").read_text())["converged"] is True


def test_module_entry_solves_and_exits_0(tmp_path):
    # ``python -m wassersurf.cli`` goes through ``run``, not a direct ``main`` call
    cfg = scherk_graph_config(tmp_path, out="out")
    src = str(Path(ws.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "wassersurf.cli", "solve", cfg], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out" / "surface.csv").is_file()


def test_config_is_read_as_utf8_in_any_locale(tmp_path):
    # JSON is UTF-8 whatever the locale; under C with UTF-8 mode off, Python's
    # text default is ASCII, and a config must not be decoded with it
    doc = {"problem": "analytic-verify", "out": "o/caf\u00e9",
           "oracles": [{"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]}]}
    (tmp_path / "utf8.json").write_bytes(json.dumps(doc, ensure_ascii=False).encode())
    latin1 = json.dumps(doc, ensure_ascii=False).encode("latin-1")
    (tmp_path / "latin1.json").write_bytes(latin1)
    src = str(Path(ws.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")

    def verify(*args):
        return subprocess.run([sys.executable, "-m", "wassersurf.cli", "verify", *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True)

    # an ASCII file-system encoding cannot name o/café, so --out stands in for it
    run = verify("utf8.json", "--out", "o")
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "o" / "residuals.json").is_file()
    run = verify("latin1.json", "--out", "o2")
    assert run.returncode == 2
    assert run.stderr.splitlines() == [
        "config error: cannot read config latin1.json: 'utf-8' codec can't decode byte 0xe9 "
        f"in position {latin1.index(0xE9)}: invalid continuation byte"
    ]
    assert not (tmp_path / "o2").exists()
    # in UTF-8 mode the config's own out names the directory
    env["PYTHONUTF8"] = "1"
    run = verify("utf8.json")
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "o" / "caf\u00e9" / "residuals.json").is_file()


@pytest.mark.parametrize("command", ["solve", "verify", "export-plot"])
def test_out_dir_the_file_system_encoding_cannot_hold_exits_2_naming_it(tmp_path, command):
    # under C with UTF-8 mode off the file-system encoding is ASCII, so o/café has no name
    out = "o/caf\u00e9"
    if command == "export-plot":
        ws.save_json(ws.graph_field(ws.Plane(2.0, 3.0, 1.0), ws.Grid2(5, 5),
                                    ((0.0, 1.0), (0.0, 1.0))), tmp_path / "plane.json")
        argv = [command, "plane.json", "--out", out]
    else:
        doc = {"solve": {"problem": "graph", "grid": {"ns": 5, "nt": 5}, "oracle": SCHERK_ORACLE},
               "verify": {"problem": "analytic-verify", "oracles": [SCHERK_ORACLE]}}[command]
        doc["out"] = out
        (tmp_path / "config.json").write_bytes(json.dumps(doc, ensure_ascii=False).encode())
        argv = [command, "config.json"]
    # ascii(): the command line of a C-locale process carries no é either
    script = f"import sys\nfrom wassersurf.cli import main\nsys.exit(main({ascii(argv)}))\n"
    src = str(Path(ws.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    run = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, encoding="ascii",
                         errors="backslashreplace")
    assert run.returncode == 2
    assert run.stderr.splitlines() == [
        "config error: cannot create directory o/caf\\xe9: 'ascii' codec can't encode "
        "character '\\xe9' in position 5: ordinal not in range(128)"
    ]
    assert not (tmp_path / "o").exists()


def test_catenoid_sign_is_a_whole_number(tmp_path, capsys):
    catenoid = {"oracle": "catenoid", "c1": 0.0, "r1": 1.0, "window": [0.8, 2.1]}
    assert main(["verify", write_config(tmp_path, {
        "problem": "analytic-verify",
        "oracles": [catenoid, dict(catenoid, sign=-1.0)],
        "out": str(tmp_path / "whole"),
    }, name="whole.json")]) == 0
    assert main(["verify", write_config(tmp_path, {
        "problem": "analytic-verify",
        "oracles": [catenoid, dict(catenoid, sign=1.7)],
        "out": str(tmp_path / "fractional"),
    }, name="fractional.json")]) == 2
    assert capsys.readouterr().err == (
        "config error: oracles[1].sign must be a whole number, got 1.7\n"
    )
    assert not (tmp_path / "fractional").exists()


@pytest.mark.parametrize("value, message", [
    (math.nan, "must be nonnegative and finite, got nan"),
    (math.inf, "must be nonnegative and finite, got inf"),
    (-1, "must be nonnegative and finite, got -1.0"),
    (True, "must be a real number, got True"),
    ("1e-3", "must be a real number, got '1e-3'"),
], ids=["nan", "inf", "negative", "bool", "string"])
def test_bad_tolerances_exit_2_before_the_surface_is_read(
    tmp_path, monkeypatch, capsys, value, message
):
    grid = ws.Grid2(5, 5)
    field = ws.graph_field(ws.Plane(2.0, 3.0, 1.0), grid, ((0.0, 1.0), (0.0, 1.0)))
    ws.save_csv(field, tmp_path / "plane.csv")
    cfg = write_config(tmp_path, {
        "problem": "graph",
        "surface": str(tmp_path / "plane.csv"),
        "tolerances": {"euler_lagrange": value},
        "out": str(tmp_path / "verify"),
    })

    def unread(path):
        raise AssertionError(f"surface {path} read before the tolerances were checked")

    monkeypatch.setattr("wassersurf.cli._load_surface", unread)
    assert main(["verify", cfg]) == 2
    assert capsys.readouterr().err == f"config error: tolerances.euler_lagrange {message}\n"
    assert not (tmp_path / "verify").exists()


# a verify config per tolerance whose check would not run, and what that check needs
UNCHECKED_TOLERANCES = {
    "critical_point-density1d": (
        {"problem": "density1d", "surface": "plane.json"}, "critical_point",
        "a surface file of problem 'gaussian-diag'"),
    "critical_point-no-surface": (
        {"problem": "gaussian-diag", "oracles": [SCHERK_ORACLE]}, "critical_point",
        "a surface file of problem 'gaussian-diag'"),
    "minimal_surface-no-oracles": (
        {"problem": "graph", "surface": "plane.json"}, "minimal_surface", "an oracle list"),
    "euler_lagrange-no-surface": (
        {"problem": "graph", "oracles": [SCHERK_ORACLE]}, "euler_lagrange", "a surface file"),
}


@pytest.mark.parametrize("case", sorted(UNCHECKED_TOLERANCES))
def test_verify_rejects_a_tolerance_it_does_not_check(tmp_path, capsys, case):
    doc, key, need = UNCHECKED_TOLERANCES[case]
    field = ws.graph_field(ws.Plane(2.0, 3.0, 1.0), ws.Grid2(5, 5), ((0.0, 1.0), (0.0, 1.0)))
    ws.save_json(field, tmp_path / "plane.json")
    if "surface" in doc:
        doc = {**doc, "surface": str(tmp_path / doc["surface"])}
    cfg = write_config(tmp_path, {**doc, "tolerances": {key: 1e-30}, "out": str(tmp_path / "v")})
    assert main(["verify", cfg]) == 2
    assert capsys.readouterr().err == f"config error: tolerances.{key} is checked only with {need}\n"
    assert not (tmp_path / "v").exists()

def plane_verify_config(tmp_path, samples):
    # ``samples`` is no setting: verify samples each window on a fixed grid
    return write_config(tmp_path, {
        "problem": "analytic-verify",
        "samples": samples,
        "oracles": [{"oracle": "plane", "a1": 2, "a2": 3, "a3": 1, "window": [0, 1]}],
        "out": str(tmp_path / "verify"),
    }, name=f"samples_{samples}.json")


# the ids name the messages of the time when ``samples`` was a setting
@pytest.mark.parametrize("samples", [
    pytest.param(5.7, id="5.7-samples must be a whole number, got 5.7"),
    pytest.param(0, id="0-samples must be at least 1, got 0"),
    pytest.param(-3, id="-3-samples must be at least 1, got -3"),
])
def test_bad_samples_exit_2(tmp_path, capsys, samples):
    assert main(["verify", plane_verify_config(tmp_path, samples)]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown key 'samples'; the top level takes {VERIFY_KEYS}\n"
    )
    assert not (tmp_path / "verify").exists()


@pytest.mark.parametrize("surface", [5, ["a.csv"]], ids=["int", "list"])
def test_non_string_surface_path_exits_2_naming_the_key(tmp_path, capsys, surface):
    cfg = write_config(tmp_path, {
        "problem": "density1d", "surface": surface, "out": str(tmp_path / "verify"),
    })
    assert main(["verify", cfg]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: surface must be a path string, got {surface!r}\n"
    assert not (tmp_path / "verify").exists()


def test_readme_solve_configs_exit_0(tmp_path):
    # every documented solve example converges at its own (default) settings
    solves = [block for command, block in readme_configs() if command == "solve"]
    assert {json.loads(b)["problem"] for b in solves} == {"graph", "density1d", "gaussian-diag"}
    for n, block in enumerate(solves):
        path = tmp_path / f"readme_{n}.json"
        path.write_text(block)
        out = tmp_path / f"out_{n}"
        assert main(["solve", str(path), "--out", str(out)]) == 0, block
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] and report["iters"] > 0, block


def readme_density_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.M | re.S)
    return next(json.loads(b) for b in blocks if json.loads(b)["problem"] == "density1d")


# corners too far out for the float range, each put in place of c00 in
# README's density config, and the one line each exits 2 with
FAR_CORNERS = {
    "gaussian": ({"type": "gaussian", "mean": 1e308, "std": 1e308},
                 "corners.c00 quantiles must be finite, got -inf at level 0.0078125"),
    "mixture": ({"type": "mixture", "components": [
        {"weight": 0.5, "mean": -1e308, "std": 0.6}, {"weight": 0.5, "mean": 1e308, "std": 0.6}]},
                "corners.c00 quantiles must be finite, got -inf at level 0.0078125"),
    "tabulated_mass": ({"type": "tabulated", "x": [0.0, 1e308], "pdf": [1e308, 1e308]},
                       "corners.c00.pdf trapezoid mass must be finite, got inf"),
    "tabulated_pdf": ({"type": "tabulated", "x": [0.0, 1e-320], "pdf": [1.0, 1.0]},
                      "corners.c00.pdf divided by its trapezoid mass 1e-320 must be finite"),
}


@pytest.mark.parametrize("name", sorted(FAR_CORNERS))
def test_corner_beyond_the_float_range_exits_2_naming_it(tmp_path, capsys, name):
    # a numpy warning would be an error under the suite's filter, so none is raised either
    doc = readme_density_config()
    corner, message = FAR_CORNERS[name]
    doc["corners"]["c00"] = corner
    doc["out"] = str(tmp_path / "run")
    assert main(["solve", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_corner_whose_pdf_samples_sum_past_the_float_range_solves(tmp_path):
    # each sample is 1e308, but the trapezoid mass over a width of 1e-10 is 1e298
    doc = readme_density_config()
    doc["corners"]["c00"] = {"type": "tabulated", "x": [0.0, 1e-10], "pdf": [1e308, 1e308]}
    doc["out"] = str(tmp_path / "run")
    assert main(["solve", write_config(tmp_path, doc)]) == 0
    mono = json.loads((tmp_path / "run" / "monotonicity.json").read_text())
    assert mono["violations"] == 0


def test_threads_flag_removed(tmp_path):
    with pytest.raises(SystemExit):
        main(["--threads", "2", "solve", scherk_graph_config(tmp_path)])


def test_solver_stall_exit_code_with_artifacts(tmp_path, monkeypatch):
    # a first trial step far too long and no backtracking force a stall
    monkeypatch.setattr(ws.solver, "_STEP0", 1e8)
    monkeypatch.setattr(ws.solver, "_MAX_BACKTRACKS", 0)
    cfg = write_config(tmp_path, {
        "problem": "density1d",
        "grid": {"ns": 9, "nt": 9, "m": 16},
        "corners": {
            "c00": {"type": "mixture", "components": [
                {"weight": 0.5, "mean": -1.5, "std": 0.6},
                {"weight": 0.5, "mean": 1.5, "std": 0.6},
            ]},
            "c10": {"type": "gaussian", "mean": 1, "std": 1.3},
            "c01": {"type": "gaussian", "mean": -0.5, "std": 2},
            "c11": {"type": "gaussian", "mean": 1.5, "std": 2.5},
        },
        "solver": {"max_iters": 20, "grad_tol": 1e-14},
        "out": str(tmp_path / "stall"),
    })
    assert main(["solve", cfg]) == 3
    report = json.loads((tmp_path / "stall" / "report.json").read_text())
    assert report["converged"] is False
    assert report["stall"]
    assert (tmp_path / "stall" / "surface.json").exists()


def test_spent_iteration_budget_exits_3_with_its_reason(tmp_path, capsys):
    doc = json.loads(Path(scherk_graph_config(tmp_path)).read_text())
    doc["oracle"] = {"oracle": "catenoid", "c1": 0.0, "r1": 1.0, "window": [0.8, 2.1]}
    doc["solver"]["max_iters"] = 2
    assert main(["solve", write_config(tmp_path, doc, name="budget.json")]) == 3
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["converged"] is False and report["iters"] == 2
    assert report["stall"].startswith("iteration budget spent: max_iters = 2")
    assert "raise max_iters" in report["stall"]
    assert f"stall: {report['stall']}\n" in capsys.readouterr().err


def density_config(tmp_path, out, m=16):
    return write_config(tmp_path, {
        "problem": "density1d",
        "grid": {"ns": 9, "nt": 9, "m": m},
        "corners": {
            "c00": {"type": "mixture", "components": [
                {"weight": 0.5, "mean": -1.5, "std": 0.6},
                {"weight": 0.5, "mean": 1.5, "std": 0.6},
            ]},
            "c10": {"type": "gaussian", "mean": 1, "std": 1.3},
            "c01": {"type": "gaussian", "mean": -0.5, "std": 2},
            "c11": {"type": "gaussian", "mean": 1.5, "std": 2.5},
        },
        "solver": {"grad_tol": 2e-4, "max_iters": 2000},
        "out": str(tmp_path / out),
    }, name=f"{out}.json")


def test_density_report_records_span_rank(tmp_path):
    assert main(["solve", density_config(tmp_path, "span")]) == 0
    report = json.loads((tmp_path / "span" / "report.json").read_text())
    # straight geodesic edges between four corners span an affine 3-space
    assert report["span_rank"] == 3


def test_solver_nan_exit_code(tmp_path, monkeypatch, capsys):
    real = ws.solver.cell_terms
    calls = {"n": 0}

    def flaky(*args):
        calls["n"] += 1
        out = real(*args)
        return out if calls["n"] == 1 else replace(out, cells=np.full_like(out.cells, np.nan))

    monkeypatch.setattr(ws.solver, "cell_terms", flaky)
    assert main(["solve", density_config(tmp_path, "nan")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: non-finite values detected at iteration 1")
    assert err.count("\n") == 1


def test_initial_area_beyond_the_float_range_exits_5(tmp_path, capsys):
    # the Gram terms of the Coons fill overflow; no numpy warning is printed
    diags = {"c00": [1e308, 1.0], "c10": [1e308, 2.0], "c01": [1.0, 3.0], "c11": [1e-308, 4.0]}
    cfg = write_config(tmp_path, {
        "problem": "gaussian-diag",
        "grid": {"ns": 5, "nt": 5},
        "corners": {key: {"type": "gaussian_diag", "diag": diag} for key, diag in diags.items()},
        "out": str(tmp_path / "over"),
    })
    assert main(["solve", cfg]) == 5
    assert capsys.readouterr().err == (
        "numerical failure: non-finite values detected at iteration 0 "
        "(the initial area is not finite)\n")


def test_quantile_nonconvergence_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ws.densities, "MIXTURE_MAX_STEPS", 1)
    assert main(["solve", density_config(tmp_path, "quantile")]) == 5
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: mixture quantile did not converge")
    assert err.count("\n") == 1


def test_degenerate_positivity_exit_code(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "gaussian-diag",
        "grid": {"ns": 9, "nt": 9},
        "oracle": {"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4], "z_offset": 0.0},
        "out": str(tmp_path / "bad"),
    })
    assert main(["solve", cfg]) == 4


def test_solve_that_leaves_the_positive_cone_warns(tmp_path, capsys):
    # a perturbation far larger than the 0.5 offset pushes interior
    # sqrt-covariances below zero, and one step does not bring them back
    cfg = write_config(tmp_path, {
        "problem": "gaussian-diag",
        "grid": {"ns": 9, "nt": 9},
        "oracle": {"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4], "z_offset": 0.5},
        "perturb": {"amplitude": 3.0, "seed": 0},
        "solver": {"max_iters": 1},
        "out": str(tmp_path / "cone"),
    })
    assert main(["solve", cfg]) == 3
    assert "warning: solved surface left the positive cone" in capsys.readouterr().err


def test_verify_all_four_oracles(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "analytic-verify",
        "oracles": [
            {"oracle": "plane", "a1": 2, "a2": 3, "a3": 1, "window": [0, 1]},
            {"oracle": "scherk", "c": 1.0, "window": [0.05, 0.45]},
            {"oracle": "catenoid", "c1": 0, "r1": 1, "window": [0.8, 2.1]},
            {"oracle": "helicoid", "c1": 1, "c2": 2, "window": [0.5, 1.0]},
        ],
        "out": str(tmp_path / "verify"),
    })
    assert main(["verify", cfg]) == 0
    doc = json.loads((tmp_path / "verify" / "residuals.json").read_text())
    entries = doc["minimal_surface"]
    assert len(entries) == 4
    assert all(e["pass"] and e["max_abs"] <= 1e-10 and e["samples"] == 21 for e in entries)


@pytest.mark.parametrize("oracles", [None, []], ids=["no_oracles", "empty_oracles"])
def test_verify_with_nothing_to_check_exits_2(tmp_path, capsys, oracles):
    doc = {"problem": "analytic-verify", "out": str(tmp_path / "verify")}
    if oracles is not None:
        doc["oracles"] = oracles
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "config error: verify needs an oracle list or a surface file\n"
    )
    assert not (tmp_path / "verify").exists()


def test_verify_perturbed_scherk_fails_tolerance(tmp_path):
    grid = ws.Grid2(17, 17)
    field = ws.graph_field(ws.Scherk(1.0), grid, ((0.1, 0.4), (0.1, 0.4)))
    ss, tt = np.meshgrid(grid.s_nodes, grid.t_nodes, indexing="ij")
    vals = field.values.copy()
    vals[:, :, 2] += 0.01 * np.sin(np.pi * ss) * np.sin(np.pi * tt)
    ws.save_json(ws.SurfaceField(grid, vals), tmp_path / "perturbed.json")
    # clean surface residual sets the scale; the bump must exceed it by far
    clean = ws.euler_lagrange_residual(field, ws.AreaConfig(epsilon=1e-12)).max_norm
    cfg = write_config(tmp_path, {
        "problem": "graph",
        "surface": str(tmp_path / "perturbed.json"),
        "tolerances": {"euler_lagrange": 100.0 * clean},
        "out": str(tmp_path / "verify_bad"),
    })
    assert main(["verify", cfg]) == 1
    doc = json.loads((tmp_path / "verify_bad" / "residuals.json").read_text())
    assert doc["euler_lagrange"]["max_norm"] > 100.0 * clean


def test_verify_plane_surface_file_passes(tmp_path):
    grid = ws.Grid2(17, 17)
    field = ws.graph_field(ws.Plane(2.0, 3.0, 1.0), grid, ((0.0, 1.0), (0.0, 1.0)))
    ws.save_json(field, tmp_path / "plane.json")
    cfg = write_config(tmp_path, {
        "problem": "graph",
        "surface": str(tmp_path / "plane.json"),
        "area": {"epsilon": 0.0},
        "tolerances": {"euler_lagrange": 1e-12},
        "out": str(tmp_path / "verify_plane"),
    })
    assert main(["verify", cfg]) == 0


def test_verify_gaussian_diag_surface_reports_critical_point(tmp_path):
    grid = ws.Grid2(17, 17)
    _, cov = ws.to_cov_boundary(ws.Plane(2.0, 3.0, 1.0), grid, ((0.2, 0.8), (0.2, 0.8)))
    ws.save_json(cov.field, tmp_path / "cov.json")
    cfg = write_config(tmp_path, {
        "problem": "gaussian-diag",
        "surface": str(tmp_path / "cov.json"),
        "tolerances": {"critical_point": 1.0},
        "out": str(tmp_path / "verify_cov"),
    })
    assert main(["verify", cfg]) == 0
    doc = json.loads((tmp_path / "verify_cov" / "residuals.json").read_text())
    assert doc["critical_point"]["pass"] is True


def test_verify_degenerate_covariance_exits_4(tmp_path):
    grid = ws.Grid2(7, 7)
    s = grid.s_nodes[:, None, None]
    t = grid.t_nodes[None, :, None]
    k = np.arange(3)[None, None, :]
    vals = 2.0 + 0.3 * (s + t) * (1.0 + 0.2 * k)
    ws.save_json(ws.SurfaceField(grid, vals), tmp_path / "degen.json")
    cfg = write_config(tmp_path, {
        "problem": "gaussian-diag",
        "surface": str(tmp_path / "degen.json"),
        "tolerances": {"critical_point": 1.0},
        "out": str(tmp_path / "vd"),
    })
    assert main(["verify", cfg]) == 4


def test_export_plot_plane_coordinates(tmp_path):
    grid = ws.Grid2(9, 9)
    field = ws.graph_field(ws.Plane(2.0, 3.0, 1.0), grid, ((0.0, 1.0), (0.0, 1.0)))
    ws.save_json(field, tmp_path / "plane.json")
    out = tmp_path / "plot"
    assert main(["export-plot", str(tmp_path / "plane.json"), "--out", str(out)]) == 0
    rows = (out / "coord_3.csv").read_text().strip().splitlines()
    got = np.array([[float(v) for v in row.split(",")] for row in rows])
    ss, tt = np.meshgrid(grid.s_nodes, grid.t_nodes, indexing="ij")
    assert np.max(np.abs(got - (2.0 * ss + 3.0 * tt + 1.0))) <= 1e-12


def test_export_import_round_trip_bit_exact(tmp_path, rng):
    grid = ws.Grid2(7, 6)
    field = ws.SurfaceField(grid, rng.standard_normal((7, 6, 3)))
    ws.save_json(field, tmp_path / "surface.json")
    back = ws.load_json(tmp_path / "surface.json")
    assert np.array_equal(back.values, field.values)
    ws.save_json(back, tmp_path / "again.json")
    assert (tmp_path / "surface.json").read_text() == (tmp_path / "again.json").read_text()


def test_csv_surface_suffix_in_any_case(tmp_path, rng):
    # a copy of surface.csv renamed UP.CSV is still read as CSV
    field = ws.SurfaceField(ws.Grid2(5, 4), rng.standard_normal((5, 4, 2)))
    ws.save_csv(field, tmp_path / "UP.CSV")
    assert main(["export-plot", str(tmp_path / "UP.CSV"), "--out", str(tmp_path / "plot")]) == 0
    for k in range(2):
        got = np.loadtxt(tmp_path / "plot" / f"coord_{k + 1}.csv", delimiter=",")
        assert got.tobytes() == field.values[:, :, k].tobytes()
    cfg = write_config(tmp_path, {"problem": "density1d", "surface": str(tmp_path / "UP.CSV"),
                                  "out": str(tmp_path / "v")})
    assert main(["verify", cfg]) == 0


def _g17_reference_texts(f):
    """The two CSV writers' texts, formatted one value at a time."""
    g = f.grid
    surface = ["i,j,s,t,k,value"] + [
        f"{i},{j},{g.s_nodes[i]:.17g},{g.t_nodes[j]:.17g},{k},{f.values[i, j, k]:.17g}"
        for i in range(g.ns) for j in range(g.nt) for k in range(f.dim)
    ]
    coords = [
        "\n".join(",".join(f"{f.values[i, j, k]:.17g}" for j in range(g.nt)) for i in range(g.ns))
        + "\n"
        for k in range(f.dim)
    ]
    return "\n".join(surface) + "\n", coords


def test_csv_writers_match_per_value_reference(tmp_path, rng):
    grid = ws.Grid2(7, 5)
    vals = rng.standard_normal((7, 5, 3)) * 10.0 ** rng.integers(-300, 300, (7, 5, 3))
    vals.flat[:4] = [-0.0, 5e-324, -1.7e308, 1.0 / 3.0]
    field = ws.SurfaceField(grid, vals)
    surface, coords = _g17_reference_texts(field)

    ws.save_csv(field, tmp_path / "surface.csv")
    assert (tmp_path / "surface.csv").read_text() == surface
    assert main(["export-plot", str(tmp_path / "surface.csv"), "--out", str(tmp_path / "plot")]) == 0
    for k, text in enumerate(coords):
        assert (tmp_path / "plot" / f"coord_{k + 1}.csv").read_text() == text


def test_export_plot_density_reconstruction(tmp_path):
    # quantile surface of a Gaussian rectangle; at the corner node the
    # reconstructed density must match the corner pdf.  The central
    # difference of the quantile function steepens in the tails, so the
    # 1e-3 sup bound is calibrated for a std=2 corner at m=512.
    m = 512
    grid = ws.Grid2(5, 5)
    qg = ws.QuantileGrid(m)
    corner = ws.GaussianDensity(1.0, 2.0)
    b = ws.boundary_from_corners(
        corner, ws.GaussianDensity(0.0, 1.0),
        ws.GaussianDensity(0.0, 1.5), ws.GaussianDensity(0.5, 1.2), grid, qg,
    )
    field = ws.coons_init(b)
    ws.save_json(field, tmp_path / "quant.json")
    out = tmp_path / "plot"
    code = main(["export-plot", str(tmp_path / "quant.json"), "--out", str(out),
                 "--density-nodes", "0,0"])
    assert code == 0
    snaps = json.loads((out / "densities.json").read_text())
    assert len(snaps) == 1 and snaps[0]["i"] == 0 and snaps[0]["j"] == 0
    x = np.array(snaps[0]["x"])
    rec = np.array(snaps[0]["pdf"])
    true = np.exp(-((x - 1.0) ** 2) / 8.0) / (2.0 * math.sqrt(2.0 * math.pi))
    assert np.max(np.abs(rec - true)) <= 1e-3


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_export_plot_densities_are_strict_json_on_flat_and_decreasing_rows(tmp_path):
    grid = ws.Grid2(3, 3)
    vals = np.tile(np.arange(5.0), (3, 3, 1))
    vals[0, 0] = [0.0, 1.0, 1.0, 1.0, 2.0]  # three equal levels: dZ = 0 at the middle one
    vals[1, 1] = [0.0, 2.0, 1.0, 0.0, 2.0]  # decreasing in the middle: dZ < 0 there
    vals[2, 0] = [0.0, 1e-310, 2e-310, 3e-310, 4e-310]  # dZ > 0, but 1/dZ overflows
    ws.save_json(ws.SurfaceField(grid, vals), tmp_path / "rows.json")
    out = tmp_path / "plot"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["export-plot", str(tmp_path / "rows.json"), "--out", str(out),
                     "--density-nodes", "0,0;1,1;2,0;2,2"]) == 0
    snaps = _strict_json((out / "densities.json").read_text())
    assert [snap["pdf"] for snap in snaps] == [
        [0.4, None, 0.4],
        [0.4, None, 0.4],
        [None, None, None],
        [0.2, 0.2, 0.2],
    ]


@pytest.mark.parametrize("nodes, m, message", [
    *((nodes, 5, f"--density-nodes: {part} is not an i,j pair of integers") for nodes, part in (
        ("1,2,3", "'1,2,3'"), ("1;2", "'1'"), ("", "''"), ("0,0;a,1", "'a,1'"), ("0,0;", "''"),
    )),
    ("0,3", 5, "--density-nodes: node (0,3) out of range for 3x3 grid"),
    ("-4,0", 5, "--density-nodes: node (-4,0) out of range for 3x3 grid"),
    ("0,0", 2, "density reconstruction needs m >= 3 quantile levels"),
])
def test_bad_density_nodes_exit_2_before_writing(tmp_path, capsys, nodes, m, message):
    ws.save_json(ws.SurfaceField(ws.Grid2(3, 3), np.tile(np.arange(float(m)), (3, 3, 1))),
                 tmp_path / "q.json")
    out = tmp_path / "plot"
    assert main(["export-plot", str(tmp_path / "q.json"), "--out", str(out),
                 f"--density-nodes={nodes}"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_export_plot_missing_file(tmp_path):
    assert main(["export-plot", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("case", ["solve_out_is_file", "verify_surface_is_dir",
                                  "verify_out_is_file", "export_surface_is_dir",
                                  "export_out_is_file"])
def test_unusable_paths_exit_2_naming_the_path(tmp_path, capsys, monkeypatch, case):
    def never(*args, **kwargs):
        raise AssertionError("an unusable --out must fail before the solve")

    monkeypatch.setattr("wassersurf.cli.minimize", never)
    plane = ws.graph_field(ws.Plane(2.0, 3.0, 1.0), ws.Grid2(5, 5), ((0.0, 1.0), (0.0, 1.0)))
    ws.save_json(plane, tmp_path / "plane.json")
    a_file, a_dir = tmp_path / "taken", tmp_path / "folder.json"
    a_file.write_text("")
    a_dir.mkdir()
    verify_doc = {"problem": "graph", "surface": str(tmp_path / "plane.json"),
                  "out": str(tmp_path / "verify")}
    argv, path = {
        "solve_out_is_file": (["solve", scherk_graph_config(tmp_path), "--out", str(a_file)],
                              a_file),
        "verify_surface_is_dir": (
            ["verify", write_config(tmp_path, dict(verify_doc, surface=str(a_dir)), "dir.json")],
            a_dir),
        "verify_out_is_file": (["verify", write_config(tmp_path, verify_doc, "plane_cfg.json"),
                                "--out", str(a_file)], a_file),
        "export_surface_is_dir": (["export-plot", str(a_dir), "--out", str(tmp_path / "plot")],
                                  a_dir),
        "export_out_is_file": (["export-plot", str(tmp_path / "plane.json"), "--out",
                                str(a_file)], a_file),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert str(path) in err


README_DENSITY_CORNERS = {
    "c00": {"type": "mixture", "components": [
        {"weight": 0.5, "mean": -1.5, "std": 0.6}, {"weight": 0.5, "mean": 1.5, "std": 0.6}]},
    "c10": {"type": "gaussian", "mean": 1.0, "std": 1.3},
    "c01": {"type": "gaussian", "mean": -0.5, "std": 2.0},
    "c11": {"type": "gaussian", "mean": 1.5, "std": 2.5},
}
COV_CORNERS = {"c00": [1.0, 2.0, 0.5], "c10": [2.0, 1.0, 1.5],
               "c01": [0.5, 3.0, 1.0], "c11": [3.0, 0.7, 2.0]}
# a solve config per source of edges, and the edges its settings give when
# built directly, without the CLI
EDGE_CASES = {
    "graph-oracle": (
        {"problem": "graph", "oracle": {"oracle": "scherk", "c": 1.0, "window": [0.1, 0.4]}},
        lambda grid: ws.graph_field(ws.Scherk(1.0), grid, ((0.1, 0.4), (0.1, 0.4)))),
    "density-corners": (
        {"problem": "density1d", "grid": {"m": 16}, "corners": README_DENSITY_CORNERS},
        lambda grid: ws.boundary_from_corners(
            *map(ws.parse_density, README_DENSITY_CORNERS.values()), grid, ws.QuantileGrid(16))),
    "covariance-corners": (
        {"problem": "gaussian-diag", "corners": {
            key: {"type": "gaussian_diag", "diag": diag} for key, diag in COV_CORNERS.items()}},
        lambda grid: ws.edges_from_corner_vectors(
            *(np.sqrt(diag) for diag in COV_CORNERS.values()), grid)),
    "covariance-oracle-perturbed": (
        {"problem": "gaussian-diag", "oracle": {
            "oracle": "catenoid", "c1": 0.0, "r1": 1.0, "window": [0.8, 2.1], "z_offset": 0.5},
         "area": {"epsilon": 0.0}, "perturb": {"amplitude": 1e-2, "seed": 3}},
        lambda grid: ws.to_cov_boundary(ws.Catenoid(0.0, 1.0), grid, ((0.8, 2.1),) * 2, 0.5)[0]),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_solved_surface_files_keep_the_configured_edges_bit_for_bit(tmp_path, case):
    doc, build = EDGE_CASES[case]
    grid = ws.Grid2(9, 9)
    doc = {**doc, "grid": {**doc.get("grid", {}), "ns": grid.ns, "nt": grid.nt},
           "out": str(tmp_path / "run")}
    assert main(["solve", write_config(tmp_path, doc)]) == 0
    b = build(grid)
    for field in (ws.load_json(tmp_path / "run" / "surface.json"),
                  ws.load_csv(tmp_path / "run" / "surface.csv")):
        v = field.values
        for got, edge in ((v[0], b.values[0]), (v[-1], b.values[-1]),
                          (v[:, 0], b.values[:, 0]), (v[:, -1], b.values[:, -1])):
            # as integers, so a sign of zero counts too
            assert np.array_equal(got.view(np.uint64), edge.view(np.uint64))


def test_cli_artifacts_deterministic(tmp_path):
    cfg1 = scherk_graph_config(tmp_path, out="run1")
    cfg2 = scherk_graph_config(tmp_path, out="run2")
    assert main(["solve", cfg1]) == 0
    assert main(["solve", cfg2]) == 0
    for name in ("surface.json", "report.json", "surface.csv"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b


def test_out_flag_overrides_config(tmp_path):
    cfg = scherk_graph_config(tmp_path, out="ignored")
    override = tmp_path / "elsewhere"
    assert main(["solve", cfg, "--out", str(override)]) == 0
    assert (override / "report.json").exists()
    assert not (tmp_path / "ignored").exists()
