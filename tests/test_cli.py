import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wassersurf as ws
from wassersurf.cli import _write_boundary_csv, load_config, main


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
    assert (out / "surface.csv").exists() and (out / "boundary.csv").exists()
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
    edits = {
        "solver.grad_tl": ("solver", "grad_tl", 1e-3),
        "area.compensated": ("area", "compensated", True),
        "grid.nss": ("grid", "nss", 9),
        "perturb.sead": ("perturb", "sead", 3),
        "tolerances.euler_lagrang": ("tolerances", "euler_lagrang", 1.0),
        "outdir": (None, "outdir", "x"),
    }
    for name, (section, key, value) in edits.items():
        doc = json.loads(Path(scherk_graph_config(tmp_path)).read_text())
        (doc if section is None else doc.setdefault(section, {}))[key] = value
        cfg = write_config(tmp_path, doc, name=f"unknown_{name}.json")
        assert main(["solve", cfg]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith(f"config error: unknown key '{name}'"), name
        assert err.count("\n") == 1, name


def test_readme_json_configs_load(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) >= 2
    for n, block in enumerate(blocks):
        path = tmp_path / f"readme_{n}.json"
        path.write_text(block)
        load_config(path)


@pytest.mark.parametrize("key", ["ns", "nt", "m"])
def test_fractional_grid_size_exits_2(tmp_path, capsys, key):
    doc = json.loads(Path(scherk_graph_config(tmp_path)).read_text())
    doc["grid"][key] = 17.9
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


@pytest.mark.parametrize("section, key, value, message", [
    ("area", "epsilon", "abc", "area.epsilon must be a real number, got 'abc'"),
    ("solver", "grad_tol", True,
     "invalid solver config: solver.grad_tol must be a real number, got True"),
    ("solver", "armijo_c1", "1e-4",
     "invalid solver config: solver.armijo_c1 must be a real number, got '1e-4'"),
    ("solver", "backtrack", False,
     "invalid solver config: solver.backtrack must be a real number, got False"),
    ("solver", "step0", "1", "invalid solver config: solver.step0 must be a real number, got '1'"),
    ("perturb", "amplitude", "1e-3", "perturb.amplitude must be a real number, got '1e-3'"),
    ("oracle", "c", "1.0", "oracle.c must be a real number, got '1.0'"),
    ("oracle", "k1", True, "oracle.k1 must be a real number, got True"),
    ("oracle", "z_offset", "2", "oracle.z_offset must be a real number, got '2'"),
    ("oracle", "window", ["0.1", 0.4], "oracle.window[0] must be a real number, got '0.1'"),
    ("oracle", "window", [[0.1, 0.4], [0.1, True]],
     "oracle.window[1][1] must be a real number, got True"),
    ("oracle", "window", [0.1, 0.2, 0.4],
     "oracle.window must be [lo, hi] or [[s_lo, s_hi], [t_lo, t_hi]]"),
], ids=["string_epsilon", "bool_grad_tol", "string_armijo_c1", "bool_backtrack",
        "string_step0", "string_amplitude", "string_oracle_c", "bool_oracle_k1",
        "string_z_offset", "string_window_entry", "bool_window_entry", "long_window"])
def test_non_numeric_config_values_exit_2_naming_the_key(
    tmp_path, capsys, section, key, value, message
):
    doc = json.loads(Path(scherk_graph_config(tmp_path)).read_text())
    doc.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, doc, name=f"{section}_{key}.json")
    assert main(["solve", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


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


def plane_verify_config(tmp_path, samples):
    return write_config(tmp_path, {
        "problem": "analytic-verify",
        "samples": samples,
        "oracles": [{"oracle": "plane", "a1": 2, "a2": 3, "a3": 1, "window": [0, 1]}],
        "out": str(tmp_path / "verify"),
    }, name=f"samples_{samples}.json")


@pytest.mark.parametrize("samples, message", [
    (5.7, "samples must be a whole number, got 5.7"),
    (0, "samples must be at least 1, got 0"),
    (-3, "samples must be at least 1, got -3"),
])
def test_bad_samples_exit_2(tmp_path, capsys, samples, message):
    assert main(["verify", plane_verify_config(tmp_path, samples)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "verify").exists()


def test_whole_float_samples_are_read_as_that_count(tmp_path):
    assert main(["verify", plane_verify_config(tmp_path, 5.0)]) == 0
    doc = json.loads((tmp_path / "verify" / "residuals.json").read_text())
    assert doc["minimal_surface"][0]["samples"] == 5


def test_readme_solve_configs_exit_0(tmp_path):
    # every documented solve example converges at its own (default) settings
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```json\n(.*?)^```", readme, flags=re.M | re.S)
    solves = [b for b in blocks if json.loads(b)["problem"] != "analytic-verify"]
    assert {json.loads(b)["problem"] for b in solves} == {"graph", "density1d", "gaussian-diag"}
    for n, block in enumerate(solves):
        path = tmp_path / f"readme_{n}.json"
        path.write_text(block)
        out = tmp_path / f"out_{n}"
        assert main(["solve", str(path), "--out", str(out)]) == 0, block
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] and report["iters"] > 0, block


def test_threads_flag_removed(tmp_path):
    with pytest.raises(SystemExit):
        main(["--threads", "2", "solve", scherk_graph_config(tmp_path)])


def test_solver_stall_exit_code_with_artifacts(tmp_path):
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
        "solver": {"step0": 1e8, "max_backtracks": 0, "max_iters": 20, "grad_tol": 1e-14},
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


def test_verify_all_four_oracles(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "analytic-verify",
        "samples": 21,
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
    assert all(e["pass"] and e["max_abs"] <= 1e-10 for e in entries)


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


def _g17_reference_texts(f, b):
    """The three CSV writers' texts, formatted one value at a time."""
    g = f.grid
    surface = ["i,j,s,t,k,value"] + [
        f"{i},{j},{g.s_nodes[i]:.17g},{g.t_nodes[j]:.17g},{k},{f.values[i, j, k]:.17g}"
        for i in range(g.ns) for j in range(g.nt) for k in range(f.dim)
    ]
    boundary = ["edge,idx,k,value"] + [
        f"{name},{idx},{k},{arr[idx, k]:.17g}"
        for name, arr in (("s0", b.edge_s0), ("s1", b.edge_s1), ("t0", b.edge_t0), ("t1", b.edge_t1))
        for idx in range(arr.shape[0]) for k in range(arr.shape[1])
    ]
    coords = [
        "\n".join(",".join(f"{f.values[i, j, k]:.17g}" for j in range(g.nt)) for i in range(g.ns))
        + "\n"
        for k in range(f.dim)
    ]
    return "\n".join(surface) + "\n", "\n".join(boundary) + "\n", coords


def test_csv_writers_match_per_value_reference(tmp_path, rng):
    grid = ws.Grid2(7, 5)
    vals = rng.standard_normal((7, 5, 3)) * 10.0 ** rng.integers(-300, 300, (7, 5, 3))
    vals.flat[:4] = [-0.0, 5e-324, -1.7e308, 1.0 / 3.0]
    field = ws.SurfaceField(grid, vals)
    b = ws.BoundarySpec.of_field(field)
    surface, boundary, coords = _g17_reference_texts(field, b)

    ws.save_csv(field, tmp_path / "surface.csv")
    assert (tmp_path / "surface.csv").read_text() == surface
    _write_boundary_csv(b, tmp_path / "boundary.csv")
    assert (tmp_path / "boundary.csv").read_text() == boundary
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


def test_export_plot_missing_file(tmp_path):
    assert main(["export-plot", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_cli_artifacts_deterministic(tmp_path):
    cfg1 = scherk_graph_config(tmp_path, out="run1")
    cfg2 = scherk_graph_config(tmp_path, out="run2")
    assert main(["solve", cfg1]) == 0
    assert main(["solve", cfg2]) == 0
    for name in ("surface.json", "report.json", "boundary.csv"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b


def test_out_flag_overrides_config(tmp_path):
    cfg = scherk_graph_config(tmp_path, out="ignored")
    override = tmp_path / "elsewhere"
    assert main(["solve", cfg, "--out", str(override)]) == 0
    assert (override / "report.json").exists()
    assert not (tmp_path / "ignored").exists()
