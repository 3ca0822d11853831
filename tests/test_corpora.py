"""Corner corpora solved by the CLI at default settings.

Each corner set is drawn by the recipe written next to it.  The bounds were
stated before any corpus was solved: every solve exits 0, its area is at or
below the hinge bound (the smaller of the corner quadrilateral's two splits
into two flat triangles, an upper bound on the minimal area), quantiles stay
monotone and sqrt-covariances positive.
"""

import json

import numpy as np
import pytest

from wassersurf.cli import main


def triangle_area(a, b, c):
    u, v = b - a, c - a
    return 0.5 * np.sqrt(max(np.dot(u, u) * np.dot(v, v) - np.dot(u, v) ** 2, 0.0))


def hinge_area(values, weights):
    """Smaller area of the two splits of the corners of ``values`` into two flat triangles."""
    root = np.sqrt(weights)
    c00, c10, c01, c11 = (values[i, j] * root for i, j in ((0, 0), (-1, 0), (0, -1), (-1, -1)))
    return min(triangle_area(c00, c10, c11) + triangle_area(c00, c11, c01),
               triangle_area(c00, c10, c01) + triangle_area(c10, c11, c01))


def solve(tmp_path, doc):
    """Solve ``doc`` at default settings; returns (exit code, report, surface values)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**doc, "out": str(tmp_path / "out")}))
    code = main(["solve", str(path)])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    surface = json.loads((tmp_path / "out" / "surface.json").read_text())
    values = np.array(surface["values"]).reshape(surface["ns"], surface["nt"], surface["dim"])
    return code, report, values


def covariance_corners(seed):
    """Four successive ``uniform(0.5, 3.0, 3)`` draws of one generator: c00, c10, c01, c11."""
    rng = np.random.default_rng(seed)
    return {key: {"type": "gaussian_diag", "diag": rng.uniform(0.5, 3.0, 3).tolist()}
            for key in ("c00", "c10", "c01", "c11")}


@pytest.mark.parametrize("seed", range(24))
def test_covariance_corpus(tmp_path, seed, capsys):
    code, report, values = solve(tmp_path, {"problem": "gaussian-diag", "grid": {"ns": 17, "nt": 17},
                                            "corners": covariance_corners(seed)})
    assert code == 0 and report["converged"]
    assert report["area_trace"][-1] <= hinge_area(values, np.ones(3))
    assert values.min() > 0.0
    assert "warning" not in capsys.readouterr().err


README_DENSITY_CORNERS = {
    "c00": {"type": "mixture", "components": [
        {"weight": 0.5, "mean": -1.5, "std": 0.6},
        {"weight": 0.5, "mean": 1.5, "std": 0.6}]},
    "c10": {"type": "gaussian", "mean": 1.0, "std": 1.3},
    "c01": {"type": "gaussian", "mean": -0.5, "std": 2.0},
    "c11": {"type": "gaussian", "mean": 1.5, "std": 2.5},
}


def density_corners(s):
    """Four corners from ``default_rng(5000 + s)``, in the order c00, c10, c01, c11.

    For each corner one ``uniform()`` draw below 0.5 makes a Gaussian with mean
    ``uniform(-2, 2)`` and std ``uniform(0.3, 2.5)``, drawn in that order; else
    an equal-weight two-component mixture whose means ``uniform(-3, 0)`` and
    ``uniform(0, 3)`` and stds ``uniform(0.3, 1.5)`` twice are drawn in that order.
    """
    rng = np.random.default_rng(5000 + s)
    corners = {}
    for key in ("c00", "c10", "c01", "c11"):
        if rng.uniform() < 0.5:
            corners[key] = {"type": "gaussian", "mean": rng.uniform(-2.0, 2.0),
                            "std": rng.uniform(0.3, 2.5)}
        else:
            means = rng.uniform(-3.0, 0.0), rng.uniform(0.0, 3.0)
            stds = rng.uniform(0.3, 1.5), rng.uniform(0.3, 1.5)
            corners[key] = {"type": "mixture", "components": [
                {"weight": 0.5, "mean": mean, "std": std} for mean, std in zip(means, stds)]}
    return corners


@pytest.mark.parametrize("s", ["readme", *range(12)])
def test_density_corpus(tmp_path, s):
    corners = README_DENSITY_CORNERS if s == "readme" else density_corners(s)
    code, report, values = solve(tmp_path, {"problem": "density1d",
                                            "grid": {"ns": 17, "nt": 17, "m": 64},
                                            "corners": corners})
    assert code == 0 and report["converged"]
    assert report["area_trace"][-1] <= hinge_area(values, np.full(64, 1.0 / 64))
    assert np.all(np.diff(values, axis=2) > 0.0)
    mono = json.loads((tmp_path / "out" / "monotonicity.json").read_text())
    assert mono["violations"] == 0
