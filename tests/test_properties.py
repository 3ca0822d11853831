"""Property tests of the invariants the solver relies on."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

import wassersurf as ws
from conftest import fd_area_gradient_entry, smooth_test_field

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    m=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    weight=st.floats(1e-3, 1e3),
    epsilon=st.sampled_from([0.0, 1e-12]),
)
def test_total_area_invariant_under_rigid_maps_of_coordinates(m, seed, weight, epsilon):
    # With uniform weights the area sees coordinates only through Euclidean
    # inner products of tangents, so an orthogonal map plus a translation of
    # every node leaves it unchanged.  The span reduction in ``minimize``
    # rests on this.  (At m = 1 every cell is degenerate and its area is the
    # root of a rounding-level determinant, so m starts at 2.)
    rng = np.random.default_rng(seed)
    grid = ws.Grid2(7, 6)
    f = smooth_test_field(grid, m, seed=seed % 997)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    moved = ws.SurfaceField(grid, f.values @ q + rng.standard_normal(m))
    acfg = ws.AreaConfig(epsilon=epsilon, weights=np.full(m, weight))
    assert ws.total_area(moved, acfg) == pytest.approx(ws.total_area(f, acfg), rel=1e-11)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    shape=st.tuples(st.integers(3, 8), st.integers(3, 8), st.integers(3, 5)),
    seed=st.integers(0, 2**32 - 1),
    uniform=st.booleans(),
    data=st.data(),
)
def test_area_gradient_matches_finite_differences_everywhere(shape, seed, uniform, data):
    # the exact algebraic gradient against a central difference of the
    # exactly summed area, at any interior node and coordinate of a
    # nondegenerate field with a random rough part (m >= 3: at m = 2 the
    # rough part can nearly fold a cell, where the difference quotient's
    # truncation error is no longer small)
    ns, nt, m = shape
    rng = np.random.default_rng(seed)
    grid = ws.Grid2(ns, nt)
    smooth = smooth_test_field(grid, m, seed=seed % 997).values
    f = ws.SurfaceField(grid, smooth + 0.02 * rng.standard_normal(smooth.shape))
    weights = np.full(m, 1.0 / m) if uniform else rng.uniform(0.2, 2.0, m)
    acfg = ws.AreaConfig(epsilon=0.0, weights=weights)
    i = data.draw(st.integers(1, ns - 2))
    j = data.draw(st.integers(1, nt - 2))
    k = data.draw(st.integers(0, m - 1))
    grad = ws.area_gradient(f, acfg)[i, j, k]
    fd = fd_area_gradient_entry(f, acfg, i, j, k)
    # the difference quotient's rounding is a few eps * area / step (step 1e-6)
    assert abs(fd - grad) <= 1e-6 * abs(grad) + 1e-8 * ws.total_area(f, acfg)


# sign of zero, the subnormal range and the largest normals, where a reader
# that does not round correctly would lose the last bit
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                  1.7e308, -1.7e308, 1.0 / 3.0]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    shape=st.tuples(st.integers(2, 9), st.integers(2, 9), st.integers(1, 5)),
    data=st.data(),
)
def test_csv_and_json_round_trips_are_bit_exact(shape, data):
    size = shape[0] * shape[1] * shape[2]
    value = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    vals = np.array(data.draw(st.lists(value, min_size=size, max_size=size))).reshape(shape)
    f = ws.SurfaceField(ws.Grid2(shape[0], shape[1]), vals)
    with tempfile.TemporaryDirectory() as tmp:
        for save, load, name in ((ws.save_csv, ws.load_csv, "f.csv"),
                                 (ws.save_json, ws.load_json, "f.json")):
            save(f, Path(tmp) / name)
            back = load(Path(tmp) / name)
            assert back.grid == f.grid
            # array_equal cannot tell -0.0 from 0.0; the bit patterns can
            assert np.array_equal(back.values.view(np.int64), vals.view(np.int64)), name
