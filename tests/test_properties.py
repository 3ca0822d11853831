"""Property tests of the invariants the solver relies on."""

import numpy as np
import pytest

import wassersurf as ws
from conftest import smooth_test_field

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
