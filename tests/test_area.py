import math

import numpy as np
import pytest

import wassersurf as ws
from conftest import fd_area_gradient_entry, smooth_test_field

# Total area of the Scherk graph patch over [0, 0.5]^2 (c=1, eps=0) on a
# 129x129 grid; oracle for the 65x65 quadrature value.  The quadrature
# itself refines at second order (Richardson ratio 4.00002 measured over
# 33 -> 65 -> 129).
SCHERK_AREA_129 = 0.27181116951657147
SCHERK_AREA_REFINEMENT_BOUND = 1.5e-6  # measured |A65 - A129| = 9.65e-7


def graph_plane(grid, a=1.0, b=1.0):
    return ws.graph_field(ws.Plane(a, b, 0.0), grid, ((0.0, 1.0), (0.0, 1.0)))


def test_cell_tangents_exact_on_plane():
    g = ws.Grid2(7, 9)
    f = graph_plane(g, a=2.0, b=3.0)
    for i, j in [(0, 0), (3, 4), (5, 7)]:
        ds, dt = ws.cell_tangents(f, i, j)
        assert np.max(np.abs(ds - np.array([1.0, 0.0, 2.0]))) <= 1e-13
        assert np.max(np.abs(dt - np.array([0.0, 1.0, 3.0]))) <= 1e-13


def test_cell_tangents_constant_field():
    g = ws.Grid2(4, 4)
    f = ws.SurfaceField(g, np.full((4, 4, 2), 1.7))
    ds, dt = ws.cell_tangents(f, 1, 2)
    assert np.all(ds == 0.0) and np.all(dt == 0.0)


def test_cell_tangents_quadratic_example():
    # f(s,t) = s^2 on a 3x3 grid; cell (0,0) stencil forces ds = 0.5.
    g = ws.Grid2(3, 3)
    s = g.s_nodes[:, None, None]
    f = ws.SurfaceField(g, np.broadcast_to(s**2, (3, 3, 1)).copy())
    ds, dt = ws.cell_tangents(f, 0, 0)
    assert ds[0] == pytest.approx(0.5, abs=1e-15)
    assert dt[0] == pytest.approx(0.0, abs=1e-15)


def test_cell_tangents_out_of_range():
    f = graph_plane(ws.Grid2(4, 4))
    with pytest.raises(IndexError):
        ws.cell_tangents(f, 3, 0)


def test_area_element_orthonormal_tangents():
    cfg = ws.AreaConfig(epsilon=0.0)
    assert ws.area_element([1, 0, 0], [0, 1, 0], cfg) == pytest.approx(1.0, abs=0.0)


def test_area_element_parallel_tangents_vanish():
    cfg = ws.AreaConfig(epsilon=0.0)
    assert ws.area_element([1, 2, -1], [2, 4, -2], cfg) <= 1e-15


def test_area_element_graph_tangents():
    cfg = ws.AreaConfig(epsilon=0.0)
    val = ws.area_element([1, 0, 1], [0, 1, 1], cfg)
    assert val == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_area_element_epsilon_floor_at_parallel():
    cfg = ws.AreaConfig(epsilon=1e-12)
    assert ws.area_element([1, 1], [2, 2], cfg) == pytest.approx(1e-6, rel=1e-12)


def test_total_area_flat_unit_patch():
    f = graph_plane(ws.Grid2(9, 9), a=0.0, b=0.0)
    assert ws.total_area(f, ws.AreaConfig(epsilon=0.0)) == pytest.approx(1.0, rel=1e-14)


def test_total_area_tilted_plane_sqrt3():
    f = graph_plane(ws.Grid2(17, 17), a=1.0, b=1.0)
    area = ws.total_area(f, ws.AreaConfig(epsilon=0.0))
    assert area == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_total_area_scherk_refinement_oracle():
    f = ws.graph_field(ws.Scherk(1.0), ws.Grid2(65, 65), ((0.0, 0.5), (0.0, 0.5)))
    area = ws.total_area(f, ws.AreaConfig(epsilon=0.0))
    assert abs(area - SCHERK_AREA_129) <= SCHERK_AREA_REFINEMENT_BOUND


def test_total_area_bit_identical_under_swap():
    # the exact sum does not depend on cell order, so swapping s and t on a
    # square grid (which transposes the cell areas bit for bit) keeps it
    g = ws.Grid2(17, 17)
    cfg = ws.AreaConfig(epsilon=0.0)
    for seed in range(20):
        vals = np.random.default_rng(seed).standard_normal((17, 17, 3))
        f = ws.SurfaceField(g, vals)
        ft = ws.SurfaceField(g, np.swapaxes(vals, 0, 1).copy())
        assert ws.total_area(f, cfg) == ws.total_area(ft, cfg), seed


def test_area_gradient_matches_finite_differences(rng):
    g = ws.Grid2(9, 9)
    f = smooth_test_field(g, m=5)
    acfg = ws.AreaConfig(epsilon=1e-12, weights=ws.quantile_weights(5))
    grad = ws.area_gradient(f, acfg)
    for _ in range(20):
        i = int(rng.integers(1, g.ns - 1))
        j = int(rng.integers(1, g.nt - 1))
        k = int(rng.integers(0, 5))
        fd = fd_area_gradient_entry(f, acfg, i, j, k)
        assert abs(fd - grad[i, j, k]) <= 1e-6 * max(abs(fd), 1e-12)


def test_area_gradient_zero_on_plane():
    f = graph_plane(ws.Grid2(17, 17), a=2.0, b=3.0)
    grad = ws.area_gradient(f, ws.AreaConfig(epsilon=0.0))
    assert np.max(np.abs(grad)) <= 1e-12


def test_area_gradient_boundary_rows_zero():
    f = smooth_test_field(ws.Grid2(8, 8), m=2)
    grad = ws.area_gradient(f, ws.AreaConfig())
    assert np.all(grad[0] == 0.0) and np.all(grad[-1] == 0.0)
    assert np.all(grad[:, 0] == 0.0) and np.all(grad[:, -1] == 0.0)


def test_area_gradient_constant_field_at_floor():
    # all tangents vanish, the Gram clamp is active, and the floor's
    # gradient is zero on the flat side of the clamp
    g = ws.Grid2(6, 6)
    f = ws.SurfaceField(g, np.full((6, 6, 3), 2.0))
    grad = ws.area_gradient(f, ws.AreaConfig(epsilon=1e-12))
    assert np.all(grad == 0.0)


def test_swap_symmetry(rng):
    g = ws.Grid2(9, 6)
    vals = rng.standard_normal((9, 6, 3))
    f = ws.SurfaceField(g, vals)
    ft = ws.SurfaceField(ws.Grid2(6, 9), np.swapaxes(vals, 0, 1).copy())
    cfg = ws.AreaConfig(epsilon=0.0)
    assert ws.total_area(f, cfg) == pytest.approx(ws.total_area(ft, cfg), rel=1e-13)


def test_isometry_invariance(rng):
    g = ws.Grid2(8, 8)
    f = smooth_test_field(g, m=3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rotated = ws.SurfaceField(g, f.values @ q.T)
    cfg = ws.AreaConfig(epsilon=0.0)
    a0 = ws.total_area(f, cfg)
    a1 = ws.total_area(rotated, cfg)
    assert abs(a0 - a1) <= 1e-12 * abs(a0)


def test_quadratic_scaling(rng):
    g = ws.Grid2(7, 7)
    f = smooth_test_field(g, m=2)
    lam = 2.75
    scaled = ws.SurfaceField(g, lam * f.values)
    cfg = ws.AreaConfig(epsilon=0.0)
    assert ws.total_area(scaled, cfg) == pytest.approx(lam**2 * ws.total_area(f, cfg), rel=1e-12)


def test_degenerate_cell_count():
    g = ws.Grid2(5, 5)
    s = g.s_nodes[:, None, None]
    t = g.t_nodes[None, :, None]
    k = np.arange(2)[None, None, :]
    parallel = (s + t) * (1.0 + k)  # ds and dt parallel everywhere
    f = ws.SurfaceField(g, parallel)
    cfg = ws.AreaConfig(epsilon=1e-12)
    assert ws.degenerate_cell_count(f, cfg) == 16
    assert ws.degenerate_cell_count(graph_plane(g), cfg) == 0


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        ws.AreaConfig(weights=np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        ws.AreaConfig(epsilon=-1.0)
    cfg = ws.AreaConfig(weights=ws.quantile_weights(4))
    with pytest.raises(ValueError):
        cfg.weight_vector(5)


def _area_changes(f, step, acfg):
    """(plain fsum difference, area_change) for moving every coordinate of ``f`` by ``step``."""
    grid = f.grid
    moved = ws.SurfaceField(grid, f.values + step)
    step = moved.values - f.values  # the step as rounded into the moved field
    cells = ws.area.cell_area_field(f, acfg)
    cells_try = ws.area.cell_area_field(moved, acfg)
    plain = grid.hs * grid.ht * math.fsum((cells_try - cells).ravel().tolist())
    exact = ws.area_change(ws.area.tangent_fields(f), cells, cells_try, step, slice(None), grid, acfg)
    return plain, exact


def test_area_change_every_coordinate_matches_plain_difference():
    grid = ws.Grid2(13, 11)
    f = smooth_test_field(grid, m=3)
    acfg = ws.AreaConfig(epsilon=1e-12, weights=np.array([1.0, 0.5, 2.0]))
    rng = np.random.default_rng(3)
    for _ in range(5):
        step = np.zeros_like(f.values)
        step[1:-1, 1:-1] = 1e-2 * rng.standard_normal((grid.ns - 2, grid.nt - 2, 3))
        plain, exact = _area_changes(f, step, acfg)
        assert abs(plain) > 1e-6
        assert exact == pytest.approx(plain, rel=1e-12)


def test_area_change_resolves_second_order_change_of_tiny_steps():
    # at a plane, a critical point, the change along a step eps*v is
    # eps^2 * (v'Hv/2) + O(eps^3): far below the rounding of two cell areas
    grid = ws.Grid2(9, 8)
    _, f = ws.graph_boundary(ws.Plane(0.7, -0.4, 0.2), grid, ((0.0, 1.0), (0.0, 1.0)))
    acfg = ws.AreaConfig(epsilon=0.0)
    v = np.zeros_like(f.values)
    v[1:-1, 1:-1] = np.random.default_rng(4).standard_normal((grid.ns - 2, grid.nt - 2, 3))
    _, reference = _area_changes(f, 1e-7 * v, acfg)
    plain, exact = _area_changes(f, 1e-9 * v, acfg)
    assert exact > 0.0
    assert exact / 1e-18 == pytest.approx(reference / 1e-14, rel=1e-6)
    # the plain difference of the same cells is rounding noise
    assert abs(plain - exact) > abs(exact)


def test_area_config_rejects_non_finite_epsilon():
    for eps in (math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon must be nonnegative and finite"):
            ws.AreaConfig(epsilon=eps)


def test_cell_terms_of_a_trailing_slice_equal_one_pass_bit_for_bit():
    grid = ws.Grid2(13, 11)
    f = smooth_test_field(grid, m=3)
    acfg = ws.AreaConfig(epsilon=1e-12, weights=np.array([1.0, 0.5, 2.0]))
    whole = ws.cell_terms(f, acfg)
    assert whole.ds.shape == (12, 10, 3)
    # one pass over every coordinate is the plain weighted inner products
    reference = ws.area._gram_terms(*ws.area.tangent_fields(f), acfg.weights)
    assert all(np.array_equal(p, q) for p, q in zip((whole.a, whole.b, whole.c), reference))
    first = ws.cell_terms(f, acfg, slice(2, 3))
    moved = f.values.copy()
    moved[1:-1, 1:-1, 2] += 0.1 * np.random.default_rng(8).standard_normal((11, 9))
    moved = ws.SurfaceField(grid, moved)
    # the pinned part of the first field serves every field that moves only slice(2, 3)
    later = ws.cell_terms(moved, acfg, slice(2, 3), first.pinned)
    for terms, field in ((first, f), (later, moved)):
        one_pass = ws.cell_terms(field, acfg)
        assert terms.ds.shape == (12, 10, 1)
        assert np.array_equal(terms.ds, one_pass.ds[..., 2:])
        assert np.array_equal(terms.dt, one_pass.dt[..., 2:])
        for name in ("a", "b", "c", "gram", "cells"):
            assert np.array_equal(getattr(terms, name), getattr(one_pass, name)), name
    assert ws.total_area(f, acfg) == ws.area.summed_area(first.cells, grid)


def test_hourglass_amplitude():
    # an affine field has no hourglass mode, a twisted one has hs*ht times its
    # twist, and a checkerboard of amplitude d adds 4d in every cell
    grid = ws.Grid2(5, 4)
    s = grid.s_nodes[:, None, None]
    t = grid.t_nodes[None, :, None]
    affine = (1.0 + s - 2.0 * t) * np.array([1.0, -3.0])
    assert ws.area.hourglass_amplitude(ws.SurfaceField(grid, affine)) <= 1e-15
    twisted = affine + s * t * np.array([0.0, 6.0])
    twist = ws.area.hourglass_amplitude(ws.SurfaceField(grid, twisted))
    assert twist == pytest.approx(6.0 * grid.hs * grid.ht, rel=1e-12)
    i, j = np.indices((5, 4))
    checker = 1e-3 * (-1.0) ** (i + j)
    vals = affine + checker[..., None] * np.array([0.5, 1.0])
    assert ws.area.hourglass_amplitude(ws.SurfaceField(grid, vals)) == pytest.approx(4e-3, rel=1e-12)
