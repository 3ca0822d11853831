import numpy as np
import pytest

import wassersurf as ws
from wassersurf.errors import DegenerateSurfaceError, PositivityError


def cov_surface_from(fn_of_st, grid, n=1):
    s = grid.s_nodes[:, None, None]
    t = grid.t_nodes[None, :, None]
    k = np.arange(n)[None, None, :]
    return ws.DiagonalCovSurface(ws.SurfaceField(grid, fn_of_st(s, t, k)))


def test_sqrt_coords_constant():
    g = ws.Grid2(5, 5)
    sigma = ws.SurfaceField(g, np.full((5, 5, 2), 4.0))
    surf = ws.sqrt_coords(sigma)
    assert np.all(surf.field.values == 2.0)


def test_sqrt_square_round_trip(rng):
    g = ws.Grid2(6, 7)
    sigma = ws.SurfaceField(g, np.exp(rng.standard_normal((6, 7, 3))))
    back = ws.covariance_field(ws.sqrt_coords(sigma))
    assert np.max(np.abs(back.values - sigma.values) / sigma.values) <= 1e-15


def test_sqrt_coords_affine_profile():
    g = ws.Grid2(9, 5)
    s = g.s_nodes[:, None, None]
    sigma = ws.SurfaceField(g, np.broadcast_to((1.0 + s) ** 2, (9, 5, 1)).copy())
    surf = ws.sqrt_coords(sigma)
    assert np.max(np.abs(surf.field.values[:, :, 0] - (1.0 + g.s_nodes)[:, None])) <= 1e-14


def test_sqrt_coords_rejects_nonpositive():
    g = ws.Grid2(3, 3)
    sigma = np.ones((3, 3, 1))
    sigma[1, 1, 0] = 0.0
    with pytest.raises(PositivityError):
        ws.sqrt_coords(ws.SurfaceField(g, sigma))
    with pytest.raises(PositivityError):
        ws.DiagonalCovSurface(ws.SurfaceField(g, sigma - 2.0))


def test_geodesic_scalar_midpoint():
    out = ws.gaussian_geodesic_diag([1.0], [4.0], 0.5)
    assert out[0] == pytest.approx(2.25, abs=1e-15)


def test_geodesic_matches_quantile_variance():
    # variance of the 1-D quantile path between N(0,1) and N(0,4)
    qg = ws.QuantileGrid(256)
    for tau in (0.25, 0.5, 0.9):
        q = ws.geodesic_quantiles(ws.GaussianDensity(0, 1), ws.GaussianDensity(0, 2), tau, qg)
        basis = ws.standard_normal_quantile(qg.nodes)
        sigma_fit = float(q @ basis / (basis @ basis))
        diag = ws.gaussian_geodesic_diag([1.0], [4.0], tau)
        assert diag[0] == pytest.approx(sigma_fit**2, rel=1e-12)


def test_geodesic_endpoints_and_constant():
    s0 = np.array([1.0, 2.0, 0.5])
    s1 = np.array([4.0, 2.0, 8.0])
    assert np.array_equal(ws.gaussian_geodesic_diag(s0, s1, 1.0), s1)
    assert np.array_equal(ws.gaussian_geodesic_diag(s0, s1, 0.0), s0)
    # identical endpoints: constant up to the sqrt/square round trip
    mid = ws.gaussian_geodesic_diag(s0, s0, 0.37)
    assert np.max(np.abs(mid - s0) / s0) <= 1e-15


def test_geodesic_validation():
    with pytest.raises(PositivityError):
        ws.gaussian_geodesic_diag([1.0, -1.0], [1.0, 1.0], 0.5)
    with pytest.raises(ValueError):
        ws.gaussian_geodesic_diag([1.0], [1.0], 1.5)


def test_lyapunov_velocity_exact_on_quadratic_covariance():
    # Sigma(s) = (1+s)^2: A_s = 1/(1+s), exactly 1 at s = 0 (the stencils
    # are exact on quadratics, one-sided ones included)
    g = ws.Grid2(9, 5)
    surf = cov_surface_from(lambda s, t, k: np.broadcast_to(1.0 + s, (9, 5, 1)).copy(), g)
    a = ws.lyapunov_velocity(surf, "s")
    expect = 1.0 / (1.0 + g.s_nodes)[:, None]
    assert np.max(np.abs(a[:, :, 0] - expect)) <= 1e-13
    assert a[0, 0, 0] == pytest.approx(1.0, abs=1e-13)


def test_lyapunov_velocity_constant_surface_zero():
    g = ws.Grid2(5, 5)
    surf = cov_surface_from(lambda s, t, k: np.full((5, 5, 2), 3.0), g, n=2)
    assert np.max(np.abs(ws.lyapunov_velocity(surf, "s"))) == 0.0
    assert np.max(np.abs(ws.lyapunov_velocity(surf, "t"))) == 0.0


def test_lyapunov_velocity_exponential_second_order():
    errs = {}
    for n in (9, 17):
        g = ws.Grid2(n, 4)
        surf = cov_surface_from(lambda s, t, k: np.broadcast_to(np.exp(s), (n, 4, 1)).copy(), g)
        a = ws.lyapunov_velocity(surf, "s")
        errs[n] = np.max(np.abs(a - 1.0))
    assert 3.0 <= errs[9] / errs[17] <= 5.0


def test_lyapunov_defining_identity_same_stencil(rng):
    # FD(Sigma) - 2 A Sigma cancels to round-off when the same stencil
    # produced A; analytic surfaces satisfy it at O(h^2).
    g = ws.Grid2(11, 8)
    vals = 1.0 + 0.5 * np.abs(rng.standard_normal((11, 8, 2))) + 0.2
    surf = ws.DiagonalCovSurface(ws.SurfaceField(g, vals))
    sigma = np.square(vals)
    a = ws.lyapunov_velocity(surf, "s")
    resid = np.gradient(sigma, g.hs, axis=0, edge_order=2) - 2.0 * a * sigma
    assert np.max(np.abs(resid)) <= 1e-12


def test_velocity_energy_matches_sqrt_tangents():
    # tr(Sigma A^T A) computed from (Sigma, A) equals the squared sqrt
    # tangents when those are formed through the same Sigma stencil
    g = ws.Grid2(9, 9)
    s = g.s_nodes[:, None, None]
    t = g.t_nodes[None, :, None]
    vals = np.concatenate([1.5 + 0.3 * s + 0.1 * t, 2.0 + 0.2 * np.sin(s + t)], axis=2)
    surf = ws.DiagonalCovSurface(ws.SurfaceField(g, vals))
    sigma = np.square(vals)
    a_s = ws.lyapunov_velocity(surf, "s")
    energy = np.einsum("ijk,ijk->ij", sigma, a_s * a_s)
    d_gamma = np.gradient(sigma, g.hs, axis=0, edge_order=2) / (2.0 * vals)
    matched = np.einsum("ijk,ijk->ij", d_gamma, d_gamma)
    assert np.max(np.abs(energy - matched)) <= 1e-12
    # direct sqrt-coordinate differencing agrees at O(h^2)
    direct = np.gradient(vals, g.hs, axis=0, edge_order=2)
    loose = np.einsum("ijk,ijk->ij", direct, direct)
    assert np.max(np.abs(energy - loose)) <= 1e-3


def test_critical_fields_match_hand_computed_plane_multipliers():
    # gamma = (u, v, 2u + 3v + 1) on [0.2, 0.8]^2: qs = 1.8, qt = 3.6,
    # p = 2.16, J = sqrt(1.8144); S entries are rational in the coordinates.
    grid = ws.Grid2(17, 17)
    _, cov = ws.to_cov_boundary(ws.Plane(2.0, 3.0, 1.0), grid, ((0.2, 0.8), (0.2, 0.8)))
    cf = ws.critical_fields(cov)
    u = (0.2 + 0.6 * grid.s_nodes)[:, None]
    g3 = cov.field.values[:, :, 2]
    j = np.sqrt(1.8 * 3.6 - 2.16**2)
    assert np.max(np.abs(cf.j - j)) <= 1e-12
    assert np.max(np.abs(cf.s_s[:, :, 0] - 2.16 / (u * 2 * j))) <= 1e-12
    assert np.max(np.abs(cf.s_s[:, :, 2] - 0.432 / (g3 * 2 * j))) <= 1e-12
    assert np.max(np.abs(cf.s_t[:, :, 2] - 0.648 / (g3 * 2 * j))) <= 1e-12


@pytest.mark.parametrize(
    "name,surf,window,zoff",
    [
        ("plane", ws.Plane(2.0, 3.0, 1.0), ((0.2, 0.8), (0.2, 0.8)), 0.0),
        ("scherk", ws.Scherk(1.0), ((0.1, 0.4), (0.1, 0.4)), 2.0),
    ],
)
def test_critical_point_residual_second_order(name, surf, window, zoff):
    # fixed physical exclusion strip (width 1/16) so the max-norm is taken
    # over nested node sets as the grid refines
    norms = {}
    for n, border in ((17, 1), (33, 2)):
        _, cov = ws.to_cov_boundary(surf, ws.Grid2(n, n), window, z_offset=zoff)
        norms[n] = ws.critical_point_residual(cov, border=border).max_norm
    ratio = norms[17] / norms[33]
    assert 3.2 <= ratio <= 4.8


def test_critical_point_residual_window_shape():
    grid = ws.Grid2(9, 9)
    _, cov = ws.to_cov_boundary(ws.Plane(1.0, 1.0, 1.0), grid, ((0.5, 1.5), (0.5, 1.5)))
    rep = ws.critical_point_residual(cov, border=2)
    assert np.all(rep.values[:2] == 0.0) and np.all(rep.values[-2:] == 0.0)
    assert np.all(rep.values[:, :2] == 0.0) and np.all(rep.values[:, -2:] == 0.0)
    assert rep.max_norm > 0.0
    with pytest.raises(ValueError):
        ws.critical_point_residual(cov, border=0)
    with pytest.raises(ValueError):
        ws.critical_point_residual(cov, border=5)


def test_critical_point_residual_decreases_on_solver_output():
    # solve the covariance graph problem at two resolutions; the residual
    # of the solved surfaces must drop under refinement
    window = ((0.1, 0.4), (0.1, 0.4))
    norms = {}
    for n, border in ((17, 1), (33, 2)):
        boundary, cov = ws.to_cov_boundary(ws.Scherk(1.0), ws.Grid2(n, n), window, z_offset=2.0)
        rep = ws.minimize(
            ws.coons_init(boundary),
            ws.SolverConfig(grad_tol=1e-9, max_iters=5000),
            ws.AreaConfig(epsilon=0.0), free_coords=(2,),
        )
        solved = ws.DiagonalCovSurface(rep.field)
        norms[n] = ws.critical_point_residual(solved, border=border).max_norm
    assert norms[33] < norms[17]
    assert 3.2 <= norms[17] / norms[33] <= 4.8


def test_degenerate_parallel_velocities_raise_with_location():
    g = ws.Grid2(7, 7)
    s = g.s_nodes[:, None, None]
    t = g.t_nodes[None, :, None]
    k = np.arange(3)[None, None, :]
    vals = 2.0 + 0.3 * (s + t) * (1.0 + 0.2 * k)  # d_s gamma == d_t gamma
    surf = ws.DiagonalCovSurface(ws.SurfaceField(g, vals))
    with pytest.raises(DegenerateSurfaceError, match="node"):
        ws.critical_point_residual(surf)


def test_lyapunov_direction_validation():
    g = ws.Grid2(5, 5)
    surf = cov_surface_from(lambda s, t, k: np.full((5, 5, 1), 1.0), g)
    with pytest.raises(ValueError):
        ws.lyapunov_velocity(surf, "x")
