import math
import random
from dataclasses import replace

import numpy as np
import pytest

import wassersurf as ws
import wassersurf.solver
from conftest import smooth_test_field
from wassersurf.errors import SolverNaNError


def plane_problem(n=17, a=1.0, b=1.0):
    grid = ws.Grid2(n, n)
    boundary = full = ws.graph_field(ws.Plane(a, b, 0.0), grid, ((0.0, 1.0), (0.0, 1.0)))
    return boundary, ws.coons_init(boundary), full


def quantile_problem(n=9, m=32):
    # One mixture corner keeps the quantile surface genuinely curved: an
    # all-Gaussian rectangle spans only the 2-plane {1, Phi^-1} of quantile
    # space, where every filling of the boundary already has minimal area.
    grid = ws.Grid2(n, n)
    qg = ws.QuantileGrid(m)
    bimodal = ws.MixtureDensity(
        ((0.5, ws.GaussianDensity(-1.5, 0.6)), (0.5, ws.GaussianDensity(1.5, 0.6)))
    )
    boundary = ws.boundary_from_corners(
        bimodal, ws.GaussianDensity(1.0, 1.3),
        ws.GaussianDensity(-0.5, 2.0), ws.GaussianDensity(1.5, 2.5),
        grid, qg,
    )
    acfg = ws.AreaConfig(epsilon=1e-12, weights=ws.quantile_weights(m))
    return boundary, ws.coons_init(boundary), acfg, qg


def test_plane_boundary_already_stationary():
    _, init, _ = plane_problem()
    rep = ws.minimize(init, ws.SolverConfig(), ws.AreaConfig(epsilon=0.0), free_coords=(2,))
    assert rep.converged
    assert rep.iterations <= 2
    assert np.max(np.abs(rep.field.values - init.values)) <= 1e-12
    assert rep.area_trace[-1] == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_boundary_immutable_bit_exact():
    boundary, init, acfg, _ = quantile_problem()
    rep = ws.minimize(init, ws.SolverConfig(grad_tol=1e-9, max_iters=500), acfg)
    out = rep.field.values
    assert np.array_equal(out[0], boundary.values[0])
    assert np.array_equal(out[-1], boundary.values[-1])
    assert np.array_equal(out[:, 0], boundary.values[:, 0])
    assert np.array_equal(out[:, -1], boundary.values[:, -1])


def test_area_trace_nonincreasing_exactly():
    _, init, acfg, _ = quantile_problem()
    rep = ws.minimize(init, ws.SolverConfig(grad_tol=1e-10, max_iters=400), acfg)
    trace = rep.area_trace
    assert len(trace) >= 2
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_free_coords_validation():
    _, init, _ = plane_problem(5)
    with pytest.raises(ValueError):
        ws.minimize(init, ws.SolverConfig(), ws.AreaConfig(), free_coords=(5,))
    with pytest.raises(ValueError):
        ws.minimize(init, ws.SolverConfig(), ws.AreaConfig(), free_coords=())
    # one coordinate or all of them; no problem poses a proper subset of several
    with pytest.raises(ValueError, match="one coordinate or all"):
        ws.minimize(init, ws.SolverConfig(), ws.AreaConfig(), free_coords=(1, 2))
    # perturb_interior reads free_coords as minimize does
    with pytest.raises(ValueError, match="one coordinate or all"):
        ws.perturb_interior(init, 1e-2, 1, free_coords=(0, 2))
    with pytest.raises(ValueError, match="nonempty subset"):
        ws.perturb_interior(init, 1e-2, 1, free_coords=(3,))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        ws.SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        ws.SolverConfig(grad_tol=-1.0)
    with pytest.raises(ValueError):
        ws.SolverConfig(grad_tol=math.nan)
    with pytest.raises(ValueError):
        ws.SolverConfig(grad_tol=math.inf)


@pytest.mark.parametrize("name, perturb, grad_tol, sizes", [
    ("scherk", 0.0, None, (17, 33)),
    # Scherk's Coons fill is almost the discrete minimizer already; the
    # perturbed, non-separable catenoid leaves the solver the work
    ("catenoid", 1e-2, 1e-9, (17, 33, 65)),
], ids=["scherk", "catenoid"])
def test_graph_solve_second_order_against_oracle(name, perturb, grad_tol, sizes):
    errs = []
    for n in sizes:
        rep, full = graph_solve(*GRAPH_ORACLES[name], n, grad_tol=grad_tol, perturb=perturb)
        errs.append(np.max(np.abs(rep.field.values[1:-1, 1:-1, 2] - full.values[1:-1, 1:-1, 2])))
    assert errs[1] <= 5e-4
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.2 <= coarse / fine <= 4.8


def test_degenerate_rectangle_sits_at_epsilon_floor():
    grid = ws.Grid2(9, 9)
    qg = ws.QuantileGrid(32)
    boundary = ws.boundary_from_corners(
        ws.GaussianDensity(0.0, 1.0), ws.GaussianDensity(0.0, 2.0),
        ws.GaussianDensity(0.0, 1.5), ws.GaussianDensity(0.0, 3.0),
        grid, qg,
    )
    eps = 1e-12
    acfg = ws.AreaConfig(epsilon=eps, weights=ws.quantile_weights(32))
    rep = ws.minimize(ws.coons_init(boundary), ws.SolverConfig(), acfg)
    assert rep.converged
    assert rep.area_trace[-1] <= 1.01 * math.sqrt(eps)
    assert rep.degenerate_cells == 8 * 8


def test_solver_stall_returns_best_so_far(monkeypatch):
    monkeypatch.setattr(wassersurf.solver, "_STEP0", 1e8)
    monkeypatch.setattr(wassersurf.solver, "_MAX_BACKTRACKS", 0)
    cfg = ws.SolverConfig(max_iters=50, grad_tol=1e-14)
    # a pinned solve returns its start bit for bit
    _, graph_init, _ = plane_problem(9, a=2.0)
    graph_init = ws.perturb_interior(graph_init, 1e-2, seed=1, free_coords=(2,))
    rep = ws.minimize(graph_init, cfg, ws.AreaConfig(), free_coords=(2,))
    assert not rep.converged and rep.stall is not None and rep.iterations == 0
    assert np.array_equal(rep.field.values, graph_init.values)
    # an all-free solve returns its start's part in the corners' span, which for
    # a Coons fill of straight edges is the start to rounding
    boundary, init, acfg, _ = quantile_problem()
    rep = ws.minimize(init, cfg, acfg)
    assert not rep.converged and rep.stall is not None and rep.iterations == 0
    assert_edges_exact(rep.field.values, boundary)
    assert np.max(np.abs(rep.field.values - init.values)) <= 1e-13 * np.max(np.abs(init.values))


def test_nan_objective_raises_with_iteration(monkeypatch):
    _, init, acfg, _ = quantile_problem()

    def bad_cells(terms):
        out = replace(terms, cells=np.full(terms.cells.shape, np.nan))
        return out

    real = wassersurf.solver.cell_terms
    calls = {"n": 0}

    def flaky(*args):
        calls["n"] += 1
        if calls["n"] > 1:
            return bad_cells(real(*args))
        return real(*args)

    monkeypatch.setattr(wassersurf.solver, "cell_terms", flaky)
    with pytest.raises(SolverNaNError) as err:
        ws.minimize(init, ws.SolverConfig(max_iters=10), acfg)
    assert err.value.iteration == 1


def test_determinism_of_full_solve():
    _, init, acfg, _ = quantile_problem()
    cfg = ws.SolverConfig(grad_tol=1e-10, max_iters=300)
    r1 = ws.minimize(init, cfg, acfg)
    r2 = ws.minimize(init, cfg, acfg)
    assert np.array_equal(r1.field.values, r2.field.values)
    assert r1.area_trace == r2.area_trace
    assert r1.iterations == r2.iterations
    assert r1.grad_norm == r2.grad_norm


# ---------------------------------------------------------------------------
# discrete optimality residual
# ---------------------------------------------------------------------------


def test_el_residual_zero_on_plane():
    _, init, full = plane_problem(17, a=2.0, b=3.0)
    rep = ws.euler_lagrange_residual(full, ws.AreaConfig(epsilon=0.0))
    assert rep.max_norm <= 1e-12


def test_el_residual_is_scaled_gradient(rng):
    # dual route: the flux-divergence assembly must reproduce the exact
    # algebraic gradient up to the -1/(hs*ht) factor
    grid = ws.Grid2(9, 8)
    f = smooth_test_field(grid, m=4)
    acfg = ws.AreaConfig(epsilon=1e-12, weights=ws.quantile_weights(4))
    rep = ws.euler_lagrange_residual(f, acfg)
    grad = ws.area_gradient(f, acfg)
    mismatch = np.max(np.abs(rep.values[1:-1, 1:-1] + grad[1:-1, 1:-1] / (grid.hs * grid.ht)))
    assert mismatch <= 1e-10 * max(rep.max_norm, 1.0)


def test_el_residual_is_gradient_bit_for_bit():
    # one flux kernel serves both: grad = -hs*ht*EL holds exactly, also on a
    # width of several coordinate blocks and a remainder
    grid = ws.Grid2(9, 8)
    for m in (4, 37):
        f = smooth_test_field(grid, m=m)
        acfg = ws.AreaConfig(epsilon=1e-12, weights=ws.quantile_weights(m))
        el = ws.euler_lagrange_residual(f, acfg).values[1:-1, 1:-1]
        grad = ws.area_gradient(f, acfg)[1:-1, 1:-1]
        assert np.array_equal(grad, -(grid.hs * grid.ht) * el)


def test_el_residual_of_collapsed_cells_at_epsilon_zero_divides_by_no_zero_area():
    # zero tangents give G = 0 and, with epsilon = 0, a zero cell area; the
    # clamp's flat side has zero flux, taken without a division by zero
    # (which pytest turns into an error)
    grid = ws.Grid2(6, 6)
    vals = smooth_test_field(grid, m=3).values
    vals[:3, :3] = vals[0, 0]
    f = ws.SurfaceField(grid, vals)
    acfg = ws.AreaConfig(epsilon=0.0)
    assert np.count_nonzero(ws.cell_terms(f, acfg).cells == 0.0) == 4
    rep = ws.euler_lagrange_residual(f, acfg)
    assert np.all(np.isfinite(rep.values)) and rep.values[1, 1].tolist() == [0.0, 0.0, 0.0]
    assert np.array_equal(ws.area_gradient(f, acfg)[1:-1, 1:-1],
                          -(grid.hs * grid.ht) * rep.values[1:-1, 1:-1])


def test_el_residual_symmetric_under_swap(rng):
    # swapping s and t swaps the two fluxes exactly; only the order of the
    # divergence's four adds changes, so the residual moves by rounding
    grid = ws.Grid2(9, 6)
    vals = smooth_test_field(grid, m=3).values + 0.05 * rng.standard_normal((9, 6, 3))
    acfg = ws.AreaConfig(epsilon=1e-12, weights=np.array([1.0, 0.5, 2.0]))
    rep = ws.euler_lagrange_residual(ws.SurfaceField(grid, vals), acfg)
    swapped = ws.euler_lagrange_residual(
        ws.SurfaceField(ws.Grid2(6, 9), np.swapaxes(vals, 0, 1).copy()), acfg
    )
    assert np.allclose(swapped.values, np.swapaxes(rep.values, 0, 1), rtol=0.0,
                       atol=1e-13 * rep.max_norm)
    assert swapped.max_norm == pytest.approx(rep.max_norm, rel=1e-13)
    assert np.array_equal(swapped.excluded_mask, rep.excluded_mask.T)


def test_el_residual_refinement_on_sampled_scherk():
    scherk = ws.Scherk(1.0)
    window = ((0.1, 0.4), (0.1, 0.4))
    acfg = ws.AreaConfig(epsilon=0.0)
    norms = {}
    for n in (17, 33, 65):
        f = ws.graph_field(scherk, ws.Grid2(n, n), window)
        norms[n] = ws.euler_lagrange_residual(f, acfg).max_norm
    assert 3.2 <= norms[17] / norms[33] <= 4.8
    assert 3.2 <= norms[33] / norms[65] <= 4.8


def test_solver_output_residual_near_sampled_analytic():
    scherk = ws.Scherk(1.0)
    window = ((0.1, 0.4), (0.1, 0.4))
    acfg = ws.AreaConfig(epsilon=0.0)
    grid = ws.Grid2(33, 33)
    boundary = full = ws.graph_field(scherk, grid, window)
    rep = ws.minimize(ws.coons_init(boundary), ws.SolverConfig(max_iters=5000), acfg, free_coords=(2,))
    solved = ws.euler_lagrange_residual(rep.field, acfg).max_norm
    sampled = ws.euler_lagrange_residual(full, acfg).max_norm
    assert solved <= 10.0 * sampled


def test_el_residual_excludes_fully_degenerate_nodes():
    grid = ws.Grid2(6, 6)
    s = grid.s_nodes[:, None, None]
    t = grid.t_nodes[None, :, None]
    k = np.arange(2)[None, None, :]
    f = ws.SurfaceField(grid, (s + t) * (1.0 + k))
    rep = ws.euler_lagrange_residual(f, ws.AreaConfig(epsilon=1e-12))
    assert rep.excluded_nodes == 16
    assert rep.max_norm == 0.0


def test_stationarity_consistency_when_converged():
    grid = ws.Grid2(17, 17)
    boundary = ws.graph_field(ws.Scherk(1.0), grid, ((0.1, 0.4), (0.1, 0.4)))
    acfg = ws.AreaConfig(epsilon=0.0)
    tol = 1e-9
    rep = ws.minimize(
        ws.coons_init(boundary),
        ws.SolverConfig(grad_tol=tol, max_iters=5000), acfg, free_coords=(2,),
    )
    assert rep.converged
    assert rep.el_residual <= 100.0 * tol / (grid.hs * grid.ht)


def test_report_json_schema():
    _, init, _ = plane_problem(9)
    rep = ws.minimize(init, ws.SolverConfig(), ws.AreaConfig(epsilon=0.0), free_coords=(2,))
    doc = rep.to_json_dict()
    assert set(doc) == {"converged", "iters", "area_trace", "grad_norm", "el_residual",
                        "degenerate_cells", "hourglass", "stall"}
    assert doc["converged"] is True and doc["stall"] is None


def test_perturb_interior_deterministic_and_bounded():
    _, init, _ = plane_problem(9)
    p1 = ws.perturb_interior(init, 0.01, seed=3, free_coords=(2,))
    p2 = ws.perturb_interior(init, 0.01, seed=3, free_coords=(2,))
    assert np.array_equal(p1.values, p2.values)
    assert np.array_equal(p1.values[0], init.values[0])
    assert np.array_equal(p1.values[:, -1], init.values[:, -1])
    bump = np.abs(p1.values - init.values)
    assert bump.max() == pytest.approx(0.01, rel=1e-12)
    assert np.array_equal(p1.values[:, :, :2], init.values[:, :, :2])
    p3 = ws.perturb_interior(init, 0.01, seed=4, free_coords=(2,))
    assert not np.array_equal(p1.values, p3.values)


def documented_bump(grid, amplitude, seed):
    """The perturbation's documented formula, from ``random.Random(seed)`` draws."""
    rng = random.Random(seed)
    coeffs = [[rng.uniform(-1.0, 1.0) for q in range(1, 4)] for p in range(1, 4)]
    s, t = np.meshgrid(grid.s_nodes, grid.t_nodes, indexing="ij")
    bump = sum(
        coeffs[p - 1][q - 1] * np.sin(p * np.pi * s) * np.sin(q * np.pi * t)
        for p in range(1, 4) for q in range(1, 4)
    )
    return bump * (amplitude / np.max(np.abs(bump)))


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, np.int64(12)])
@pytest.mark.parametrize("free_coords", [(2,), None], ids=["pinned", "all-free"])
def test_perturb_interior_is_the_documented_formula(seed, free_coords):
    grid = ws.Grid2(13, 9)
    init = smooth_test_field(grid, 3)
    got = ws.perturb_interior(init, 0.02, seed, free_coords)
    bump = documented_bump(grid, 0.02, int(seed))
    moved = (2,) if free_coords else (0, 1, 2)
    for k in range(3):
        delta = got.values[..., k] - init.values[..., k]
        if k not in moved:
            assert not np.any(delta)
            continue
        assert not np.any(delta[0]) and not np.any(delta[-1])
        assert not np.any(delta[:, 0]) and not np.any(delta[:, -1])
        np.testing.assert_allclose(delta[1:-1, 1:-1], bump[1:-1, 1:-1], rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", [-1, -3, True, False, 3.0, 1.5, "3", None],
                         ids=["minus1", "minus3", "true", "false", "float", "fraction", "str", "none"])
def test_perturb_interior_rejects_a_seed_that_is_no_non_negative_integer(seed):
    _, init, _ = plane_problem(5)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        ws.perturb_interior(init, 1e-2, seed, (2,))


def test_perturbed_init_converges_to_same_surface():
    scherk = ws.Scherk(1.0)
    grid = ws.Grid2(17, 17)
    boundary = full = ws.graph_field(scherk, grid, ((0.1, 0.4), (0.1, 0.4)))
    acfg = ws.AreaConfig(epsilon=0.0)
    cfg = ws.SolverConfig(grad_tol=1e-9, max_iters=5000)
    base = ws.minimize(ws.coons_init(boundary), cfg, acfg, free_coords=(2,))
    shaken = ws.perturb_interior(ws.coons_init(boundary), 0.02, seed=11, free_coords=(2,))
    other = ws.minimize(shaken, cfg, acfg, free_coords=(2,))
    assert other.converged
    assert np.max(np.abs(other.field.values - base.field.values)) <= 1e-6


# ---------------------------------------------------------------------------
# preconditioned single-coordinate path
# ---------------------------------------------------------------------------

CATENOID = (ws.Catenoid(0.0, 1.0, 1), ((0.8, 2.1), (0.8, 2.1)))
GRAPH_ORACLES = {
    "scherk": (ws.Scherk(1.0), ((0.1, 0.4), (0.1, 0.4))),
    "catenoid": CATENOID,
    "helicoid": (ws.Helicoid(1.0, 2.0), ((0.5, 1.0), (0.5, 1.0))),
}


def graph_solve(surf, window, n, grad_tol=None, perturb=0.0):
    grid = ws.Grid2(n, n)
    boundary = full = ws.graph_field(surf, grid, window)
    init = ws.perturb_interior(ws.coons_init(boundary), perturb, seed=1, free_coords=(2,))
    rep = ws.minimize(
        init, ws.SolverConfig(grad_tol=grad_tol), ws.AreaConfig(epsilon=0.0),
        free_coords=(2,),
    )
    return rep, full


@pytest.mark.parametrize("n", [17, 33, 65])
def test_perturbed_catenoid_iterations_grid_independent(n):
    rep, full = graph_solve(*CATENOID, n, grad_tol=1e-9, perturb=1e-2)
    assert rep.converged and rep.stall is None
    assert rep.iterations <= 60
    gap = np.max(np.abs(rep.field.values - full.values)[1:-1, 1:-1])
    assert gap <= 2e-5 * (64 / (n - 1)) ** 2


@pytest.mark.parametrize("n", [17, 33, 65, 129])
@pytest.mark.parametrize("name", sorted(GRAPH_ORACLES))
def test_newton_iterations_flat_under_refinement(name, n):
    rep, full = graph_solve(*GRAPH_ORACLES[name], n, grad_tol=1e-9, perturb=1e-2)
    assert rep.converged and rep.stall is None
    assert rep.iterations <= 8
    gap = np.max(np.abs(rep.field.values - full.values)[1:-1, 1:-1])
    assert gap <= 2e-5 * (64 / (n - 1)) ** 2


@pytest.mark.parametrize("problem", ["graph", "covariance"])
def test_newton_operator_is_the_exact_hessian(problem):
    # the operator of the one-free-coordinate step against a central
    # difference of the area gradient along a random interior direction
    grid = ws.Grid2(17, 17)
    if problem == "graph":
        surf, window = CATENOID
        boundary = ws.graph_field(surf, grid, window)
        acfg = ws.AreaConfig(epsilon=0.0)
    else:
        surf, window, z_offset = COV_ORACLES["scherk"]
        boundary, _ = ws.to_cov_boundary(surf, grid, window, z_offset)
        acfg = ws.AreaConfig()
    f = ws.perturb_interior(ws.coons_init(boundary), 1e-2, seed=1, free_coords=(2,))
    moving = slice(2, 3)
    terms = ws.cell_terms(f, acfg)
    # the Gram of the other two coordinates is not the identity
    other = ws.area._gram_terms(terms.ds[..., :2], terms.dt[..., :2], terms.w[:2])
    assert not np.allclose(other[0], 1.0) and not np.allclose(other[1], 1.0)
    solver = wassersurf.solver
    apply = solver._frozen_operator(solver._newton_kernel(terms, moving), grid)
    v = np.random.default_rng(3).standard_normal((grid.ns - 2, grid.nt - 2, 1))

    def gradient(x):
        values = f.values.copy()
        values[1:-1, 1:-1, moving] += x
        terms = ws.cell_terms(ws.SurfaceField(grid, values), acfg)
        return ws.area.terms_gradient(terms.columns(moving), grid)

    h = 1e-5
    central = (gradient(h * v) - gradient(-h * v)) / (2.0 * h)
    exact = apply(v)
    assert np.max(np.abs(central - exact)) <= 1e-6 * np.max(np.abs(exact))


@pytest.mark.parametrize("name", sorted(GRAPH_ORACLES))
def test_graph_solves_reach_default_tolerance(name):
    rep, _ = graph_solve(*GRAPH_ORACLES[name], 33)
    assert rep.converged and rep.stall is None
    assert rep.grad_norm <= ws.default_grad_tol(ws.Grid2(33, 33))
    trace = rep.area_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_area_change_matches_plain_difference():
    grid = ws.Grid2(13, 11)
    f = smooth_test_field(grid, m=3)
    acfg = ws.AreaConfig(epsilon=1e-12, weights=np.array([1.0, 0.5, 2.0]))
    step = np.zeros((grid.ns, grid.nt))
    step[1:-1, 1:-1] = 1e-2 * np.random.default_rng(5).standard_normal((grid.ns - 2, grid.nt - 2))
    moved = f.values.copy()
    moved[:, :, 1] += step
    current = ws.cell_terms(f, acfg)
    trial = ws.cell_terms(ws.SurfaceField(grid, moved), acfg)
    cells, cells_try = current.cells, trial.cells
    plain = grid.hs * grid.ht * math.fsum((cells_try - cells).ravel().tolist())
    # the change of moving coordinate 1 alone, read from its columns
    exact = ws.area.terms_change(current.columns(slice(1, 2)), cells_try, step[..., None], grid)
    assert abs(plain) > 1e-6
    assert exact == pytest.approx(plain, rel=1e-12)


def test_dst_preconditioner_inverts_its_operator():
    grid = ws.Grid2(9, 12)
    n1, n2 = grid.ns - 2, grid.nt - 2
    c_s, c_t = 1.3, 0.7

    def second_difference(n):
        return 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)

    def average(n):
        return (2.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / 4.0

    op = grid.hs * grid.ht * (
        c_s * np.kron(second_difference(n1), average(n2)) / grid.hs**2
        + c_t * np.kron(average(n1), second_difference(n2)) / grid.ht**2
    )
    x = np.random.default_rng(9).standard_normal(n1 * n2)
    solve = wassersurf.solver._dst_inverse(grid, c_s, c_t)
    assert np.max(np.abs(solve(op @ x) - x)) <= 1e-12 * np.max(np.abs(x))
    # r = 3 columns of the solver's (ns-2, nt-2, r) layout at once, each solved
    # alone; n1 != n2, so a swap of the s and t factors would show
    cols = np.random.default_rng(10).standard_normal((n1 * n2, 3))
    rhs = (op @ cols).reshape(n1, n2, 3)
    got = solve(rhs)
    assert np.max(np.abs(got - cols.reshape(n1, n2, 3))) <= 1e-12 * np.max(np.abs(cols))
    # the stacked product solves each column as its solve alone does, bit for bit
    for k in range(3):
        assert np.array_equal(got[..., k], solve(rhs[..., k:k + 1])[..., 0])


def test_flat_hessian_inverse_without_live_cells_takes_unit_coefficients():
    # every cell of a constant field sits below the degeneracy floor
    grid = ws.Grid2(7, 9)
    acfg = ws.AreaConfig()
    terms = ws.cell_terms(ws.SurfaceField(grid, np.ones((7, 9, 3))), acfg)
    assert not np.any(terms.gram > acfg.epsilon)
    x = np.random.default_rng(4).standard_normal((5, 7, 2))
    got = wassersurf.solver._flat_hessian_inverse(terms, grid, acfg)(x)
    assert np.array_equal(got, wassersurf.solver._dst_inverse(grid, 1.0, 1.0)(x))


def test_nan_objective_raises_on_preconditioned_path(monkeypatch):
    real = wassersurf.solver.cell_terms
    calls = {"n": 0}

    def flaky(*args):
        calls["n"] += 1
        out = real(*args)
        return out if calls["n"] == 1 else replace(out, cells=np.full_like(out.cells, np.nan))

    monkeypatch.setattr(wassersurf.solver, "cell_terms", flaky)
    with pytest.raises(SolverNaNError) as err:
        graph_solve(*CATENOID, 17)
    assert err.value.iteration == 1


@pytest.mark.parametrize("free_coords", [(2,), None], ids=["pinned", "all-free"])
def test_nan_gradient_raises_before_any_line_search(monkeypatch, free_coords):
    # a NaN area gradient is a numerical failure on either metric, not a stall
    _, init, acfg, _ = covariance_span_problem([d[:3] for d in COV_DIAGS])
    real = wassersurf.solver.terms_gradient
    monkeypatch.setattr(wassersurf.solver, "terms_gradient",
                        lambda terms, grid: np.full_like(real(terms, grid), np.nan))
    with pytest.raises(SolverNaNError) as err:
        ws.minimize(init, ws.SolverConfig(), acfg, free_coords=free_coords)
    assert err.value.iteration == 1


# ---------------------------------------------------------------------------
# each field evaluated once
# ---------------------------------------------------------------------------


def _count_evaluations(monkeypatch):
    """Record minimize's kernel calls and trials; fail on the per-quantity functions.

    Returns the list of ``(values, cfg, terms)`` of every ``cell_terms``
    call and the list of ``terms_change`` calls, one per line-search trial.
    """
    real_terms = wassersurf.solver.cell_terms
    real_change = wassersurf.solver.terms_change
    calls, trials = [], []

    def recording_terms(f, cfg):
        terms = real_terms(f, cfg)
        calls.append((f.values.copy(), cfg, terms))
        return terms

    def recording_change(*args):
        trials.append(args)
        return real_change(*args)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called inside minimize")
        return call

    monkeypatch.setattr(wassersurf.solver, "cell_terms", recording_terms)
    monkeypatch.setattr(wassersurf.solver, "terms_change", recording_change)
    for module in (wassersurf.area, wassersurf.solver):
        for name in ("area_gradient", "total_area"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    return calls, trials


def _assert_terms_equal(got, want):
    for name in ("ds", "dt", "w", "a", "b", "c", "gram", "cells"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _graph_problem():
    grid = ws.Grid2(17, 17)
    surf, window = CATENOID
    boundary = ws.graph_field(surf, grid, window)
    init = ws.perturb_interior(ws.coons_init(boundary), 1e-2, seed=1, free_coords=(2,))
    return boundary, init, ws.AreaConfig(epsilon=0.0), (2,)


def _all_free_problem():
    boundary, init, acfg, _ = covariance_span_problem()
    return boundary, init, acfg, None


@pytest.mark.parametrize("problem", [_graph_problem, _all_free_problem], ids=["graph", "all-free"])
def test_each_field_is_evaluated_once(monkeypatch, problem):
    _, init, acfg, free_coords = problem()
    real_terms = wassersurf.solver.cell_terms
    calls, trials = _count_evaluations(monkeypatch)
    rep = ws.minimize(init, ws.SolverConfig(grad_tol=1e-9), acfg,
                      free_coords=free_coords)
    assert rep.converged and rep.iterations >= 3
    # once at the start, once per line-search trial, once for the final residual
    assert len(trials) >= rep.iterations
    assert len(calls) == 1 + len(trials) + 1
    start, loop, final = calls[0], calls[1:-1], calls[-1]
    assert np.array_equal(final[0], rep.field.values)
    for values, cfg, terms in loop:
        # every trial takes the terms of every coordinate of its field
        fresh = real_terms(ws.SurfaceField(init.grid, values), cfg)
        _assert_terms_equal(terms, fresh)
    # each trial's area change reads the moving columns of the current terms
    moving = trials[0][0].ds.shape[-1]
    assert all(args[0].ds.shape[-1] == moving for args in trials)
    # one coordinate moves: the free one, or the height of the corners' graph basis
    assert moving == 1
    if free_coords is not None:
        # one free coordinate of three, and the last trial is the returned field
        assert start[2].ds.shape[-1] == init.dim
        assert np.array_equal(loop[-1][0], rep.field.values)
    else:
        assert start[2].ds.shape[-1] == 3 < init.dim


# ---------------------------------------------------------------------------
# all-free solves: a graph over the plane of the corners' span
# ---------------------------------------------------------------------------

COV_DIAGS = (
    (1.0, 2.0, 0.5, 3.0, 1.5, 0.8),
    (4.0, 1.0, 2.0, 1.0, 0.6, 2.5),
    (0.7, 3.0, 1.2, 2.0, 3.5, 1.0),
    (2.5, 0.9, 3.0, 0.6, 1.0, 4.0),
)


def density_span_problem(m=16):
    boundary, init, acfg, _ = quantile_problem(n=17, m=m)
    return boundary, ws.perturb_interior(init, 1e-3, seed=5), acfg, 3e-5


def covariance_span_problem(diags=COV_DIAGS):
    roots = [np.sqrt(np.array(d)) for d in diags]
    boundary = ws.edges_from_corner_vectors(*roots, ws.Grid2(17, 17))
    init = ws.perturb_interior(ws.coons_init(boundary), 1e-2, seed=2)
    return boundary, init, ws.AreaConfig(), 1e-4


def assert_edges_exact(values, boundary):
    assert np.array_equal(values[0], boundary.values[0])
    assert np.array_equal(values[-1], boundary.values[-1])
    assert np.array_equal(values[:, 0], boundary.values[:, 0])
    assert np.array_equal(values[:, -1], boundary.values[:, -1])


def test_span_reduction_meets_full_space_tolerance():
    boundary, init, acfg, tol = density_span_problem()
    # non-uniform weights too: y = sqrt(w) * x scales each coordinate, so the
    # corner-driven field keeps its rank
    nonuniform = ws.AreaConfig(weights=ws.quantile_weights(16) * np.linspace(0.5, 1.5, 16))
    for acfg in (acfg, nonuniform):
        rep = ws.minimize(init, ws.SolverConfig(grad_tol=tol, max_iters=3000), acfg)
        assert rep.converged
        # grad_norm is the gradient of every coordinate in x, and it meets grad_tol
        full = ws.area_gradient(rep.field, acfg)[1:-1, 1:-1]
        assert rep.grad_norm == pytest.approx(float(np.max(np.abs(full))), rel=1e-9)
        assert rep.grad_norm <= tol
        # the perturbation's part outside the corners' span is gone: in y the
        # field is the corner c00 plus a rank-3 part
        y = rep.field.values * np.sqrt(acfg.weight_vector(16))
        sigma = np.linalg.svd((y - y[0, 0]).reshape(-1, 16), compute_uv=False)
        assert sigma[3] <= 1e-12 * sigma[0]
        assert_edges_exact(rep.field.values, boundary)


@pytest.mark.parametrize("free_coords", [None, range(16)], ids=["none", "every"])
def test_weights_equal_the_matching_coordinate_scaling(free_coords):
    # a weight vector is the change of variables y = sqrt(w) * x, and naming
    # every coordinate takes the same loop as None; the stopping test reads the
    # gradient in x, which the scaling changes, so both take the same two steps
    boundary, init, _, _ = density_span_problem()
    w = ws.quantile_weights(16) * np.linspace(0.5, 1.5, 16)
    root = np.sqrt(w)
    cfg = ws.SolverConfig(grad_tol=1e-300, max_iters=2)
    weighted = ws.minimize(init, cfg, ws.AreaConfig(weights=w), free_coords=free_coords)
    scaled = ws.minimize(ws.SurfaceField(init.grid, init.values * root), cfg, ws.AreaConfig())
    assert weighted.iterations == scaled.iterations == 2
    inner = weighted.field.values[1:-1, 1:-1]
    gap = np.max(np.abs(inner - scaled.field.values[1:-1, 1:-1] / root))
    assert gap <= 1e-12 * np.max(np.abs(inner))
    assert np.max(np.abs(np.subtract(weighted.area_trace, scaled.area_trace))) <= 1e-12
    assert_edges_exact(weighted.field.values, boundary)


def test_stall_message_explains_itself(monkeypatch):
    _, init, acfg, _ = quantile_problem()
    monkeypatch.setattr(wassersurf.solver, "_STEP0", 1e8)
    monkeypatch.setattr(wassersurf.solver, "_MAX_BACKTRACKS", 3)
    cfg = ws.SolverConfig(max_iters=50, grad_tol=1e-14)
    rep = ws.minimize(init, cfg, acfg)
    assert not rep.converged
    el_tol = 1e-14 / (init.grid.hs * init.grid.ht)
    for part in ("iteration 1", "backtracks", f"step {1e8 * 0.5**3:.3e}",
                 f"Euler-Lagrange residual {rep.el_residual:.3e}", f"against {el_tol:.3e}"):
        assert part in rep.stall
    # no step setting is left to change
    assert rep.stall.endswith("; raise grad_tol if the gradient sits at its rounding floor")


def test_stall_message_without_a_line_search():
    # a direction that is not a descent direction runs no line search, and
    # the message must not claim backtracks that never happened
    msg = wassersurf.solver._stall_message(4, 0, ws.SolverConfig(), 1e-3, 2e-4, 1e-5, 2.0, 0.1)
    assert msg.startswith("no descent direction at iteration 4")
    assert "backtracks" not in msg and "step0" not in msg
    assert "gradient max-norm 1.000e-03 (height part 2.000e-04) against tolerance 1.000e-05" in msg


def test_stall_message_names_a_spent_budget():
    grid = ws.Grid2(17, 17)
    boundary = ws.graph_field(CATENOID[0], grid, CATENOID[1])
    cfg = ws.SolverConfig(max_iters=2, grad_tol=1e-9)
    rep = ws.minimize(ws.coons_init(boundary), cfg, ws.AreaConfig(epsilon=0.0),
                      free_coords=(2,))
    assert not rep.converged and rep.iterations == 2
    el_tol = 1e-9 / (grid.hs * grid.ht)
    for part in ("max_iters = 2", f"gradient max-norm {rep.grad_norm:.3e} against tolerance 1.000e-09",
                 f"Euler-Lagrange residual {rep.el_residual:.3e} against {el_tol:.3e}",
                 "raise max_iters"):
        assert part in rep.stall
    assert "backtracks" not in rep.stall


# ---------------------------------------------------------------------------
# all-free oracle solves: the graph route or a ValueError
# ---------------------------------------------------------------------------

COV_ORACLES = {
    "scherk": (ws.Scherk(1.0), ((0.1, 0.4), (0.1, 0.4)), 2.0),
    "catenoid": (ws.Catenoid(0.0, 1.0, 1), ((0.8, 2.1), (0.8, 2.1)), 0.5),
    "helicoid": (ws.Helicoid(1.0, 2.0), ((0.5, 1.0), (0.5, 1.0)), 0.0),
}


def graph_distance(surf, z_offset, values):
    """Max over interior nodes of the closed-form graph's height distance from the node.

    It depends on where the nodes lie, not on how the surface is parametrized.
    """
    inner = values[1:-1, 1:-1]
    z = ws.evaluate(surf, inner[..., 0], inner[..., 1]).z + z_offset
    return float(np.max(np.abs(inner[..., 2] - z)))


def all_free_oracle_problem(name, n):
    surf, window, z_offset = COV_ORACLES[name]
    boundary, _ = ws.to_cov_boundary(surf, ws.Grid2(n, n), window, z_offset)
    init = ws.perturb_interior(ws.coons_init(boundary), 1e-2, seed=1)
    return boundary, init, lambda values: graph_distance(surf, z_offset, values)


@pytest.mark.parametrize("name", ["catenoid"])
def test_all_free_oracle_gaps_refine_without_drift(name):
    acfg = ws.AreaConfig(epsilon=0.0)
    gaps = {}
    for n in (17, 33):
        _, init, gap = all_free_oracle_problem(name, n)
        rep = ws.minimize(init, ws.SolverConfig(), acfg)
        assert rep.converged
        gaps[n] = gap(rep.field.values)
        # past the stopping rule: a tolerance below the rounding floor keeps
        # the solve stepping until max_iters or a stall at that floor
        past = {}
        for iters in (10, 200):
            long = ws.minimize(init, ws.SolverConfig(max_iters=iters, grad_tol=1e-300), acfg)
            assert not long.converged and long.iterations > rep.iterations
            past[iters] = (gap(long.field.values), long.hourglass)
        assert past[200][0] <= past[10][0] * (1.0 + 1e-6)
        assert past[200][1] <= past[10][1] * (1.0 + 1e-6)
        assert past[10][0] <= gaps[n] * (1.0 + 1e-5)
    assert 3.2 <= gaps[17] / gaps[33] <= 4.8


def test_all_free_catenoid_solve_is_the_pinned_solve():
    # the catenoid's corners give d along the height, so the all-free solve
    # pins (x, y) to the Coons fill of the edges and moves the start's z, as
    # the pinned solve of the start with that (x, y) does
    acfg = ws.AreaConfig(epsilon=0.0)
    for n in (17, 33):
        boundary, init, gap = all_free_oracle_problem("catenoid", n)
        free = ws.minimize(init, ws.SolverConfig(), acfg)
        start = ws.coons_init(boundary).values
        start[..., 2] = init.values[..., 2]
        pinned = ws.minimize(ws.SurfaceField(init.grid, start), ws.SolverConfig(), acfg,
                             free_coords=(2,))
        assert free.converged and pinned.converged
        assert np.max(np.abs(free.field.values - pinned.field.values)) <= 1e-11
        assert gap(free.field.values) == pytest.approx(gap(pinned.field.values), rel=1e-7)
        assert_edges_exact(free.field.values, boundary)


README_COV_CORNERS = ([1.0, 2.0, 0.5], [2.0, 1.0, 1.5], [0.5, 3.0, 1.0], [3.0, 0.7, 2.0])


@pytest.mark.parametrize("n", [9, 17])
def test_graph_route_solves_perturbed_starts_to_the_unperturbed_surface(n):
    # the boundary pins the in-plane coordinates, not the start: a perturbation of
    # every coordinate changes only where the height starts, and the discrete area
    # is convex in the height, so every start ends on the one minimizer
    boundary = ws.edges_from_corner_vectors(*(np.sqrt(c) for c in README_COV_CORNERS),
                                            ws.Grid2(n, n))
    base = ws.minimize(ws.coons_init(boundary), ws.SolverConfig(), ws.AreaConfig())
    assert base.converged
    for seed in (1, 2, 3):
        init = ws.perturb_interior(ws.coons_init(boundary), 1e-2, seed)
        rep = ws.minimize(init, ws.SolverConfig(), ws.AreaConfig())
        assert rep.converged
        assert np.max(np.abs(rep.field.values - base.field.values)) <= 1e-8
        assert rep.area_trace[-1] == pytest.approx(base.area_trace[-1], rel=1e-12, abs=0.0)
        assert_edges_exact(rep.field.values, boundary)


def test_graph_route_stops_within_a_step_of_the_pinned_solve():
    # a height-only perturbation of the catenoid, whose all-free solve moves the height
    # as the pinned one does; it stops once its gradient falls by no more than grad_tol,
    # so rounding in the in-plane gradient costs no further steps
    surf, window, z_offset = COV_ORACLES["catenoid"]
    boundary, _ = ws.to_cov_boundary(surf, ws.Grid2(17, 17), window, z_offset)
    init = ws.perturb_interior(ws.coons_init(boundary), 1e-2, seed=1, free_coords=(2,))
    acfg = ws.AreaConfig(epsilon=0.0)
    free = ws.minimize(init, ws.SolverConfig(), acfg)
    pinned = ws.minimize(init, ws.SolverConfig(), acfg, free_coords=(2,))
    assert free.converged and pinned.converged
    assert free.iterations <= pinned.iterations + 1


def bent_edge_problem():
    # the catenoid's t = 0 edge pushed into the window, so its projection is not convex
    boundary, _, _ = all_free_oracle_problem("catenoid", 17)
    values = boundary.values.copy()
    values[1:-1, 0, 1] += 0.3 * np.sin(np.pi * boundary.grid.s_nodes[1:-1])
    return ws.perturb_interior(ws.coons_init(ws.SurfaceField(boundary.grid, values)), 1e-2, seed=1)


@pytest.mark.parametrize("name, match", [
    # coplanar corners (d = 0) and edges that leave their plane
    ("scherk", "leave the affine span"),
    ("helicoid", "leave the affine span"),
    ("bent-edge", "convex closed curve"),
], ids=["scherk", "helicoid", "bent-edge"])
def test_all_free_solve_without_an_exact_graph_route_raises(name, match):
    init = bent_edge_problem() if name == "bent-edge" else all_free_oracle_problem(name, 17)[1]
    with pytest.raises(ValueError, match=match):
        ws.minimize(init, ws.SolverConfig(), ws.AreaConfig(epsilon=0.0))
    # the same start solves with the height pinned free
    assert ws.minimize(init, ws.SolverConfig(), ws.AreaConfig(epsilon=0.0),
                       free_coords=(2,)).converged


def test_flat_corners_return_the_start_in_their_span_after_0_steps():
    # four Gaussian densities span the 2-plane {1, Phi^-1}: no height to move
    grid, qg = ws.Grid2(9, 9), ws.QuantileGrid(32)
    boundary = ws.boundary_from_corners(
        ws.GaussianDensity(0.0, 1.0), ws.GaussianDensity(1.0, 2.0),
        ws.GaussianDensity(-0.5, 1.5), ws.GaussianDensity(2.0, 3.0), grid, qg)
    init = ws.coons_init(boundary)
    shaken = ws.perturb_interior(init, 1e-2, seed=3)
    acfg = ws.AreaConfig(weights=ws.quantile_weights(32))
    for start in (init, shaken):
        rep = ws.minimize(start, ws.SolverConfig(), acfg)
        assert rep.converged and rep.iterations == 0 and rep.stall is None
        assert_edges_exact(rep.field.values, boundary)
        # the shaken start keeps at most its bump, whose constant direction lies in the plane
        assert np.max(np.abs(rep.field.values - init.values)) <= 1e-2 * (1.0 + 1e-9)
        y = rep.field.values - rep.field.values[0, 0]
        assert np.linalg.svd(y.reshape(-1, 32), compute_uv=False)[2] <= 1e-12


def test_all_free_grad_norm_is_the_gradient_of_every_coordinate():
    _, init, acfg, tol = covariance_span_problem()
    rep = ws.minimize(init, ws.SolverConfig(grad_tol=tol), acfg)
    assert rep.converged
    full = ws.area_gradient(rep.field, acfg)[1:-1, 1:-1]
    assert rep.grad_norm == pytest.approx(float(np.max(np.abs(full))), rel=1e-9)
    assert rep.el_residual * init.grid.hs * init.grid.ht == pytest.approx(rep.grad_norm, rel=1e-9)
    assert rep.hourglass == ws.area.hourglass_amplitude(rep.field)


def test_corner_driven_covariance_example_converges_below_coons_residual():
    corners = ([1.0, 2.0, 0.5], [2.0, 1.0, 1.5], [0.5, 3.0, 1.0], [3.0, 0.7, 2.0])
    grid = ws.Grid2(17, 17)
    boundary = ws.edges_from_corner_vectors(*(np.sqrt(c) for c in corners), grid)
    init = ws.coons_init(boundary)
    rep = ws.minimize(init, ws.SolverConfig(), ws.AreaConfig())
    assert rep.converged and rep.stall is None
    assert rep.iterations <= 30
    trace = rep.area_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))
    coons = ws.critical_point_residual(ws.DiagonalCovSurface(init), border=2).max_norm
    solved = ws.critical_point_residual(ws.DiagonalCovSurface(rep.field), border=2).max_norm
    assert solved < coons
