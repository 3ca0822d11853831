"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import math
import time

import numpy as np
import pytest

import wassersurf as ws


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_analytic_oracle_residuals():
    t0 = time.perf_counter()
    cases = [
        ("plane", ws.Plane(2.0, 3.0, 1.0), ((0.0, 1.0), (0.0, 1.0))),
        ("scherk", ws.Scherk(1.0), ((0.05, 0.45), (0.05, 0.45))),
        # catenoid sampled with radius sqrt(s^2+t^2) in [1.13, 2.97] or so,
        # inside the required band [1.1, 3]
        ("catenoid", ws.Catenoid(0.0, 1.0, 1), ((0.8, 2.1), (0.8, 2.1))),
        ("helicoid", ws.Helicoid(1.0, 2.0), ((0.5, 1.0), (0.5, 1.0))),
    ]
    worst = {}
    for name, surf, ((u0, u1), (v0, v1)) in cases:
        u = np.linspace(u0, u1, 21)
        v = np.linspace(v0, v1, 21)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        worst[name] = float(np.max(np.abs(ws.minimal_surface_residual(surf, uu, vv))))
    elapsed = time.perf_counter() - t0
    ok = all(w <= 1e-10 for w in worst.values()) and elapsed < 1.0
    report(1, ok, f"max |graph residual| {worst} over 21x21 samples, {elapsed:.2f}s")


def central_fd_entry(field, acfg, i, j, k, step):
    """Central difference of total_area, accumulated cellwise.

    Mathematically identical to differencing two totals; summing the
    per-cell differences avoids the big-minus-big cancellation that would
    otherwise dominate small gradient entries.
    """
    measure = field.grid.hs * field.grid.ht
    vp = field.values.copy()
    vp[i, j, k] += step
    vm = field.values.copy()
    vm[i, j, k] -= step
    cp = ws.cell_terms(ws.SurfaceField(field.grid, vp), acfg).cells
    cm = ws.cell_terms(ws.SurfaceField(field.grid, vm), acfg).cells
    return measure * math.fsum((cp - cm).ravel().tolist()) / (2.0 * step)


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    problems = []

    # catenoid edges: non-separable, so the fill is far from stationary
    grid_g = ws.Grid2(17, 17)
    bg = ws.graph_field(ws.Catenoid(0.0, 1.0, 1), grid_g, ((0.8, 2.1), (0.8, 2.1)))
    problems.append(("graph 17x17", ws.coons_init(bg), ws.AreaConfig(epsilon=1e-12)))

    grid_q = ws.Grid2(9, 9)
    qg = ws.QuantileGrid(64)
    bimodal = ws.MixtureDensity(
        ((0.5, ws.GaussianDensity(-1.5, 0.6)), (0.5, ws.GaussianDensity(1.5, 0.6)))
    )
    bq = ws.boundary_from_corners(
        bimodal, ws.GaussianDensity(1.0, 1.3),
        ws.GaussianDensity(-0.5, 2.0), ws.GaussianDensity(1.5, 2.5), grid_q, qg,
    )
    problems.append(
        ("quantile 9x9xm=64", ws.coons_init(bq),
         ws.AreaConfig(epsilon=1e-12, weights=ws.quantile_weights(64)))
    )

    grid_c = ws.Grid2(17, 17)
    bc = ws.edges_from_corner_vectors(
        np.sqrt([1.0, 1.0, 1.0]), np.sqrt([4.0, 1.0, 2.0]),
        np.sqrt([1.0, 4.0, 2.0]), np.sqrt([4.0, 4.0, 9.0]), grid_c,
    )
    problems.append(("gaussian-diag 17x17x3", ws.coons_init(bc), ws.AreaConfig(epsilon=1e-12)))

    worst = {}
    step = 1e-6
    for name, field, acfg in problems:
        grad = ws.area_gradient(field, acfg)
        ns, nt, m = field.values.shape
        rel_max = 0.0
        for _ in range(20):
            i = int(rng.integers(1, ns - 1))
            j = int(rng.integers(1, nt - 1))
            k = int(rng.integers(0, m))
            fd = central_fd_entry(field, acfg, i, j, k, step)
            rel = abs(fd - grad[i, j, k]) / max(abs(fd), 1e-12)
            rel_max = max(rel_max, rel)
        worst[name] = rel_max
    elapsed = time.perf_counter() - t0
    ok = all(w <= 1e-6 for w in worst.values()) and elapsed < 10.0
    report(2, ok, f"max rel gradient error {worst} over 20 entries each, {elapsed:.2f}s")


def test_criterion_3_scherk_solver_convergence():
    t0 = time.perf_counter()
    scherk = ws.Scherk(1.0)
    window = ((0.1, 0.4), (0.1, 0.4))
    acfg = ws.AreaConfig(epsilon=0.0)
    errs = {}
    for n in (17, 33):
        grid = ws.Grid2(n, n)
        boundary = full = ws.graph_field(scherk, grid, window)
        rep = ws.minimize(
            ws.coons_init(boundary),
            ws.SolverConfig(max_iters=5000), acfg, free_coords=(2,),
        )
        errs[n] = float(
            np.max(np.abs(rep.field.values[1:-1, 1:-1, 2] - full.values[1:-1, 1:-1, 2]))
        )
    ratio = errs[17] / errs[33]
    elapsed = time.perf_counter() - t0
    ok = (3.2 <= ratio <= 4.8) and errs[33] <= 5e-4 and elapsed < 60.0
    report(3, ok, f"interior max-error 17^2={errs[17]:.3e}, 33^2={errs[33]:.3e}, "
                  f"ratio={ratio:.2f}, {elapsed:.2f}s")


def test_criterion_4_plane_stationarity():
    grid = ws.Grid2(17, 17)
    boundary = ws.graph_field(ws.Plane(1.0, 1.0, 0.0), grid, ((0.0, 1.0), (0.0, 1.0)))
    init = ws.coons_init(boundary)
    rep = ws.minimize(init, ws.SolverConfig(), ws.AreaConfig(epsilon=0.0), free_coords=(2,))
    drift = float(np.max(np.abs(rep.field.values - init.values)))
    area_rel = abs(rep.area_trace[-1] - math.sqrt(3.0)) / math.sqrt(3.0)
    ok = rep.converged and rep.iterations <= 2 and drift <= 1e-12 and area_rel <= 1e-12
    report(4, ok, f"iters={rep.iterations}, |field-init|={drift:.1e}, "
                  f"|area-sqrt3|/sqrt3={area_rel:.1e}")


def test_criterion_5_critical_point_residual_refinement():
    t0 = time.perf_counter()
    cases = [
        ("plane", ws.Plane(2.0, 3.0, 1.0), ((0.2, 0.8), (0.2, 0.8)), 0.0),
        ("scherk", ws.Scherk(1.0), ((0.1, 0.4), (0.1, 0.4)), 2.0),
    ]
    ratios = {}
    for name, surf, window, zoff in cases:
        norms = {}
        # fixed physical exclusion strip (one 17-grid cell) for both grids
        for n, border in ((17, 1), (33, 2)):
            _, cov = ws.to_cov_boundary(surf, ws.Grid2(n, n), window, z_offset=zoff)
            norms[n] = ws.critical_point_residual(cov, border=border).max_norm
        ratios[name] = norms[17] / norms[33]
    elapsed = time.perf_counter() - t0
    ok = all(3.2 <= r <= 4.8 for r in ratios.values()) and elapsed < 10.0
    report(5, ok, f"residual reduction factors {ratios}, {elapsed:.2f}s")


def test_criterion_6_degenerate_rectangle_detection():
    eps = 1e-12
    grid = ws.Grid2(9, 9)
    qg = ws.QuantileGrid(32)
    boundary = ws.boundary_from_corners(
        ws.GaussianDensity(0.0, 1.0), ws.GaussianDensity(0.0, 2.0),
        ws.GaussianDensity(0.0, 1.5), ws.GaussianDensity(0.0, 3.0), grid, qg,
    )
    acfg = ws.AreaConfig(epsilon=eps, weights=ws.quantile_weights(32))
    rep = ws.minimize(ws.coons_init(boundary), ws.SolverConfig(), acfg)
    area = rep.area_trace[-1]
    flagged = rep.degenerate_cells == (grid.ns - 1) * (grid.nt - 1)
    ok = rep.converged and area <= 1.01 * math.sqrt(eps) and flagged
    report(6, ok, f"optimal area {area:.3e} <= 1.01*sqrt(eps)={1.01 * math.sqrt(eps):.3e}, "
                  f"degenerate cells {rep.degenerate_cells}/64")


def test_criterion_7_geodesic_correctness():
    scipy_stats = pytest.importorskip("scipy.stats")
    qg = ws.QuantileGrid(64)
    d0 = ws.GaussianDensity(0.0, 1.0)
    d1 = ws.GaussianDensity(0.0, 2.0)
    ref_base = scipy_stats.norm.ppf(qg.nodes)
    taus = np.linspace(0.0, 1.0, 11)
    gap = 0.0
    samples = []
    for tau in taus:
        got = ws.geodesic_quantiles(d0, d1, tau, qg)
        samples.append(got)
        gap = max(gap, float(np.max(np.abs(got - (1.0 + tau) * ref_base))))
    speeds = [np.linalg.norm(b - a) / math.sqrt(qg.m) for a, b in zip(samples, samples[1:])]
    spread = (max(speeds) - min(speeds)) / max(speeds)
    ok = gap <= 1e-9 and spread <= 1e-10
    report(7, ok, f"closed-form gap {gap:.2e}, speed spread {spread:.2e}")


def test_criterion_8_cross_formulation_consistency():
    # generic smooth graph z(s,t) with hand-written derivatives; the
    # discrete divergence-form residual with unit weights must match the
    # expanded graph operator (normalized by W^3) at second order
    def jet(s, t):
        z = 0.3 * np.sin(np.pi * s) * np.cos(0.5 * np.pi * t)
        zs = 0.3 * np.pi * np.cos(np.pi * s) * np.cos(0.5 * np.pi * t)
        zt = -0.15 * np.pi * np.sin(np.pi * s) * np.sin(0.5 * np.pi * t)
        zss = -0.3 * np.pi**2 * np.sin(np.pi * s) * np.cos(0.5 * np.pi * t)
        zst = -0.15 * np.pi**2 * np.cos(np.pi * s) * np.sin(0.5 * np.pi * t)
        ztt = -0.075 * np.pi**2 * np.sin(np.pi * s) * np.cos(0.5 * np.pi * t)
        return z, zs, zt, zss, zst, ztt

    diffs = {}
    for n in (17, 33):
        grid = ws.Grid2(n, n)
        ss, tt = np.meshgrid(grid.s_nodes, grid.t_nodes, indexing="ij")
        z, zs, zt, zss, zst, ztt = jet(ss, tt)
        f = ws.SurfaceField(grid, np.stack([ss, tt, z], axis=2))
        rep = ws.euler_lagrange_residual(f, ws.AreaConfig(epsilon=0.0))
        w3 = (1.0 + zs**2 + zt**2) ** 1.5
        expanded = (1.0 + zt**2) * zss - 2.0 * zs * zt * zst + (1.0 + zs**2) * ztt
        target = expanded / w3
        diffs[n] = float(np.max(np.abs(rep.values[1:-1, 1:-1, 2] - target[1:-1, 1:-1])))
    ratio = diffs[17] / diffs[33]
    ok = 3.2 <= ratio <= 4.8
    report(8, ok, f"operator gap 17^2={diffs[17]:.3e}, 33^2={diffs[33]:.3e}, ratio={ratio:.2f}")


def test_criterion_9_monotonicity_preservation():
    grid = ws.Grid2(9, 9)
    qg = ws.QuantileGrid(32)
    acfg = ws.AreaConfig(epsilon=1e-12, weights=ws.quantile_weights(32))
    bimodal = ws.MixtureDensity(
        ((0.5, ws.GaussianDensity(-1.5, 0.6)), (0.5, ws.GaussianDensity(1.5, 0.6)))
    )
    cases = {
        "gaussian rectangle": (
            ws.GaussianDensity(-1.0, 1.0), ws.GaussianDensity(1.0, 1.3),
            ws.GaussianDensity(-0.5, 2.0), ws.GaussianDensity(1.5, 2.5),
        ),
        "zero-mean degenerate": (
            ws.GaussianDensity(0.0, 1.0), ws.GaussianDensity(0.0, 2.0),
            ws.GaussianDensity(0.0, 1.5), ws.GaussianDensity(0.0, 3.0),
        ),
        "mixture corner": (
            bimodal, ws.GaussianDensity(1.0, 1.3),
            ws.GaussianDensity(-0.5, 2.0), ws.GaussianDensity(1.5, 2.5),
        ),
    }
    violations = {}
    for name, corners in cases.items():
        boundary = ws.boundary_from_corners(*corners, grid, qg)
        rep = ws.minimize(
            ws.coons_init(boundary),
            ws.SolverConfig(grad_tol=1e-9, max_iters=500), acfg,
        )
        mono = ws.monotonicity_report(rep.field)
        violations[name] = mono.violations
    ok = all(v == 0 for v in violations.values())
    report(9, ok, f"quantile monotonicity violations {violations}")
