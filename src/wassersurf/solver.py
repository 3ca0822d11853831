"""First-order minimization of the discrete area over interior nodes.

The solver moves only interior node values (optionally only a subset of
coordinates) with the four boundary edges held bit-exactly fixed, by
Polak-Ribiere (PR+) nonlinear conjugate gradients under a backtracking
Armijo line search that restarts once from steepest descent before a stall.
Every accepted step strictly decreases the area, so the reported area
trace is nonincreasing by construction.

When exactly one coordinate is free (graph problems, oracle-driven
covariance problems) the descent is preconditioned by the inverse of the
area's flat Hessian, a constant-coefficient form of the cell stencil that a
DST-I diagonalises exactly, and the Armijo decrease is evaluated without
cancellation by ``area_change``.  With the other coordinates pinned, each
cell area sqrt(G_p + grad z^T M grad z) (M positive semidefinite) is convex
in the free coordinate, so this Sobolev-gradient descent takes a
grid-independent number of steps.  With several free coordinates the area
is not convex (tangential and hourglass near-null directions), so that path
stays unpreconditioned and takes the Armijo decrease as an exact (fsum) sum
of per-cell area differences.  Known limitation: on density problems PR+
clips beta to 0 at every step there (``step0=1`` never expands, so accepted
steps stay short of the curvature scale), so the iterates are those of
steepest descent.

When every coordinate is free and the area weights are uniform, the solve
runs in an orthonormal basis U (m x r) of the span of the centred initial
field and lifts the displacement back at the end.  Corner-driven boundaries
(straight geodesic edges between four corner vectors) span an affine space
of dimension at most 3, plus one direction for a seeded perturbation, so r
is usually far below m.  The reduction is exact: with uniform weights the
gradient at a node is a combination of its cells' tangents, so iterates,
gradients and search directions never leave span(U), and since U is
orthonormal the reduced area, inner products and step lengths equal the
full ones up to rounding.  The stopping test still takes the max-norm of the
lifted full-space gradient.  Non-uniform weights, a full-rank field or a
given ``free_coords`` keep the full-space loop.

The discrete optimality residual is the flux divergence of the area
module's one flux kernel, the same one ``area_gradient`` scales by -hs*ht,
so the residual is the exact algebraic gradient of the discrete area up to
that quadrature factor, bit for bit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .area import (
    AreaConfig,
    _divergence,
    _fluxes,
    _gram_terms,
    area_change,
    area_gradient,
    cell_area_field,
    degenerate_cell_count,
    tangent_fields,
    total_area,
)
from .errors import ShapeMismatchError, SolverNaNError
from .grid import BoundarySpec, Grid2, SurfaceField


def default_grad_tol(grid: Grid2) -> float:
    """Stopping threshold on the interior gradient max-norm: 1e-8 * hs * ht."""
    return 1e-8 * grid.hs * grid.ht


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    grad_tol: float | None = None
    armijo_c1: float = 1e-4
    backtrack: float = 0.5
    step0: float = 1.0
    max_backtracks: int = 40

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol is not None and self.grad_tol <= 0.0:
            raise ValueError("grad_tol must be positive")
        if not (0.0 < self.armijo_c1 < 1.0 and 0.0 < self.backtrack < 1.0 and self.step0 > 0.0):
            raise ValueError("invalid line-search parameters")


@dataclass(eq=False)
class SolveReport:
    """Converged (or best-so-far) surface with convergence diagnostics."""

    field: SurfaceField
    iterations: int
    area_trace: list
    grad_norm: float
    el_residual: float
    converged: bool
    degenerate_cells: int
    span_rank: int
    stall: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iters": self.iterations,
            "area_trace": list(self.area_trace),
            "grad_norm": self.grad_norm,
            "el_residual": self.el_residual,
            "degenerate_cells": self.degenerate_cells,
            "span_rank": self.span_rank,
            "stall": self.stall,
        }


@dataclass(frozen=True)
class ResidualReport:
    """Discrete optimality residual per node, zero on edges.

    Interior nodes whose four incident cells all sit below the Gram
    degeneracy floor are excluded from the max-norm and counted.
    """

    values: np.ndarray
    max_norm: float
    excluded_nodes: int
    excluded_mask: np.ndarray


def euler_lagrange_residual(f: SurfaceField, acfg: AreaConfig) -> ResidualReport:
    """Divergence-form optimality residual of the discrete area functional.

    The divergence of the per-cell fluxes (b*ds - c*dt)/A and (a*dt - c*ds)/A
    (weighted) at every interior node, zero on edges.  Sampled from a smooth
    critical point this is O(h^2); it is exactly -area_gradient / (hs*ht)
    under the same config, since both come from one flux kernel.
    """
    grid = f.grid
    fs, ft, gram = _fluxes(f, acfg)
    values = np.zeros_like(f.values)
    values[1:-1, 1:-1] = _divergence(fs, ft, grid.hs, grid.ht)

    deg = gram < acfg.epsilon
    excluded = deg[:-1, :-1] & deg[:-1, 1:] & deg[1:, :-1] & deg[1:, 1:]
    kept = values[1:-1, 1:-1][~excluded]
    max_norm = float(np.max(np.abs(kept))) if kept.size else 0.0
    return ResidualReport(
        values=values,
        max_norm=max_norm,
        excluded_nodes=int(np.count_nonzero(excluded)),
        excluded_mask=excluded,
    )


def _normalize_free(free_coords, m: int) -> list:
    if free_coords is None:
        return list(range(m))
    free = sorted(set(int(k) for k in free_coords))
    if not free or free[0] < 0 or free[-1] >= m:
        raise ValueError(f"free_coords must be a nonempty subset of 0..{m - 1}")
    return free


def _span_basis(init: SurfaceField, acfg: AreaConfig):
    """Node mean and orthonormal basis (m x r) of the centred initial field's span.

    The rank cut sits at rounding level (numpy's ``matrix_rank`` default).
    Returns None when the reduction does not apply: non-uniform weights, or
    a rank that is zero or not below m.
    """
    m = init.dim
    w = acfg.weight_vector(m)
    if np.any(w != w[0]):
        return None
    nodes = init.values.reshape(-1, m)
    centre = nodes.mean(axis=0)
    _, sigma, vt = np.linalg.svd(nodes - centre, full_matrices=False)
    rank = int(np.count_nonzero(sigma > sigma[0] * max(nodes.shape) * np.finfo(float).eps))
    return (centre, vt[:rank].T) if 0 < rank < m else None


def _dst1(x: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalised DST-I along ``axis`` via the rfft of the odd extension."""
    x = np.moveaxis(x, axis, -1)
    n = x.shape[-1]
    zero = np.zeros(x.shape[:-1] + (1,))
    odd = np.concatenate([zero, x, zero, -x[..., ::-1]], axis=-1)
    out = -0.5 * np.fft.rfft(odd, axis=-1).imag[..., 1 : n + 1]
    return np.moveaxis(out, -1, axis)


def _dst_inverse(grid: Grid2, c_s: float, c_t: float):
    """Inverse of hs*ht*(c_s D_s(x)A_t/hs^2 + c_t A_s(x)D_t/ht^2) on the interior.

    D is the 1-D Dirichlet second difference tridiag(-1, 2, -1) and A the
    average tridiag(1, 2, 1)/4: the operator is the Hessian of the cell
    stencil's area with frozen coefficients and no cross term.  Both 1-D
    factors share the DST-I eigenvectors, so the solve is exact.  Returns a
    function on flattened ``(ns-2, nt-2)`` interior vectors.
    """
    hs, ht = grid.hs, grid.ht
    n1, n2 = grid.ns - 2, grid.nt - 2
    half1 = 0.5 * np.pi * np.arange(1, n1 + 1) / (n1 + 1)
    half2 = 0.5 * np.pi * np.arange(1, n2 + 1) / (n2 + 1)
    d1, a1 = 4.0 * np.sin(half1) ** 2, np.cos(half1) ** 2
    d2, a2 = 4.0 * np.sin(half2) ** 2, np.cos(half2) ** 2
    symbol = hs * ht * (
        c_s * np.outer(d1, a2) / (hs * hs) + c_t * np.outer(a1, d2) / (ht * ht)
    )
    scale = 4.0 / ((n1 + 1) * (n2 + 1) * symbol)

    def solve(g):
        spec = _dst1(_dst1(g.reshape(n1, n2), 0), 1) * scale
        return _dst1(_dst1(spec, 0), 1).ravel()

    return solve


def _flat_hessian_inverse(tangents, grid: Grid2, k: int, acfg: AreaConfig):
    """DST preconditioner for coordinate ``k``, frozen at the given cell tangents.

    The second derivatives of a cell's area in the k-th s- and t-tangent
    components are w_k*b/sqrt(G) and w_k*a/sqrt(G); their means over the
    non-degenerate cells (1 when there are none) weight the operator.
    """
    w = acfg.weight_vector(tangents[0].shape[-1])
    a, b, c = _gram_terms(*tangents, w)
    gram = a * b - c * c
    live = gram > acfg.epsilon
    if np.any(live):
        root = np.sqrt(gram[live] + acfg.epsilon)
        c_s = w[k] * float(np.mean(b[live] / root))
        c_t = w[k] * float(np.mean(a[live] / root))
    else:
        c_s = c_t = 1.0
    return _dst_inverse(grid, c_s, c_t)


def minimize(
    init: SurfaceField,
    b: BoundarySpec,
    cfg: SolverConfig,
    acfg: AreaConfig,
    free_coords=None,
) -> SolveReport:
    """Minimize the total area over interior values with fixed edges.

    ``init`` must already satisfy the boundary on its edges.  When
    ``free_coords`` is given, only those coordinate indices move (the
    graph problems pin the two affine parameter coordinates and descend
    on the height alone); the rest of the field is treated as data.  With
    exactly one free coordinate the descent is DST-preconditioned; with
    ``free_coords=None`` and uniform weights it runs in the span of the
    initial field (see the module docstring), and ``span_rank`` reports the
    dimension used.

    Line-search failure after the backtracking budget returns the best
    field seen so far with ``converged=False`` and a stall diagnostic;
    conjugate gradients falls back to one steepest-descent retry first.
    Non-finite objective values raise SolverNaNError with the iteration.
    """
    grid = init.grid
    if (b.ns, b.nt, b.dim) != (grid.ns, grid.nt, init.dim):
        raise ShapeMismatchError("boundary shape does not match the initial field")
    v = init.values
    if not (
        np.array_equal(v[0, :, :], b.edge_s0)
        and np.array_equal(v[-1, :, :], b.edge_s1)
        and np.array_equal(v[:, 0, :], b.edge_t0)
        and np.array_equal(v[:, -1, :], b.edge_t1)
    ):
        raise ValueError("initial field does not satisfy the boundary on its edges")

    free = _normalize_free(free_coords, init.dim)
    tol = cfg.grad_tol if cfg.grad_tol is not None else default_grad_tol(grid)

    # The loop moves coordinates ``moving`` of ``work`` under ``loop_acfg``:
    # the free coordinates of the field itself, or all r coordinates of the
    # field in an orthonormal basis of its span (see the module docstring).
    span = _span_basis(init, acfg) if free_coords is None else None
    if span is None:
        basis = None
        span_rank, moving, loop_acfg = init.dim, free, acfg
        work = init.values.copy()
    else:
        centre, basis = span
        span_rank = basis.shape[1]
        moving = list(range(span_rank))
        loop_acfg = replace(acfg, weights=np.full(span_rank, acfg.weight_vector(init.dim)[0]))
        work = (init.values - centre) @ basis
        start = work.copy()
    fld = SurfaceField(grid, work)
    inner_shape = (grid.ns - 2, grid.nt - 2, len(moving))
    measure = grid.hs * grid.ht

    def push(x):
        work[1:-1, 1:-1, moving] = x.reshape(inner_shape)

    def gradient():
        return area_gradient(fld, loop_acfg)[1:-1, 1:-1, moving].ravel()

    def max_norm(g):
        # the stopping test is on the full-space gradient
        if basis is not None:
            g = g.reshape(-1, span_rank) @ basis.T
        return float(np.max(np.abs(g)))

    x = work[1:-1, 1:-1, moving].reshape(-1).copy()
    cells_cur = cell_area_field(fld, loop_acfg)
    f_cur = total_area(fld, loop_acfg)
    trace = [f_cur]
    iterations = 0
    stall = None

    if len(free) == 1 and x.size:
        tangents = tangent_fields(fld)
        precondition = _flat_hessian_inverse(tangents, grid, moving[0], loop_acfg)
        step = np.zeros((grid.ns, grid.nt))
    else:
        precondition = None

    def line_search(direction, slope):
        alpha = cfg.step0
        for _ in range(cfg.max_backtracks + 1):
            x_try = x + alpha * direction
            push(x_try)
            cells_try = cell_area_field(fld, loop_acfg)
            if precondition is None:
                delta = measure * math.fsum((cells_try - cells_cur).ravel(order="C").tolist())
            else:
                # the step as rounded into the trial field, not alpha * direction
                step[1:-1, 1:-1] = (x_try - x).reshape(inner_shape[:2])
                delta = area_change(tangents, cells_cur, cells_try, step, moving[0], grid, loop_acfg)
            if math.isnan(delta):
                raise SolverNaNError(it, "objective is NaN during line search")
            if delta <= cfg.armijo_c1 * alpha * slope:
                return alpha, delta, cells_try
            alpha *= cfg.backtrack
        return None, None, None

    if x.size == 0:
        g = np.zeros(0)
        gnorm = 0.0
        converged = True
    else:
        g = gradient()
        z = g if precondition is None else precondition(g)
        gnorm = max_norm(g)
        converged = gnorm <= tol
        d = -z
        it = 0
        while not converged and it < cfg.max_iters:
            it += 1
            gd = float(np.dot(g, d))
            if gd >= 0.0:
                d = -z
                gd = -float(np.dot(g, z))

            searches = 1
            alpha, delta, cells_new = line_search(d, gd)
            if alpha is None and not np.array_equal(d, -z):
                # restart once from steepest descent before declaring a stall
                d = -z
                gd = -float(np.dot(g, z))
                searches = 2
                alpha, delta, cells_new = line_search(d, gd)
            if alpha is None:
                push(x)
                stall = (it, searches)
                break

            x = x + alpha * d
            push(x)
            if not np.all(np.isfinite(x)):
                raise SolverNaNError(it, "field values are not finite")
            cells_cur = cells_new
            f_cur = f_cur + delta
            trace.append(f_cur)
            iterations = it
            if precondition is not None:
                tangents = tangent_fields(fld)

            g_new = gradient()
            gnorm = max_norm(g_new)
            if gnorm <= tol:
                converged = True
                g = g_new
                break
            z_new = g_new if precondition is None else precondition(g_new)
            beta = max(0.0, float(np.dot(z_new, g_new - g)) / float(np.dot(z, g)))
            d = -z_new + beta * d
            g, z = g_new, z_new

    if basis is None:
        values = work.copy()
    else:
        # lift the displacement on interior nodes only: edges stay bit-exact
        values = init.values.copy()
        values[1:-1, 1:-1] += (work - start)[1:-1, 1:-1] @ basis.T
    final = SurfaceField(grid, values)
    rep = euler_lagrange_residual(final, acfg)
    inner = rep.values[1:-1, 1:-1][:, :, free]
    kept = inner[~rep.excluded_mask] if inner.size else inner
    el_norm = float(np.max(np.abs(kept))) if kept.size else 0.0
    if stall is not None:
        stall = _stall_message(*stall, cfg, gnorm, tol, el_norm, tol / measure)
    return SolveReport(
        field=final,
        iterations=iterations,
        area_trace=trace,
        grad_norm=gnorm,
        el_residual=el_norm,
        converged=converged,
        degenerate_cells=degenerate_cell_count(final, acfg),
        span_rank=span_rank,
        stall=stall,
    )


def _stall_message(it, searches, cfg, gnorm, tol, el_norm, el_tol) -> str:
    """Why the line search gave up, with the numbers that say what to change."""
    last_alpha = cfg.step0 * cfg.backtrack**cfg.max_backtracks
    return (
        f"line search stalled at iteration {it}: {searches * cfg.max_backtracks} backtracks "
        f"over {searches} search(es) down to step {last_alpha:.3e} gave no Armijo decrease; "
        f"gradient max-norm {gnorm:.3e} above tolerance {tol:.3e}; "
        f"Euler-Lagrange residual {el_norm:.3e} against {el_tol:.3e} (grad_tol / (hs*ht)); "
        f"raise max_backtracks or lower step0 if the step is too long, "
        f"or raise grad_tol if the gradient sits at its rounding floor"
    )


def perturb_interior(
    f: SurfaceField, amplitude: float, seed: int, free_coords=None
) -> SurfaceField:
    """Seeded smooth perturbation of the free interior values.

    Adds a random combination of the first 3x3 sine modes (vanishing on
    the edges), scaled to the given max amplitude.  Used by the CLI to
    explore alternative basins; deterministic for a fixed seed.
    """
    if amplitude == 0.0:
        return f.copy()
    grid = f.grid
    free = _normalize_free(free_coords, f.dim)
    rng = np.random.default_rng(seed)
    s = grid.s_nodes[:, None]
    t = grid.t_nodes[None, :]
    bump = np.zeros((grid.ns, grid.nt))
    for p in range(1, 4):
        for q in range(1, 4):
            bump += rng.uniform(-1.0, 1.0) * np.sin(p * np.pi * s) * np.sin(q * np.pi * t)
    peak = float(np.max(np.abs(bump)))
    if peak > 0.0:
        bump *= amplitude / peak
    vals = f.values.copy()
    for k in free:
        vals[1:-1, 1:-1, k] += bump[1:-1, 1:-1]
    return SurfaceField(grid, vals)
