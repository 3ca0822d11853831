"""First-order minimization of the discrete area over interior nodes.

The solver moves only interior node values (optionally of one coordinate
alone) with the four boundary edges held bit-exactly fixed, under a
backtracking Armijo line search whose decrease ``area_change`` evaluates
without cancellation (sum of dG / (A_try + A) over cells, dG expanded in
the step's own tangents).  Every accepted step strictly decreases the
area, so the reported area trace is nonincreasing by construction.

When exactly one coordinate is free (graph problems, oracle-driven
covariance problems) the solve is Polak-Ribiere (PR+) nonlinear conjugate
gradients, preconditioned by the inverse of the area's flat Hessian, a
constant-coefficient form of the cell stencil that a DST-I diagonalises
exactly, and restarted once from the preconditioned gradient before a
stall.  With the other coordinates pinned, each cell area
sqrt(G_p + grad z^T M grad z) (M positive semidefinite) is convex in the
free coordinate, so this Sobolev-gradient descent takes a grid-independent
number of steps.  ``free_coords`` names one coordinate or all of them; a
proper subset of several is rejected, since no problem here poses one and
the area is not convex in it.

When every coordinate is free (density and corner-driven covariance
problems) the area is not convex: the parametrization is a gauge, and the
cell-centred area cannot see tangential or hourglass motion of the nodes.
The solve is then the Laplace-Beltrami iteration of Pinkall & Polthier
(Exp. Math. 2(1), 1993) and Dziuk (Numer. Math. 58, 1991) with a normal
projection as the gauge.  Each step takes the area gradient g, removes its
tangential part at every interior node in the w-inner product (central-
difference tangents; nodes with a degenerate tangent pair are left as they
are), applies the inverse of S = -hs*ht*div(K grad .) with
K = [[b, -c], [-c, a]] / sqrt(G) per cell frozen at the current field, so
that g_k = w_k S[x_k], projects again and takes an Armijo step from
``step0`` (a full step solves the frozen problem exactly).  S is inverted by
matrix-free PCG over all coordinates at once, preconditioned by the DST-I
inverse at S's mean coefficients.  The gradient's tangential (gauge) part
belongs to the parametrization, not to the surface: normal steps cannot
remove it, and the unprojected iteration lowers it only by sliding the
nodes (about 1% per step, hourglass growing).  So the stopping test asks
the max-norm of the normal part to meet ``grad_tol`` and, unless the
tangential part alone is above ``grad_tol``, the full gradient too: the
full Euler-Lagrange residual then meets grad_tol/(hs*ht) at convergence
whenever the parametrization's gauge part allows it.  The tangential part
is reported as ``grad_tangential`` (0 on the pinned paths, where the
projector is the identity).

When every coordinate is free and the area weights are uniform, the solve
runs in an orthonormal basis U (m x r) of the span of the centred initial
field and lifts the displacement back at the end.  Corner-driven boundaries
(straight geodesic edges between four corner vectors) span an affine space
of dimension at most 3, plus one direction for a seeded perturbation, so r
is usually far below m.  The reduction is exact: with uniform weights the
gradient at a node is a combination of its cells' tangents, the node
tangents lie in span(U) and S acts on each coordinate alike, so iterates,
gradients and search directions never leave span(U), and since U is
orthonormal the reduced area, inner products and step lengths equal the
full ones up to rounding.  The stopping test still takes the max-norms of
the lifted full-space gradient and its parts.  Non-uniform weights, a
full-rank field or a given ``free_coords`` keep the full-space loop.

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
    _tangents,
    area_change,
    area_gradient,
    cell_area_field,
    degenerate_cell_count,
    hourglass_amplitude,
    tangent_fields,
    total_area,
)
from .errors import ShapeMismatchError, SolverNaNError
from .grid import BoundarySpec, Grid2, SurfaceField


# inner PCG of the Laplace-Beltrami step: relative residual and step budget
_PCG_RTOL = 1e-6
_PCG_STEPS = 200
# a node's tangent pair is degenerate below this sin^2 of the angle between them
_NODE_FLOOR = 1e-8


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
    grad_tangential: float
    el_residual: float
    converged: bool
    degenerate_cells: int
    span_rank: int
    hourglass: float
    stall: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iters": self.iterations,
            "area_trace": list(self.area_trace),
            "grad_norm": self.grad_norm,
            "grad_tangential": self.grad_tangential,
            "el_residual": self.el_residual,
            "degenerate_cells": self.degenerate_cells,
            "span_rank": self.span_rank,
            "hourglass": self.hourglass,
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
    function on interior arrays that flatten to ``(ns-2, nt-2, r)``, applied
    to each of the r columns.
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
        spec = _dst1(_dst1(g.reshape(n1, n2, -1), 0), 1) * scale[..., None]
        return _dst1(_dst1(spec, 0), 1).reshape(g.shape)

    return solve


def _flat_hessian_inverse(tangents, grid: Grid2, scale: float, acfg: AreaConfig):
    """DST preconditioner frozen at the given cell tangents.

    The second derivatives of a cell's area in the k-th s- and t-tangent
    components are w_k*b/sqrt(G) and w_k*a/sqrt(G); their means over the
    non-degenerate cells (1 when there are none), times ``scale`` (w_k, or 1
    for the scalar operator of ``_frozen_operator``), weight the operator.
    """
    w = acfg.weight_vector(tangents[0].shape[-1])
    a, b, c = _gram_terms(*tangents, w)
    gram = a * b - c * c
    live = gram > acfg.epsilon
    if np.any(live):
        root = np.sqrt(gram[live] + acfg.epsilon)
        c_s = scale * float(np.mean(b[live] / root))
        c_t = scale * float(np.mean(a[live] / root))
    else:
        c_s = c_t = 1.0
    return _dst_inverse(grid, c_s, c_t)


def _frozen_operator(tangents, grid: Grid2, acfg: AreaConfig):
    """S = -hs*ht*div(K grad .) on interior columns, K frozen at the given cell tangents.

    K = [[b, -c], [-c, a]] / sqrt(G) per cell is the flux kernel of
    ``area._fluxes`` with its coefficients frozen (zero on the clamped side),
    so ``area_gradient[..., k] = w_k * S[x_k]`` on interior nodes.  Returns a
    function on ``(ns-2, nt-2, m)`` interior arrays, taken as zero on the edges.
    """
    m = tangents[0].shape[-1]
    a, b, c = _gram_terms(*tangents, acfg.weight_vector(m))
    gram = a * b - c * c
    inv = np.where(gram > 0.0, 1.0 / np.sqrt(np.maximum(gram, 0.0) + acfg.epsilon), 0.0)
    k_ss, k_st, k_tt = (b * inv)[..., None], (-c * inv)[..., None], (a * inv)[..., None]
    hs, ht = grid.hs, grid.ht
    padded = np.zeros((grid.ns, grid.nt, m))

    def apply(x):
        padded[1:-1, 1:-1] = x
        xs, xt = _tangents(padded, hs, ht)
        return -(hs * ht) * _divergence(k_ss * xs + k_st * xt, k_st * xs + k_tt * xt, hs, ht)

    return apply


def _pcg(apply, precondition, rhs, w):
    """Preconditioned CG for ``apply(x) = rhs``, one Krylov space for all columns.

    Inner products are weighted by w over the columns, so a truncated
    iterate still has <x, rhs>_w > 0 and stays a descent direction.  Stops
    at a relative residual of ``_PCG_RTOL`` or after ``_PCG_STEPS`` steps.
    """

    def dot(p, q):
        return float(np.vdot(p * w, q))

    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = precondition(r)
    p = z.copy()
    rz = dot(r, z)
    stop = _PCG_RTOL**2 * dot(rhs, rhs)
    for _ in range(_PCG_STEPS):
        if dot(r, r) <= stop:
            break
        q = apply(p)
        pq = dot(p, q)
        if not pq > 0.0:
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        z = precondition(r)
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def _normal_projector(values: np.ndarray, grid: Grid2, w: np.ndarray):
    """Projector onto the normal space at each interior node, in the w-inner product.

    The node tangents are central differences.  Nodes whose tangent Gram
    determinant is below ``_NODE_FLOOR`` times the product of its diagonal
    (parallel or vanishing tangents) are left unprojected.  Returns a
    function on ``(ns-2, nt-2, r)`` arrays of vectors.
    """
    ts = (values[2:, 1:-1] - values[:-2, 1:-1]) / (2.0 * grid.hs)
    tt = (values[1:-1, 2:] - values[1:-1, :-2]) / (2.0 * grid.ht)
    g_ss, g_tt, g_st = _gram_terms(ts, tt, w)
    det = g_ss * g_tt - g_st * g_st
    live = det > _NODE_FLOOR * g_ss * g_tt
    inv = np.divide(1.0, det, out=np.zeros_like(det), where=live)

    def project(u):
        ps = np.einsum("...k,k,...k->...", ts, w, u)
        pt = np.einsum("...k,k,...k->...", tt, w, u)
        along_s = (inv * (g_tt * ps - g_st * pt))[..., None]
        along_t = (inv * (g_ss * pt - g_st * ps))[..., None]
        return u - along_s * ts - along_t * tt

    return project


def normal_gradient(f: SurfaceField, acfg: AreaConfig) -> np.ndarray:
    """Normal part of the area gradient on interior nodes, shape ``(ns-2, nt-2, m)``.

    The gradient is a covector g: g/w is projected as a vector onto the
    normal space of each node (``_normal_projector``) and mapped back by w.
    The rest of g is its tangential (gauge) part, which the parametrization
    of an all-free surface can absorb without changing the surface.
    """
    w = acfg.weight_vector(f.dim)
    g = area_gradient(f, acfg)[1:-1, 1:-1]
    return w * _normal_projector(f.values, f.grid, w)(g / w)


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
    exactly one free coordinate the descent is DST-preconditioned CG; with
    every coordinate free it is the normal-projected Laplace-Beltrami
    iteration, and with ``free_coords=None`` and uniform weights it runs in
    the span of the initial field (see the module docstring), and
    ``span_rank`` reports the dimension used.  A proper subset of several
    coordinates raises ValueError.

    Line-search failure after the backtracking budget, or a
    Laplace-Beltrami step that is not a descent direction, returns the best
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
    all_free = len(free) == init.dim
    if not (all_free or len(free) == 1):
        raise ValueError("free_coords must name one coordinate or all of them")
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
    w = loop_acfg.weight_vector(work.shape[-1])
    inner_shape = (grid.ns - 2, grid.nt - 2, len(moving))
    # the exact decrease takes the step of the one moving coordinate, or of all
    k = moving[0] if len(moving) == 1 else None
    step = np.zeros(work.shape[:2] if k is not None else work.shape)
    moved = (slice(1, -1), slice(1, -1)) + (() if k is not None else (moving,))

    def push(x):
        work[1:-1, 1:-1, moving] = x.reshape(inner_shape)

    def gradient():
        return area_gradient(fld, loop_acfg)[1:-1, 1:-1, moving].ravel()

    def max_norm(g):
        # the stopping test is on the full-space gradient
        if basis is not None:
            g = g.reshape(-1, span_rank) @ basis.T
        return float(np.max(np.abs(g), initial=0.0))

    x = work[1:-1, 1:-1, moving].reshape(-1).copy()
    tangents = tangent_fields(fld)
    cells_cur = cell_area_field(fld, loop_acfg)
    f_cur = total_area(fld, loop_acfg)
    trace = [f_cur]
    iterations = 0
    stall = None
    if not all_free:
        precondition = _flat_hessian_inverse(tangents, grid, w[moving[0]], loop_acfg)

    def line_search(direction, slope):
        alpha = cfg.step0
        for _ in range(cfg.max_backtracks + 1):
            x_try = x + alpha * direction
            push(x_try)
            cells_try = cell_area_field(fld, loop_acfg)
            # the step as rounded into the trial field, not alpha * direction
            step[moved] = (x_try - x).reshape(inner_shape[: step.ndim])
            delta = area_change(tangents, cells_cur, cells_try, step, k, grid, loop_acfg)
            if math.isnan(delta):
                raise SolverNaNError(it, "objective is NaN during line search")
            if delta <= cfg.armijo_c1 * alpha * slope:
                return alpha, delta, cells_try
            alpha *= cfg.backtrack
        return None, None, None

    def accept(alpha, direction, delta, cells_new):
        nonlocal x, cells_cur, f_cur, tangents, iterations
        x = x + alpha * direction
        push(x)
        if not np.all(np.isfinite(x)):
            raise SolverNaNError(it, "field values are not finite")
        cells_cur = cells_new
        f_cur = f_cur + delta
        trace.append(f_cur)
        iterations = it
        tangents = tangent_fields(fld)

    def split():
        # the gradient is a covector: project g/w as a vector; returns the
        # projector, the normal part (as a vector) and the max-norms of the
        # normal and tangential parts
        project = _normal_projector(work, grid, w)
        u = project(g.reshape(inner_shape) / w)
        return project, u, max_norm(w * u), max_norm(g - (w * u).ravel())

    def settled():
        # the stopping test (module docstring); with pinned coordinates the
        # tangential part is 0 and the normal part is the gradient
        return gnorm <= tol and (tangential > tol or max_norm(g) <= tol)

    g = gradient() if x.size else np.zeros(0)
    gnorm = tangential = 0.0
    if x.size:
        if all_free:
            project, u, gnorm, tangential = split()
        else:
            gnorm = max_norm(g)
    converged = settled()
    it = 0
    if all_free:
        # normal-projected Laplace-Beltrami steps (see the module docstring)
        while not converged and it < cfg.max_iters:
            it += 1
            operator = _frozen_operator(tangents, grid, loop_acfg)
            inverse = _flat_hessian_inverse(tangents, grid, 1.0, loop_acfg)
            d = -project(_pcg(operator, inverse, u, w)).ravel()
            slope = float(np.dot(g, d))
            if not slope < 0.0:
                # no search ran: the inner solve gave no descent direction
                stall = (it, 0)
                break
            alpha, delta, cells_new = line_search(d, slope)
            if alpha is None:
                push(x)
                stall = (it, 1)
                break
            accept(alpha, d, delta, cells_new)
            g = gradient()
            project, u, gnorm, tangential = split()
            converged = settled()
    elif not converged:
        z = precondition(g)
        d = -z
        while it < cfg.max_iters:
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
            accept(alpha, d, delta, cells_new)

            g_new = gradient()
            gnorm = max_norm(g_new)
            if gnorm <= tol:
                converged = True
                g = g_new
                break
            z_new = precondition(g_new)
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
        stall = _stall_message(*stall, cfg, max_norm(g), gnorm, tol, el_norm,
                               tol / (grid.hs * grid.ht))
    return SolveReport(
        field=final,
        iterations=iterations,
        area_trace=trace,
        grad_norm=gnorm,
        grad_tangential=tangential,
        el_residual=el_norm,
        converged=converged,
        degenerate_cells=degenerate_cell_count(final, acfg),
        span_rank=span_rank,
        hourglass=hourglass_amplitude(final),
        stall=stall,
    )


def _stall_message(it, searches, cfg, gfull, gnorm, tol, el_norm, el_tol) -> str:
    """Why the solve stopped early, with the numbers that say what to change.

    ``searches`` is the number of line searches that failed at iteration
    ``it``; 0 means none ran because the step's direction was not a descent
    direction.  ``gfull`` and ``gnorm`` are the max-norms of the gradient
    and of its normal part (equal when coordinates are pinned).
    """
    advice = "raise grad_tol if the gradient sits at its rounding floor"
    if searches:
        last_alpha = cfg.step0 * cfg.backtrack**cfg.max_backtracks
        head = (
            f"line search stalled at iteration {it}: {searches * cfg.max_backtracks} backtracks "
            f"over {searches} search(es) down to step {last_alpha:.3e} gave no Armijo decrease"
        )
        advice = f"raise max_backtracks or lower step0 if the step is too long, or {advice}"
    else:
        head = (
            f"no descent direction at iteration {it}: the inner solve of the Laplace-Beltrami "
            f"step gave a direction along which the area does not fall, so no line search ran"
        )
    normal = "" if gnorm == gfull else f" (normal part {gnorm:.3e})"
    return (
        f"{head}; "
        f"gradient max-norm {gfull:.3e}{normal} against tolerance {tol:.3e}; "
        f"Euler-Lagrange residual {el_norm:.3e} against {el_tol:.3e} (grad_tol / (hs*ht)); "
        f"{advice}"
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
