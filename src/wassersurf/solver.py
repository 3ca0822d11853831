"""Preconditioned minimization of the discrete area over interior nodes.

The solver moves only interior node values (one coordinate, or all of
them) with the initial field's edges held bit-exactly fixed.  Every solve
runs one loop: take the area gradient g and the max-norms of its normal
and tangential parts, step along d = -P S^-1 P g (the problem's operator S
and projector P) under a backtracking Armijo line search, and stop once
the gradient meets ``grad_tol``.  The line search's decrease
(``area.terms_change``) is evaluated without cancellation (sum of
dG / (A_try + A) over cells, dG expanded in the step's own tangents), so
every accepted step strictly decreases the area and the area trace is
nonincreasing by construction.  Each trial field is evaluated once, by
``area.cell_terms``: an accepted trial's tangents, Gram terms and cell
areas become the current terms, which feed the next decrease and the next
gradient (both read the moving coordinates' columns only) and the next
step's operator.  A failed line search, or a direction along which the
area does not fall, stops the solve with a stall.  ``free_coords`` names
one coordinate or all of them; a proper subset of several is rejected,
since no problem here poses one and the area is not convex in it.

Both problems share one operator, S = -hs*ht*div(K grad .) on the cell
stencil with a per-cell 2x2 kernel K taken at the current field, and one
inner solve: matrix-free PCG, preconditioned by the DST-I inverse of a
constant-coefficient stencil at the cells' mean area curvatures
(``_flat_hessian_inverse``), and stopped at a relative residual of
``_PCG_RTOL``.  The two kernels differ in what the parametrization leaves
free:

* One free coordinate (graph problems, oracle-driven covariance problems):
  K is the exact Hessian of each cell's area density in the tangents of
  the free coordinate (``_newton_kernel``), so S is the exact Hessian of
  the discrete area and each step is an inexact Newton step (Dembo,
  Eisenstat & Steihaug, SIAM J. Numer. Anal. 19(2), 1982); the projector
  is the identity.  With the other coordinates pinned, each cell area
  sqrt(G_p + grad z^T M grad z) (M positive semidefinite) is convex in the
  free coordinate, so S is positive semidefinite; the graph oracles'
  solves take three or four steps on every grid from 17^2 to 129^2.
* Every coordinate free (density and corner-driven covariance problems):
  the area is not convex, the parametrization is a gauge, and the
  cell-centred area cannot see tangential or hourglass motion of the
  nodes.  The step is then the Laplace-Beltrami iteration of Pinkall &
  Polthier (Exp. Math. 2(1), 1993) and Dziuk (Numer. Math. 58, 1991) with
  a normal projection P as the gauge: z = P S^-1 P g, where P removes the
  tangential part at every interior node (central-difference tangents;
  nodes with a degenerate tangent pair are left as they are) and
  K = [[b, -c], [-c, a]] / sqrt(G) per cell (``_laplace_beltrami_kernel``),
  so that g_k = S[x_k].  One Krylov space serves all coordinates at once.

The gradient's tangential (gauge) part belongs to the parametrization, not
to the surface: normal steps cannot remove it, and the unprojected
iteration lowers it only by sliding the nodes (about 1% per step,
hourglass growing).  So the stopping test asks the max-norm of the normal
part to meet ``grad_tol`` and, unless the tangential part alone is above
``grad_tol``, the full gradient too: the full Euler-Lagrange residual then
meets grad_tol/(hs*ht) at convergence whenever the parametrization's gauge
part allows it.  The tangential part is reported as ``grad_tangential``
(0 with a pinned coordinate, where the normal part is the gradient).

The area weights w are a change of coordinates: in y = sqrt(w) * x the
w-inner product is the Euclidean one, so the loop runs in y with unit
weights.  Its stopping test takes the max-norms of the gradient in x,
sqrt(w) times the one in y, and the moving coordinates' displacement is
lifted back divided by sqrt(w), so edges and pinned coordinates come back
bit for bit.  An all-free solve (``free_coords`` None or naming every
coordinate, which is the same) runs in an orthonormal basis U (m x r) of
the span of the centred field in y, whatever its rank: a full-rank field
is a rotation, and a constant field keeps one direction along which
nothing moves.  Corner-driven boundaries (straight geodesic edges between
four corner vectors) span an affine space of dimension at most 3, plus one
direction for a seeded perturbation, so r is usually far below m.  The
reduction is exact: the gradient at a node is a combination of its cells'
tangents, the node tangents lie in span(U) and S acts on each coordinate
alike, so iterates, gradients and steps never leave span(U), and since U
is orthonormal the reduced area, inner products and step lengths equal the
full ones up to rounding.

The discrete optimality residual is the flux divergence of the area
module's one flux kernel, the same one ``area_gradient`` scales by -hs*ht,
so the residual is the exact algebraic gradient of the discrete area up to
that quadrature factor, bit for bit.
"""

import math
import operator
import random
from dataclasses import dataclass, replace

import numpy as np

from .area import (
    AreaConfig,
    _divergence,
    _fluxes,
    _gram_terms,
    _inverse_areas,
    _tangents,
    area_gradient,
    cell_terms,
    flux_divergence,
    hourglass_amplitude,
    summed_area,
    terms_change,
    terms_gradient,
)
from .errors import SolverNaNError
from .grid import Grid2, SurfaceField


# the line search: first trial step (the natural length of a Newton or Laplace-
# Beltrami step), Armijo constant, backtracking factor and backtracks before a stall
_STEP0 = 1.0
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 40
# inner PCG of every step: relative residual and step budget
_PCG_RTOL = 1e-2
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

    def __post_init__(self):
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol is not None and not (0.0 < self.grad_tol < math.inf):
            raise ValueError("grad_tol must be positive and finite")


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
    degeneracy floor are excluded from the max-norm and counted;
    ``degenerate_cells`` counts the cells below that floor.
    """

    values: np.ndarray
    max_norm: float
    excluded_nodes: int
    excluded_mask: np.ndarray
    degenerate_cells: int


def euler_lagrange_residual(f: SurfaceField, acfg: AreaConfig) -> ResidualReport:
    """Divergence-form optimality residual of the discrete area functional.

    The divergence of the per-cell fluxes (b*ds - c*dt)/A and (a*dt - c*ds)/A
    (weighted) at every interior node, zero on edges.  Sampled from a smooth
    critical point this is O(h^2); it is exactly -area_gradient / (hs*ht)
    under the same config, since both come from one flux kernel.
    """
    terms = cell_terms(f, acfg)
    deg = terms.gram < acfg.epsilon
    inner = flux_divergence(terms, f.grid)
    # as in area_gradient, the terms and their tangents are freed before the
    # full-size array is made
    del terms
    values = np.zeros_like(f.values)
    values[1:-1, 1:-1] = inner
    excluded = deg[:-1, :-1] & deg[:-1, 1:] & deg[1:, :-1] & deg[1:, 1:]
    return ResidualReport(
        values=values,
        max_norm=_kept_max_norm(inner, excluded),
        excluded_nodes=int(np.count_nonzero(excluded)),
        excluded_mask=excluded,
        degenerate_cells=int(np.count_nonzero(deg)),
    )


def _kept_max_norm(inner: np.ndarray, excluded: np.ndarray) -> float:
    """Max-norm of ``inner`` on the nodes not ``excluded`` (0 if none), by a masked max and min."""
    if excluded.all():
        return 0.0
    kept = ~excluded[..., None] if excluded.any() else True
    hi = inner.max(initial=-np.inf, where=kept)
    lo = inner.min(initial=np.inf, where=kept)
    return float(np.maximum(abs(hi), abs(lo)))


def _free_slice(free_coords, m: int) -> slice:
    """``free_coords`` as a slice, all ``m`` when None; one coordinate or all, else ValueError."""
    if free_coords is None:
        return slice(0, m)
    free = sorted(set(int(k) for k in free_coords))
    if not free or free[0] < 0 or free[-1] >= m:
        raise ValueError(f"free_coords must be a nonempty subset of 0..{m - 1}")
    if len(free) not in (1, m):
        raise ValueError("free_coords must name one coordinate or all of them")
    return slice(free[0], free[-1] + 1)


def _span_basis(values: np.ndarray):
    """The centred field ``values`` in an orthonormal basis U (m x r) of its span, and U.

    Returns the coordinates, shape ``(ns, nt, r)``, and U, taken from the SVD
    of the field's R factor (no N x m left vectors).  The rank cut sits at
    rounding level (numpy's ``matrix_rank`` default); a constant field keeps
    one direction, so r >= 1.
    """
    nodes = values.reshape(-1, values.shape[-1])
    centred = nodes - nodes.mean(axis=0)
    _, sigma, vt = np.linalg.svd(np.linalg.qr(centred, mode="r"), full_matrices=False)
    rank = int(np.count_nonzero(sigma > sigma[0] * max(nodes.shape) * np.finfo(float).eps))
    basis = vt[:max(rank, 1)].T
    return (centred @ basis).reshape(values.shape[:-1] + basis.shape[1:]), basis


def _dst_matrix(n: int) -> np.ndarray:
    """The DST-I matrix sin(pi j k/(n+1)), j, k = 1..n, looked up in one period of the sine.

    Taking j*k mod 2(n+1) keeps S @ S = (n+1)/2 I to rounding at any n.
    """
    j = np.arange(1, n + 1)
    return np.sin(np.pi * np.arange(2 * n + 2) / (n + 1))[np.outer(j, j) % (2 * n + 2)]


def _dst_inverse(grid: Grid2, c_s: float, c_t: float):
    """Inverse of hs*ht*(c_s D_s(x)A_t/hs^2 + c_t A_s(x)D_t/ht^2) on the interior.

    D is the 1-D Dirichlet second difference tridiag(-1, 2, -1) and A the
    average tridiag(1, 2, 1)/4: the operator is the Hessian of the cell
    stencil's area with frozen coefficients and no cross term.  Both 1-D
    factors share the eigenvectors of the DST-I (``_dst_matrix``), so the
    solve of each column X, S1 @ (S1 @ X @ S2 * scale) @ S2, is exact.
    Returns a function on interior arrays that reshape to ``(ns-2, nt-2, r)``,
    which solves all r columns in one stacked product.
    """
    hs, ht = grid.hs, grid.ht
    n1, n2 = grid.ns - 2, grid.nt - 2
    s1, s2 = _dst_matrix(n1), _dst_matrix(n2)
    half1 = 0.5 * np.pi * np.arange(1, n1 + 1) / (n1 + 1)
    half2 = 0.5 * np.pi * np.arange(1, n2 + 1) / (n2 + 1)
    d1, a1 = 4.0 * np.sin(half1) ** 2, np.cos(half1) ** 2
    d2, a2 = 4.0 * np.sin(half2) ** 2, np.cos(half2) ** 2
    symbol = hs * ht * (
        c_s * np.outer(d1, a2) / (hs * hs) + c_t * np.outer(a1, d2) / (ht * ht)
    )
    scale = 4.0 / ((n1 + 1) * (n2 + 1) * symbol)

    def solve(g):
        x = np.moveaxis(g.reshape(n1, n2, -1), 2, 0)
        return np.moveaxis(s1 @ (s1 @ x @ s2 * scale) @ s2, 0, 2).reshape(g.shape)

    return solve


def _flat_hessian_inverse(terms, grid: Grid2, acfg: AreaConfig):
    """DST preconditioner frozen at the given cell terms.

    The second derivatives of a cell's area in the s- and t-tangent
    components of a coordinate are b/sqrt(G) and a/sqrt(G); their means over
    the non-degenerate cells (1 when there are none) weight the operator.
    """
    live = terms.gram > acfg.epsilon
    if np.any(live):
        root = terms.cells[live]
        c_s = float(np.mean(terms.b[live] / root))
        c_t = float(np.mean(terms.a[live] / root))
    else:
        c_s = c_t = 1.0
    return _dst_inverse(grid, c_s, c_t)


def _laplace_beltrami_kernel(terms):
    """Per-cell kernel K = [[b, -c], [-c, a]] / sqrt(G) of the all-free step.

    It is the flux kernel of ``area._fluxes`` with its coefficients frozen
    (zero on the clamped side), so ``area_gradient[..., k] = S[x_k]``
    on interior nodes for the operator S that ``_frozen_operator`` builds
    from it.  Returns the (ss, st, tt) entries, each ``(ns-1, nt-1, 1)``.
    """
    inv = _inverse_areas(terms)
    return terms.b[..., None] * inv, -terms.c[..., None] * inv, terms.a[..., None] * inv


def _newton_kernel(terms, free: slice):
    """Per-cell Hessian H of the area density in the tangents of the one coordinate ``free``.

    With (A, B, C) the Gram triple of the other coordinates, taken from their
    columns of unit-weight ``terms``, and f = (f_s, f_t) the free coordinate's
    fluxes, the Gram determinant is A*B - C^2 plus
    B ds^2 - 2C ds dt + A dt^2, so the density sqrt(G) has
    H = ([[B, -C], [-C, A]] - f f^T) / sqrt(G), zero where the clamped
    determinant sits at zero, as the fluxes are.  The operator that
    ``_frozen_operator`` builds from it is the exact Hessian of the discrete
    area in the free coordinate.  Returns the (ss, st, tt) entries, each
    ``(ns-1, nt-1, 1)``.
    """
    big_a, big_b, big_c = _gram_terms(*(np.delete(x, free, axis=-1)
                                        for x in (terms.ds, terms.dt, terms.w)))
    inv = _inverse_areas(terms)
    fs, ft = _fluxes(terms, inv, free)
    return (inv * (big_b[..., None] - fs * fs),
            inv * (-big_c[..., None] - fs * ft),
            inv * (big_a[..., None] - ft * ft))


def _frozen_operator(kernel, grid: Grid2, width: int):
    """S = -hs*ht*div(K grad .) on interior columns, for a per-cell kernel K.

    ``kernel`` holds the (ss, st, tt) entries of K, broadcast against
    ``(ns-1, nt-1, width)``.  Returns a function on ``(ns-2, nt-2, width)``
    interior arrays, taken as zero on the edges.
    """
    k_ss, k_st, k_tt = kernel
    hs, ht = grid.hs, grid.ht
    padded = np.zeros((grid.ns, grid.nt, width))

    def apply(x):
        padded[1:-1, 1:-1] = x
        xs, xt = _tangents(padded, hs, ht)
        return -(hs * ht) * _divergence(k_ss * xs + k_st * xt, k_st * xs + k_tt * xt, hs, ht)

    return apply


def _pcg(apply, precondition, rhs):
    """Preconditioned CG for ``apply(x) = rhs``, one Krylov space for all columns.

    A truncated iterate still has <x, rhs> > 0 and stays a descent
    direction.  Stops at a relative residual of ``_PCG_RTOL`` or after
    ``_PCG_STEPS`` steps.
    """

    def dot(p, q):
        return float(np.vdot(p, q))

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


def _normal_projector(values: np.ndarray, grid: Grid2):
    """Projector onto the normal space at each interior node.

    The node tangents are central differences.  Nodes whose tangent Gram
    determinant is below ``_NODE_FLOOR`` times the product of its diagonal
    (parallel or vanishing tangents) are left unprojected.  Returns a
    function on ``(ns-2, nt-2, r)`` arrays of vectors.
    """
    ts = (values[2:, 1:-1] - values[:-2, 1:-1]) / (2.0 * grid.hs)
    tt = (values[1:-1, 2:] - values[1:-1, :-2]) / (2.0 * grid.ht)
    g_ss, g_tt, g_st = (np.einsum("...k,...k->...", p, q)
                        for p, q in ((ts, ts), (tt, tt), (ts, tt)))
    det = g_ss * g_tt - g_st * g_st
    live = det > _NODE_FLOOR * g_ss * g_tt
    inv = np.divide(1.0, det, out=np.zeros_like(det), where=live)

    def project(u):
        ps, pt = (np.einsum("...k,...k->...", t, u) for t in (ts, tt))
        along_s = (inv * (g_tt * ps - g_st * pt))[..., None]
        along_t = (inv * (g_ss * pt - g_st * ps))[..., None]
        return u - along_s * ts - along_t * tt

    return project


def normal_gradient(f: SurfaceField, acfg: AreaConfig) -> np.ndarray:
    """Normal part of the area gradient on interior nodes, shape ``(ns-2, nt-2, m)``.

    The gradient g is a covector: in y = sqrt(w) * x it is g/sqrt(w), which
    is projected onto the normal space of each node (``_normal_projector``)
    and mapped back by sqrt(w).  The rest of g is its tangential (gauge)
    part, which the parametrization of an all-free surface can absorb
    without changing the surface.
    """
    root = np.sqrt(acfg.weight_vector(f.dim))
    g = area_gradient(f, acfg)[1:-1, 1:-1]
    return root * _normal_projector(f.values * root, f.grid)(g / root)


def minimize(
    init: SurfaceField,
    cfg: SolverConfig,
    acfg: AreaConfig,
    free_coords=None,
) -> SolveReport:
    """Minimize the total area over interior values with fixed edges.

    The edges of ``init`` are the boundary and come back bit for bit.  When
    ``free_coords`` is given, only those coordinate indices move (the
    graph problems pin the two affine parameter coordinates and descend
    on the height alone); the rest of the field is treated as data.  It
    names one coordinate or all of them, else ValueError.  One loop and one
    PCG serve both, with two kernels (see the module docstring): inexact
    Newton steps with one coordinate free, normal-projected
    Laplace-Beltrami steps with every coordinate free.  The weights are a
    change of variables: the loop runs with unit weights in y = sqrt(w) * x.
    Naming every coordinate is the same as ``free_coords=None`` and runs in
    an orthonormal basis of the initial field's span in y, whose dimension
    ``span_rank`` reports (m with one free coordinate).

    A solve that stops short returns the best field seen so far with
    ``converged=False`` and a ``stall`` that says why: a line search that
    failed after the backtracking budget, a step direction that is not a
    descent direction, or ``max_iters`` spent.  Non-finite objective
    values raise SolverNaNError with the iteration.
    """
    grid = init.grid
    free = _free_slice(free_coords, init.dim)
    all_free = free.stop - free.start == init.dim
    tol = cfg.grad_tol if cfg.grad_tol is not None else default_grad_tol(grid)

    # The loop moves coordinates ``moving`` of ``work`` under unit weights, in
    # y = sqrt(w) * x: the one free coordinate of y, or all r coordinates of y
    # in an orthonormal basis of its span (see the module docstring).
    root = np.sqrt(acfg.weight_vector(init.dim))
    loop_acfg = replace(acfg, weights=None)
    work = init.values * root
    if all_free:
        work, basis = _span_basis(work)
        start = work.copy()
        lift = basis.T * root  # takes a covector in y to the full-space one in x
    moving = slice(0, work.shape[-1]) if all_free else free
    fld = SurfaceField(grid, work)
    # the loop's state (x, g, d, u) is interior-shaped, (ns-2, nt-2, width)
    x = work[1:-1, 1:-1, moving].copy()
    step = np.zeros(work.shape[:2] + x.shape[-1:])

    def max_norm(v):
        return float(np.max(np.abs(v), initial=0.0))

    # the terms of the current field: taken once here, then handed over from
    # the accepted trial; a start whose area leaves the float range stops here
    with np.errstate(over="ignore", invalid="ignore"):
        terms = cell_terms(fld, loop_acfg)
    f_cur = summed_area(terms.cells, grid)
    if not math.isfinite(f_cur):
        raise SolverNaNError(0, "the initial area is not finite")
    trace = [f_cur]
    kernel = _laplace_beltrami_kernel if all_free else (lambda t: _newton_kernel(t, moving))

    def precondition(u):
        # S^-1 at the current field, by PCG preconditioned with the DST solve
        return _pcg(_frozen_operator(kernel(terms), grid, x.shape[-1]),
                    _flat_hessian_inverse(terms, grid, loop_acfg), u)

    def line_search(direction, slope):
        current = terms.columns(moving)
        alpha = _STEP0
        for _ in range(_MAX_BACKTRACKS + 1):
            work[1:-1, 1:-1, moving] = x + alpha * direction
            trial = cell_terms(fld, loop_acfg)
            # the step as rounded into the trial field, not alpha * direction
            np.subtract(work[1:-1, 1:-1, moving], x, out=step[1:-1, 1:-1])
            delta = terms_change(current, trial.cells, step, grid)
            if math.isnan(delta):
                raise SolverNaNError(it, "objective is NaN during line search")
            if delta <= _ARMIJO_C1 * alpha * slope:
                return delta, trial
            alpha *= _BACKTRACK
        return None, None

    g = terms_gradient(terms.columns(moving), grid)
    it = 0
    while True:
        # the max-norms of the full-space gradient in x (sqrt(w) times the one in
        # y) and of its normal and tangential parts, then the stopping test (module
        # docstring); solves of one free coordinate take the identity and g
        # itself, whose tangential part is 0
        lg = g @ lift if all_free else g * root[free]
        gfull = max_norm(lg)
        if all_free:
            project = _normal_projector(work, grid)
            u = project(g)
            lu = u @ lift
            gnorm, tangential = max_norm(lu), max_norm(lg - lu)
        else:
            project, u, gnorm, tangential = (lambda v: v), g, gfull, 0.0
        converged = gnorm <= tol and (tangential > tol or gfull <= tol)
        if converged or it >= cfg.max_iters:
            stall = None if converged else (it, None)
            break
        it += 1
        d = -project(precondition(u))
        slope = float(np.vdot(g, d))
        if math.isnan(slope):
            raise SolverNaNError(it, "gradient or search direction is not finite")
        delta, accepted = line_search(d, slope) if slope < 0.0 else (None, None)
        if accepted is None:
            work[1:-1, 1:-1, moving] = x
            # a failed search, or no descent direction and no search at all
            stall = (it, slope < 0.0)
            break
        # the accepted trial is the field
        x = work[1:-1, 1:-1, moving].copy()
        if not np.all(np.isfinite(x)):
            raise SolverNaNError(it, "field values are not finite")
        terms = accepted
        f_cur = f_cur + delta
        trace.append(f_cur)
        g = terms_gradient(terms.columns(moving), grid)

    # back to x on interior nodes only: edges and pinned coordinates stay bit-exact
    values = init.values.copy()
    if all_free:
        values[1:-1, 1:-1] += (work - start)[1:-1, 1:-1] @ (basis.T / root)
    else:
        values[1:-1, 1:-1, free] = work[1:-1, 1:-1, free] / root[free]
    final = SurfaceField(grid, values)
    rep = euler_lagrange_residual(final, acfg)
    el_norm = _kept_max_norm(rep.values[1:-1, 1:-1, free], rep.excluded_mask)
    if stall is not None:
        stall = _stall_message(*stall, cfg, gfull, gnorm, tol, el_norm, tol / (grid.hs * grid.ht))
    return SolveReport(
        field=final,
        iterations=len(trace) - 1,
        area_trace=trace,
        grad_norm=gnorm,
        grad_tangential=tangential,
        el_residual=el_norm,
        converged=converged,
        degenerate_cells=rep.degenerate_cells,
        span_rank=work.shape[-1],
        hourglass=hourglass_amplitude(final),
        stall=stall,
    )


def _stall_message(it, searched, cfg, gfull, gnorm, tol, el_norm, el_tol) -> str:
    """Why the solve stopped early, with the numbers that say what to change.

    ``searched`` is true when the line search of iteration ``it`` failed,
    false when none ran because the step's direction was not a descent
    direction, and None when ``max_iters`` ran out with every step accepted.
    ``gfull`` and ``gnorm`` are the max-norms of the gradient and of its
    normal part (equal when coordinates are pinned).
    """
    advice = "raise grad_tol if the gradient sits at its rounding floor"
    if searched is None:
        head = (
            f"iteration budget spent: max_iters = {cfg.max_iters} steps were all accepted "
            f"without meeting the stopping test"
        )
        advice = f"raise max_iters if the gradient is still falling, or {advice}"
    elif searched:
        head = (
            f"line search stalled at iteration {it}: {_MAX_BACKTRACKS} backtracks "
            f"down to step {_STEP0 * _BACKTRACK**_MAX_BACKTRACKS:.3e} gave no Armijo decrease"
        )
    else:
        head = (
            f"no descent direction at iteration {it}: the preconditioned gradient gave a "
            f"direction along which the area does not fall, so no line search ran"
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

    Adds sum_{p,q=1..3} c_pq sin(p pi s) sin(q pi t) (vanishing on the
    edges), scaled to the given max amplitude, to every free coordinate.
    The nine coefficients are ``random.Random(seed).uniform(-1.0, 1.0)``
    draws in (p, q) order, p outer.  Python keeps the ``random()`` sequence
    of an int seed fixed across versions and defines ``uniform(a, b)`` as
    ``a + (b - a) * random()``, so a seed gives the same field on every
    Python and numpy.  Fields seeded when this drew from numpy's
    ``default_rng`` differ from today's.  ``seed`` must be a non-negative
    integer (numpy integers included); a negative one, a bool, a float or
    a string raises ValueError.  ``free_coords`` names one coordinate or
    all of them, as in ``minimize``, else ValueError.  Used by the CLI to
    explore alternative basins.
    """
    try:
        index = operator.index(seed)
    except TypeError:
        index = None
    if index is None or index < 0 or isinstance(seed, bool):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    free = _free_slice(free_coords, f.dim)
    if amplitude == 0.0:
        return f.copy()
    grid = f.grid
    rng = random.Random(index)
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
    vals[1:-1, 1:-1, free] += bump[1:-1, 1:-1, None]
    return SurfaceField(grid, vals)
