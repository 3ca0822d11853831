"""Preconditioned minimization of the discrete area over interior nodes.

The solver moves one coordinate of the interior nodes, with the initial
field's edges held bit-exactly fixed.  Every solve runs one loop: take the
area gradient g, step along -S^-1 g for the exact Hessian S of the discrete
area in the moving coordinate under a backtracking Armijo line search, and
stop once the gradient meets ``grad_tol``.  The line search's decrease
(``area.terms_change``) is evaluated without cancellation (sum of
dG / (A_try + A) over cells, dG expanded in the step's own tangents), so
every accepted step strictly decreases the area and the area trace is
nonincreasing by construction.  Each trial field is evaluated once, by
``area.cell_terms``: an accepted trial's tangents, Gram terms and cell
areas become the current terms, which feed the next decrease and the next
gradient and the next step's operator.  A failed line search, or a
direction along which the area does not fall, stops the solve with a
stall.

S = -hs*ht*div(K grad .) on the cell stencil, with K the exact Hessian of
each cell's area density in the tangents of the moving coordinate
(``_newton_kernel``), so each step is an inexact Newton step (Dembo,
Eisenstat & Steihaug, SIAM J. Numer. Anal. 19(2), 1982).  With the other
coordinates pinned, each cell area sqrt(G_p + grad z^T M grad z) (M
positive semidefinite) is convex in the moving coordinate, so S is
positive semidefinite; the graph oracles' solves take three or four steps
on every grid from 17^2 to 129^2.  S is inverted by matrix-free PCG,
preconditioned by the DST-I inverse of a constant-coefficient stencil at
the cells' mean area curvatures (``_flat_hessian_inverse``), and stopped
at a relative residual of ``_PCG_RTOL``.

``free_coords`` names the one coordinate that moves (graph problems and
oracle-driven covariance problems), or every coordinate (None, the
corner-driven density and covariance problems).  An all-free problem is
solved as a graph over a plane (``_graph_basis``).  Four straight edges
between corners c00, c10, c01, c11 span an affine space of rank at most 3;
projected along d = (c00 + c11 - c10 - c01)/2 they map onto a
parallelogram, since both of its diagonals then share their midpoint.  A
Jordan curve that projects one-to-one onto a convex plane curve bounds a
unique minimal disc, a graph over that plane inside the curve's convex
hull (Rado's theorem; Osserman, *A Survey of Minimal Surfaces*), and it
depends on the boundary alone.  So the solve runs in an orthonormal basis
of the corners' span: it pins the two in-plane coordinates to the Coons
fill of their edge values, so the boundary fixes them and the start does
not, and moves the start's height along d/|d|.  The route is taken only
when it is exact: every edge node lies in the corners' span and its
projection along d is a convex closed curve, both to rounding.  Corners of
rank 2 or less leave no height: the solve returns the Coons fill of the
edges' part in their span after 0 steps.  Anything else raises ValueError;
pin a coordinate to solve it.

The area weights w are a change of coordinates: in y = sqrt(w) * x the
w-inner product is the Euclidean one, so the loop runs in y with unit
weights, in one frame y = origin + work @ basis.T: the identity for one
free coordinate, the graph basis for an all-free solve.  The frame takes
the start in, the caller's gradient out to x and the caller's coordinates
back, through the basis and divided by sqrt(w), so edges and pinned
coordinates come back bit for bit.  A solve converges when the max-norm in
x of the gradient over the coordinates the caller frees meets
``grad_tol``, or when the moving coordinate's part meets it and the last
accepted step lowered the caller's gradient by no more than ``grad_tol``:
a graph over a plane pins in-plane coordinates whose gradient sits at
discretisation level, where further steps move it by rounding only.  With
one free coordinate the two are the same gradient.

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
    cell_terms,
    flux_divergence,
    hourglass_amplitude,
    summed_area,
    terms_change,
    terms_gradient,
)
from .errors import SolverNaNError
from .grid import Grid2, SurfaceField, coons_init


# the line search: first trial step (the natural length of a Newton step), Armijo
# constant, backtracking factor and backtracks before a stall
_STEP0 = 1.0
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 40
# inner PCG of every step: relative residual and step budget
_PCG_RTOL = 1e-2
_PCG_STEPS = 200
# rounding in the graph route's checks, relative to the largest edge value in y
_ROUNDING = 1e-10


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
    el_residual: float
    converged: bool
    degenerate_cells: int
    hourglass: float
    stall: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iters": self.iterations,
            "area_trace": list(self.area_trace),
            "grad_norm": self.grad_norm,
            "el_residual": self.el_residual,
            "degenerate_cells": self.degenerate_cells,
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


def _graph_basis(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis (m x r) of the affine span of the corners of ``y``, d/|d| last.

    The basis comes from a QR of the three m-vectors d, c10 - c00 and
    c01 - c00.  Its rank r counts the singular values above rounding once
    each coordinate is divided by its largest edge value, so a direction
    that is small only beside a larger coordinate still counts.  Raises
    ValueError unless the graph route is exact (see the module docstring):
    every edge node within rounding of the span and, for r = 3, the edges'
    projection along d a convex closed curve.
    """
    c00, c10, c01, c11 = y[0, 0], y[-1, 0], y[0, -1], y[-1, -1]
    span = np.stack([0.5 * (c00 + c11 - c10 - c01), c10 - c00, c01 - c00], axis=-1)
    # the edge nodes once around the boundary
    edges = np.concatenate([y[:-1, 0], y[-1, :-1], y[:0:-1, -1], y[0, :0:-1]])
    scale = np.max(np.abs(edges), axis=0)
    floor = _ROUNDING * float(np.max(scale, initial=0.0))
    equilibrated = np.linalg.qr(span / np.where(scale > 0.0, scale, 1.0)[:, None], mode="r")
    rank = int(np.count_nonzero(np.linalg.svd(equilibrated, compute_uv=False) > _ROUNDING))
    q, r = np.linalg.qr(span)
    basis = q[:, [1, 2, 0]] if rank == 3 else q @ np.linalg.svd(r)[0][:, :max(rank, 1)]
    edges = edges - c00
    if np.max(np.abs(edges - edges @ basis @ basis.T), initial=0.0) > floor:
        raise ValueError(
            "free_coords=None solves a graph over the corners' span, but the edges leave "
            "the affine span of the four corners; pin a coordinate (free_coords) instead")
    if rank == 3 and not _convex_curve(edges @ basis[:, :2], floor):
        raise ValueError(
            "free_coords=None solves a graph over the corners' span, but the edges do not "
            "project along d = (c00 + c11 - c10 - c01)/2 onto a convex closed curve; "
            "pin a coordinate (free_coords) instead")
    return basis


def _convex_curve(p: np.ndarray, tol: float) -> bool:
    """Whether the closed polygon through the rows of ``p`` (n x 2) is convex and winds once.

    Steps no longer than ``tol`` are dropped.  Every turn must keep one sense
    and stay short of a half turn, each by more than the rounding ``tol``
    moves it (``tol`` over the lengths of its two steps), and the turns must
    add up to one full turn.
    """
    step = np.roll(p, -1, axis=0) - p
    length = np.hypot(step[:, 0], step[:, 1])
    step, length = step[length > tol], length[length > tol]
    after = np.roll(step, -1, axis=0)
    turn = np.arctan2(step[:, 0] * after[:, 1] - step[:, 1] * after[:, 0],
                      np.einsum("ij,ij->i", step, after))
    turn *= 1.0 if turn.sum() > 0.0 else -1.0
    slack = tol / length + tol / np.roll(length, -1)
    return bool(abs(turn.sum() - 2.0 * np.pi) < np.pi
                and np.all(turn > -slack) and np.all(turn < np.pi - slack))


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
    which solves their r columns in one stacked product.
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


def _frozen_operator(kernel, grid: Grid2):
    """S = -hs*ht*div(K grad .) on the interior, for a per-cell kernel K.

    ``kernel`` holds the (ss, st, tt) entries of K, each ``(ns-1, nt-1, 1)``.
    Returns a function on ``(ns-2, nt-2, 1)`` interior arrays, taken as zero
    on the edges.
    """
    k_ss, k_st, k_tt = kernel
    hs, ht = grid.hs, grid.ht
    padded = np.zeros((grid.ns, grid.nt, 1))

    def apply(x):
        padded[1:-1, 1:-1] = x
        xs, xt = _tangents(padded, hs, ht)
        return -(hs * ht) * _divergence(k_ss * xs + k_st * xt, k_st * xs + k_tt * xt, hs, ht)

    return apply


def _pcg(apply, precondition, rhs):
    """Preconditioned CG for ``apply(x) = rhs``.

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


def minimize(
    init: SurfaceField,
    cfg: SolverConfig,
    acfg: AreaConfig,
    free_coords=None,
) -> SolveReport:
    """Minimize the total area over interior values with fixed edges.

    The edges of ``init`` are the boundary and come back bit for bit.
    ``free_coords`` names the one coordinate index that moves (the graph
    problems pin the two affine parameter coordinates and descend on the
    height alone), the rest of the field being data; or, as None or a list
    of every coordinate, all of them.  A proper subset of several raises
    ValueError.  An all-free solve runs as a graph over the plane of the
    corners' span (see the module docstring): it pins the two in-plane
    coordinates to the Coons fill of their edge values, drops the start's
    part outside the span and moves the start's height, and raises
    ValueError when that route is not exact.  Either way one loop takes
    inexact Newton steps on one coordinate of one frame, with unit weights
    in y = sqrt(w) * x.

    ``grad_norm`` is the max-norm in x of the gradient over the caller's
    free coordinates.  A solve that stops short returns the best field seen
    so far with ``converged=False`` and a ``stall`` that says why: a line
    search that failed after the backtracking budget, a step direction that
    is not a descent direction, or ``max_iters`` spent.  Non-finite
    objective values raise SolverNaNError with the iteration.
    """
    grid = init.grid
    free = _free_slice(free_coords, init.dim)
    tol = cfg.grad_tol if cfg.grad_tol is not None else default_grad_tol(grid)

    # The frame: y = sqrt(w) * x = origin + work @ basis.T, and the loop moves column
    # ``moving`` of ``work`` under unit weights: the start's one free coordinate, or
    # its height in the graph basis (``_graph_basis``), whose in-plane coordinates
    # are those of the edges' Coons fill ``pins``.  Columns ``free`` of work hold
    # the caller's gradient, lifted to x's columns ``free``.
    root = np.sqrt(acfg.weight_vector(init.dim))
    y = init.values * root
    if free.stop - free.start == init.dim:
        origin, basis, moving = y[0, 0].copy(), _graph_basis(y), slice(2, 3)
        pins = coons_init(SurfaceField(grid, y)).values
    else:
        origin, basis, moving, pins = np.zeros(init.dim), np.eye(init.dim), free, y
    work = (pins - origin) @ basis
    work[..., moving] = (y - origin) @ basis[:, moving]
    lift = (basis.T * root)[free, free]  # takes the caller's covector in work to the one in x
    height = slice(moving.start - free.start, moving.stop - free.start)  # ``moving`` in ``free``
    loop_acfg = replace(acfg, weights=None)
    fld = SurfaceField(grid, work)
    # the loop's state (x, g, d) is interior-shaped, (ns-2, nt-2, 1)
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

    def precondition(u):
        # S^-1 at the current field, by PCG preconditioned with the DST solve
        return _pcg(_frozen_operator(_newton_kernel(terms, moving), grid),
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

    def gradients():
        # the moving coordinate's gradient in y, and the max-norms in x of the
        # caller's gradient and of the moving part (the same with one free coordinate)
        g_free = terms_gradient(terms.columns(free), grid)
        g = g_free[..., height]
        return g, max_norm(g_free @ lift), max_norm(g) * max_norm(lift[height])

    g, gfull, gnorm = gradients()
    it = 0
    previous = math.inf
    while True:
        # the stopping test (module docstring): the caller's gradient, or the moving
        # part once the last accepted step lowered the caller's gradient by no more
        # than grad_tol
        settled = x.size == 0 or previous - gfull <= tol
        converged = gfull <= tol or (gnorm <= tol and settled)
        if converged or it >= cfg.max_iters:
            stall = None if converged else (it, None)
            break
        it += 1
        d = -precondition(g)
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
        previous = gfull
        g, gfull, gnorm = gradients()

    # back to x on interior nodes only: edges and pinned coordinates stay bit-exact
    values = init.values.copy()
    values[1:-1, 1:-1, free] = (origin[free] + work[1:-1, 1:-1] @ basis[free].T) / root[free]
    final = SurfaceField(grid, values)
    rep = euler_lagrange_residual(final, acfg)
    el_norm = _kept_max_norm(rep.values[1:-1, 1:-1, free], rep.excluded_mask)
    if stall is not None:
        stall = _stall_message(*stall, cfg, gfull, gnorm, tol, el_norm, tol / (grid.hs * grid.ht))
    return SolveReport(
        field=final,
        iterations=len(trace) - 1,
        area_trace=trace,
        grad_norm=gfull,
        el_residual=el_norm,
        converged=converged,
        degenerate_cells=rep.degenerate_cells,
        hourglass=hourglass_amplitude(final),
        stall=stall,
    )


def _stall_message(it, searched, cfg, gfull, gnorm, tol, el_norm, el_tol) -> str:
    """Why the solve stopped early, with the numbers that say what to change.

    ``searched`` is true when the line search of iteration ``it`` failed,
    false when none ran because the step's direction was not a descent
    direction, and None when ``max_iters`` ran out with every step accepted.
    ``gfull`` and ``gnorm`` are the max-norms of the caller's gradient and
    of its moving (height) part, equal with one free coordinate.
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
    height = "" if gnorm == gfull else f" (height part {gnorm:.3e})"
    return (
        f"{head}; "
        f"gradient max-norm {gfull:.3e}{height} against tolerance {tol:.3e}; "
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
    vary a solve's start.
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
