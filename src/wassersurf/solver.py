"""First-order minimization of the discrete area over interior nodes.

The solver moves only interior node values (one coordinate, or all of
them) with the four boundary edges held bit-exactly fixed.  Every solve
runs one loop: take the area gradient g and the max-norms of its normal
and tangential parts, apply the problem's metric to get z, step along
d = -z + beta*d under a backtracking Armijo line search, and stop once
the gradient meets ``grad_tol``.  The line search's decrease
(``area.terms_change``) is evaluated without cancellation (sum of
dG / (A_try + A) over cells, dG expanded in the step's own tangents), so
every accepted step strictly decreases the area and the area trace is
nonincreasing by construction.  Each trial field is evaluated once, by
``area.cell_terms``: an accepted trial's tangents, Gram terms and cell
areas become the current terms, which feed the next decrease, the next
gradient (the fluxes of the moving coordinates only) and, on all-free
solves, the frozen operator below.  The Gram terms of pinned coordinates
never change, so they are taken once per solve and each trial takes the
tangents of the moving coordinates only.  A conjugate direction that
fails its line search is retried once from -z before the solve reports a
stall.  ``free_coords`` names one coordinate or all of them; a proper
subset of several is rejected, since no problem here poses one and the
area is not convex in it.

The two metrics differ in what the parametrization leaves free:

* One free coordinate (graph problems, oracle-driven covariance problems):
  the inverse of the area's flat Hessian, a constant-coefficient form of
  the cell stencil that a DST-I diagonalises exactly, frozen once at the
  initial field; the projector is the identity.  With the other
  coordinates pinned, each cell area sqrt(G_p + grad z^T M grad z)
  (M positive semidefinite) is convex in the free coordinate, so this
  preconditioned Polak-Ribiere (PR+) descent takes a grid-independent
  number of steps.
* Every coordinate free (density and corner-driven covariance problems):
  the area is not convex, the parametrization is a gauge, and the
  cell-centred area cannot see tangential or hourglass motion of the
  nodes.  The metric is then the Laplace-Beltrami iteration of Pinkall &
  Polthier (Exp. Math. 2(1), 1993) and Dziuk (Numer. Math. 58, 1991) with
  a normal projection P as the gauge: z = P S^-1 P g, where P removes the
  tangential part at every interior node in the w-inner product (central-
  difference tangents; nodes with a degenerate tangent pair are left as
  they are) and S = -hs*ht*div(K grad .), with K = [[b, -c], [-c, a]] /
  sqrt(G) per cell, is frozen at the current field, so that g_k = w_k
  S[x_k].  S is inverted by matrix-free PCG over all coordinates at once,
  preconditioned by the DST-I inverse at S's mean coefficients.

beta is PR+ on the fixed DST metric and exactly 0 on the re-frozen
Laplace-Beltrami metric: a full step there already solves the frozen
problem, and a conjugate term measured against the previous step's
metric only costs steps.

The gradient's tangential (gauge) part belongs to the parametrization, not
to the surface: normal steps cannot remove it, and the unprojected
iteration lowers it only by sliding the nodes (about 1% per step,
hourglass growing).  So the stopping test asks the max-norm of the normal
part to meet ``grad_tol`` and, unless the tangential part alone is above
``grad_tol``, the full gradient too: the full Euler-Lagrange residual then
meets grad_tol/(hs*ht) at convergence whenever the parametrization's gauge
part allows it.  The tangential part is reported as ``grad_tangential``
(0 with a pinned coordinate, where the normal part is the gradient).

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
full-rank field or a given ``free_coords`` keep the full space.  Either
way the loop moves one contiguous run of coordinates, held as a slice.

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
    area_gradient,
    cell_terms,
    degenerate_cell_count,
    hourglass_amplitude,
    summed_area,
    terms_change,
    terms_gradient,
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
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be >= 1")
        if self.grad_tol is not None and not (0.0 < self.grad_tol < math.inf):
            raise ValueError("grad_tol must be positive and finite")
        if not self.max_backtracks >= 0:
            raise ValueError("max_backtracks must be >= 0")
        if not (0.0 < self.armijo_c1 < 1.0 and 0.0 < self.backtrack < 1.0
                and 0.0 < self.step0 < math.inf):
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
    terms = cell_terms(f, acfg)
    fs, ft = _fluxes(terms)
    deg = terms.gram < acfg.epsilon
    # the tangents the terms hold are as large as the fluxes on wide fields;
    # dropping them first keeps the divergence's temporaries in reused memory
    del terms
    values = np.zeros_like(f.values)
    values[1:-1, 1:-1] = _divergence(fs, ft, grid.hs, grid.ht)

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
    # odd extensions [0, x, 0, -x reversed] along axis 0 and 1, by (axis, r);
    # their zero entries are never written
    odd = {}

    def dst1(x, axis):
        # unnormalised DST-I along axis 0 or 1: one rfft of the odd extension
        n, key = x.shape[axis], (axis, x.shape[2])
        if key not in odd:
            shape = list(x.shape)
            shape[axis] = 2 * n + 2
            odd[key] = np.zeros(shape)
        ext = odd[key]
        lead = (slice(None),) * axis
        ext[lead + (slice(1, n + 1),)] = x
        np.negative(np.flip(x, axis), out=ext[lead + (slice(n + 2, None),)])
        return -0.5 * np.fft.rfft(ext, axis=axis).imag[lead + (slice(1, n + 1),)]

    def solve(g):
        spec = dst1(dst1(g.reshape(n1, n2, -1), 0), 1) * scale[..., None]
        return dst1(dst1(spec, 0), 1).reshape(g.shape)

    return solve


def _flat_hessian_inverse(terms, grid: Grid2, scale: float, acfg: AreaConfig):
    """DST preconditioner frozen at the given cell terms.

    The second derivatives of a cell's area in the k-th s- and t-tangent
    components are w_k*b/sqrt(G) and w_k*a/sqrt(G); their means over the
    non-degenerate cells (1 when there are none), times ``scale`` (w_k, or 1
    for the scalar operator of ``_frozen_operator``), weight the operator.
    """
    live = terms.gram > acfg.epsilon
    if np.any(live):
        root = terms.cells[live]
        c_s = scale * float(np.mean(terms.b[live] / root))
        c_t = scale * float(np.mean(terms.a[live] / root))
    else:
        c_s = c_t = 1.0
    return _dst_inverse(grid, c_s, c_t)


def _frozen_operator(terms, grid: Grid2):
    """S = -hs*ht*div(K grad .) on interior columns, K frozen at the given cell terms.

    K = [[b, -c], [-c, a]] / sqrt(G) per cell is the flux kernel of
    ``area._fluxes`` with its coefficients frozen (zero on the clamped side),
    so ``area_gradient[..., k] = w_k * S[x_k]`` on interior nodes.  Returns a
    function on ``(ns-2, nt-2, width)`` interior arrays, taken as zero on the
    edges, for the coordinates ``terms`` was taken over.
    """
    inv = np.where(terms.gram > 0.0, 1.0 / terms.cells, 0.0)
    k_ss, k_st, k_tt = ((terms.b * inv)[..., None], (-terms.c * inv)[..., None],
                        (terms.a * inv)[..., None])
    hs, ht = grid.hs, grid.ht
    padded = np.zeros((grid.ns, grid.nt, terms.ds.shape[-1]))

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
    on the height alone); the rest of the field is treated as data.  It
    names one coordinate or all of them, else ValueError.  One loop serves
    both (see the module docstring): PR+ conjugate gradients in the fixed
    DST metric with one coordinate free, normal-projected Laplace-Beltrami
    steps with every coordinate free.  With ``free_coords=None`` and
    uniform weights the loop runs in the span of the initial field, and
    ``span_rank`` reports the dimension used.

    A solve that stops short returns the best field seen so far with
    ``converged=False`` and a ``stall`` that says why: a line search that
    failed after the backtracking budget (a conjugate direction first gets
    one retry from the preconditioned gradient), a step direction that is
    not a descent direction, or ``max_iters`` spent.  Non-finite objective
    values raise SolverNaNError with the iteration.
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
    free = slice(free[0], free[-1] + 1)
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
        moving = slice(0, span_rank)
        loop_acfg = replace(acfg, weights=np.full(span_rank, acfg.weight_vector(init.dim)[0]))
        work = (init.values - centre) @ basis
        start = work.copy()
    fld = SurfaceField(grid, work)
    w = loop_acfg.weight_vector(work.shape[-1])
    inner_shape = work[1:-1, 1:-1, moving].shape
    step = np.zeros(work.shape[:2] + inner_shape[-1:])

    def push(x):
        work[1:-1, 1:-1, moving] = x.reshape(inner_shape)

    def max_norm(g):
        # the stopping test is on the full-space gradient
        if basis is not None:
            g = g.reshape(-1, span_rank) @ basis.T
        return float(np.max(np.abs(g), initial=0.0))

    x = work[1:-1, 1:-1, moving].reshape(-1).copy()
    # the terms of the current field: taken once here, then handed over from
    # the accepted trial; the Gram part of the coordinates outside
    # ``moving`` (none on all-free solves) is frozen for the whole solve
    terms = cell_terms(fld, loop_acfg, moving)
    f_cur = summed_area(terms.cells, grid)
    trace = [f_cur]
    stall = None
    if all_free:
        def precondition(u):
            # S^-1 frozen at the current field, by PCG preconditioned with the
            # DST solve at S's mean coefficients
            return _pcg(_frozen_operator(terms, grid),
                        _flat_hessian_inverse(terms, grid, 1.0, loop_acfg), u, w)
    else:
        precondition = _flat_hessian_inverse(terms, grid, w[moving.start], loop_acfg)

    def line_search(direction, slope):
        alpha = cfg.step0
        for _ in range(cfg.max_backtracks + 1):
            x_try = x + alpha * direction
            push(x_try)
            trial = cell_terms(fld, loop_acfg, moving, terms.pinned)
            # the step as rounded into the trial field, not alpha * direction
            step[1:-1, 1:-1] = (x_try - x).reshape(inner_shape)
            delta = terms_change(terms, trial.cells, step, grid)
            if math.isnan(delta):
                raise SolverNaNError(it, "objective is NaN during line search")
            if delta <= cfg.armijo_c1 * alpha * slope:
                return alpha, delta, trial
            alpha *= cfg.backtrack
        return None, None, None

    def measure():
        # the projector, the vector the metric acts on and the max-norms of
        # the gradient and of its normal and tangential parts; the gradient is
        # a covector, so all-free solves project g/w as a vector, and pinned
        # ones take the identity and g itself
        gfull = max_norm(g)
        if not all_free:
            return (lambda v: v), g, gfull, gfull, 0.0
        project = _normal_projector(work, grid, w)
        u = project(g.reshape(inner_shape) / w)
        return project, u, gfull, max_norm(w * u), max_norm(g - (w * u).ravel())

    def settled():
        # the stopping test (module docstring); with pinned coordinates the
        # tangential part is 0 and the normal part is the gradient
        return gnorm <= tol and (tangential > tol or gfull <= tol)

    g = terms_gradient(terms, grid).ravel()
    project, u, gfull, gnorm, tangential = measure()
    converged = settled()
    d = np.zeros_like(x)
    z = None
    it = 0
    while not converged and it < cfg.max_iters:
        it += 1
        z, z_prev = project(precondition(u)).ravel(), z
        # PR+ on the fixed metric; 0 on the re-frozen one, whose full step
        # already solves the frozen problem
        beta = 0.0
        if not (all_free or z_prev is None):
            beta = max(0.0, float(np.dot(z, g - g_prev)) / float(np.dot(z_prev, g_prev)))
        d = -z + beta * d
        slope = float(np.dot(g, d))
        if math.isnan(slope):
            raise SolverNaNError(it, "gradient or search direction is not finite")
        searches, alpha = 0, None
        for restart in (False, True):
            if restart:
                # once from the preconditioned gradient before declaring a stall
                if not beta:
                    break
                d, slope = -z, -float(np.dot(g, z))
            if slope < 0.0:
                searches += 1
                alpha, delta, accepted = line_search(d, slope)
                if alpha is not None:
                    break
        if alpha is None:
            push(x)
            stall = (it, searches)
            break
        x = x + alpha * d
        push(x)
        if not np.all(np.isfinite(x)):
            raise SolverNaNError(it, "field values are not finite")
        terms = accepted
        f_cur = f_cur + delta
        trace.append(f_cur)
        g_prev, g = g, terms_gradient(terms, grid).ravel()
        project, u, gfull, gnorm, tangential = measure()
        converged = settled()
    if not (converged or stall):
        stall = (it, None)

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
        stall = _stall_message(*stall, cfg, gfull, gnorm, tol, el_norm, tol / (grid.hs * grid.ht))
    return SolveReport(
        field=final,
        iterations=len(trace) - 1,
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
    direction, and None that ``max_iters`` ran out with every step accepted.
    ``gfull`` and ``gnorm`` are the max-norms of the gradient and of its
    normal part (equal when coordinates are pinned).
    """
    advice = "raise grad_tol if the gradient sits at its rounding floor"
    if searches is None:
        head = (
            f"iteration budget spent: max_iters = {cfg.max_iters} steps were all accepted "
            f"without meeting the stopping test"
        )
        advice = f"raise max_iters if the gradient is still falling, or {advice}"
    elif searches:
        last_alpha = cfg.step0 * cfg.backtrack**cfg.max_backtracks
        head = (
            f"line search stalled at iteration {it}: {searches * cfg.max_backtracks} backtracks "
            f"over {searches} search(es) down to step {last_alpha:.3e} gave no Armijo decrease"
        )
        advice = f"raise max_backtracks or lower step0 if the step is too long, or {advice}"
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
