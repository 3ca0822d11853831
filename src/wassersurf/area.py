"""Discrete two-parameter area functional and its exact algebraic gradient.

The integrand is the Gram-determinant area density of the two tangent
vectors, sqrt(<ds,ds>_w <dt,dt>_w - <ds,dt>_w^2), with a configurable
weighted inner product: uniform weights 1/m realize the quantile-space
L2 product for density surfaces, all-ones weights the Euclidean product
for graph and covariance surfaces.

Tangents are cell-centered (average of the two forward differences across
each cell), which makes the discrete objective exactly symmetric under
s <-> t and exact for bilinear fields.  The gradient is -hs*ht times the
divergence of one per-cell flux kernel, the same divergence the
Euler-Lagrange residual reports, and it is the exact derivative of the
discrete objective, not a rediscretization of the continuous first variation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .grid import SurfaceField


@dataclass(frozen=True)
class AreaConfig:
    """Degeneracy floor and inner-product weights for the area density.

    ``epsilon`` is added under the square root after clamping the Gram
    determinant at zero: the determinant can go slightly negative by
    round-off near parallel tangents, and the root's gradient is singular
    at zero.  Oracle comparisons on surfaces known to be nondegenerate
    should run with ``epsilon=0``.
    """

    epsilon: float = 1e-12
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be nonnegative")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or np.any(w <= 0.0) or not np.all(np.isfinite(w)):
                raise ValueError("weights must be a 1-D positive vector")
            object.__setattr__(self, "weights", w)

    def weight_vector(self, m: int) -> np.ndarray:
        if self.weights is None:
            return np.ones(m)
        if self.weights.size != m:
            raise ValueError(f"weight vector has length {self.weights.size}, field has m={m}")
        return self.weights


def quantile_weights(m: int) -> np.ndarray:
    """Midpoint-rule weights 1/m for quantile-coordinate surfaces."""
    return np.full(m, 1.0 / m)


def cell_tangents(f: SurfaceField, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centered tangent vectors (ds, dt) of cell (i, j).

    ds averages the two forward s-differences across the cell and is
    second-order accurate at the cell center; dt analogously.
    """
    ns, nt = f.grid.ns, f.grid.nt
    if not (0 <= i < ns - 1 and 0 <= j < nt - 1):
        raise IndexError(f"cell ({i},{j}) out of range for {ns}x{nt} grid")
    v = f.values
    ds = (v[i + 1, j] + v[i + 1, j + 1] - v[i, j] - v[i, j + 1]) / (2.0 * f.grid.hs)
    dt = (v[i, j + 1] + v[i + 1, j + 1] - v[i, j] - v[i + 1, j]) / (2.0 * f.grid.ht)
    return ds, dt


def _tangents(v: np.ndarray, hs: float, ht: float) -> tuple[np.ndarray, np.ndarray]:
    ds = (v[1:, :-1] + v[1:, 1:] - v[:-1, :-1] - v[:-1, 1:]) / (2.0 * hs)
    dt = (v[:-1, 1:] + v[1:, 1:] - v[:-1, :-1] - v[1:, :-1]) / (2.0 * ht)
    return ds, dt


def tangent_fields(f: SurfaceField) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized cell tangents for all cells, shapes ``(ns-1, nt-1, m)``."""
    return _tangents(f.values, f.grid.hs, f.grid.ht)


def _gram_terms(ds, dt, w):
    a = np.einsum("...k,k,...k->...", ds, w, ds)
    b = np.einsum("...k,k,...k->...", dt, w, dt)
    c = np.einsum("...k,k,...k->...", ds, w, dt)
    return a, b, c


def area_element(ds: np.ndarray, dt: np.ndarray, cfg: AreaConfig) -> float:
    """Weighted Gram-determinant area density of one tangent pair."""
    ds = np.asarray(ds, dtype=float)
    dt = np.asarray(dt, dtype=float)
    w = cfg.weight_vector(ds.shape[-1])
    a, b, c = _gram_terms(ds, dt, w)
    return float(np.sqrt(np.maximum(a * b - c * c, 0.0) + cfg.epsilon))


def cell_gram(f: SurfaceField, cfg: AreaConfig) -> np.ndarray:
    """Raw (unclamped) Gram determinant per cell, shape ``(ns-1, nt-1)``."""
    ds, dt = tangent_fields(f)
    w = cfg.weight_vector(f.dim)
    a, b, c = _gram_terms(ds, dt, w)
    return a * b - c * c


def degenerate_cell_count(f: SurfaceField, cfg: AreaConfig) -> int:
    """Number of cells whose Gram determinant lies below the epsilon floor."""
    return int(np.count_nonzero(cell_gram(f, cfg) < cfg.epsilon))


def hourglass_amplitude(f: SurfaceField) -> float:
    """Largest hourglass mode |v00 - v10 - v01 + v11| over cells and coordinates.

    The cell-centred tangents, and so the area, do not see this mode.
    """
    v = f.values
    mode = v[:-1, :-1] - v[1:, :-1] - v[:-1, 1:] + v[1:, 1:]
    return float(np.max(np.abs(mode))) if mode.size else 0.0


def cell_area_field(f: SurfaceField, cfg: AreaConfig) -> np.ndarray:
    """Unscaled area density per cell, shape ``(ns-1, nt-1)``."""
    return np.sqrt(np.maximum(cell_gram(f, cfg), 0.0) + cfg.epsilon)


def total_area(f: SurfaceField, cfg: AreaConfig) -> float:
    """Total discrete area: sum of cell area densities times hs*ht.

    Cells are summed exactly (fsum), so the total is correctly rounded,
    independent of cell order and hence exactly symmetric under s <-> t.
    """
    cells = cell_area_field(f, cfg) * (f.grid.hs * f.grid.ht)
    return math.fsum(cells.ravel().tolist())


def area_change(tangents, cells, cells_try, step, k, grid, cfg: AreaConfig) -> float:
    """Total-area change when the field moves by ``step``.

    ``tangents`` and ``cells`` are ``tangent_fields`` and ``cell_area_field``
    of the current field, ``cells_try`` is ``cell_area_field`` after the
    move.  ``step`` is the ``(ns, nt)`` change of coordinate ``k`` alone or,
    with ``k=None``, the ``(ns, nt, m)`` change of every coordinate.  Per
    cell the change is dG / (A_try + A), with the Gram change dG expanded in
    the step's own tangents, so no two rounded areas or determinants are
    subtracted and the result keeps full relative precision however small
    the step.  Cells where either determinant sits on the clamp fall back to
    A_try - A.  Cells are summed exactly (fsum).
    """
    ds, dt = tangents
    w = cfg.weight_vector(ds.shape[-1])
    a, b, c = _gram_terms(ds, dt, w)
    us, ut = _tangents(step, grid.hs, grid.ht)
    if k is not None:
        ds, dt, w = ds[..., k], dt[..., k], w[k]
    da = w * us * (2.0 * ds + us)
    db = w * ut * (2.0 * dt + ut)
    dc = w * (ds * ut + us * dt + us * ut)
    if k is None:
        da, db, dc = da.sum(axis=-1), db.sum(axis=-1), dc.sum(axis=-1)
    gram = a * b - c * c
    dgram = da * b + (a + da) * db - dc * (2.0 * c + dc)
    live = (gram > 0.0) & (gram + dgram > 0.0)
    denom = np.where(live, cells_try + cells, 1.0)
    per_cell = np.where(live, dgram / denom, cells_try - cells)
    return grid.hs * grid.ht * math.fsum(per_cell.ravel().tolist())


def _fluxes(f: SurfaceField, cfg: AreaConfig):
    """Per-cell fluxes (fs, ft), shapes ``(ns-1, nt-1, m)``, and the raw Gram determinant.

    fs = w (b ds - c dt) / sqrt(G) and ft = w (a dt - c ds) / sqrt(G), the
    derivatives of a cell's area density in its s- and t-tangents, are zero
    where the clamped determinant sits at zero (the flat side of the clamp).
    """
    ds, dt = tangent_fields(f)
    w = cfg.weight_vector(f.dim)
    a, b, c = _gram_terms(ds, dt, w)
    gram = a * b - c * c
    root = np.sqrt(np.maximum(gram, 0.0) + cfg.epsilon)
    inv = np.where(gram > 0.0, 1.0 / root, 0.0)[..., None]
    fs = inv * w * (b[..., None] * ds - c[..., None] * dt)
    ft = inv * w * (a[..., None] * dt - c[..., None] * ds)
    return fs, ft, gram


def _divergence(fs, ft, hs: float, ht: float) -> np.ndarray:
    """Divergence of the cell fluxes on interior nodes, shape ``(ns-2, nt-2, m)``.

    A node's (+s, +t) and (-s, -t) cells enter through u = fs/2hs + ft/2ht,
    its (+s, -t) and (-s, +t) cells through v = fs/2hs - ft/2ht.
    """
    ps = fs / (2.0 * hs)
    pt = ft / (2.0 * ht)
    u = ps + pt
    v = np.subtract(ps, pt, out=ps)
    div = u[1:, 1:] - u[:-1, :-1]
    div += v[1:, :-1]
    div -= v[:-1, 1:]
    return div


def area_gradient(f: SurfaceField, cfg: AreaConfig) -> np.ndarray:
    """Exact gradient of ``total_area`` with respect to every node value.

    On interior nodes it is -hs*ht times the flux divergence that
    ``euler_lagrange_residual`` reports.  Boundary nodes are fixed data, so
    their entries are returned as zero.
    """
    fs, ft, _ = _fluxes(f, cfg)
    g = f.grid
    grad = np.zeros_like(f.values)
    grad[1:-1, 1:-1] = _divergence(fs, ft, g.hs, g.ht)
    grad[1:-1, 1:-1] *= -(g.hs * g.ht)
    return grad
