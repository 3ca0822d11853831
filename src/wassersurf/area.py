"""Discrete two-parameter area functional and its exact algebraic gradient.

The integrand is the Gram-determinant area density of the two tangent
vectors, sqrt(<ds,ds>_w <dt,dt>_w - <ds,dt>_w^2), with a configurable
weighted inner product: uniform weights 1/m realize the quantile-space
L2 product for density surfaces, all-ones weights the Euclidean product
for graph and covariance surfaces.

Tangents are cell-centered (average of the two forward differences across
each cell), which makes the discrete objective exactly symmetric under
s <-> t and exact for bilinear fields.  The gradient implemented here is
the exact derivative of the discrete objective, not a rediscretization of
the continuous first variation.
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
    compensated: bool = False

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


def cell_area_field(f: SurfaceField, cfg: AreaConfig) -> np.ndarray:
    """Unscaled area density per cell, shape ``(ns-1, nt-1)``."""
    return np.sqrt(np.maximum(cell_gram(f, cfg), 0.0) + cfg.epsilon)


def total_area(f: SurfaceField, cfg: AreaConfig) -> float:
    """Total discrete area: sum of cell area densities times hs*ht.

    Cells are accumulated sequentially in row-major order for bitwise
    determinism; ``cfg.compensated`` switches to exact (fsum) accumulation
    for refinement studies.
    """
    cells = cell_area_field(f, cfg) * (f.grid.hs * f.grid.ht)
    flat = cells.ravel(order="C").tolist()
    if cfg.compensated:
        return math.fsum(flat)
    total = 0.0
    for value in flat:
        total += value
    return total


def area_change(tangents, cells, cells_try, step, k, grid, cfg: AreaConfig) -> float:
    """Total-area change when coordinate ``k`` alone moves by ``step``.

    ``tangents`` and ``cells`` are ``tangent_fields`` and ``cell_area_field``
    of the current field, ``cells_try`` is ``cell_area_field`` after the
    move, and ``step`` is the ``(ns, nt)`` change of coordinate ``k``.  Per
    cell the change is dG / (A_try + A), with the Gram change dG expanded in
    the step's own tangents, so no two rounded areas or determinants are
    subtracted and the result keeps full relative precision however small
    the step.  Cells where either determinant sits on the clamp fall back to
    A_try - A.  Cells are summed exactly (fsum).
    """
    ds, dt = tangents
    w = cfg.weight_vector(ds.shape[-1])
    a, b, c = _gram_terms(ds, dt, w)
    sk, tk, wk = ds[..., k], dt[..., k], w[k]
    us, ut = _tangents(step, grid.hs, grid.ht)
    da = wk * us * (2.0 * sk + us)
    db = wk * ut * (2.0 * tk + ut)
    dc = wk * (sk * ut + us * tk + us * ut)
    gram = a * b - c * c
    dgram = da * b + (a + da) * db - dc * (2.0 * c + dc)
    live = (gram > 0.0) & (gram + dgram > 0.0)
    denom = np.where(live, cells_try + cells, 1.0)
    per_cell = np.where(live, dgram / denom, cells_try - cells)
    return grid.hs * grid.ht * math.fsum(per_cell.ravel().tolist())


def area_gradient(f: SurfaceField, cfg: AreaConfig) -> np.ndarray:
    """Exact gradient of ``total_area`` with respect to every node value.

    Each interior node collects chain-rule contributions from its (up to
    four) incident cells.  Where the clamped Gram determinant sits at zero
    the root's derivative is taken as zero (the flat side of the clamp).
    Boundary nodes are fixed data, so their entries are returned as zero.
    """
    g = f.grid
    hs, ht = g.hs, g.ht
    w = cfg.weight_vector(f.dim)
    ds, dt = tangent_fields(f)
    a, b, c = _gram_terms(ds, dt, w)
    gram = a * b - c * c
    root = np.sqrt(np.maximum(gram, 0.0) + cfg.epsilon)
    dA_dG = np.where(gram > 0.0, 0.5 / root, 0.0)

    # dArea/d(ds_k) = hs*ht * dA_dG * 2 w_k (b ds_k - c dt_k); same for dt.
    scale = (hs * ht) * dA_dG[..., None] * 2.0 * w
    P = scale * (b[..., None] * ds - c[..., None] * dt)
    Q = scale * (a[..., None] * dt - c[..., None] * ds)

    grad = np.zeros_like(f.values)
    Ph = P / (2.0 * hs)
    Qh = Q / (2.0 * ht)
    grad[1:, :-1] += Ph
    grad[1:, 1:] += Ph
    grad[:-1, :-1] -= Ph
    grad[:-1, 1:] -= Ph
    grad[:-1, 1:] += Qh
    grad[1:, 1:] += Qh
    grad[:-1, :-1] -= Qh
    grad[1:, :-1] -= Qh

    grad[0, :, :] = 0.0
    grad[-1, :, :] = 0.0
    grad[:, 0, :] = 0.0
    grad[:, -1, :] = 0.0
    return grad
