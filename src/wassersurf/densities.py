"""1-D densities, quantile evaluation, and geodesic boundary generation.

Densities come in three variants: Gaussian, finite Gaussian mixtures, and
tabulated (linearly interpolated) densities.  Surfaces of 1-D densities
are represented by their quantile functions sampled on a fixed midpoint
grid z_k = (k + 1/2)/m, which keeps the diverging quantile tails off the
sample set.  Interpolating quantile functions linearly realizes the
optimal-displacement path between two densities, so geodesic edges are
straight lines in quantile coordinates.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import QuantileConvergenceError
from .grid import (
    Grid2,
    SurfaceField,
    check_keys,
    edges_from_corner_vectors,
    json_typed,
    real_number,
    real_vector,
    required,
)

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

WEIGHT_TOL = 1e-12
MASS_TOL = 1e-8
MIXTURE_MAX_STEPS = 200


# ---------------------------------------------------------------------------
# density variants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianDensity:
    mean: float
    std: float

    def __post_init__(self):
        if not (self.std > 0.0 and math.isfinite(self.std) and math.isfinite(self.mean)):
            raise ValueError(
                f"mean and std must be finite with std > 0, got N({self.mean}, {self.std})"
            )


@dataclass(frozen=True, eq=False)
class MixtureDensity:
    """Finite mixture of Gaussians; positive weights summing to one."""

    components: tuple

    def __post_init__(self):
        comps = []
        for w, g in self.components:
            w = float(w)
            # written so that a NaN weight fails too
            if not w > 0.0:
                raise ValueError("components: weights must be positive")
            if not isinstance(g, GaussianDensity):
                g = GaussianDensity(*g)
            comps.append((w, g))
        total = math.fsum(w for w, _ in comps)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"components: weights sum to {total!r}, not 1 within {WEIGHT_TOL}")
        object.__setattr__(self, "components", tuple(comps))


@dataclass(frozen=True, eq=False)
class TabulatedDensity:
    """Density given by samples on a strictly increasing x-grid.

    Values are interpolated linearly and normalized to unit trapezoid
    mass on construction; the CDF is the resulting piecewise quadratic.
    """

    x: np.ndarray
    pdf: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.pdf, dtype=float)
        if x.ndim != 1 or x.size < 2 or p.shape != x.shape:
            raise ValueError("x and pdf must be matching 1-D arrays of at least 2 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p))):
            raise ValueError("x and pdf values must be finite")
        dx = np.diff(x)
        if np.any(dx <= 0.0):
            raise ValueError("x must be strictly increasing")
        if np.any(p < 0.0):
            raise ValueError("pdf values must be nonnegative")
        # a mass or pdf beyond the float range is rejected here, not warned about;
        # each sample is halved before the pair is summed, so that sum cannot overflow
        with np.errstate(over="ignore"):
            mass = float(np.sum((0.5 * p[:-1] + 0.5 * p[1:]) * dx))
            if mass <= 0.0:
                raise ValueError("pdf has no mass")
            if not mass < math.inf:
                raise ValueError(f"pdf trapezoid mass must be finite, got {mass!r}")
            p = p / mass
            if not np.all(np.isfinite(p)):
                raise ValueError(f"pdf divided by its trapezoid mass {mass!r} must be finite")
            traps = (0.5 * p[:-1] + 0.5 * p[1:]) * dx
        total = float(np.sum(traps))
        if not abs(total - 1.0) <= MASS_TOL:
            raise ValueError(f"pdf normalization failed: trapezoid mass {total!r}")
        cum = np.concatenate([[0.0], np.cumsum(traps)])
        cum /= cum[-1]
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "pdf", p)
        object.__setattr__(self, "_cum", cum)


Density1D = Union[GaussianDensity, MixtureDensity, TabulatedDensity]


def _build(cls, doc: dict, schema: dict, where: str, also: tuple = ()):
    """``cls`` of the values ``schema`` reads from ``doc``; ``where`` prefixes every error."""
    check_keys(doc, (*also, *schema), where)
    args = [read(required(doc, key, where + key), where + key) for key, read in schema.items()]
    try:
        return cls(*args)
    except ValueError as exc:
        raise ValueError(where + str(exc)) from exc


def _component(weight: float, mean: float, std: float) -> tuple:
    return weight, GaussianDensity(mean, std)


#: the keys of a mixture component, each with the reader of its value
COMPONENT_KEYS = {"weight": real_number, "mean": real_number, "std": real_number}


def _components(value, name: str) -> tuple:
    """The ``(weight, GaussianDensity)`` of each object of the JSON array ``components``."""
    return tuple(_build(_component, json_typed(c, dict, f"{name}[{n}]"), COMPONENT_KEYS,
                        f"{name}[{n}].") for n, c in enumerate(json_typed(value, list, name)))


#: each density type's class and the readers of its keys besides ``type``
DENSITY_TYPES = {
    "gaussian": (GaussianDensity, {"mean": real_number, "std": real_number}),
    "mixture": (MixtureDensity, {"components": _components}),
    "tabulated": (TabulatedDensity, {"x": real_vector, "pdf": real_vector}),
}


def parse_density(doc: dict, where: str = "") -> Density1D:
    """Build a density from its JSON configuration form.

    A ValueError names the key at fault with ``where``, the dotted prefix of
    ``doc`` in the config (``corners.c00.``), in front: an unknown or missing
    key, a value of the wrong JSON type, or one the density's class rejects.
    """
    kind = doc.get("type")
    if not (isinstance(kind, str) and kind in DENSITY_TYPES):
        raise ValueError(f"{where}type must be 'gaussian', 'mixture' or 'tabulated', got {kind!r}")
    cls, schema = DENSITY_TYPES[kind]
    return _build(cls, doc, schema, where, also=("type",))


# ---------------------------------------------------------------------------
# standard normal: erfc-based CDF, quantile from the standard library
# ---------------------------------------------------------------------------


# not ``NormalDist.cdf``: its 0.5 * (1 + erf(x)) loses the lower tail the mixture bracket needs
def _erfc_array(x: np.ndarray) -> np.ndarray:
    flat = np.asarray(x, dtype=float).ravel()
    out = np.array([math.erfc(v) for v in flat.tolist()])
    return out.reshape(np.shape(x))


def standard_normal_quantile(z):
    """Inverse standard normal CDF, accurate to ~3e-14 on [1e-300, 1 - 1e-16].

    Each level goes through the routine of ``statistics.NormalDist.inv_cdf``
    (Wichura's AS241, Applied Statistics 37(3), 1988).
    """
    z_arr = np.asarray(z, dtype=float)
    # written so that NaN fails it too
    if not np.all((z_arr > 0.0) & (z_arr < 1.0)):
        raise ValueError("quantile level must lie strictly inside (0, 1)")
    # CPython's C copy of the routine spares a density solve the 0.4 MB import of statistics
    try:
        from _statistics import _normal_dist_inv_cdf as inv_cdf
    except ImportError:  # the same routine in Python
        from statistics import _normal_dist_inv_cdf as inv_cdf
    x = np.array([inv_cdf(v, 0.0, 1.0) for v in z_arr.ravel().tolist()])
    return float(x[0]) if z_arr.ndim == 0 else x.reshape(z_arr.shape)


# ---------------------------------------------------------------------------
# cdf / pdf / quantile dispatch
# ---------------------------------------------------------------------------


def cdf(d: Density1D, x) -> np.ndarray:
    """Cumulative distribution of a density, broadcasting over ``x``."""
    x_arr = np.asarray(x, dtype=float)
    if isinstance(d, GaussianDensity):
        out = 0.5 * _erfc_array(-(x_arr - d.mean) / (d.std * _SQRT2))
    elif isinstance(d, MixtureDensity):
        out = sum(w * cdf(g, x_arr) for w, g in d.components)
    elif isinstance(d, TabulatedDensity):
        xs, ps, cum = d.x, d.pdf, d._cum
        xc = np.clip(x_arr, xs[0], xs[-1])
        k = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, xs.size - 2)
        xi = xc - xs[k]
        slope = (ps[k + 1] - ps[k]) / (xs[k + 1] - xs[k])
        out = cum[k] + ps[k] * xi + 0.5 * slope * xi * xi
        out = np.where(x_arr <= xs[0], 0.0, np.where(x_arr >= xs[-1], 1.0, out))
    else:
        raise TypeError(f"unknown density {type(d).__name__}")
    return float(out) if x_arr.ndim == 0 else out


def pdf(d: Density1D, x) -> np.ndarray:
    """Density function, broadcasting over ``x``."""
    x_arr = np.asarray(x, dtype=float)
    if isinstance(d, GaussianDensity):
        out = _INV_SQRT_2PI * np.exp(-0.5 * np.square((x_arr - d.mean) / d.std)) / d.std
    elif isinstance(d, MixtureDensity):
        out = sum(w * pdf(g, x_arr) for w, g in d.components)
    elif isinstance(d, TabulatedDensity):
        out = np.interp(x_arr, d.x, d.pdf, left=0.0, right=0.0)
    else:
        raise TypeError(f"unknown density {type(d).__name__}")
    return float(out) if x_arr.ndim == 0 else out


def _mixture_quantiles(d: MixtureDensity, zs: np.ndarray) -> np.ndarray:
    """Quantiles of a mixture at every level of the 1-D array ``zs`` at once.

    Component quantiles bracket the mixture quantile: the mixture CDF at
    the smallest component quantile cannot exceed z, at the largest it
    cannot fall below z.  Each level takes Newton steps on the CDF, falling
    back to bisection when a step leaves its bracket, until its CDF error or
    its bracket width is at rounding level.  Levels still open after
    ``MIXTURE_MAX_STEPS`` raise QuantileConvergenceError.
    """
    std_q = standard_normal_quantile(zs)
    comp_q = np.array([g.mean + g.std * std_q for _, g in d.components])
    lo, hi = comp_q.min(axis=0), comp_q.max(axis=0)
    x = np.where(hi - lo <= 1e-300, lo, 0.5 * (lo + hi))
    live = np.flatnonzero(hi - lo > 1e-300)
    eps = np.finfo(float).eps
    for _ in range(MIXTURE_MAX_STEPS):
        if live.size == 0:
            return x
        xl, lo_l, hi_l = x[live], lo[live], hi[live]
        err = cdf(d, xl) - zs[live]
        width_floor = 4.0 * eps * np.maximum(np.maximum(np.abs(lo_l), np.abs(hi_l)), 1.0)
        pending = ~((np.abs(err) <= 1e-13) | ((hi_l - lo_l) <= width_floor))
        live, xl, err = live[pending], xl[pending], err[pending]
        above = err > 0.0
        lo_l = np.where(above, lo_l[pending], xl)
        hi_l = np.where(above, xl, hi_l[pending])
        px = pdf(d, xl)
        mid = 0.5 * (lo_l + hi_l)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = np.where(px > 0.0, xl - err / px, mid)
        x_new = np.where((lo_l < x_new) & (x_new < hi_l), x_new, mid)
        lo[live], hi[live], x[live] = lo_l, hi_l, x_new
    if live.size:
        raise QuantileConvergenceError(
            f"mixture quantile did not converge in {MIXTURE_MAX_STEPS} steps "
            f"at {live.size} level(s), first z = {zs[live[0]]!r}"
        )
    return x


def _tabulated_quantiles(d: TabulatedDensity, zs: np.ndarray) -> np.ndarray:
    """Exact inverse of the piecewise-quadratic CDF at every level of the 1-D array ``zs``.

    Each level's interval k is the last with cum[k] <= z; within it the level
    solves p0*xi + slope*xi^2/2 = z - cum[k] by the cancellation-free root.
    """
    xs, ps, cum = d.x, d.pdf, d._cum
    k = np.clip(np.searchsorted(cum, zs, side="right") - 1, 0, xs.size - 2)
    x0, dx, p0 = xs[k], xs[k + 1] - xs[k], ps[k]
    slope = (ps[k + 1] - p0) / dx
    target = zs - cum[k]
    denom = p0 + np.sqrt(np.maximum(p0 * p0 + 2.0 * slope * target, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = x0 + 2.0 * target / denom
    return np.where(target <= 0.0, x0, np.where(denom <= 0.0, x0 + dx, inner))


def quantiles(d: Density1D, zs) -> np.ndarray:
    """Inverse CDF at every level of ``zs`` (any shape), each strictly inside (0, 1).

    Gaussian variants use the closed-form inverse normal; mixtures use
    bracketed Newton with bisection fallback on the numeric CDF, all levels
    at once; tabulated densities invert their piecewise-quadratic CDF
    exactly.  A level outside (0, 1), or NaN, raises ValueError.
    """
    zs = np.asarray(zs, dtype=float)
    flat = zs.ravel()
    outside = ~((flat > 0.0) & (flat < 1.0))
    if np.any(outside):
        raise ValueError(f"quantile level must lie in (0, 1), got {float(flat[outside][0])}")
    if isinstance(d, GaussianDensity):
        q = d.mean + d.std * standard_normal_quantile(flat)
    elif isinstance(d, MixtureDensity):
        q = _mixture_quantiles(d, flat)
    elif isinstance(d, TabulatedDensity):
        q = _tabulated_quantiles(d, flat)
    else:
        raise TypeError(f"unknown density {type(d).__name__}")
    return q.reshape(zs.shape)


def quantile(d: Density1D, z: float) -> float:
    """Inverse CDF at one level z in (0, 1): ``quantiles`` at that level."""
    return float(quantiles(d, z))


# ---------------------------------------------------------------------------
# quantile grids, surfaces, geodesics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuantileGrid:
    """Midpoint quantile levels z_k = (k + 1/2)/m on (0, 1)."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("quantile grid needs m >= 1")

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.m) + 0.5) / self.m


@dataclass(frozen=True)
class MonotonicityReport:
    violations: int
    worst_gap: float


def monotonicity_report(field: SurfaceField) -> MonotonicityReport:
    """Count adjacent quantile pairs out of order; report the worst gap.

    Coordinate k of ``field`` is read as the quantile at level z_k, for
    levels in increasing order (``QuantileGrid``'s nodes in a density
    surface).  ``worst_gap`` is the minimum of Z(.,.,z_{k+1}) - Z(.,.,z_k)
    over the whole surface (negative iff any violation exists).
    """
    vals = field.values
    if vals.shape[2] < 2:
        return MonotonicityReport(0, 0.0)
    diffs = np.diff(vals, axis=2)
    return MonotonicityReport(int(np.count_nonzero(diffs < 0.0)), float(diffs.min()))


def geodesic_quantiles(d0: Density1D, d1: Density1D, tau: float, qg: QuantileGrid) -> np.ndarray:
    """Quantiles of the optimal-displacement path at parameter tau.

    Linear interpolation of the endpoint quantile vectors; endpoints are
    reproduced exactly at tau = 0 and tau = 1.
    """
    tau = float(tau)
    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    q0 = quantiles(d0, qg.nodes)
    q1 = quantiles(d1, qg.nodes)
    return (1.0 - tau) * q0 + tau * q1


def boundary_from_corners(
    c00: Density1D, c10: Density1D, c01: Density1D, c11: Density1D,
    grid: Grid2, qg: QuantileGrid,
) -> SurfaceField:
    """Field of geodesic edges between four corner densities, in quantile coordinates.

    Each edge samples the displacement path between its two corner
    densities at the grid nodes (``edges_from_corner_vectors``; the interior
    is zero, for ``coons_init`` to fill).
    A corner far out in the float range can have quantiles that overflow, so
    each vector is checked as it is made: a level that is not finite raises
    ValueError naming the corner (``corners.c00``) instead of a numpy warning.
    """
    levels = qg.nodes
    vectors = []
    for key, d in zip(("c00", "c10", "c01", "c11"), (c00, c10, c01, c11)):
        with np.errstate(over="ignore", invalid="ignore"):
            q = quantiles(d, levels)
        bad = ~np.isfinite(q)
        if bad.any():
            n = int(np.argmax(bad))
            raise ValueError(f"corners.{key} quantiles must be finite, "
                             f"got {float(q[n])!r} at level {float(levels[n])!r}")
        vectors.append(q)
    return edges_from_corner_vectors(*vectors, grid)


def transport_map_quadrature(d0: Density1D, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levels and weights for map-based integrals on a fixed reference grid.

    An alternative route to the same area functional: instead of sampling
    quantile functions on midpoint levels, represent each distribution by
    the monotone map pushing the reference density ``d0`` forward, sampled
    on a fixed x-grid.  The map value at ``x_i`` is the target quantile at
    level ``F0(x_i)`` (returned here), and integrals against ``d0`` use
    trapezoid weights ``rho0(x_i) * dx_i`` (also returned).  Feeding these
    weights to AreaConfig and filling the surface with quantiles at these
    levels reproduces the quantile-route area up to quadrature error.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise ValueError("reference grid must be 1-D with at least 3 points")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("reference grid must be strictly increasing")
    levels = np.asarray(cdf(d0, x), dtype=float)
    if levels[0] <= 0.0 or levels[-1] >= 1.0:
        raise ValueError(
            "reference grid must map to CDF levels inside (0, 1); "
            "trim the grid to the support of the reference density"
        )
    dx = np.empty_like(x)
    dx[1:-1] = 0.5 * (x[2:] - x[:-2])
    dx[0] = 0.5 * (x[1] - x[0])
    dx[-1] = 0.5 * (x[-1] - x[-2])
    weights = np.asarray(pdf(d0, x), dtype=float) * dx
    if np.any(weights <= 0.0):
        raise ValueError("reference density must be positive on the quadrature grid")
    return levels, weights
