"""Closed-form minimal graph surfaces used as evaluation oracles.

Four classical families are provided, each with exact first and second
partials and a residual evaluator for the expanded graph minimal-surface
operator

    (1 + z_t^2) z_ss - 2 z_s z_t z_st + (1 + z_s^2) z_tt,

which vanishes identically on all four.  The same surfaces double as
sqrt-covariance families for diagonal Gaussian problems: the graph
coordinates (u, v, z) become the three sqrt-covariance entries once
shifted positive.

Conventions: the Scherk family folds both integration constants into one
additive offset; the catenoid is the rotational graph z = c1 +/- r1 *
arccosh(r/r1) over the radius r = sqrt(s^2 + t^2), valid for r >= r1.
"""

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import DomainValidityError, PositivityError
from .gaussian import DiagonalCovSurface
from .grid import Grid2, SurfaceField

ARCCOSH_GUARD = 1e-14


@dataclass(frozen=True)
class Plane:
    """z = a1*s + a2*t + a3; valid everywhere."""

    a1: float
    a2: float
    a3: float


@dataclass(frozen=True)
class Scherk:
    """z = (1/c) log(cos(c s - k1) / cos(c t - k2)) + offset.

    Valid where both cosines are strictly positive.
    """

    c: float
    k1: float = 0.0
    k2: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.c == 0.0:
            raise ValueError("Scherk parameter c must be nonzero (c=0 is a plane)")


@dataclass(frozen=True)
class Catenoid:
    """z = c1 + sign * r1 * arccosh(r/r1) with r = sqrt(s^2 + t^2) >= r1."""

    c1: float
    r1: float
    sign: int = 1

    def __post_init__(self):
        if self.r1 <= 0.0:
            raise ValueError("Catenoid waist r1 must be positive")
        if self.sign not in (-1, 1):
            raise ValueError("Catenoid sign must be +1 or -1")


@dataclass(frozen=True)
class Helicoid:
    """z = c1 * arctan(t/s) + c2; valid away from s = 0."""

    c1: float
    c2: float


AnalyticSurface = Union[Plane, Scherk, Catenoid, Helicoid]


class Jet(NamedTuple):
    """Value and first/second partials of a graph surface at (s, t)."""

    z: np.ndarray
    z_s: np.ndarray
    z_t: np.ndarray
    z_ss: np.ndarray
    z_st: np.ndarray
    z_tt: np.ndarray


def _check(cond: np.ndarray, predicate: str, surf) -> None:
    bad = ~np.asarray(cond, dtype=bool)
    if np.any(bad):
        where = np.argwhere(np.atleast_1d(bad))[0]
        raise DomainValidityError(
            f"{type(surf).__name__} domain violated: requires {predicate} "
            f"(first violation at flat index {tuple(int(x) for x in where)})"
        )


def evaluate(surf: AnalyticSurface, s, t) -> Jet:
    """Evaluate a surface and its derivatives; broadcasts over arrays."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s, t = np.broadcast_arrays(s, t)
    zero = np.zeros_like(s)

    if isinstance(surf, Plane):
        z = surf.a1 * s + surf.a2 * t + surf.a3
        return Jet(z, np.full_like(s, surf.a1), np.full_like(s, surf.a2), zero, zero.copy(), zero.copy())

    if isinstance(surf, Scherk):
        cs = surf.c * s - surf.k1
        ct = surf.c * t - surf.k2
        cos_s, cos_t = np.cos(cs), np.cos(ct)
        _check(cos_s > 0.0, "cos(c*s - k1) > 0", surf)
        _check(cos_t > 0.0, "cos(c*t - k2) > 0", surf)
        z = (np.log(cos_s) - np.log(cos_t)) / surf.c + surf.offset
        tan_s, tan_t = np.tan(cs), np.tan(ct)
        return Jet(
            z,
            -tan_s,
            tan_t,
            -surf.c / cos_s**2,
            zero,
            surf.c / cos_t**2,
        )

    if isinstance(surf, Catenoid):
        r = np.hypot(s, t)
        x = r / surf.r1
        _check(x >= 1.0 + ARCCOSH_GUARD, "sqrt(s^2 + t^2) >= r1 (away from the waist)", surf)
        sg = float(surf.sign)
        z = surf.c1 + sg * surf.r1 * np.arccosh(x)
        root = np.sqrt(r * r - surf.r1**2)
        fp = sg * surf.r1 / root
        fpp = -sg * surf.r1 * r / root**3
        ur, vr = s / r, t / r
        return Jet(
            z,
            fp * ur,
            fp * vr,
            fpp * ur * ur + fp * vr * vr / r,
            fpp * ur * vr - fp * ur * vr / r,
            fpp * vr * vr + fp * ur * ur / r,
        )

    if isinstance(surf, Helicoid):
        _check(s != 0.0, "s != 0", surf)
        xi = t / s
        den = 1.0 + xi * xi
        kp = surf.c1 / den
        kpp = -2.0 * surf.c1 * xi / den**2
        z = surf.c1 * np.arctan(xi) + surf.c2
        return Jet(
            z,
            -kp * t / s**2,
            kp / s,
            kpp * t * t / s**4 + 2.0 * kp * t / s**3,
            -kpp * t / s**3 - kp / s**2,
            kpp / s**2,
        )

    raise TypeError(f"unknown analytic surface {type(surf).__name__}")


def minimal_surface_residual(surf: AnalyticSurface, s, t) -> np.ndarray:
    """Expanded graph minimal-surface operator evaluated with exact partials."""
    j = evaluate(surf, s, t)
    return (1.0 + j.z_t**2) * j.z_ss - 2.0 * j.z_s * j.z_t * j.z_st + (1.0 + j.z_s**2) * j.z_tt


def _window_nodes(grid: Grid2, window) -> tuple[np.ndarray, np.ndarray]:
    (u0, u1), (v0, v1) = window
    if not (u1 > u0 and v1 > v0):
        raise ValueError("window intervals must have positive length")
    u = u0 + (u1 - u0) * grid.s_nodes
    v = v0 + (v1 - v0) * grid.t_nodes
    return u, v


def graph_field(surf: AnalyticSurface, grid: Grid2, window, z_offset: float = 0.0) -> SurfaceField:
    """Sample gamma(s,t) = (u(s), v(t), z(u,v) + z_offset) on the grid.

    ``u`` and ``v`` are the affine maps of [0,1] onto the window intervals,
    so the first two coordinates have exactly constant cell tangents.
    FloatingPointError if a height leaves the float range.
    """
    u, v = _window_nodes(grid, window)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    with np.errstate(all="ignore"):  # a height beyond the float range is named below
        z = evaluate(surf, uu, vv).z + z_offset
    if not np.all(np.isfinite(z)):
        raise FloatingPointError(f"{type(surf).__name__} heights must be finite on the window")
    vals = np.stack([uu, vv, z], axis=2)
    return SurfaceField(grid, vals)


def to_cov_boundary(surf: AnalyticSurface, grid: Grid2, window, z_offset: float = 0.0):
    """``graph_field``, and the same field read as sqrt-covariance coordinates.

    All three coordinates must come out strictly positive so the squared
    entries form positive-definite diagonal covariances; choose the window
    and ``z_offset`` accordingly.
    """
    full = graph_field(surf, grid, window, z_offset)
    low = float(full.values.min())
    if low <= 0.0:
        raise PositivityError(
            f"sqrt-covariance coordinates must be positive; minimum is {low:.6g}. "
            f"Shift the window or increase z_offset by more than {-low:.6g}."
        )
    return full, DiagonalCovSurface(full)
