"""Diagonal-covariance Gaussian surfaces in sqrt-covariance coordinates.

A two-parameter family of zero-mean Gaussians with diagonal covariances
Sigma(s,t) is stored through gamma_i = sqrt(Sigma_ii).  The linear
velocity coefficients A_s, A_t of the covariance path solve the diagonal
Lyapunov relations d_s Sigma = 2 A_s Sigma (and likewise in t), which
gives A directly from finite differences of Sigma.  The first-order
optimality system of the area functional couples those velocities to
symmetric multiplier matrices; its residual is evaluated here entrywise
on the diagonal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSurfaceError, PositivityError
from .grid import SurfaceField, check_keys, real_vector, required

J_FLOOR = 1e-12
#: the keys of a ``gaussian_diag`` corner
GAUSSIAN_DIAG_KEYS = ("type", "diag")


@dataclass(eq=False)
class DiagonalCovSurface:
    """Surface field holding gamma_i(s,t) = sqrt(Sigma_ii(s,t)) > 0."""

    field: SurfaceField

    def __post_init__(self):
        low = float(self.field.values.min())
        if low <= 0.0:
            raise PositivityError(
                f"sqrt-covariance entries must be strictly positive, minimum is {low:.6g}"
            )


def diag_corner_roots(corners: dict) -> tuple:
    """The square root of each corner's ``diag``, in the order of ``corners``.

    ``corners`` maps a corner's name in the config's ``corners`` section to its
    ``{"type": "gaussian_diag", "diag": [...]}``: positive reals, as many in each.
    """
    roots = []
    for key, doc in corners.items():
        if doc.get("type") != "gaussian_diag":
            raise ValueError(f"corner {key} must have type 'gaussian_diag'")
        check_keys(doc, GAUSSIAN_DIAG_KEYS, f"corners.{key}.")
        name = f"corners.{key}.diag"
        diag = real_vector(required(doc, "diag", name), name)
        if diag.size == 0:
            raise ValueError(f"{name} must not be empty")
        # written so that a NaN entry fails too
        if not np.all(diag > 0.0):
            raise ValueError(f"corner {key} diag must be positive reals")
        if not np.all(np.isfinite(diag)):
            n = int(np.argmin(np.isfinite(diag)))
            raise ValueError(f"{name}[{n}] must be finite, got {float(diag[n])!r}")
        if roots and diag.size != roots[0].size:
            raise ValueError(f"{name} has {diag.size} entries, not {roots[0].size} like "
                             f"corners.{next(iter(corners))}.diag")
        roots.append(np.sqrt(diag))
    return tuple(roots)


def sqrt_coords(sigma: SurfaceField) -> DiagonalCovSurface:
    """Entrywise square root of a grid of positive covariance diagonals."""
    if float(sigma.values.min()) <= 0.0:
        raise PositivityError("covariance diagonals must be strictly positive")
    return DiagonalCovSurface(SurfaceField(sigma.grid, np.sqrt(sigma.values)))


def covariance_field(surf: DiagonalCovSurface) -> SurfaceField:
    """Inverse of ``sqrt_coords``: squares the coordinates entrywise."""
    return SurfaceField(surf.field.grid, np.square(surf.field.values))


def gaussian_geodesic_diag(sig0, sig1, tau: float) -> np.ndarray:
    """Covariance diagonal along the optimal-transport path between Gaussians.

    For diagonal covariances the path interpolates the square roots
    linearly: ((1 - tau) sqrt(sig0) + tau sqrt(sig1))^2, matching the
    per-coordinate quantile interpolation of 1-D Gaussian families.
    """
    sig0 = np.asarray(sig0, dtype=float)
    sig1 = np.asarray(sig1, dtype=float)
    if np.any(sig0 <= 0.0) or np.any(sig1 <= 0.0):
        raise PositivityError("covariance diagonals must be strictly positive")
    if not (0.0 <= tau <= 1.0):
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if tau == 0.0:
        return sig0.copy()
    if tau == 1.0:
        return sig1.copy()
    return ((1.0 - tau) * np.sqrt(sig0) + tau * np.sqrt(sig1)) ** 2


def lyapunov_velocity(surf: DiagonalCovSurface, direction: str) -> np.ndarray:
    """Velocity coefficients A_ii = d Sigma_ii / (2 Sigma_ii) on every node.

    ``direction`` selects the parameter ('s' or 't'); the derivative of
    Sigma is ``np.gradient(..., edge_order=2)``: central differences inside,
    one-sided three-point stencils on the edges, both exact on quadratics.
    """
    grid = surf.field.grid
    if direction == "s":
        axis, h = 0, grid.hs
    elif direction == "t":
        axis, h = 1, grid.ht
    else:
        raise ValueError(f"direction must be 's' or 't', got {direction!r}")
    sigma = np.square(surf.field.values)
    return np.gradient(sigma, h, axis=axis, edge_order=2) / (2.0 * sigma)


@dataclass(eq=False)
class CriticalFields:
    """Velocity coefficients and multipliers of the optimality system.

    All matrices are diagonal, stored as n-vectors per node; ``j`` is the
    pointwise area density of the two velocity fields.
    """

    a_s: np.ndarray
    a_t: np.ndarray
    s_s: np.ndarray
    s_t: np.ndarray
    j: np.ndarray


def critical_fields(surf: DiagonalCovSurface) -> CriticalFields:
    """Solve the multiplier equations pointwise for S_s, S_t.

    S_s = (A_s * qt - A_t * p) / (2 J) entrywise, with qt, qs the velocity
    energies and p their cross term; S_t symmetrically.  A node where J
    falls below ``J_FLOOR`` raises DegenerateSurfaceError with its location.
    """
    sigma = np.square(surf.field.values)
    a_s = lyapunov_velocity(surf, "s")
    a_t = lyapunov_velocity(surf, "t")
    qs = np.einsum("ijk,ijk->ij", sigma, a_s * a_s)
    qt = np.einsum("ijk,ijk->ij", sigma, a_t * a_t)
    p = np.einsum("ijk,ijk->ij", sigma, a_s * a_t)
    del sigma  # not needed past the energies; S_s and S_t are built without it
    j = np.sqrt(np.maximum(qs * qt - p * p, 0.0))
    if np.any(j < J_FLOOR):
        i, k = np.unravel_index(int(np.argmin(j)), j.shape)
        raise DegenerateSurfaceError(
            f"area density J = {j[i, k]:.3e} below floor {J_FLOOR:.1e} at node ({i}, {k}): "
            "the s- and t-velocities are (near-)parallel"
        )
    twoj = 2.0 * j[..., None]
    s_s = (a_s * qt[..., None] - a_t * p[..., None]) / twoj
    s_t = (a_t * qs[..., None] - a_s * p[..., None]) / twoj
    return CriticalFields(a_s=a_s, a_t=a_t, s_s=s_s, s_t=s_t, j=j)


@dataclass(frozen=True)
class CriticalResidualReport:
    """Residual of the optimality system over an interior window."""

    values: np.ndarray
    max_norm: float
    border: int


def critical_point_residual(surf: DiagonalCovSurface, border: int = 1) -> CriticalResidualReport:
    """Entrywise residual of the first-order optimality system.

    Evaluates d_s S_s + d_t S_t plus the quadratic velocity term on every
    node at least ``border`` nodes away from the edges (multiplier
    derivatives need interior stencils).  For a family sampled from an
    exact critical point the max-norm decreases as O(h^2) under grid
    refinement.  A node where J falls below ``J_FLOOR`` raises
    DegenerateSurfaceError with its location.
    """
    grid = surf.field.grid
    ns, nt = grid.ns, grid.nt
    if border < 1:
        raise ValueError("border must be at least 1")
    if ns - 2 * border < 1 or nt - 2 * border < 1:
        raise ValueError(f"grid {ns}x{nt} too small for border {border}")
    cf = critical_fields(surf)
    div = (np.gradient(cf.s_s, grid.hs, axis=0, edge_order=2)
           + np.gradient(cf.s_t, grid.ht, axis=1, edge_order=2))
    # A_s S_s + A_t S_t = (A_s^2 qt + A_t^2 qs - 2 A_s A_t p) / 2J
    values = np.add(div, cf.a_s * cf.s_s + cf.a_t * cf.s_t, out=div)
    # the largest |value| in the window from its largest and smallest value,
    # then zeros outside it, all in place
    window = values[border:ns - border, border:nt - border]
    max_norm = float(np.maximum(abs(window.max()), abs(window.min())))
    values[:border] = values[ns - border:] = 0.0
    values[:, :border] = values[:, nt - border:] = 0.0
    return CriticalResidualReport(values=values, max_norm=max_norm, border=border)
