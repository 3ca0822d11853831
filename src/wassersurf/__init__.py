"""Minimal surfaces for two-parameter families on the unit square.

Three problem flavors reduce to one discrete object (a grid of coordinate
vectors with fixed edges) and one objective (the Gram-determinant area):

* Euclidean graphs z(s, t), solved for the height with the two parameter
  coordinates pinned;
* families of 1-D densities in quantile (inverse-CDF) coordinates, with
  displacement-interpolation geodesics as boundary edges;
* diagonal Gaussian covariance families in sqrt-covariance coordinates,
  with a residual evaluator for the first-order optimality system.
"""

__version__ = "0.1.0"

from . import errors
from .analytic import (
    Catenoid,
    Helicoid,
    Jet,
    Plane,
    Scherk,
    evaluate,
    graph_field,
    minimal_surface_residual,
    to_cov_boundary,
)
from .area import (
    AreaConfig,
    CellTerms,
    area_element,
    area_gradient,
    cell_tangents,
    cell_terms,
    quantile_weights,
    total_area,
)
from .densities import (
    GaussianDensity,
    MixtureDensity,
    MonotonicityReport,
    QuantileGrid,
    TabulatedDensity,
    boundary_from_corners,
    cdf,
    geodesic_quantiles,
    monotonicity_report,
    parse_density,
    pdf,
    quantile,
    quantiles,
    standard_normal_quantile,
    transport_map_quadrature,
)
from .gaussian import (
    CriticalFields,
    CriticalResidualReport,
    DiagonalCovSurface,
    covariance_field,
    critical_fields,
    critical_point_residual,
    gaussian_geodesic_diag,
    lyapunov_velocity,
    sqrt_coords,
)
from .grid import (
    Grid2,
    SurfaceField,
    coons_init,
    edges_from_corner_vectors,
    load_csv,
    load_json,
    save_csv,
    save_json,
)
from .solver import (
    ResidualReport,
    SolveReport,
    SolverConfig,
    default_grad_tol,
    euler_lagrange_residual,
    minimize,
    perturb_interior,
)

__all__ = [name for name in dir() if not name.startswith("_")]
