import math
import sys

import numpy as np
import pytest

import wassersurf as ws
from wassersurf.errors import QuantileConvergenceError

STD_GAUSSIAN = ws.GaussianDensity(0.0, 1.0)


def bisect_normal_quantile(z, tol=1e-11):
    """Independent quantile oracle: bisection on a quadrature-integrated CDF."""
    quad = pytest.importorskip("scipy.integrate").quad

    def cdf(x):
        val, _ = quad(lambda y: np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi), -12.0, x)
        return val

    lo, hi = -12.0, 12.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_gaussian_median_is_mean():
    assert ws.quantile(STD_GAUSSIAN, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert ws.quantile(ws.GaussianDensity(2.0, 3.0), 0.5) == pytest.approx(2.0, abs=1e-14)


def test_symmetric_mixture_median_zero():
    mix = ws.MixtureDensity(((0.5, ws.GaussianDensity(-1.0, 1.0)), (0.5, ws.GaussianDensity(1.0, 1.0))))
    assert ws.quantile(mix, 0.5) == pytest.approx(0.0, abs=1e-11)


def test_gaussian_upper_band_quantile_against_bisection_oracle():
    oracle = bisect_normal_quantile(0.975)
    ours = ws.quantile(STD_GAUSSIAN, 0.975)
    assert ours == pytest.approx(oracle, abs=2e-10)
    assert ours == pytest.approx(1.959963984540054, abs=1e-12)


def test_quantile_rejects_out_of_range():
    for z in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            ws.quantile(STD_GAUSSIAN, z)


@pytest.mark.parametrize("z", [math.nan, np.array([0.5, math.nan])], ids=["scalar", "array"])
def test_standard_normal_quantile_rejects_nan(z):
    with pytest.raises(ValueError, match="strictly inside"):
        ws.standard_normal_quantile(z)


def test_gaussian_validation():
    with pytest.raises(ValueError):
        ws.GaussianDensity(0.0, 0.0)
    with pytest.raises(ValueError):
        ws.GaussianDensity(0.0, -1.0)


def test_mixture_weight_validation():
    with pytest.raises(ValueError):
        ws.MixtureDensity(((0.6, STD_GAUSSIAN), (0.5, STD_GAUSSIAN)))
    with pytest.raises(ValueError):
        ws.MixtureDensity(((-0.5, STD_GAUSSIAN), (1.5, STD_GAUSSIAN)))


def test_mixture_accepts_raw_mean_std_pairs():
    raw = ws.MixtureDensity(((0.3, (-2.0, 0.7)), (0.7, (1.5, 1.2))))
    built = ws.MixtureDensity(
        ((0.3, ws.GaussianDensity(-2.0, 0.7)), (0.7, ws.GaussianDensity(1.5, 1.2)))
    )
    assert raw.components == built.components
    with pytest.raises(ValueError, match="std > 0"):
        ws.MixtureDensity(((0.5, (0.0, 1.0)), (0.5, (1.0, -1.0))))


def test_tabulated_pdf_interpolates_the_normalized_samples():
    # trapezoid mass 1 + 2 = 3, so the samples are divided by 3
    d = ws.TabulatedDensity(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 0.0]))
    assert ws.pdf(d, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    got = ws.pdf(d, np.array([-1.0, 0.5, 2.0, 3.0, 4.0]))
    np.testing.assert_allclose(got, [0.0, 1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0], rtol=1e-15, atol=0.0)


def test_tabulated_validation():
    with pytest.raises(ValueError):
        ws.TabulatedDensity(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        ws.TabulatedDensity(np.array([0.0, 1.0]), np.array([-1.0, 1.0]))
    with pytest.raises(ValueError):
        ws.TabulatedDensity(np.array([0.0, 1.0]), np.array([0.0, 0.0]))


@pytest.mark.parametrize("x, pdf, message", [
    ([0.0, 1e308], [1e308, 1e308], "pdf trapezoid mass must be finite, got inf"),
    ([0.0, 1e-320], [1.0, 1.0], "pdf divided by its trapezoid mass 1e-320 must be finite"),
], ids=["mass_overflows", "normalized_pdf_overflows"])
def test_tabulated_mass_or_pdf_beyond_the_float_range_is_a_value_error(x, pdf, message):
    # a ValueError that says so, not a numpy warning (an error under the suite's filter)
    with pytest.raises(ValueError) as info:
        ws.TabulatedDensity(np.array(x), np.array(pdf))
    assert str(info.value) == message


def test_tabulated_mass_is_taken_without_overflowing_the_pdf_sum():
    # the two samples sum past the float range, but the trapezoid mass is 1e298
    d = ws.TabulatedDensity(np.array([0.0, 1e-10]), np.array([1e308, 1e308]))
    assert np.array_equal(d.pdf, [1e10, 1e10])
    zs = ws.QuantileGrid(16).nodes
    assert np.max(np.abs(ws.quantiles(d, zs) - zs * 1e-10)) <= 2.2e-16 * 1e-10


@pytest.mark.parametrize("far", [
    ws.GaussianDensity(1e308, 1e308),
    ws.MixtureDensity(((0.5, (-1e308, 0.6)), (0.5, (1e308, 0.6)))),
], ids=["gaussian", "mixture"])
def test_boundary_from_corners_rejects_quantiles_beyond_the_float_range(far):
    near = ws.GaussianDensity(0.0, 1.0)
    with pytest.raises(ValueError) as info:
        ws.boundary_from_corners(near, far, near, near, ws.Grid2(5, 5), ws.QuantileGrid(64))
    assert str(info.value) == "corners.c10 quantiles must be finite, got -inf at level 0.0078125"


def all_variants():
    xs = np.linspace(-4.0, 5.0, 121)
    return [
        STD_GAUSSIAN,
        ws.GaussianDensity(1.0, 2.5),
        ws.MixtureDensity(((0.3, ws.GaussianDensity(-2.0, 0.7)), (0.7, ws.GaussianDensity(1.5, 1.2)))),
        ws.TabulatedDensity(xs, np.exp(-0.5 * (xs - 0.5) ** 2) + 0.2 * np.exp(-2.0 * (xs + 1.0) ** 2)),
    ]


@pytest.mark.parametrize("d", all_variants(), ids=["std", "wide", "mix", "tab"])
def test_quantile_strictly_increasing_on_sweep(d):
    zs = np.linspace(0.005, 0.995, 101)
    qs = np.array([ws.quantile(d, z) for z in zs])
    assert np.all(np.diff(qs) > 0.0)


@pytest.mark.parametrize("d", all_variants(), ids=["std", "wide", "mix", "tab"])
def test_cdf_quantile_round_trip(d):
    for z in np.linspace(0.01, 0.99, 33):
        assert abs(ws.cdf(d, ws.quantile(d, z)) - z) <= 1e-9


def test_quantile_meets_cdf_tolerance_contract():
    mix = ws.MixtureDensity(
        ((0.25, ws.GaussianDensity(-3.0, 0.5)), (0.5, ws.GaussianDensity(0.0, 1.0)),
         (0.25, ws.GaussianDensity(4.0, 2.0)))
    )
    for z in (1e-4, 0.2, 0.5, 0.8, 1 - 1e-4):
        assert abs(ws.cdf(mix, ws.quantile(mix, z)) - z) <= 1e-10


def test_mixture_quantiles_all_levels_match_per_level():
    mix = ws.MixtureDensity((
        (0.2, ws.GaussianDensity(-3.0, 0.1)),
        (0.5, ws.GaussianDensity(0.0, 2.0)),
        (0.3, ws.GaussianDensity(5.0, 0.01)),
    ))
    zs = ws.QuantileGrid(257).nodes
    together = ws.quantiles(mix, zs)
    one_by_one = np.array([ws.quantile(mix, z) for z in zs])
    assert np.array_equal(together, one_by_one)
    assert np.all(np.diff(together) > 0.0)
    assert np.max(np.abs(ws.cdf(mix, together) - zs)) <= 1e-12


@pytest.mark.parametrize("d", all_variants(), ids=["std", "wide", "mix", "tab"])
@pytest.mark.parametrize("bad", [0.0, 1.0, math.nan], ids=["zero", "one", "nan"])
def test_quantiles_reject_levels_outside_the_open_interval(d, bad):
    with pytest.raises(ValueError, match="quantile level must lie in"):
        ws.quantiles(d, np.array([0.25, bad, 0.75]))
    with pytest.raises(ValueError, match="quantile level must lie in"):
        ws.quantile(d, bad)


def test_tabulated_uniform_quantiles_are_exact():
    # uniform on [0, 2]: the quantile is 2z, exact at dyadic levels whether
    # or not the level falls on a node of the cumulative table
    dyadic = np.arange(1, 64) / 64.0
    for x in (np.array([0.0, 2.0]), np.linspace(0.0, 2.0, 5)):
        d = ws.TabulatedDensity(x, np.ones_like(x))
        assert np.array_equal(ws.quantiles(d, dyadic), 2.0 * dyadic)
        assert np.array_equal(ws.quantiles(d, dyadic.reshape(9, 7)), 2.0 * dyadic.reshape(9, 7))
        assert ws.quantile(d, 0.375) == 0.75


@pytest.mark.parametrize("d", [all_variants()[3], ws.TabulatedDensity(
    np.array([-1.0, 0.0, 0.5, 3.0]), np.array([0.0, 2.0, 0.0, 1.0]))], ids=["smooth", "kinked"])
def test_tabulated_quantiles_round_trip_the_cdf(d):
    zs = ws.QuantileGrid(1024).nodes
    qs = ws.quantiles(d, zs)
    assert np.all(np.diff(qs) > 0.0)
    assert np.max(np.abs(ws.cdf(d, qs) - zs)) <= 1e-12


def _tabulated_quantile_reference(d, z):
    """Per-level inverse of the piecewise-quadratic CDF, one scalar level at a time."""
    xs, ps, cum = d.x, d.pdf, d._cum
    k = int(np.clip(np.searchsorted(cum, z, side="right") - 1, 0, xs.size - 2))
    dx = xs[k + 1] - xs[k]
    p0 = ps[k]
    slope = (ps[k + 1] - p0) / dx
    target = z - cum[k]
    if target <= 0.0:
        return float(xs[k])
    denom = p0 + math.sqrt(max(p0 * p0 + 2.0 * slope * target, 0.0))
    if denom <= 0.0:
        return float(xs[k] + dx)
    return float(xs[k] + 2.0 * target / denom)


def test_tabulated_quantiles_equal_the_per_level_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 30))
        x = np.cumsum(rng.uniform(0.01, 1.0, n))
        pdf = np.where(rng.uniform(size=n) < 0.25, 0.0, rng.uniform(0.0, 2.0, n))
        pdf[n // 2] = 1.0
        d = ws.TabulatedDensity(x, pdf)
        # midpoint levels, random levels and the CDF's own knots
        zs = np.concatenate([ws.QuantileGrid(int(rng.integers(1, 200))).nodes,
                             rng.uniform(1e-12, 1.0 - 1e-12, 40), d._cum[1:-1]])
        zs = zs[(zs > 0.0) & (zs < 1.0)]
        reference = [_tabulated_quantile_reference(d, z) for z in zs.tolist()]
        assert np.array_equal(ws.quantiles(d, zs), reference)


def test_mixture_quantile_raises_when_not_converged(monkeypatch):
    mix = ws.MixtureDensity(((0.5, ws.GaussianDensity(-1.5, 0.6)), (0.5, ws.GaussianDensity(1.5, 0.6))))
    monkeypatch.setattr(ws.densities, "MIXTURE_MAX_STEPS", 2)
    with pytest.raises(QuantileConvergenceError, match="did not converge"):
        ws.quantiles(mix, ws.QuantileGrid(16).nodes)


def test_standard_normal_quantile_tail_accuracy():
    scipy_stats = pytest.importorskip("scipy.stats")
    zs = np.concatenate([
        np.geomspace(1e-300, 1e-8, 40),
        np.geomspace(1e-8, 0.4, 40),
        [0.5],
        1.0 - np.geomspace(1e-8, 0.4, 40),
        1.0 - np.geomspace(1e-16, 1e-8, 20),
    ])
    ours = ws.standard_normal_quantile(zs)
    ref = scipy_stats.norm.ppf(zs)
    assert np.max(np.abs(ours - ref)) <= 1e-12


def test_standard_normal_quantile_without_the_c_accelerator(monkeypatch):
    # without ``_statistics`` the routine comes from a fresh import of ``statistics``
    zs = np.concatenate([np.geomspace(1e-300, 0.4, 30), [0.5], 1.0 - np.geomspace(1e-16, 0.4, 30)])
    fast = ws.standard_normal_quantile(zs)
    monkeypatch.setitem(sys.modules, "_statistics", None)
    monkeypatch.delitem(sys.modules, "statistics", raising=False)
    assert np.array_equal(ws.standard_normal_quantile(zs), fast)

def test_geodesic_midpoint_variance():
    # N(0,1) -> N(0,4): the midpoint of the displacement path is N(0, 2.25)
    qg = ws.QuantileGrid(64)
    mid = ws.geodesic_quantiles(STD_GAUSSIAN, ws.GaussianDensity(0.0, 2.0), 0.5, qg)
    closed = 1.5 * ws.standard_normal_quantile(qg.nodes)
    assert np.max(np.abs(mid - closed)) <= 1e-12
    direct = 0.5 * ws.quantiles(STD_GAUSSIAN, qg.nodes) + 0.5 * ws.quantiles(
        ws.GaussianDensity(0.0, 2.0), qg.nodes
    )
    assert np.max(np.abs(mid - direct)) <= 1e-15


def test_geodesic_endpoints_exact():
    qg = ws.QuantileGrid(32)
    d1 = ws.GaussianDensity(1.0, 2.0)
    q0 = ws.quantiles(STD_GAUSSIAN, qg.nodes)
    q1 = ws.quantiles(d1, qg.nodes)
    assert np.array_equal(ws.geodesic_quantiles(STD_GAUSSIAN, d1, 0.0, qg), q0)
    assert np.array_equal(ws.geodesic_quantiles(STD_GAUSSIAN, d1, 1.0, qg), q1)


def test_geodesic_identical_endpoints_constant():
    qg = ws.QuantileGrid(16)
    base = ws.quantiles(STD_GAUSSIAN, qg.nodes)
    for tau in (0.0, 0.3, 0.77, 1.0):
        q = ws.geodesic_quantiles(STD_GAUSSIAN, STD_GAUSSIAN, tau, qg)
        # constant up to the 1-ulp rounding of (1-tau)*q + tau*q
        assert np.max(np.abs(q - base)) <= 1e-14


def test_geodesic_affine_in_tau():
    qg = ws.QuantileGrid(24)
    d1 = ws.MixtureDensity(((0.5, ws.GaussianDensity(-1.0, 0.5)), (0.5, ws.GaussianDensity(2.0, 1.5))))
    a = ws.geodesic_quantiles(STD_GAUSSIAN, d1, 0.0, qg)
    b = ws.geodesic_quantiles(STD_GAUSSIAN, d1, 1.0, qg)
    mid = ws.geodesic_quantiles(STD_GAUSSIAN, d1, 0.5, qg)
    assert np.max(np.abs(mid - 0.5 * (a + b))) <= 1e-14


def test_geodesic_constant_speed():
    qg = ws.QuantileGrid(64)
    d1 = ws.GaussianDensity(0.0, 2.0)
    taus = np.linspace(0.0, 1.0, 11)
    samples = [ws.geodesic_quantiles(STD_GAUSSIAN, d1, t, qg) for t in taus]
    speeds = [np.linalg.norm(b - a) / math.sqrt(qg.m) for a, b in zip(samples, samples[1:])]
    assert (max(speeds) - min(speeds)) <= 1e-10 * max(speeds)


def test_boundary_identical_corners_constant_edges():
    grid = ws.Grid2(7, 7)
    qg = ws.QuantileGrid(16)
    b = ws.boundary_from_corners(STD_GAUSSIAN, STD_GAUSSIAN, STD_GAUSSIAN, STD_GAUSSIAN, grid, qg)
    q = ws.quantiles(STD_GAUSSIAN, qg.nodes)
    for edge in (b.values[0], b.values[-1], b.values[:, 0], b.values[:, -1]):
        assert np.max(np.abs(edge - q)) <= 1e-14


def test_boundary_symmetric_corner_arrangement():
    # s-edges connect N(0,1) -> N(0,4) on both sides: the two t-edges agree
    grid = ws.Grid2(9, 9)
    qg = ws.QuantileGrid(32)
    n01 = STD_GAUSSIAN
    n04 = ws.GaussianDensity(0.0, 2.0)
    b = ws.boundary_from_corners(n01, n04, n01, n04, grid, qg)
    assert np.array_equal(b.values[:, 0], b.values[:, -1])


def test_boundary_gaussian_corners_affine_quantiles():
    # Gaussian corner quantiles are mu + sigma * Phi^-1(z); along geodesic
    # edges the fitted (intercept, slope) interpolate the corners linearly.
    grid = ws.Grid2(9, 9)
    qg = ws.QuantileGrid(48)
    c00, c10 = ws.GaussianDensity(-1.0, 1.0), ws.GaussianDensity(1.0, 1.0)
    c01, c11 = ws.GaussianDensity(-1.0, 2.0), ws.GaussianDensity(1.0, 2.0)
    b = ws.boundary_from_corners(c00, c10, c01, c11, grid, qg)
    basis = np.column_stack([np.ones(qg.m), ws.standard_normal_quantile(qg.nodes)])
    for i, s in enumerate(grid.s_nodes):
        coef, *_ = np.linalg.lstsq(basis, b.values[i, 0], rcond=None)
        assert coef[0] == pytest.approx(-1.0 + 2.0 * s, abs=1e-10)
        assert coef[1] == pytest.approx(1.0, abs=1e-10)
    for j, t in enumerate(grid.t_nodes):
        coef, *_ = np.linalg.lstsq(basis, b.values[-1, j], rcond=None)
        assert coef[0] == pytest.approx(1.0, abs=1e-10)
        assert coef[1] == pytest.approx(1.0 + t, abs=1e-10)


def test_monotonicity_of_gaussian_coons_fill():
    grid = ws.Grid2(9, 9)
    qg = ws.QuantileGrid(32)
    b = ws.boundary_from_corners(
        ws.GaussianDensity(-1.0, 1.0), ws.GaussianDensity(1.0, 1.3),
        ws.GaussianDensity(-0.5, 2.0), ws.GaussianDensity(1.5, 2.5), grid, qg,
    )
    fill = ws.coons_init(b)
    report = ws.monotonicity_report(fill)
    assert report.violations == 0
    assert report.worst_gap > 0.0


def test_monotonicity_flipped_pair_detected():
    grid = ws.Grid2(3, 3)
    qg = ws.QuantileGrid(8)
    q = ws.quantiles(STD_GAUSSIAN, qg.nodes)
    vals = np.broadcast_to(q, (3, 3, 8)).copy()
    vals[1, 1, 3], vals[1, 1, 4] = vals[1, 1, 4], vals[1, 1, 3]
    report = ws.monotonicity_report(ws.SurfaceField(grid, vals))
    assert report.violations == 1
    assert report.worst_gap < 0.0


def test_monotonicity_constant_surface():
    grid = ws.Grid2(4, 4)
    vals = np.ones((4, 4, 6))
    report = ws.monotonicity_report(ws.SurfaceField(grid, vals))
    assert report.violations == 0
    assert report.worst_gap == 0.0


def test_parse_density_variants():
    g = ws.parse_density({"type": "gaussian", "mean": 1.0, "std": 2.0})
    assert isinstance(g, ws.GaussianDensity) and g.std == 2.0
    m = ws.parse_density(
        {"type": "mixture", "components": [
            {"weight": 0.4, "mean": -1.0, "std": 1.0},
            {"weight": 0.6, "mean": 2.0, "std": 0.5},
        ]}
    )
    assert isinstance(m, ws.MixtureDensity) and len(m.components) == 2
    t = ws.parse_density({"type": "tabulated", "x": [0.0, 1.0, 2.0], "pdf": [0.0, 1.0, 0.0]})
    assert isinstance(t, ws.TabulatedDensity)
    with pytest.raises(ValueError):
        ws.parse_density({"type": "cauchy"})


def test_quantile_grid_nodes():
    qg = ws.QuantileGrid(4)
    assert np.array_equal(qg.nodes, np.array([0.125, 0.375, 0.625, 0.875]))
    with pytest.raises(ValueError):
        ws.QuantileGrid(0)


def test_transport_map_route_recovers_quadratic_cost():
    # map route oracle: integrating |T(x) - x|^2 against the reference
    # density gives the squared quadratic transport cost, which is
    # mean^2 + (std - 1)^2 in closed form between N(0,1) and N(mu, sigma)
    d0 = STD_GAUSSIAN
    d1 = ws.GaussianDensity(1.0, 2.0)
    x = np.linspace(-8.0, 8.0, 2001)
    levels, weights = ws.transport_map_quadrature(d0, x)
    T = ws.quantiles(d1, levels)
    cost = float(np.sum(weights * (T - x) ** 2))
    assert cost == pytest.approx(1.0 + 1.0, rel=1e-6)
    # quantile route on midpoint levels converges to the same value, more
    # slowly because of the diverging quantile tails
    qg = ws.QuantileGrid(2048)
    q0 = ws.quantiles(d0, qg.nodes)
    q1 = ws.quantiles(d1, qg.nodes)
    mid_cost = float(np.mean((q1 - q0) ** 2))
    assert mid_cost == pytest.approx(2.0, rel=2e-2)


def test_transport_map_route_matches_quantile_route_area():
    # total area of a curved density rectangle computed through the two
    # discretizations of the same functional
    grid = ws.Grid2(9, 9)
    bimodal = ws.MixtureDensity(
        ((0.5, ws.GaussianDensity(-1.5, 0.6)), (0.5, ws.GaussianDensity(1.5, 0.6)))
    )
    corners = (bimodal, ws.GaussianDensity(1.0, 1.3),
               ws.GaussianDensity(-0.5, 2.0), ws.GaussianDensity(1.5, 2.5))

    qg = ws.QuantileGrid(512)
    fill_q = ws.coons_init(ws.boundary_from_corners(*corners, grid, qg))
    area_q = ws.total_area(fill_q, ws.AreaConfig(epsilon=0.0, weights=ws.quantile_weights(512)))

    d0 = corners[0]
    x = np.linspace(-5.0, 5.8, 801)
    levels, weights = ws.transport_map_quadrature(d0, x)
    qvecs = [ws.quantiles(d, levels) for d in corners]
    boundary = ws.edges_from_corner_vectors(*qvecs, grid)
    fill_m = ws.coons_init(boundary)
    area_m = ws.total_area(fill_m, ws.AreaConfig(epsilon=0.0, weights=weights))
    assert area_m == pytest.approx(area_q, rel=2e-2)


def test_transport_map_quadrature_validation():
    with pytest.raises(ValueError):
        ws.transport_map_quadrature(STD_GAUSSIAN, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        ws.transport_map_quadrature(STD_GAUSSIAN, np.array([0.0, 0.0, 1.0]))
    tab = ws.TabulatedDensity(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="support"):
        ws.transport_map_quadrature(tab, np.linspace(-1.0, 3.0, 11))
