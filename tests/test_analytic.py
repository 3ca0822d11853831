import math

import numpy as np
import pytest

import wassersurf as ws
from wassersurf.errors import DomainValidityError, PositivityError

VARIANTS = {
    "plane": (ws.Plane(2.0, 3.0, 1.0), ((0.0, 1.0), (0.0, 1.0))),
    "scherk": (ws.Scherk(1.0), ((0.05, 0.45), (0.05, 0.45))),
    "catenoid": (ws.Catenoid(0.0, 1.0, 1), ((0.8, 2.1), (0.8, 2.1))),
    "helicoid": (ws.Helicoid(1.0, 2.0), ((0.5, 1.0), (0.5, 1.0))),
}


def test_plane_jet_values():
    jet = ws.evaluate(ws.Plane(2.0, 3.0, 1.0), 0.5, 0.5)
    assert jet.z == pytest.approx(3.5, abs=0.0)
    assert jet.z_s == 2.0 and jet.z_t == 3.0
    assert jet.z_ss == 0.0 and jet.z_st == 0.0 and jet.z_tt == 0.0


def test_scherk_symmetry_on_diagonal():
    jet = ws.evaluate(ws.Scherk(1.0), 0.3, 0.3)
    assert jet.z == pytest.approx(0.0, abs=1e-15)


def test_scherk_offset_shifts_height_only():
    base = ws.evaluate(ws.Scherk(1.0), 0.2, 0.4)
    lifted = ws.evaluate(ws.Scherk(1.0, offset=2.5), 0.2, 0.4)
    assert lifted.z == pytest.approx(base.z + 2.5, abs=1e-15)
    assert lifted.z_s == base.z_s and lifted.z_tt == base.z_tt


def test_catenoid_radial_ode_identity_at_r2():
    # f(r) = arccosh(r), r1 = 1: at r = 2, f' = 1/sqrt(3) and
    # r f'' + f'^3 + f' = (-4 + 1 + 3) / 3^(3/2) = 0.
    r = 2.0
    fp = 1.0 / math.sqrt(r * r - 1.0)
    fpp = -r / (r * r - 1.0) ** 1.5
    assert fp == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
    assert r * fpp + fp**3 + fp == pytest.approx(0.0, abs=1e-15)


def test_helicoid_profile_ode_identity():
    c1 = 1.0
    for xi in (-2.0, -0.3, 0.1, 1.7):
        kp = c1 / (1.0 + xi * xi)
        kpp = -2.0 * c1 * xi / (1.0 + xi * xi) ** 2
        assert (1.0 + xi * xi) * kpp + 2.0 * xi * kp == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_residual_vanishes_on_validity_window(name):
    surf, ((u0, u1), (v0, v1)) = VARIANTS[name]
    u = np.linspace(u0, u1, 21)
    v = np.linspace(v0, v1, 21)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    res = ws.minimal_surface_residual(surf, uu, vv)
    assert np.max(np.abs(res)) <= 1e-10


def test_scherk_residual_tight_tolerance():
    u = np.linspace(0.05, 0.45, 21)
    uu, vv = np.meshgrid(u, u, indexing="ij")
    assert np.max(np.abs(ws.minimal_surface_residual(ws.Scherk(1.0), uu, vv))) <= 1e-12


def test_perturbed_graph_breaks_residual():
    # adding a bump to a solution must produce an O(1) residual
    s = np.linspace(0.1, 0.4, 15)
    uu, vv = np.meshgrid(s, s, indexing="ij")
    jet = ws.evaluate(ws.Scherk(1.0), uu, vv)
    bump_tt = -0.01 * np.pi**2 * np.sin(np.pi * uu) * np.sin(np.pi * vv)
    perturbed = (
        (1.0 + jet.z_t**2) * (jet.z_ss + bump_tt)
        - 2.0 * jet.z_s * jet.z_t * jet.z_st
        + (1.0 + jet.z_s**2) * (jet.z_tt + bump_tt)
    )
    assert np.max(np.abs(perturbed)) > 1e-3


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_jet_matches_finite_differences(name, rng):
    surf, ((u0, u1), (v0, v1)) = VARIANTS[name]
    step = 1e-5
    # keep FD stencils inside the validity window
    pad = 2 * step
    pts_u = rng.uniform(u0 + pad, u1 - pad, size=50)
    pts_v = rng.uniform(v0 + pad, v1 - pad, size=50)
    for u, v in zip(pts_u, pts_v):
        jet = ws.evaluate(surf, u, v)
        zp = ws.evaluate(surf, u + step, v).z
        zm = ws.evaluate(surf, u - step, v).z
        zq = ws.evaluate(surf, u, v + step).z
        zr = ws.evaluate(surf, u, v - step).z
        scale = max(abs(jet.z_s), abs(jet.z_t), 1e-3)
        assert abs((zp - zm) / (2 * step) - jet.z_s) <= 1e-7 * max(scale, 1.0)
        assert abs((zq - zr) / (2 * step) - jet.z_t) <= 1e-7 * max(scale, 1.0)
        assert abs((zp - 2 * jet.z + zm) / step**2 - jet.z_ss) <= 2e-5
        assert abs((zq - 2 * jet.z + zr) / step**2 - jet.z_tt) <= 2e-5
        zpp = ws.evaluate(surf, u + step, v + step).z
        zpm = ws.evaluate(surf, u + step, v - step).z
        zmp = ws.evaluate(surf, u - step, v + step).z
        zmm = ws.evaluate(surf, u - step, v - step).z
        fd_st = (zpp - zpm - zmp + zmm) / (4 * step**2)
        assert abs(fd_st - jet.z_st) <= 2e-5


def test_scherk_domain_violation_names_predicate():
    with pytest.raises(DomainValidityError, match="cos"):
        ws.evaluate(ws.Scherk(1.0), 2.0, 0.2)


def test_catenoid_domain_violation_near_waist():
    with pytest.raises(DomainValidityError, match="r1"):
        ws.evaluate(ws.Catenoid(0.0, 1.0, 1), 0.5, 0.5)


def test_helicoid_domain_violation_on_axis():
    with pytest.raises(DomainValidityError, match="s != 0"):
        ws.evaluate(ws.Helicoid(1.0, 2.0), 0.0, 0.3)


def test_scherk_requires_nonzero_parameter():
    with pytest.raises(ValueError):
        ws.Scherk(0.0)


def test_catenoid_validation():
    with pytest.raises(ValueError):
        ws.Catenoid(0.0, -1.0, 1)
    with pytest.raises(ValueError):
        ws.Catenoid(0.0, 1.0, 2)


def test_cov_boundary_plane_identification():
    # z = u + v + 1 on [0.5, 1.5]^2: third sqrt-covariance coordinate is
    # the sum of the first two plus one, so Sigma_33 = (g1 + g2 + 1)^2.
    grid = ws.Grid2(9, 9)
    b, cov = ws.to_cov_boundary(ws.Plane(1.0, 1.0, 1.0), grid, ((0.5, 1.5), (0.5, 1.5)))
    gamma = cov.field.values
    sigma = ws.covariance_field(cov).values
    expect = (gamma[:, :, 0] + gamma[:, :, 1] + 1.0) ** 2
    assert np.max(np.abs(sigma[:, :, 2] - expect)) <= 1e-12
    assert np.array_equal(b.values, gamma)  # the graph field, which cov reads


def test_cov_boundary_helicoid_identification():
    grid = ws.Grid2(7, 7)
    _, cov = ws.to_cov_boundary(ws.Helicoid(1.0, 2.0), grid, ((0.5, 1.0), (0.5, 1.0)))
    gamma = cov.field.values
    sigma = np.square(gamma)
    expect = np.arctan(np.sqrt(sigma[:, :, 1] / sigma[:, :, 0])) + 2.0
    assert np.max(np.abs(gamma[:, :, 2] - expect)) <= 1e-12


def test_cov_boundary_scherk_offset_positive():
    grid = ws.Grid2(9, 9)
    _, cov = ws.to_cov_boundary(ws.Scherk(1.0), grid, ((0.1, 0.4), (0.1, 0.4)), z_offset=2.0)
    assert cov.field.values.min() > 0.0
    back = ws.covariance_field(cov).values
    assert back.min() > 0.0


def test_cov_boundary_rejects_nonpositive_and_instructs():
    grid = ws.Grid2(5, 5)
    with pytest.raises(PositivityError, match="z_offset"):
        ws.to_cov_boundary(ws.Scherk(1.0), grid, ((0.1, 0.4), (0.1, 0.4)), z_offset=0.0)
