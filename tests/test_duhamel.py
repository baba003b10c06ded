"""Volterra quadrature and the mild-solution bilinear term.

The quadrature oracle is the manufactured integrand
(t - tau)^(-gamma) tau^(-theta) (1 + tau), whose integral has the closed
form B(1-gamma, 1-theta) t^(1-gamma-theta) + B(1-gamma, 2-theta)
t^(2-gamma-theta) in Gamma functions. Expected relative errors at
t = 0.7, gamma = 0.9, theta = 0.45 were measured once on the frozen
rule: about 7e-6 at 16 nodes, 1.5e-9 at 32, 9e-12 at 64. The assertions
below leave an order of magnitude of headroom.

The bilinear term itself is checked against structure, not magnitude:
Taylor-Green input annihilates it (the 2d nonlinearity is a pure
gradient), its output is divergence-free, and it is linear in each slot.
"""

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import gamma as gamma_fn

from mildns import (
    ConfigError,
    DataError,
    DatumSpec,
    MeshError,
    QuadratureSpec,
    beta_integral,
    bilinear_B,
    bilinear_estimate_report,
    bilinear_trajectory,
    build_exponent_book,
    divergence_defect,
    heat_trajectory,
    make_lattice,
    quadratic_mesh,
    realize_datum,
    volterra_nodes,
)
from mildns.duhamel import TARGET_KATO, TARGET_KATO_CROSS, TARGET_SOBOLEV


def manufactured_integral(gamma, theta, t):
    first = gamma_fn(1 - gamma) * gamma_fn(1 - theta) / gamma_fn(2 - gamma - theta)
    second = gamma_fn(1 - gamma) * gamma_fn(2 - theta) / gamma_fn(3 - gamma - theta)
    return first * t ** (1 - gamma - theta) + second * t ** (2 - gamma - theta)


def quad_error(node_count, gamma, theta, t):
    spec = QuadratureSpec(node_count=node_count, gamma=gamma, theta=theta)
    taus, gaps, weights = volterra_nodes(spec, t)
    approx = np.sum(weights * gaps ** (-gamma) * taus ** (-theta) * (1 + taus))
    exact = manufactured_integral(gamma, theta, t)
    return abs(approx - exact) / exact


class TestQuadratureSpec:
    def test_node_count_floor(self):
        with pytest.raises(ConfigError, match="at least 8"):
            QuadratureSpec(node_count=4)

    def test_node_count_must_be_even(self):
        with pytest.raises(ConfigError, match="even"):
            QuadratureSpec(node_count=9)

    @pytest.mark.parametrize("bad", [{"gamma": 1.0}, {"theta": 1.5}])
    def test_exponents_below_one(self, bad):
        with pytest.raises(ConfigError, match="not < 1"):
            QuadratureSpec(node_count=16, **bad)

    def test_doubled(self):
        spec = QuadratureSpec(node_count=16, gamma=0.5, theta=0.25)
        twice = spec.doubled()
        assert twice.node_count == 32
        assert (twice.gamma, twice.theta) == (0.5, 0.25)


class TestVolterraNodes:
    def test_nodes_inside_interval(self):
        spec = QuadratureSpec(node_count=24, gamma=0.75, theta=0.5)
        taus, gaps, weights = volterra_nodes(spec, 0.9)
        assert np.all(taus > 0) and np.all(taus < 0.9)
        assert np.all(gaps > 0)
        npt.assert_allclose(taus + gaps, 0.9, rtol=1e-12)

    def test_trivial_exponents_recover_gauss_legendre(self):
        """With no declared singularities the rule integrates low-degree
        polynomials exactly and the weights sum to t."""
        taus, gaps, weights = volterra_nodes(
            QuadratureSpec(node_count=20, gamma=0.0, theta=0.0), 0.7
        )
        npt.assert_allclose(np.sum(weights), 0.7, rtol=1e-15)
        approx = np.sum(weights * (1 + taus))
        npt.assert_allclose(approx, 0.7 + 0.7**2 / 2.0, rtol=1e-14)

    def test_manufactured_integrand_convergence(self):
        err16 = quad_error(16, 0.9, 0.45, 0.7)
        err32 = quad_error(32, 0.9, 0.45, 0.7)
        err64 = quad_error(64, 0.9, 0.45, 0.7)
        assert err32 < 1e-7
        assert err64 < 1e-9
        assert err64 < 1e-3 * err16

    def test_right_endpoint_gap_never_rounds_to_zero(self):
        # strong grading pushes offsets below the float spacing of t; the
        # returned gaps must stay positive so (t - tau)^(-gamma) is finite
        spec = QuadratureSpec(node_count=64, gamma=0.9, theta=0.45)
        taus, gaps, weights = volterra_nodes(spec, 0.7)
        assert gaps.min() > 0
        assert np.isfinite(gaps ** (-0.9)).all()


class TestBetaIntegral:
    @pytest.mark.parametrize("gamma,theta", [(0.9, 0.45), (-1.0, 0.9), (0.5, 0.5)])
    def test_quadrature_matches_closed_form(self, gamma, theta):
        closed = beta_integral(gamma, theta, 1.3, method="closed-form")
        quad = beta_integral(gamma, theta, 1.3, method="quadrature", node_count=32)
        npt.assert_allclose(quad, closed, rtol=1e-10)

    def test_closed_form_is_the_gamma_identity(self):
        got = beta_integral(0.75, 0.5, 2.0, method="closed-form")
        expected = (
            gamma_fn(0.25) * gamma_fn(0.5) / gamma_fn(0.75) * 2.0 ** (1 - 0.75 - 0.5)
        )
        npt.assert_allclose(got, expected, rtol=1e-14)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ConfigError):
            beta_integral(1.0, 0.0, 1.0)


@pytest.fixture
def pair_setup():
    lat = make_lattice(2, 16, 4.0 * np.pi)
    book = build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=4.0)
    mesh = quadratic_mesh(1.0, 12)
    quad = QuadratureSpec(node_count=16, gamma=book.gamma_kato, theta=book.alpha)

    def datum(seed):
        return realize_datum(
            DatumSpec(
                kind="random_band", seed=seed, k_min=1.0, k_max=3.0, divergence_free=True
            ),
            lat,
        )

    return lat, book, mesh, quad, datum


class TestBilinearB:
    def test_requires_mesh_node(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        traj = heat_trajectory(datum(1), mesh)
        with pytest.raises(MeshError, match="not a node"):
            bilinear_B(traj, traj, 0.123456, quad)

    def test_requires_shared_mesh(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        a = heat_trajectory(datum(1), mesh)
        b = heat_trajectory(datum(2), quadratic_mesh(1.0, 10))
        with pytest.raises(DataError, match="one lattice and mesh"):
            bilinear_B(a, b, float(mesh[-1]), quad)

    def test_taylor_green_annihilation(self, pair_setup):
        """The 2d Taylor-Green nonlinearity is a gradient, so the
        projected Duhamel term vanishes identically."""
        lat, book, mesh, quad, datum = pair_setup
        tg = realize_datum(DatumSpec(kind="taylor_green", mode=(2,)), lat)
        traj = heat_trajectory(tg, mesh)
        b = bilinear_B(traj, traj, float(mesh[5]), quad)
        assert np.abs(b.data).max() < 1e-14

    def test_output_divergence_free(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(5), mesh)
        v = heat_trajectory(datum(6), mesh)
        b = bilinear_B(u, v, float(mesh[5]), quad)
        assert divergence_defect(b) < 1e-12

    def test_bilinearity(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(5), mesh)
        v = heat_trajectory(datum(6), mesh)
        w = heat_trajectory(datum(7), mesh)
        t0 = float(mesh[5])
        lhs = bilinear_B(u + v, w, t0, quad).data
        rhs = bilinear_B(u, w, t0, quad).data + bilinear_B(v, w, t0, quad).data
        assert np.abs(lhs - rhs).max() < 1e-13 * np.abs(rhs).max()

    def test_scalar_homogeneity(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(8), mesh)
        t0 = float(mesh[-1])
        scaled = bilinear_B(3.0 * u, u, t0, quad).data
        base = bilinear_B(u, u, t0, quad).data
        npt.assert_allclose(scaled, 3.0 * base, atol=1e-14)

    def test_trajectory_form_matches_pointwise(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(9), mesh)
        v = heat_trajectory(datum(10), mesh)
        traj = bilinear_trajectory(u, v, quad)
        npt.assert_array_equal(traj.times, mesh)
        direct = bilinear_B(u, v, float(mesh[3]), quad)
        npt.assert_array_equal(traj.fields[3].data, direct.data)


class TestEstimateReport:
    def test_kato_target_ratio_and_stability(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(5), mesh)
        v = heat_trajectory(datum(6), mesh)
        report = bilinear_estimate_report(u, v, book, target=TARGET_KATO, quad=quad)
        assert 0 < report.ratio < 1.0
        assert np.isfinite(report.output_norm)
        assert report.stability_factor is not None
        assert report.stability_factor < 1.01
        assert report.quad_nodes == 16

    def test_sobolev_target(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(5), mesh)
        report = bilinear_estimate_report(
            u, u, book, target=TARGET_SOBOLEV, quad=quad, refine=False
        )
        assert 0 < report.ratio
        assert report.ratio_refined is None

    def test_sobolev_target_needs_young_pair(self, pair_setup):
        lat, _, mesh, quad, datum = pair_setup
        wide = build_exponent_book(d=2, p=2.0, s=0.25, q_tilde=8.0)  # q_tilde > 2p
        u = heat_trajectory(datum(5), mesh)
        with pytest.raises(ConfigError, match="q < q_tilde <= 2p"):
            bilinear_estimate_report(u, u, wide, target=TARGET_SOBOLEV, quad=quad)

    def test_cross_target_needs_output_exponent(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(5), mesh)
        with pytest.raises(ConfigError, match="q_tilde_out"):
            bilinear_estimate_report(u, u, book, target=TARGET_KATO_CROSS, quad=quad)

    def test_cross_target_region(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(5), mesh)
        with pytest.raises(ConfigError, match="admissible region"):
            bilinear_estimate_report(
                u, u, book, target=TARGET_KATO_CROSS, quad=quad, q_tilde_out=1.5
            )
        report = bilinear_estimate_report(
            u, u, book, target=TARGET_KATO_CROSS, quad=quad, q_tilde_out=6.0, refine=False
        )
        assert np.isfinite(report.ratio)

    def test_unknown_target(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(5), mesh)
        with pytest.raises(ConfigError, match="unknown estimate target"):
            bilinear_estimate_report(u, u, book, target="energy", quad=quad)
