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
The fused evaluation is checked against the per-node loop it replaced
(one projection per quadrature node), written out below.
"""

import ast
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import gamma as gamma_fn, roots_legendre

import mildns
from mildns import (
    ConfigError,
    DataError,
    DatumSpec,
    MeshError,
    QuadratureSpec,
    Trajectory,
    VectorField,
    beta_integral,
    bilinear_B,
    bilinear_error_estimate,
    bilinear_estimate_report,
    bilinear_trajectory,
    build_exponent_book,
    divergence_defect,
    estimate_quadrature,
    heat_trajectory,
    make_lattice,
    quadratic_mesh,
    realize_datum,
    volterra_nodes,
)
from mildns import duhamel, lattice
from mildns.duhamel import TARGET_KATO, TARGET_SOBOLEV
from mildns.lattice import Lattice
from mildns.multipliers import _project_div_spectral


def held_B():
    """The arrays of the calling thread's last held request for B."""
    return lattice._held.last["B"][1]


def pair_rows(d, pairs):
    """The (d, d) map that B's symbol is built on, derived from its pairs:
    tensor entry (i, j) to the row of its product (both mirror entries
    when only i <= j are formed) and (d-1, d-1) to the zero row
    len(pairs)."""
    pair_of = np.full((d, d), len(pairs))
    for r, (i, j) in enumerate(pairs):
        pair_of[j, i] = r
    for r, (i, j) in enumerate(pairs):
        pair_of[i, j] = r
    return pair_of


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


def uncached_volterra_nodes(spec, t):
    """volterra_nodes with its graded unit rule rebuilt on every call."""
    x, w = np.polynomial.legendre.leggauss(spec.node_count // 2)
    sigma = 0.5 * (x + 1.0)
    w_sigma = 0.5 * w
    c = 0.5 * t
    tiny = np.finfo(float).tiny

    def half(exponent_target):
        e = 1.0 / (1.0 - exponent_target) if exponent_target > 0 else 1.0
        offset = np.maximum(c * sigma**e, tiny)
        jac = c * e * sigma ** (e - 1.0)
        return offset, jac * w_sigma

    off_left, w_left = half(spec.theta)
    off_right, w_right = half(spec.gamma)
    return (np.concatenate([off_left, t - off_right]),
            np.concatenate([t - off_left, off_right]),
            np.concatenate([w_left, w_right]))


class TestCachedVolterraRule:
    @pytest.mark.parametrize("node_count, theta, gamma", [
        (16, 0.5, 0.75), (32, 0.45, 0.9), (8, 0.0, 0.0), (16, -0.5, 0.25), (24, 0.3, -0.2),
    ])
    def test_same_bits_as_the_uncached_rule(self, node_count, theta, gamma):
        """Nonpositive exponents take e = 1; each case runs twice, so the
        second call reads the cached rule."""
        spec = QuadratureSpec(node_count, gamma, theta)
        for t in (1e-4, 0.25, 0.7, 3.0, 0.25):
            for got, want in zip(volterra_nodes(spec, t), uncached_volterra_nodes(spec, t)):
                npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("d", [2, 3])
    def test_pair_layout_is_cached_and_read_only(self, d):
        """Every entry but (d-1, d-1) has a row; (d-1, d-1) maps to the
        always-zero row one past the last."""
        lat = make_lattice(d, 8, 2.0 * np.pi)
        for symmetric in (True, False):
            pairs, symbol = duhamel._layout(lat, symmetric)
            assert duhamel._layout(lat, symmetric)[0] is pairs
            assert type(pairs) is tuple and all(type(pair) is tuple for pair in pairs)
            assert not symbol.flags.writeable
            pair_of = pair_rows(d, pairs)
            assert (d - 1, d - 1) not in pairs
            assert pair_of[d - 1, d - 1] == len(pairs)
            for i in range(d):
                for j in range(d):
                    if (i, j) == (d - 1, d - 1):
                        continue
                    assert sorted(pairs[pair_of[i, j]]) == sorted((i, j))
                    if not symmetric:
                        assert pairs[pair_of[i, j]] == (i, j)
            assert len(pairs) == (d * (d + 1) // 2 - 1 if symmetric else d * d - 1)


class TestGaussLegendre:
    """duhamel._legendre, the rule under every Volterra quadrature, against
    the scipy rule as an oracle and against the moments of [-1, 1]."""

    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_matches_the_scipy_rule(self, m):
        x, w = duhamel._legendre(m)
        x_ref, w_ref = roots_legendre(m)
        assert np.abs(x - x_ref).max() <= 1e-15
        npt.assert_allclose(w, w_ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_integrates_monomials_to_degree_2m_minus_1(self, m):
        x, w = duhamel._legendre(m)
        for k in range(2 * m):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(w * x**k) - exact) <= 1e-14, k

    def test_cached_and_read_only(self):
        x, w = duhamel._legendre(8)
        assert duhamel._legendre(8)[0] is x
        assert not x.flags.writeable and not w.flags.writeable


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

    def test_import_loads_no_scipy(self):
        """Importing the package and its CLI loads no scipy module; only the
        quadrature method of beta_integral imports it, and still agrees
        with the closed form."""
        script = (
            "import sys\n"
            "import mildns, mildns.cli\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
            "from mildns import beta_integral\n"
            "print(beta_integral(0.75, 0.5, 2.0, method='quadrature'))\n"
            "print(beta_integral(0.75, 0.5, 2.0))\n"
        )
        src = str(Path(mildns.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        loaded, quad, closed = run.stdout.splitlines()
        assert loaded == "[]"
        npt.assert_allclose(float(quad), float(closed), rtol=1e-10)


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

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_refuses_nonfinite_time_as_off_the_mesh(self, pair_setup, t):
        lat, book, mesh, quad, datum = pair_setup
        traj = heat_trajectory(datum(1), mesh)
        with pytest.raises(MeshError, match="not a node"):
            bilinear_B(traj, traj, t, quad)

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
        lhs = bilinear_B(Trajectory(lat, mesh, u.data + v.data), w, t0, quad).data
        rhs = bilinear_B(u, w, t0, quad).data + bilinear_B(v, w, t0, quad).data
        assert np.abs(lhs - rhs).max() < 1e-13 * np.abs(rhs).max()

    def test_scalar_homogeneity(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(8), mesh)
        t0 = float(mesh[-1])
        scaled = bilinear_B(Trajectory(lat, mesh, 3.0 * u.data), u, t0, quad).data
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


def per_node_B(u_traj, v_traj, t, quad):
    """B(u, v)(t) with one complex transform and one P div per quadrature
    node on the full grid, the P div written out: c_i = sum_j i k_j T_ij,
    then c - k (k . c) / |k|^2. The wavenumbers come from np.fft.fftfreq,
    not from the Lattice under test."""
    lat = u_traj.lattice
    d, n = lat.d, lat.n
    k1 = 2.0 * np.pi / lat.box_len * np.fft.fftfreq(n, d=1.0 / n)
    ksq_heat = np.sum(np.array(np.meshgrid(*[k1] * d, indexing="ij")) ** 2, axis=0)
    k1[n // 2] = 0.0  # the self-paired Nyquist entry, as for every odd multiplier
    k = np.array(np.meshgrid(*[k1] * d, indexing="ij"))
    ksq = np.sum(k**2, axis=0)
    ksq[ksq == 0.0] = 1.0  # mean and Nyquist corners, where k . c = 0
    taus, gaps, weights = volterra_nodes(quad, t)
    acc = np.zeros((d,) + lat.spatial_shape, dtype=np.complex128)
    for tau, gap, weight in zip(taus, gaps, weights):
        u_m = u_traj.value_at(tau, -0.5 * quad.theta)
        v_m = v_traj.value_at(tau, -0.5 * quad.theta)
        tensor = np.einsum("i...,j...->ij...", u_m, v_m)
        coeff = np.fft.fftn(tensor, axes=tuple(range(2, 2 + d))) / n**d
        c = np.einsum("j...,ij...->i...", 1j * k, coeff)
        w = c - k * (np.sum(k * c, axis=0) / ksq)
        acc += weight * (w * np.exp(-ksq_heat * gap))
    return np.fft.ifftn(acc, axes=tuple(range(1, 1 + d)), norm="forward").real


def shared_nodes(quad, mesh, t):
    """How many quadrature nodes of B at t take the transform of another:
    all but the last of the leading run of nodes at or below mesh[0]."""
    frozen = np.cumprod(volterra_nodes(quad, t)[0] <= mesh[0]).sum()
    return max(int(frozen) - 1, 0)


class TestSameMesh:
    """Trajectory.check_same_mesh is the one check that two trajectories
    share a lattice and a mesh: the difference and the four Duhamel entry
    points each refuse another lattice, another mesh and a non-trajectory
    through it, before any work."""

    ROUTES = {
        "subtract": lambda u, v, book, quad: u - v,
        "bilinear_B": lambda u, v, book, quad: bilinear_B(u, v, float(u.times[-1]), quad),
        "bilinear_trajectory": lambda u, v, book, quad: bilinear_trajectory(u, v, quad),
        "bilinear_estimate_report": lambda u, v, book, quad: bilinear_estimate_report(
            u, v, book, quad=quad),
        "bilinear_error_estimate": lambda u, v, book, quad: bilinear_error_estimate(u, v, quad),
    }

    @staticmethod
    def other(kind, lat, mesh, datum):
        if kind == "lattice":
            elsewhere = make_lattice(lat.d, lat.n, 0.5 * lat.box_len)
            return heat_trajectory(realize_datum(DatumSpec(kind="taylor_green"), elsewhere),
                                   mesh)
        if kind == "mesh":
            return heat_trajectory(datum(2), mesh[:-1])
        return datum(2)  # a vector field, not a trajectory

    @pytest.mark.parametrize("kind", ["lattice", "mesh", "field"])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_refused_through_check_same_mesh(self, pair_setup, route, kind, monkeypatch):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(1), mesh)
        v = self.other(kind, lat, mesh, datum)
        checked = []
        check = Trajectory.check_same_mesh

        def spy(self, other):
            checked.append(other)
            return check(self, other)

        monkeypatch.setattr(Trajectory, "check_same_mesh", spy)
        with pytest.raises(DataError, match="^trajectories must share one lattice and mesh$"):
            self.ROUTES[route](u, v, book, quad)
        assert checked == [v]


class TestFusedB:
    """The fused evaluation against the per-node loop, to 1e-14 of max |B|."""

    @staticmethod
    def band_flows(d, n, mesh, seeds):
        lat = make_lattice(d, n, 2.0 * np.pi)
        return [
            heat_trajectory(
                realize_datum(DatumSpec(kind="random_band", seed=seed, k_min=1.0, k_max=3.0,
                                        divergence_free=True), lat),
                mesh,
            )
            for seed in seeds
        ]

    @staticmethod
    def assert_matches_per_node(u, v, times, quad):
        for t in times:
            fused = bilinear_B(u, v, float(t), quad).data
            reference = per_node_B(u, v, float(t), quad)
            assert np.abs(fused - reference).max() <= 1e-14 * np.abs(reference).max()

    @pytest.mark.parametrize("d, n, p, s, q_tilde", [(2, 16, 2.0, 0.0, 4.0), (3, 8, 3.0, 0.0, 6.0)])
    @pytest.mark.parametrize("same", [True, False], ids=["u=v", "u!=v"])
    def test_matches_per_node_loop(self, d, n, p, s, q_tilde, same):
        book = build_exponent_book(d=d, p=p, s=s, q_tilde=q_tilde)
        quad = QuadratureSpec(node_count=16, gamma=book.gamma_kato, theta=book.alpha)
        mesh = quadratic_mesh(0.5, 6)
        u, v = self.band_flows(d, n, mesh, (3, 4))
        # the first output time has every quadrature node below the first
        # mesh node, where value_at returns the frozen first field
        assert np.all(volterra_nodes(quad, mesh[0])[0] <= mesh[0])
        self.assert_matches_per_node(u, u if same else v, mesh, quad)

    def test_quadrature_nodes_on_mesh_nodes(self):
        """A mesh built from quadrature nodes of its last time: some nodes
        hit mesh nodes exactly, others lie within value_at's 1e-14
        exact-node tolerance above one."""
        book = build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=4.0)
        quad = QuadratureSpec(node_count=16, gamma=book.gamma_kato, theta=book.alpha)
        horizon = 0.5
        taus = volterra_nodes(quad, horizon)[0]
        mesh = np.unique(np.concatenate([taus[::3], taus[1::3] * (1 - 4e-15), [horizon]]))
        u, v = self.band_flows(2, 16, mesh, (5, 6))
        self.assert_matches_per_node(u, v, mesh[-1:], quad)
        self.assert_matches_per_node(u, u, mesh[-1:], quad)

    def test_one_node_per_chunk(self, fresh_thread):
        """At d = 3, n = 32 one node's half-spectrum coefficients pass the
        batch cap both for B(u, u) and for B(u, v): every chunk holds one
        node, and so does the held kernel buffer of a fresh thread."""
        book = build_exponent_book(d=3, p=3.0, s=0.0, q_tilde=6.0)
        quad = QuadratureSpec(node_count=8, gamma=book.gamma_kato, theta=book.alpha)
        mesh = quadratic_mesh(0.5, 4)
        u, v = self.band_flows(3, 32, mesh, (7, 8))
        modes = math.prod(u.lattice.half_shape)
        row_bytes = modes * np.dtype(np.complex128).itemsize

        def work(b, symmetric):
            node_bytes = len(duhamel._layout(u.lattice, symmetric)[0]) * row_bytes
            assert node_bytes > lattice.BATCH_BYTES
            self.assert_matches_per_node(u, b, mesh[-1:], quad)
            assert lattice._held.flat["B", 2].shape == (modes,)

        for b, symmetric in ((u, True), (v, False)):
            fresh_thread(lambda: work(b, symmetric))

    @staticmethod
    def count_rforward(monkeypatch):
        """The node counts of the rforward calls that follow."""
        calls = []
        rforward = Lattice.rforward

        def counted(lat, a, out=None):
            calls.append(len(a))
            return rforward(lat, a, out=out)

        monkeypatch.setattr(Lattice, "rforward", counted)
        return calls

    def test_one_transform_per_call(self, monkeypatch):
        """At the picard size (d = 2, n = 32, Q = 16) the 16 node products
        of B(u, u), 272 KiB, and of B(u, v), 408 KiB, fit the batch cap: one
        call makes one rforward of all of them."""
        u, mesh, quad = TestCallSetUp.picard_size_flow()
        v = Trajectory(u.lattice, mesh, u.data * 0.5)
        calls = self.count_rforward(monkeypatch)
        for b in (u, v):
            calls.clear()
            bilinear_B(u, b, float(mesh[-1]), quad)
            assert calls == [quad.node_count]
            assert len(held_B()[0]) == quad.node_count

    def test_chunks_are_as_equal_as_q_allows(self, monkeypatch):
        """A cap of 7 nodes' products splits Q = 16 nodes 5 + 5 + 6, not
        7 + 7 + 2, and the chunked B matches the per-node loop."""
        u, mesh, quad = TestCallSetUp.picard_size_flow()
        node_bytes = 2 * math.prod(u.lattice.half_shape) * np.dtype(np.complex128).itemsize
        monkeypatch.setattr(lattice, "BATCH_BYTES", 7 * node_bytes + 1)
        calls = self.count_rforward(monkeypatch)
        self.assert_matches_per_node(u, u, mesh[-1:], quad)
        assert calls == [5, 5, 6]
        assert len(held_B()[0]) == 6

    @staticmethod
    def count_rows(monkeypatch):
        """The product rows of the rforward calls that follow."""
        rows = []
        rforward = Lattice.rforward

        def counted(lat, a, out=None):
            rows.append(a.size // math.prod(lat.spatial_shape))
            return rforward(lat, a, out=out)

        monkeypatch.setattr(Lattice, "rforward", counted)
        return rows

    @pytest.mark.parametrize("d, n, p, q_tilde", [(2, 16, 2.0, 4.0), (3, 8, 3.0, 6.0)])
    def test_transformed_rows_per_call(self, d, n, p, q_tilde, monkeypatch):
        """One B transforms (Q - shared) (d(d+1)/2 - 1) product rows when u
        is v and (Q - shared) (d^2 - 1) otherwise: the (d-1, d-1) product is
        never transformed, and of the leading nodes at or below t_1, which
        all read the first field, only the last is."""
        book = build_exponent_book(d=d, p=p, s=0.0, q_tilde=q_tilde)
        quad = QuadratureSpec(node_count=16, gamma=book.gamma_kato, theta=book.alpha)
        mesh = quadratic_mesh(0.5, 6)
        u, v = self.band_flows(d, n, mesh, (12, 13))
        shared = shared_nodes(quad, mesh, mesh[-1])
        assert shared >= 1
        rows = self.count_rows(monkeypatch)
        for b, pair_count in ((u, d * (d + 1) // 2 - 1), (v, d * d - 1)):
            rows.clear()
            bilinear_B(u, b, float(mesh[-1]), quad)
            assert sum(rows) == (quad.node_count - shared) * pair_count

    def test_rows_per_picard_size_trajectory(self, monkeypatch):
        """At the picard size (d = 2, n = 32, M = Q = 16) B(u, u) over the
        trajectory transforms 222 of its 256 node products, 2 rows each:
        the leading frozen runs of the 16 output times are 16, 5, 4, 3, 3,
        eight of 2 and three of 1 nodes long."""
        u, mesh, quad = TestCallSetUp.picard_size_flow()
        runs = [shared_nodes(quad, mesh, t) + 1 for t in mesh]
        assert runs == [16, 5, 4, 3, 3] + [2] * 8 + [1] * 3
        rows = self.count_rows(monkeypatch)
        bilinear_trajectory(u, u, quad)
        assert sum(rows) == 222 * 2

    @pytest.mark.parametrize("d, n, mesh, at, node_count, cap_nodes", [
        (2, 16, quadratic_mesh(0.5, 6), slice(None), 16, None),
        (2, 16, quadratic_mesh(0.5, 6), slice(None), 16, 5),
        (3, 32, quadratic_mesh(0.5, 4), slice(0, 2), 8, None),
        (2, 16, quadratic_mesh(0.5, 6), slice(0, 1), 16, None),
        (2, 16, np.array([0.1, 0.15]), slice(1, 2), 16, None),
    ], ids=["2d", "2d-chunks-of-5", "3d-n32-one-node-chunks", "all-frozen-at-t1",
            "frozen-not-leading"])
    def test_shared_frozen_nodes_keep_the_bits(self, d, n, mesh, at, node_count, cap_nodes,
                                               monkeypatch):
        """The leading frozen nodes of a chunk share the transform of the
        last of them; B(u, u) and B(u, v) keep the bits of the path that
        transforms every node, and match the per-node loop. The cases: d =
        3, n = 32, where each chunk holds one node; a cap of 5 B(u, u)
        nodes, so frozen runs cross chunk boundaries; t_1, where all Q
        nodes are frozen; and a mesh with t_2 < 2 t_1, where frozen nodes
        also close the rule, after nodes that are not frozen."""
        book = build_exponent_book(d=d, p=float(d), s=0.0, q_tilde=2.0 * d)
        quad = QuadratureSpec(node_count=node_count, gamma=book.gamma_kato, theta=book.alpha)
        u, v = self.band_flows(d, n, mesh, (14, 15))
        if cap_nodes is not None:
            node_bytes = 2 * math.prod(u.lattice.half_shape) * np.dtype(np.complex128).itemsize
            monkeypatch.setattr(lattice, "BATCH_BYTES", cap_nodes * node_bytes + 1)
        for t in mesh[at]:
            for b in (u, v):
                shared = bilinear_B(u, b, float(t), quad).data
                with monkeypatch.context() as unshared_path:
                    unshared_path.setattr(duhamel, "_frozen_head", lambda traj, taus: 0)
                    npt.assert_array_equal(shared, bilinear_B(u, b, float(t), quad).data)
            self.assert_matches_per_node(u, u, [t], quad)
            self.assert_matches_per_node(u, v, [t], quad)

    def test_all_frozen_nodes_make_one_transformed_node(self, monkeypatch):
        """At t_1 every node of the rule is frozen, so each chunk transforms
        one node: one call of one node, or one per chunk of a capped batch."""
        (u,) = self.band_flows(2, 16, quadratic_mesh(0.5, 6), (16,))
        quad = QuadratureSpec(node_count=16, gamma=0.5, theta=0.5)
        t = float(u.times[0])
        assert np.all(volterra_nodes(quad, t)[0] <= t)
        calls = self.count_rforward(monkeypatch)
        bilinear_B(u, u, t, quad)
        assert calls == [1]
        node_bytes = 2 * math.prod(u.lattice.half_shape) * np.dtype(np.complex128).itemsize
        monkeypatch.setattr(lattice, "BATCH_BYTES", 7 * node_bytes + 1)
        calls.clear()
        bilinear_B(u, u, t, quad)
        assert calls == [1, 1, 1]

    def test_frozen_nodes_after_a_live_node_are_transformed(self, monkeypatch):
        """On the mesh [0.1, 0.15] at t = 0.15 the left half of the rule
        (tau <= t/2) is frozen, and so are the last nodes of the right
        half, after nodes that are not: only the leading run shares one
        transform."""
        mesh = np.array([0.1, 0.15])
        (u,) = self.band_flows(2, 16, mesh, (17,))
        quad = QuadratureSpec(node_count=16, gamma=0.5, theta=0.5)
        frozen = volterra_nodes(quad, 0.15)[0] <= 0.1
        lead = shared_nodes(quad, mesh, 0.15) + 1
        assert lead == 8 and frozen[:lead].all() and frozen.sum() > lead
        calls = self.count_rforward(monkeypatch)
        bilinear_B(u, u, 0.15, quad)
        assert calls == [16 - (lead - 1)]

    def test_symmetric_shortcut_matches_full_tensor(self):
        """B(u, u) forms only the products i <= j; B(u, copy of u) forms
        all d^2 (each without the (d-1, d-1) product)."""
        book = build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=4.0)
        quad = QuadratureSpec(node_count=16, gamma=book.gamma_kato, theta=book.alpha)
        mesh = quadratic_mesh(0.5, 6)
        (u,) = self.band_flows(2, 16, mesh, (9,))
        twin = Trajectory(u.lattice, u.times, u.data.copy())
        for t in mesh:
            short = bilinear_B(u, u, float(t), quad).data
            full = bilinear_B(u, twin, float(t), quad).data
            assert np.abs(short - full).max() <= 1e-14 * np.abs(full).max()

    def test_one_field_per_output_time(self, field_inits):
        """B over a trajectory builds at most one Field per output time: the
        factors at the quadrature nodes are array slices, not fields."""
        book = build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=4.0)
        quad = QuadratureSpec(node_count=16, gamma=book.gamma_kato, theta=book.alpha)
        mesh = quadratic_mesh(0.5, 6)
        (u,) = self.band_flows(2, 16, mesh, (11,))
        field_inits.clear()
        bilinear_trajectory(u, u, quad)
        assert len(field_inits) <= mesh.size


class TestSafeKsqDeriv:
    def test_lazy_and_read_only(self):
        lat = make_lattice(2, 16, 2.0 * np.pi)
        assert "safe_ksq_deriv" not in vars(lat)
        safe = lat.safe_ksq_deriv
        assert lat.safe_ksq_deriv is safe
        assert not safe.flags.writeable
        with pytest.raises(ValueError):
            safe[1, 1] = 0.0
        ksq = sum(kd**2 for kd in lat.k_deriv)
        npt.assert_array_equal(safe, np.where(ksq == 0.0, 1.0, ksq))


class TestCallSetUp:
    """What B builds once per lattice, output time and rule instead of once
    per call: the P div symbol, the weighted heat factors of the Volterra
    rule, and the buffers each thread holds."""

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["u=v", "u!=v"])
    def test_symbol_is_the_project_div_kernel(self, d, n, symmetric):
        lat = make_lattice(d, n, 2.0 * np.pi)
        pairs, symbol = duhamel._layout(lat, symmetric)
        rng = np.random.default_rng(d + 2 * symmetric)
        shape = (len(pairs),) + lat.half_shape
        acc = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows = np.concatenate([acc, np.zeros((1,) + lat.half_shape)])  # the (d-1, d-1) row
        reference = _project_div_spectral(rows[pair_rows(d, pairs)], lat)
        got = duhamel._project_div(acc, lat, symbol)
        assert got.shape == reference.shape
        assert np.abs(got - reference).max() <= 1e-15 * np.abs(reference).max()

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_isotropic_tensor_is_annihilated(self, d, n):
        """P div(phi I) = P grad phi vanishes to round-off for a Hermitian
        phi, Nyquist modes included: B drops the (d-1, d-1) product by
        subtracting it from the diagonal."""
        lat = make_lattice(d, n, 2.0 * np.pi)
        phi = lat.rforward(np.random.default_rng(30 + d).standard_normal(lat.spatial_shape))
        for axis in range(d):
            assert np.abs(np.take(phi, n // 2, axis=axis)).min() > 0  # a Nyquist plane
        tensor = np.zeros((d, d) + lat.half_shape, dtype=np.complex128)
        for i in range(d):
            tensor[i, i] = phi
        gradient = np.sqrt(lat.safe_ksq_deriv) * np.abs(phi)
        assert np.abs(_project_div_spectral(tensor, lat)).max() <= 1e-15 * gradient.max()

    def test_symbol_is_cached_and_read_only(self):
        lat = make_lattice(2, 16, 2.0 * np.pi)
        symbol = duhamel._layout(lat, True)[1]
        assert duhamel._layout(make_lattice(2, 16, 2.0 * np.pi), True)[1] is symbol
        assert symbol.shape == (2, 2, 2 * 16 * 9)
        assert not symbol.flags.writeable
        other_box = duhamel._layout(make_lattice(2, 16, 4.0 * np.pi), True)[1]
        assert other_box.shape == symbol.shape
        npt.assert_array_equal(other_box, 0.5 * symbol)  # P div scales as 1/L
        assert duhamel._layout(lat, False)[1].shape == (2, 3, 2 * 16 * 9)
        assert duhamel._layout(lat, True)[1] is not symbol

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_rule_factors_are_the_weighted_heat_kernel(self, d, n):
        lat = make_lattice(d, n, 2.0 * np.pi)
        quad = QuadratureSpec(16, 0.75, 0.5)
        for t in (1e-3, 0.3, 1.0):
            taus, factors = duhamel._volterra_rule(lat, t, quad)
            want_taus, gaps, weights = volterra_nodes(quad, t)
            assert taus == want_taus.tolist()
            assert all(not f.flags.writeable for f in factors)
            kernel = np.prod(np.broadcast_arrays(*factors), axis=0)
            want = weights.reshape((-1,) + (1,) * d) * lat.heat(gaps)
            assert kernel.shape == want.shape == (16,) + lat.half_shape
            npt.assert_allclose(kernel, want, rtol=8 * np.finfo(float).eps, atol=0)
            assert duhamel._volterra_rule(lat, t, quad)[1] is factors

    @staticmethod
    def picard_size_flow():
        """A flow at the size of the picard benchmark: d = 2, n = 32, 16
        mesh and 16 quadrature nodes."""
        lat = make_lattice(2, 32, 2.0 * np.pi)
        book = build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=4.0)
        quad = QuadratureSpec(node_count=16, gamma=book.gamma_kato, theta=book.alpha)
        mesh = quadratic_mesh(0.25, 16)
        u0 = realize_datum(DatumSpec(kind="random_band", seed=21, k_min=1.0, k_max=4.0,
                                     divergence_free=True), lat)
        return heat_trajectory(u0, mesh), mesh, quad

    def test_buffers_are_held_across_calls(self):
        u, mesh, quad = self.picard_size_flow()
        first = bilinear_B(u, u, float(mesh[-1]), quad).data
        held = held_B()
        assert held[0].shape[1] == 2
        bilinear_B(u, u, float(mesh[0]), quad)
        again = bilinear_B(u, u, float(mesh[-1]), quad).data
        assert held_B() is held
        npt.assert_array_equal(again, first)
        v = Trajectory(u.lattice, mesh, u.data * 0.5)
        bilinear_B(u, v, float(mesh[-1]), quad)  # another pair count
        assert held_B()[0].shape[1] == 3

    def test_warm_call_makes_one_held_request(self, monkeypatch):
        """A warm call at the picard size asks the store once and gets the
        arrays of the call before it: it allocates none of its five."""
        u, mesh, quad = self.picard_size_flow()
        bilinear_B(u, u, float(mesh[-1]), quad)
        before = held_B()
        requests = []

        def counted(*args):
            requests.append(lattice.held(*args))
            return requests[-1]

        monkeypatch.setattr(duhamel, "held", counted)
        bilinear_B(u, u, float(mesh[-2]), quad)
        assert len(requests) == 1 and requests[0] is before

    def test_two_threads_give_the_bits_of_sequential_calls(self):
        """B(u, u), B(u, v) and heat flows interleaved in two threads, in
        opposite orders, give the bits of sequential calls, each thread in
        buffers of its own."""
        u, mesh, quad = self.picard_size_flow()
        v = Trajectory(u.lattice, mesh, u.data * 0.5)
        u0 = realize_datum(DatumSpec(kind="random_band", seed=22, k_min=1.0, k_max=4.0,
                                     divergence_free=True), u.lattice)
        jobs = [job for t in mesh for job in (
            lambda t=float(t): bilinear_B(u, u, t, quad).data,
            lambda t=float(t): bilinear_B(u, v, t, quad).data,
            lambda t=t: heat_trajectory(u0, mesh[mesh <= t]).data)]
        sequential = [job() for job in jobs]
        results, buffers = {}, {}

        def work(name, order):
            for k in order:
                results[name, k] = jobs[k]()
            buffers[name] = dict(lattice._held.flat)

        order = list(range(len(jobs)))
        threads = [threading.Thread(target=work, args=("forward", order)),
                   threading.Thread(target=work, args=("backward", order[::-1]))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for name in ("forward", "backward"):
            for k, want in enumerate(sequential):
                npt.assert_array_equal(results[name, k], want)
        own = dict(lattice._held.flat)
        assert buffers["forward"].keys() == buffers["backward"].keys() == own.keys()
        assert {name for name, _ in own} == {"B", "flows"}
        for key, buffer in own.items():
            assert not np.shares_memory(buffers["forward"][key], buffers["backward"][key])
            assert not any(np.shares_memory(held[key], buffer) for held in buffers.values())

    def test_keeps_the_symbol_and_the_store(self, fresh_thread):
        """After one B(u, u) and one B(u, v) at d = 3, n = 32 a fresh thread
        leaves the P div symbol of the process and its own store, each flat
        buffer of which is at most BATCH_BYTES, and nothing else: B's
        products, coefficients and pair sums pass the cap, so they are made
        per call."""
        book = build_exponent_book(d=3, p=3.0, s=0.0, q_tilde=6.0)
        quad = QuadratureSpec(node_count=8, gamma=book.gamma_kato, theta=book.alpha)
        mesh = quadratic_mesh(0.5, 4)
        u, v = TestFusedB.band_flows(3, 32, mesh, (7, 8))
        t = float(mesh[-1])
        bilinear_B(u, v, t, quad)  # the rule and the lattice's caches, which threads share

        def work():
            tracemalloc.start()
            try:
                bilinear_B(u, u, t, quad)
                bilinear_B(u, v, t, quad)
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            flat = [buffer.nbytes for buffer in lattice._held.flat.values()]
            return kept, duhamel._layout(u.lattice, False)[1].nbytes, flat

        kept, symbol, flat = fresh_thread(work)
        assert flat and max(flat) <= lattice.BATCH_BYTES
        assert kept <= symbol + sum(flat) + 32 * 1024

    def test_live_threads_share_one_symbol(self):
        """Three live threads, each after one B(u, u) at d = 3, n = 32, read
        the symbol of the process, and beyond the main thread they keep at
        most their stores and 1 MiB: no thread holds a copy of the 4.0 MiB
        symbol."""
        book = build_exponent_book(d=3, p=3.0, s=0.0, q_tilde=6.0)
        quad = QuadratureSpec(node_count=8, gamma=book.gamma_kato, theta=book.alpha)
        mesh = quadratic_mesh(0.5, 4)
        (u,) = TestFusedB.band_flows(3, 32, mesh, (7,))
        t = float(mesh[-1])
        bilinear_B(u, u, t, quad)  # the rule, the layout and the lattice's caches
        symbol = duhamel._layout(u.lattice, True)[1]
        ready, release = threading.Barrier(4, timeout=600), threading.Event()
        symbols, stores = [], []

        def work():
            try:
                bilinear_B(u, u, t, quad)
                symbols.append(duhamel._layout(u.lattice, True)[1])
                stores.append(sum(buffer.nbytes for buffer in lattice._held.flat.values()))
            finally:
                ready.wait()
                release.wait(timeout=600)

        threads = [threading.Thread(target=work) for _ in range(3)]
        tracemalloc.start()
        try:
            for thread in threads:
                thread.start()
            ready.wait()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            release.set()
            for thread in threads:
                thread.join(timeout=600)
        assert not any(thread.is_alive() for thread in threads)
        assert len(symbols) == 3 and all(s is symbol for s in symbols)
        assert kept <= sum(stores) + 1024**2

    def test_a_switch_frees_the_old_symbol_first(self, monkeypatch):
        """A call that brings another layout drops the kept symbol before
        it builds the next one, so the two never live together."""
        lat = make_lattice(3, 8, 2.0 * np.pi)
        old = weakref.ref(duhamel._layout(lat, True)[1])
        freed = []
        build = duhamel._project_div_symbol

        def traced(lat, pair_of):
            freed.append(old() is None)
            return build(lat, pair_of)

        monkeypatch.setattr(duhamel, "_project_div_symbol", traced)
        duhamel._layout(lat, False)
        assert freed == [True]

    def test_threads_switching_layouts_give_the_bits_of_sequential_calls(self):
        """Four threads, more than the cores, each alternate B(u, u) and
        B(u, v) under a short switch interval, so the one kept layout is
        missed and rebuilt beneath them: every result has the bits of a
        sequential call."""
        mesh = quadratic_mesh(0.5, 4)
        u, v = TestFusedB.band_flows(2, 16, mesh, (3, 4))
        quad = QuadratureSpec(node_count=8, gamma=0.5, theta=0.25)
        jobs = [(b, float(t)) for t in mesh for b in (u, v)]
        sequential = [bilinear_B(u, b, t, quad).data for b, t in jobs]
        results = {}

        def work(k):
            for r in range(3):
                for i in range(len(jobs)):
                    j = (i + k) % len(jobs)
                    b, t = jobs[j]
                    results[k, r, j] = bilinear_B(u, b, t, quad).data

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=600)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 * 3 * len(jobs)
        for (_, _, j), got in results.items():
            npt.assert_array_equal(got, sequential[j])

    def test_warm_call_stays_below_the_mapping_threshold(self):
        """Every array a warm call at the picard size makes is freed again
        below 256 KiB of traced memory in all."""
        u, mesh, quad = self.picard_size_flow()
        t = float(mesh[-1])
        bilinear_B(u, u, t, quad)
        tracemalloc.start()
        try:
            bilinear_B(u, u, t, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestEstimateReport:
    def test_kato_target_ratio(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(5), mesh)
        v = heat_trajectory(datum(6), mesh)
        report = bilinear_estimate_report(u, v, book, target=TARGET_KATO, quad=quad)
        assert 0 < report.ratio < 1.0

    def test_sobolev_target(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(5), mesh)
        report = bilinear_estimate_report(
            u, u, book, target=TARGET_SOBOLEV, quad=quad, refine=False
        )
        assert 0 < report.ratio

    def test_refine_is_refused(self, pair_setup):
        """Doubled quadrature nodes do not see B's error, which lives in the
        interpolation between mesh nodes; the refusal names the estimate
        that measures it."""
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(5), mesh)
        with pytest.raises(ConfigError, match="bilinear_error_estimate"):
            bilinear_estimate_report(u, u, book, quad=quad, refine=True)

    def test_sobolev_target_needs_young_pair(self, pair_setup):
        lat, _, mesh, quad, datum = pair_setup
        wide = build_exponent_book(d=2, p=2.0, s=0.25, q_tilde=8.0)  # q_tilde > 2p
        u = heat_trajectory(datum(5), mesh)
        with pytest.raises(ConfigError, match="q < q_tilde <= 2p"):
            bilinear_estimate_report(u, u, wide, target=TARGET_SOBOLEV, quad=quad)

    def test_unknown_target(self, pair_setup):
        lat, book, mesh, quad, datum = pair_setup
        u = heat_trajectory(datum(5), mesh)
        with pytest.raises(ConfigError, match=re.escape(UNKNOWN_TARGET)):
            bilinear_estimate_report(u, u, book, target="energy", quad=quad)


UNKNOWN_TARGET = "unknown estimate target 'energy'; valid targets: 'kato', 'sobolev'"


@pytest.fixture(scope="module")
def checks():
    """The benchmark's checks: the closed form of B for the heat flows of
    two single Fourier modes, computed with numpy alone."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import checks

    return checks


class TestBilinearErrorEstimate:
    """(B_{M/2} - B_M) / 3 at the even nodes t_2, t_4, ... of the quadratic
    mesh, which are the quadratic mesh of M/2 nodes."""

    N, BOX, HORIZON = 32, 2.0 * np.pi, 0.25  # the picard benchmark's box

    @pytest.mark.parametrize("mesh_nodes", [8, 16, 32])
    def test_within_a_factor_two_of_the_closed_form_error(self, mesh_nodes, checks):
        """The largest estimate over the nodes against the largest L^2 error
        of B_M over all nodes, for the benchmark's oracle modes: a ratio of
        0.87, 1.04 and 1.00 when measured."""
        lat = make_lattice(2, self.N, self.BOX)
        book = build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=4.0)
        mesh = quadratic_mesh(self.HORIZON, mesh_nodes)
        u, v = (Trajectory(lat, mesh, np.array(
            [checks.single_mode_flow(self.N, self.BOX, *oracle, t) for t in mesh]))
            for oracle in (checks.ORACLE_U, checks.ORACLE_V))
        quad = QuadratureSpec(16, book.gamma_kato, book.alpha)
        estimate = bilinear_error_estimate(u, v, quad)
        assert estimate.shape == (mesh_nodes // 2,)
        error = bilinear_trajectory(u, v, quad).data - np.array(
            [checks.b_closed_form(self.N, self.BOX, *checks.ORACLE_U, *checks.ORACLE_V, t)
             for t in mesh])
        true = np.sqrt(np.sum(error**2, axis=(1, 2, 3)) * lat.cell_volume)
        assert 0.5 < estimate.max() / true.max() < 2.0

    def test_is_the_scaled_difference_of_the_two_b(self, pair_setup):
        """On an odd mesh the sub-mesh is t_2, t_4, ..., t_{M-1}; the values
        are the L^2 norms of a third of B on those nodes alone minus B on
        the whole mesh, at those nodes."""
        lat, book, _, quad, datum = pair_setup
        mesh = quadratic_mesh(1.0, 9)
        u, v = heat_trajectory(datum(5), mesh), heat_trajectory(datum(6), mesh)
        sub = mesh[1::2]
        coarse = bilinear_trajectory(heat_trajectory(datum(5), sub),
                                     heat_trajectory(datum(6), sub), quad)
        want = [np.sqrt(np.sum(((c - bilinear_B(u, v, float(t), quad).data) / 3.0) ** 2)
                        * lat.cell_volume) for t, c in zip(sub, coarse.data)]
        npt.assert_allclose(bilinear_error_estimate(u, v, quad), want, rtol=1e-13)

    def test_one_trajectory_takes_the_symmetric_path(self, pair_setup, monkeypatch):
        lat, _, mesh, quad, datum = pair_setup
        layouts = []
        layout = duhamel._layout

        def recorded(lat, symmetric):
            layouts.append((lat, symmetric))
            return layout(lat, symmetric)

        recorded.cache_clear = layout.cache_clear  # which a miss calls by name
        monkeypatch.setattr(duhamel, "_layout", recorded)
        u = heat_trajectory(datum(5), mesh)
        bilinear_error_estimate(u, u, quad)
        assert layouts and set(layouts) == {(lat, True)}
        layouts.clear()
        bilinear_error_estimate(u, heat_trajectory(datum(5), mesh), quad)
        assert layouts and set(layouts) == {(lat, False)}

    def test_needs_four_nodes(self, pair_setup):
        lat, _, _, quad, datum = pair_setup
        u = heat_trajectory(datum(5), quadratic_mesh(1.0, 3))
        with pytest.raises(MeshError, match="at least 4 nodes, got 3"):
            bilinear_error_estimate(u, u, quad)


def kernel_exponent_reads(source: str) -> list:
    """Line numbers where source reads an attribute gamma_kato or
    gamma_sobolev (a keyword argument or a field declaration is no read)."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and node.attr in ("gamma_kato", "gamma_sobolev")})


class TestEstimateQuadrature:
    @pytest.mark.parametrize("d,p,s,q_tilde", [(2, 2.0, 0.0, 4.0), (3, 3.0, 0.0, 6.0)])
    def test_each_target_is_its_hand_built_rule(self, d, p, s, q_tilde):
        book = build_exponent_book(d=d, p=p, s=s, q_tilde=q_tilde)
        kato = QuadratureSpec(16, book.gamma_kato, book.alpha)
        assert estimate_quadrature(book, 16) == kato
        assert estimate_quadrature(book, 16, TARGET_KATO) == kato
        assert (estimate_quadrature(book, 24, TARGET_SOBOLEV)
                == QuadratureSpec(24, book.gamma_sobolev, book.alpha))

    def test_unknown_target_names_the_valid_ones(self):
        book = build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=4.0)
        with pytest.raises(ConfigError, match=re.escape(UNKNOWN_TARGET)):
            estimate_quadrature(book, 16, "energy")

    def test_only_duhamel_reads_the_kernel_exponents(self):
        """A target's quadrature is stated once, in estimate_quadrature: no
        other module of the package reads book.gamma_kato or gamma_sobolev."""
        package = Path(mildns.__file__).parent
        offenders = {
            path.name: kernel_exponent_reads(path.read_text())
            for path in sorted(package.glob("*.py")) if path.name != "duhamel.py"
        }
        assert {name: lines for name, lines in offenders.items() if lines} == {}
        assert kernel_exponent_reads((package / "duhamel.py").read_text())

    @pytest.mark.parametrize("source,reads", [
        ("quad = QuadratureSpec(8, book.gamma_kato, book.alpha)", [1]),
        ("gamma = {'sobolev': b.gamma_sobolev}", [1]),
        ("ExponentBook(gamma_kato=0.75, gamma_sobolev=0.5)", []),
        ("gamma_kato: float", []),
    ])
    def test_scan_sees_reads_only(self, source, reads):
        assert kernel_exponent_reads(source) == reads
