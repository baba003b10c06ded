"""Exponent bookkeeping, norms, trajectories, and fitting helpers.

Oracles used here:

* single-mode Lebesgue norms against the moment identity
  mean |cos|^q = Gamma((q+1)/2) / (sqrt(pi) Gamma(q/2 + 1)), which trig
  quadrature reproduces exactly for even integer q;
* the heat-flow Besov characterization of a single mode against its
  one-line maximization in t;
* Parseval between the physical L2 norm and the coefficient sum.
"""

import ast
import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import gamma as gamma_fn

import mildns
from mildns import (
    ConfigError,
    DataError,
    DatumSpec,
    Lattice,
    MeshError,
    NumericalError,
    Trajectory,
    VectorField,
    besov_norm_heat,
    build_exponent_book,
    decay_exponent_fit,
    dyadic_grid,
    fractional_laplacian,
    heat_trajectory,
    kato_norm,
    lebesgue_norm,
    make_lattice,
    n_norm,
    quadratic_mesh,
    realize_datum,
    sobolev_embedding_check,
    sobolev_norm,
    to_spectral,
    vanishing_at_zero,
)
from mildns import lattice
from mildns.lattice import PHYSICAL, batches
from mildns.multipliers import _loglog_fit
from mildns.norms import _lebesgue_rows, heat_sup, weighted_lebesgue, window_grid


def cosine_moment(q: float) -> float:
    """Spatial mean of |cos|^q over a full period."""
    return gamma_fn((q + 1) / 2.0) / (np.sqrt(np.pi) * gamma_fn(q / 2.0 + 1.0))


class TestExponentBook:
    def test_critical_2d(self):
        book = build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=4.0)
        assert book.q == 2.0
        assert book.alpha == 0.5
        npt.assert_allclose(book.young_h, 4.0 / 3.0)
        assert book.young_r == 1.0
        assert book.gamma_kato == 0.75
        assert book.gamma_sobolev == 0.5
        assert book.horizon_exponent == 0.0
        assert book.is_critical
        assert not book.is_calibrated
        assert book.key == "d2-p2-s0-qt4"

    def test_critical_3d(self):
        book = build_exponent_book(d=3, p=3.0, s=0.0, q_tilde=6.0)
        assert book.q == 3.0
        assert book.alpha == 0.5
        assert book.gamma_kato == 0.75
        assert book.horizon_exponent == 0.0
        assert book.is_critical

    def test_subcritical_2d(self):
        book = build_exponent_book(d=2, p=2.0, s=0.25, q_tilde=8.0)
        npt.assert_allclose(book.q, 8.0 / 3.0)
        assert book.horizon_exponent == 0.125
        assert book.young_r is None  # q_tilde > 2p drops the second Young pair
        assert not book.is_critical

    def test_require_critical(self):
        build_exponent_book(d=3, p=3.0, s=0.0, q_tilde=6.0).require_critical("ladder")
        off_line = build_exponent_book(d=2, p=2.0, s=0.25, q_tilde=8.0)
        with pytest.raises(ConfigError) as info:
            off_line.require_critical("fluctuation analysis")
        assert str(info.value) == ("the fluctuation analysis requires the critical book "
                                   "s = d/p - 1, got s = 0.25")

    def test_integrability_floor(self):
        with pytest.raises(ConfigError, match="p > d/2"):
            build_exponent_book(d=2, p=1.0, s=0.0, q_tilde=4.0)

    def test_smoothness_window(self):
        with pytest.raises(ConfigError, match="admissible window"):
            build_exponent_book(d=2, p=2.0, s=-0.5, q_tilde=4.0)
        with pytest.raises(ConfigError, match="admissible window"):
            build_exponent_book(d=2, p=2.0, s=0.5, q_tilde=8.0)

    def test_auxiliary_exponent_floor(self):
        with pytest.raises(ConfigError, match="q_tilde > q"):
            build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=2.0)

    def test_with_calibration(self):
        book = build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=4.0)
        cal = book.with_calibration(0.1, 2.5, 2.4, 0.96, "abc")
        assert cal.is_calibrated
        assert cal.delta == 2.5
        assert not book.is_calibrated  # original untouched


class TestLebesgueNorm:
    def test_exponent_validation(self, lat2, rng, row0_field):
        f = row0_field(lat2, rng.standard_normal((16, 16)))
        with pytest.raises(ConfigError, match="Lebesgue exponent"):
            lebesgue_norm(f, 0.5)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5, np.inf])
    def test_constant_field(self, lat2, p, row0_field):
        f = row0_field(lat2, np.full((16, 16), 2.0))
        vol = lat2.box_len**2
        expected = 2.0 if p == np.inf else 2.0 * vol ** (1.0 / p)
        npt.assert_allclose(lebesgue_norm(f, p), expected, rtol=1e-13)

    @pytest.mark.parametrize("q", [2, 4, 6, 8])
    def test_single_mode_moment_identity_even(self, lat2, q):
        """Trig quadrature is exact for |cos|^q at even integer q."""
        u = realize_datum(DatumSpec(kind="single_mode", mode=(1, 2), amplitude=1.5), lat2)
        expected = 1.5 * (lat2.box_len**2 * cosine_moment(q)) ** (1.0 / q)
        npt.assert_allclose(lebesgue_norm(u, q), expected, rtol=1e-13)

    def test_single_mode_moment_identity_odd(self):
        # odd powers are not band-limited, so exactness degrades to the
        # trig-quadrature error of the lattice, which falls fast with n
        lat = make_lattice(2, 64, 2.0 * np.pi)
        u = realize_datum(DatumSpec(kind="single_mode", mode=(1, 2)), lat)
        expected = (lat.box_len**2 * cosine_moment(3)) ** (1.0 / 3.0)
        npt.assert_allclose(lebesgue_norm(u, 3), expected, rtol=1e-5)

    def test_components_aggregate_in_l2(self, lat2, rng, row0_field):
        data = rng.standard_normal((16, 16))
        single = row0_field(lat2, data)
        double = VectorField(lat2, np.stack([data, data]), PHYSICAL)
        npt.assert_allclose(
            lebesgue_norm(double, 3.0), np.sqrt(2.0) * lebesgue_norm(single, 3.0)
        )

    def test_parseval(self, lat2, rng, row0_field):
        f = row0_field(lat2, rng.standard_normal((16, 16)))
        coeff = to_spectral(f)
        # the interior columns of the half array stand for their mirror images too
        weight = np.r_[1.0, np.full(lat2.n // 2 - 1, 2.0), 1.0]
        spectral_side = np.sqrt(lat2.box_len**2 * np.sum(weight * np.abs(coeff) ** 2))
        npt.assert_allclose(lebesgue_norm(f, 2), spectral_side, rtol=1e-12)

    def test_homogeneity(self, lat2, rng, row0_field):
        f = row0_field(lat2, rng.standard_normal((16, 16)))
        npt.assert_allclose(
            lebesgue_norm(VectorField(lat2, 7.0 * f.data), 4.0), 7.0 * lebesgue_norm(f, 4.0),
            rtol=1e-13,
        )


class TestSobolevNorm:
    @pytest.mark.parametrize("s", [0.0, -1.0 / 3.0, 0.5])
    def test_is_the_lebesgue_norm_of_the_fractional_laplacian(self, s, lat2, divfree_datum,
                                                               field_inits):
        """sobolev_norm reads the node norm of weighted_lebesgue and builds
        no Field: the bits of the field route it replaced."""
        u = divfree_datum(lat2, seed=4)
        want = lebesgue_norm(fractional_laplacian(u, s), 3.0)
        field_inits.clear()
        assert sobolev_norm(u, s, 3.0) == want
        assert field_inits == []

    def test_zero_smoothness_is_lebesgue(self, lat2, divfree_datum):
        u = divfree_datum(lat2, seed=4)
        npt.assert_allclose(sobolev_norm(u, 0.0, 2.0), lebesgue_norm(u, 2.0))

    def test_single_mode_scaling(self, lat2):
        u = realize_datum(DatumSpec(kind="single_mode", mode=(1, 2)), lat2)
        npt.assert_allclose(
            sobolev_norm(u, 0.5, 2.0),
            5.0**0.25 * lebesgue_norm(u, 2.0),
            rtol=1e-13,
        )


class TestBesovHeat:
    def test_rejects_nonnegative_smoothness(self, lat2, divfree_datum):
        u = divfree_datum(lat2, seed=1)
        with pytest.raises(ConfigError, match="negative smoothness"):
            besov_norm_heat(u, 0.0, 2.0)

    def test_single_mode_closed_form(self):
        """sup_t t^beta e^(-|k|^2 t) peaks at t* = beta/|k|^2 with value
        (beta/(e |k|^2))^beta; putting t* on the grid makes the sup exact."""
        lat = make_lattice(2, 32, 2.0 * np.pi)
        amp = 2.0
        u = realize_datum(DatumSpec(kind="single_mode", mode=(1, 2), amplitude=amp), lat)
        s, ksq = -0.5, 5.0
        beta = -s / 2.0
        t_star = beta / ksq
        grid = np.sort(np.concatenate([np.geomspace(1e-3, 0.3, 25), [t_star]]))
        report = heat_sup(u, grid, -s / 2.0, 2.0)
        closed = (beta / (np.e * ksq)) ** beta * amp * (
            lat.box_len**2 * cosine_moment(2)
        ) ** 0.5
        npt.assert_allclose(report.value, closed, rtol=1e-12)
        npt.assert_allclose(report.argmax_t, t_star)

    def test_argmax_invariant_under_amplitude(self, lat2):
        spec = dict(kind="single_mode", mode=(1, 2), divergence_free=True)
        a = besov_norm_heat(realize_datum(DatumSpec(**spec, amplitude=1.0), lat2), -0.5, 4.0)
        b = besov_norm_heat(realize_datum(DatumSpec(**spec, amplitude=30.0), lat2), -0.5, 4.0)
        assert a.argmax_t == b.argmax_t
        npt.assert_allclose(b.value, 30.0 * a.value, rtol=1e-12)

    def test_window_flag(self, lat2, divfree_datum):
        u = divfree_datum(lat2, seed=2)
        ok = besov_norm_heat(u, -0.5, 2.0)
        assert ok.window_ok
        wide = heat_sup(u, [0.1, lat2.box_len**2], 0.25, 2.0)
        assert not wide.window_ok


class TestLiveComponents:
    """heat_flows transforms only the components that hold a nonzero
    sample and lebesgue_norm reduces only those; both give the same bits as
    sending every component through the transforms and the reduction."""

    CASES = [
        (2, 64, 8.0, dict(kind="power_law", decay=1.0, r_inner=0.25, r_outer=2.0)),
        (3, 16, 2.0 * np.pi, dict(kind="gaussian", width=0.1)),
        (3, 16, 2.0 * np.pi, dict(kind="single_mode", mode=(1, 2, 0))),
        (3, 16, 2.0 * np.pi, dict(kind="taylor_green")),
    ]
    IDS = ["power_law-2d", "gaussian-3d", "single_mode-3d", "taylor_green-3d"]

    @staticmethod
    def reference_flows(u0, times):
        lat = u0.lattice
        coeffs = lat.rforward(u0.data)
        return [lat.inverse(coeffs * lat.heat(t)) for t in times]

    @staticmethod
    def reference_lebesgue(lat, data, r):
        comps = data.reshape((-1,) + lat.spatial_shape)
        axes = tuple(range(1, comps.ndim))
        if r == np.inf:
            per_comp = np.max(np.abs(comps), axis=axes)
        else:
            if r == 4:
                powers = comps * comps
                powers *= powers
            else:
                powers = np.abs(comps) ** r
            per_comp = (np.sum(powers, axis=axes) * lat.cell_volume) ** (1.0 / r)
        return float(np.sqrt(np.sum(per_comp**2)))

    @staticmethod
    def count_transforms(monkeypatch):
        shapes = {"rforward": [], "inverse": []}
        for name in shapes:
            original = getattr(Lattice, name)

            def counted(self, a, out=None, _original=original, _shapes=shapes[name]):
                _shapes.append(np.shape(a))
                return _original(self, a, out=out)

            monkeypatch.setattr(Lattice, name, counted)
        return shapes

    @staticmethod
    def flow_batches(lat, count, rows=1):
        """The inverse shapes of count full-grid flows of rows live rows:
        the batches of lattice.batches over their half coefficients."""
        flow_bytes = rows * math.prod(lat.half_shape) * np.dtype(np.complex128).itemsize
        return [(span.stop - span.start, rows) + lat.half_shape
                for span in batches(count, flow_bytes)]

    @pytest.mark.parametrize("d, n, box_len, spec", CASES, ids=IDS)
    def test_same_bits_as_every_component(self, d, n, box_len, spec):
        """Bit for bit, except the 2-D L^2 sup: its narrowest flows come
        from a coarser lattice (TestBandLimitedFlows), so it is held to
        1e-13 of the full-grid reference."""
        lat = make_lattice(d, n, box_len)
        u0 = realize_datum(DatumSpec(**spec), lat)
        assert not np.all(u0.data.reshape(d, -1).any(axis=1))  # some component is zero
        grid = window_grid(lat)
        flows = self.reference_flows(u0, grid)
        for q in (2.0, 3.0, 4.0, np.inf):
            expected = np.array([t**0.25 * self.reference_lebesgue(lat, f, q)
                                 for t, f in zip(grid, flows)])
            report = besov_norm_heat(u0, -0.5, q)
            sup = heat_sup(u0, grid, 0.25, q)
            if d == 2 and q == 2.0:
                npt.assert_allclose(report.values, expected, rtol=1e-13, atol=0)
                assert np.array_equal(sup.values, report.values)
            else:
                assert np.array_equal(report.values, expected)
                assert report.value == expected.max()
                assert np.array_equal(sup.values, expected)
            assert sup.value == report.value
            assert lebesgue_norm(u0, q) == self.reference_lebesgue(lat, u0.data, q)
        traj = heat_trajectory(u0, grid)
        for field, flow in zip(traj.fields, flows):
            assert np.array_equal(field.data, flow)

    @pytest.mark.parametrize("d, n, box_len, spec", CASES, ids=IDS)
    def test_round_off_from_the_complex_transform_and_pow(self, d, n, box_len, spec):
        """Against the arithmetic before the real forward transform and the
        squared square: the half of the complex forward transform,
        np.abs(x) ** r, every component."""
        lat = make_lattice(d, n, box_len)
        u0 = realize_datum(DatumSpec(**spec), lat)
        grid = window_grid(lat)
        coeffs = lat.half(np.fft.fftn(u0.data, axes=tuple(range(1, d + 1)), norm="forward"))
        flows = [lat.inverse(coeffs * np.exp(-lat.half(lat.ksq) * t)) for t in grid]

        def old_lebesgue(data, r):
            comps = data.reshape((-1,) + lat.spatial_shape)
            axes = tuple(range(1, comps.ndim))
            if r == np.inf:
                per_comp = np.max(np.abs(comps), axis=axes)
            else:
                per_comp = (np.sum(np.abs(comps) ** r, axis=axes) * lat.cell_volume) ** (1.0 / r)
            return float(np.sqrt(np.sum(per_comp**2)))

        traj = heat_trajectory(u0, grid)
        npt.assert_allclose(traj.data, flows, rtol=0, atol=1e-13 * np.abs(flows).max())
        for r in (2.0, 3.0, 4.0, np.inf):
            old = np.array([t**0.25 * old_lebesgue(f, r) for t, f in zip(grid, flows)])
            npt.assert_allclose(heat_sup(u0, grid, 0.25, r).values, old, rtol=1e-13)
            npt.assert_allclose(besov_norm_heat(u0, -0.5, r).values, old, rtol=1e-13)
            npt.assert_allclose(lebesgue_norm(u0, r), old_lebesgue(u0.data, r), rtol=1e-13)
        q = 2.0
        for q_tilde in (2.0, 3.0, 4.0, np.inf):
            alpha = d * (1.0 / q - 1.0 / q_tilde)
            old = [t ** (alpha / 2.0) * old_lebesgue(f, q_tilde) for t, f in zip(grid, flows)]
            npt.assert_allclose(kato_norm(traj, q, q_tilde).values, old, rtol=1e-13)

    def test_transforms_only_the_live_component(self, monkeypatch, field_inits):
        """The heat sup of a physical datum makes one rforward of its live
        row, one inverse of that row per batch of flows, and constructs no
        Field."""
        n = 64
        lat = make_lattice(2, n, 8.0)
        u0 = realize_datum(DatumSpec(kind="power_law", decay=1.0, r_inner=0.25,
                                     r_outer=2.0), lat)
        shapes = self.count_transforms(monkeypatch)
        grid = window_grid(lat)
        field_inits.clear()
        besov_norm_heat(u0, -0.5, 4.0)
        assert shapes["rforward"] == [(1, n, n)]
        assert shapes["inverse"] == self.flow_batches(lat, grid.size)
        assert 1 < len(shapes["inverse"]) < grid.size  # 22 flows of 33 KiB, in 2 batches
        assert field_inits == []

    def test_zero_datum_needs_no_transform(self, lat2, monkeypatch):
        def refuse(self, a):
            raise AssertionError("transform of an all-zero datum")

        monkeypatch.setattr(Lattice, "rforward", refuse)
        monkeypatch.setattr(Lattice, "inverse", refuse)
        u0 = VectorField(lat2, np.zeros((2,) + lat2.spatial_shape), PHYSICAL)
        report = heat_sup(u0, window_grid(lat2), 0.25, 4.0)
        assert report.value == 0.0 and not np.any(report.values)
        assert lebesgue_norm(u0, 2.0) == 0.0
        assert all(not np.any(f.data) for f in heat_trajectory(u0, [0.1, 0.2]).fields)

    def test_subnormal_sample_is_live(self, lat2, monkeypatch):
        data = np.zeros((2,) + lat2.spatial_shape)
        data[1, 3, 5] = 5e-324
        u0 = VectorField(lat2, data, PHYSICAL)
        assert lebesgue_norm(u0, np.inf) == self.reference_lebesgue(lat2, data, np.inf)
        grid = window_grid(lat2)
        flows = self.reference_flows(u0, grid)
        shapes = self.count_transforms(monkeypatch)
        traj = heat_trajectory(u0, grid)
        assert shapes["rforward"] == [(1,) + lat2.spatial_shape]
        assert shapes["inverse"] == self.flow_batches(lat2, grid.size)
        for field, flow in zip(traj.fields, flows):
            assert np.array_equal(field.data, flow)


class TestBandLimitedFlows:
    """An even-integer Lebesgue sup takes each narrow flow from the coarsest
    lattice whose Riemann sum of |f|^q is exact, when the guard allows it;
    every other sup keeps every flow on the full grid, bit for bit."""

    CASES = [
        (2, 128, 8.0, dict(kind="power_law", decay=1.0, r_inner=0.25, r_outer=2.0)),
        (3, 32, 8.0, dict(kind="gaussian", width=0.1)),
    ]
    IDS = ["power_law-2d", "gaussian-3d"]

    @staticmethod
    def grid(lat):
        # past the validity cap, so that the 3-D flows narrow enough at q = 6
        return dyadic_grid(lat.box_len**2 / 4.0, lat.t_floor)

    @staticmethod
    def inverse_sizes(monkeypatch):
        calls = []
        original = Lattice.inverse

        def recorded(self, c, out=None):
            calls.append((self.n, np.shape(c)))
            return original(self, c, out=out)

        monkeypatch.setattr(Lattice, "inverse", recorded)
        return calls

    @staticmethod
    def coarse_size(lat, t, q):
        """The coarse points per axis that the band rule gives at t, from
        integers: the band keeps every mode m with t (2 pi m / L)^2 <= 40."""
        k1sq = (2.0 * np.pi / lat.box_len) ** 2
        band = max(m for m in range(lat.n // 2 + 1) if t * (k1sq * m * m) <= 40.0)
        size = 4
        while size <= q * band:
            size *= 2
        return size

    def full_grid_values(self, u0, grid, q):
        lat = u0.lattice
        flows = TestLiveComponents.reference_flows(u0, grid)
        return np.array([t**0.25 * TestLiveComponents.reference_lebesgue(lat, f, q)
                         for t, f in zip(grid, flows)])

    @pytest.mark.parametrize("q", [2.0, 4.0, 6.0])
    @pytest.mark.parametrize("d, n, box_len, spec", CASES, ids=IDS)
    def test_coarse_values_match_the_full_grid(self, d, n, box_len, spec, q, monkeypatch):
        lat = make_lattice(d, n, box_len)
        u0 = realize_datum(DatumSpec(**spec), lat)
        grid = self.grid(lat)
        expected = self.full_grid_values(u0, grid, q)
        calls = self.inverse_sizes(monkeypatch)
        values = heat_sup(u0, grid, 0.25, q).values
        assert any(size < n for size, _ in calls)  # some flows were coarsened
        npt.assert_allclose(values, expected, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("q", [2.0, 4.0])
    def test_inverse_sizes_are_the_coarse_half_sizes(self, q, monkeypatch):
        lat = make_lattice(2, 512, 8.0)
        u0 = realize_datum(DatumSpec(**self.CASES[0][3]), lat)
        grid = window_grid(lat)
        calls = self.inverse_sizes(monkeypatch)
        besov_norm_heat(u0, -0.5, q)
        sizes = [min(self.coarse_size(lat, t, q), lat.n) for t in grid]
        # a 512^2 flow alone passes the batch cap, so every flow is a batch of one
        assert calls == [(size, (1, 1, size, size // 2 + 1)) for size in sizes]
        assert 1 < sizes.count(lat.n) < len(sizes)
        # one lattice object per coarse size, kept on the fine lattice
        assert lat.coarsened(sizes[-1]) is lat.coarsened(sizes[-1])

    @pytest.mark.parametrize("q", [3.0, np.inf])
    @pytest.mark.parametrize("d, n, box_len, spec", CASES, ids=IDS)
    def test_other_exponents_stay_on_the_full_grid(self, d, n, box_len, spec, q,
                                                   monkeypatch):
        lat = make_lattice(d, n, box_len)
        u0 = realize_datum(DatumSpec(**spec), lat)
        grid = self.grid(lat)
        expected = self.full_grid_values(u0, grid, q)
        calls = self.inverse_sizes(monkeypatch)
        assert np.array_equal(heat_sup(u0, grid, 0.25, q).values, expected)
        assert {size for size, _ in calls} == {n}

    @pytest.mark.parametrize("lattice_args, corpus", [((2, 32, 2.0 * np.pi), False),
                                                      ((2, 32, 4.0 * np.pi), True)],
                             ids=["picard", "corpus"])
    def test_picard_and_corpus_lattices_stay_on_the_full_grid(
            self, lattice_args, corpus, divfree_datum, monkeypatch):
        """At n = 32 no band is narrow enough: the smallness sups of the
        solve and the calibration are the full-grid ones, bit for bit."""
        from mildns.picard import CorpusSpec, _corpus_datum

        lat = make_lattice(*lattice_args)
        u0 = (_corpus_datum(CorpusSpec(), 0, lat) if corpus
              else divfree_datum(lat, seed=3, k_max=4.0))
        calls = self.inverse_sizes(monkeypatch)
        for grid in (window_grid(lat, 0.25), window_grid(lat)):
            for q in (2.0, 4.0, 6.0):
                expected = self.full_grid_values(u0, grid, q)
                assert np.array_equal(heat_sup(u0, grid, 0.25, q).values, expected)
        assert {size for size, _ in calls} == {lat.n}

    def test_energy_in_high_modes_fails_the_guard(self, monkeypatch):
        """A flow that keeps no energy in its band cannot bound what it
        drops by a share of what it keeps, so it stays on the full grid."""
        lat = make_lattice(2, 64, 8.0)
        u0 = realize_datum(DatumSpec(kind="single_mode", mode=(20, 3)), lat)
        grid = dyadic_grid(0.64, 0.25)
        assert all(self.coarse_size(lat, t, 2.0) < lat.n for t in grid)
        expected = self.full_grid_values(u0, grid, 2.0)
        calls = self.inverse_sizes(monkeypatch)
        values = heat_sup(u0, grid, 0.25, 2.0).values
        assert np.array_equal(values, expected) and np.all(values > 0)
        assert {size for size, _ in calls} == {lat.n}


class TestHeatSupGrid:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0])
    def test_non_finite_or_non_positive_time_is_refused(self, lat2, bad):
        u0 = realize_datum(DatumSpec(kind="gaussian", width=0.1), lat2)
        with pytest.raises(ConfigError, match=r"heat time grid .* got t = "):
            heat_sup(u0, [0.1, bad], 0.25, 4.0)
        with pytest.raises(ConfigError, match="heat time grid"):
            heat_sup(u0, [bad, 0.1], 0.25, 4.0)

    def test_empty_grid_is_refused(self, lat2):
        u0 = realize_datum(DatumSpec(kind="gaussian", width=0.1), lat2)
        with pytest.raises(ConfigError, match="non-empty"):
            heat_sup(u0, [], 0.25, 4.0)


class TestHeatSupOverflow:
    def test_overflowed_value_is_refused(self, lat2):
        u0 = realize_datum(DatumSpec(kind="gaussian", width=0.1, amplitude=1e100), lat2)
        with pytest.raises(NumericalError, match=r"t = 0\.01, q = 4"):
            heat_sup(u0, [0.01, 0.02], 0.0, 4.0)
        # its squares do not overflow, so the L^2 sup of the same datum stands
        assert np.isfinite(heat_sup(u0, [0.01, 0.02], 0.0, 2.0).value)


def reference_value_at(times, data, tau, interp_power):
    """Trajectory.value_at as a numpy search and numpy scalar arithmetic on
    the mesh array; the table-driven method must give these bits."""
    if tau <= times[0]:
        return data[0]
    if tau >= times[-1]:
        return data[-1]
    hi = int(np.searchsorted(times, tau))
    lo = hi - 1
    t_lo, t_hi = times[lo], times[hi]
    if abs(tau - t_lo) <= 1e-14 * t_lo:
        return data[lo]
    if interp_power != 0.0:
        phi = lambda t: t**interp_power
    else:
        phi = np.log
    lam = (phi(tau) - phi(t_lo)) / (phi(t_hi) - phi(t_lo))
    return (1.0 - lam) * data[lo] + lam * data[hi]


class TestTrajectory:
    def test_mesh_validation(self, lat2, divfree_datum):
        u = divfree_datum(lat2, seed=3)
        with pytest.raises(MeshError, match="positive"):
            Trajectory(lat2, [0.0, 1.0], [u, u])
        with pytest.raises(MeshError, match="increasing"):
            Trajectory(lat2, [1.0, 1.0], [u, u])
        with pytest.raises(MeshError, match="fields for"):
            Trajectory(lat2, [1.0, 2.0], [u])

    def test_field_validation(self, lat2, lat3, divfree_datum):
        u3 = divfree_datum(lat3, seed=3)
        with pytest.raises(DataError, match="lattice"):
            Trajectory(lat2, [1.0], [u3])
        with pytest.raises(DataError, match="shape"):
            Trajectory(lat2, [1.0], u3.data[None])
        u = divfree_datum(lat2, seed=3)
        with pytest.raises(DataError, match="real"):
            Trajectory(lat2, [1.0], u.data[None] + 0j)
        data = np.array([u.data] * 3)
        data[2, 1, 4, 5] = np.nan
        with pytest.raises(DataError, match=r"node 2, t = 0\.4"):
            Trajectory(lat2, [0.1, 0.2, 0.4], data)
        with pytest.raises(DataError, match="node 0"):
            Trajectory(lat2, [0.1, 0.2], heat_trajectory(u, [0.1, 0.2]).data * np.inf)

    def test_one_array_backs_the_fields(self, lat2, divfree_datum):
        """A list of fields, or an array, is stored as one float64
        (M, d, *spatial) array of samples; fields are views of its rows. A
        list of coefficient arrays is refused."""
        u = divfree_datum(lat2, seed=4)
        times = [0.1, 0.2, 0.4]
        stacked = np.array([u.data, 2.0 * u.data, 3.0 * u.data])
        scaled = [u] + [VectorField(lat2, c * u.data) for c in (2.0, 3.0)]
        for given in (scaled, stacked):
            traj = Trajectory(lat2, times, given)
            assert traj.data.dtype == np.float64
            assert traj.data.shape == (3, 2) + lat2.spatial_shape
            npt.assert_allclose(traj.data, stacked, rtol=0, atol=1e-14 * np.abs(stacked).max())
            for j, f in enumerate(traj.fields):
                assert type(f) is VectorField
                assert np.shares_memory(f.data, traj.data[j])
        with pytest.raises(DataError, match="vector fields"):
            Trajectory(lat2, times, [to_spectral(f) for f in scaled])

    def test_node_index(self, lat2, divfree_datum):
        traj = heat_trajectory(divfree_datum(lat2, seed=5), [0.1, 0.2, 0.4])
        assert traj.node_index(0.2) == 1
        with pytest.raises(MeshError, match="not a node"):
            traj.node_index(0.3)

    def test_value_at_power_interpolation(self, lat2, divfree_datum):
        """Interpolation is exact for c * t**w trajectories when queried
        with interp_power = w."""
        u = divfree_datum(lat2, seed=6)
        times = np.array([0.1, 0.4, 0.9])
        w = -0.25
        traj = Trajectory(lat2, times, [VectorField(lat2, (t**w) * u.data) for t in times])
        got = traj.value_at(0.2, interp_power=w)
        npt.assert_allclose(got, (0.2**w) * u.data, rtol=1e-12)

    def test_value_at_log_interpolation(self, lat2, divfree_datum):
        u = divfree_datum(lat2, seed=7)
        times = np.array([0.1, 0.4, 0.9])
        traj = Trajectory(lat2, times, [VectorField(lat2, np.log(t) * u.data) for t in times])
        got = traj.value_at(0.2)
        npt.assert_allclose(got, np.log(0.2) * u.data, rtol=1e-12, atol=1e-14)

    def test_value_at_clamps_below_first_node(self, lat2, divfree_datum):
        u = divfree_datum(lat2, seed=8)
        traj = heat_trajectory(u, [0.1, 0.2])
        npt.assert_array_equal(traj.value_at(0.01), traj.fields[0].data)

    def test_value_at_rejects_beyond_horizon(self, lat2, divfree_datum):
        traj = heat_trajectory(divfree_datum(lat2, seed=9), [0.1, 0.2])
        with pytest.raises(MeshError, match="horizon"):
            traj.value_at(0.5)

    @pytest.mark.parametrize("interp_power", [-0.25, 0.0])
    @pytest.mark.parametrize("as_type", [np.float64, float], ids=["float64", "float"])
    def test_value_at_bits_match_the_reference(self, lat2, divfree_datum, interp_power,
                                               as_type):
        mesh = quadratic_mesh(0.5, 6)
        traj = heat_trajectory(divfree_datum(lat2, seed=12), mesh)
        interior = np.linspace(mesh[0], mesh[-1], 23)[1:-1]
        frozen = [0.0, 0.5 * mesh[0], mesh[0]]
        exact = [mesh[2], mesh[3] * (1 + 5e-15), mesh[4] * (1 - 5e-15)]
        last = [mesh[-1], mesh[-1] * (1 + 5e-13)]
        for tau in [*interior, *frozen, *exact, *last]:
            got = traj.value_at(as_type(tau), interp_power)
            want = reference_value_at(traj.times, traj.data, as_type(tau), interp_power)
            npt.assert_array_equal(got, want)
        # the table is built once per power and serves every later call
        assert list(traj._phi) == [interp_power]

    def test_value_at_shares_no_memory_between_nodes(self, lat2, divfree_datum):
        traj = heat_trajectory(divfree_datum(lat2, seed=13), [0.1, 0.2, 0.4])
        first, second = traj.value_at(0.15, -0.25), traj.value_at(0.15, -0.25)
        assert first is not second
        assert not np.shares_memory(first, traj.data)
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("tau", [np.nan, -1.0, -np.inf, np.inf, np.float64(np.nan)])
    def test_value_at_refuses_nonfinite_or_negative_tau(self, lat2, divfree_datum, tau):
        traj = heat_trajectory(divfree_datum(lat2, seed=14), [0.1, 0.2])
        with pytest.raises(MeshError, match=r"tau=-?(nan|inf|1\.0) is not a finite"):
            traj.value_at(tau, -0.25)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_node_index_refuses_nonfinite_t(self, lat2, divfree_datum, t):
        traj = heat_trajectory(divfree_datum(lat2, seed=15), [0.1, 0.2])
        with pytest.raises(MeshError, match="not a node"):
            traj.node_index(t)

    def test_mesh_is_a_read_only_copy(self, lat2, divfree_datum):
        """A caller's mesh array is copied, so writing into it later moves
        neither the mesh nor the interpolation table."""
        u = divfree_datum(lat2, seed=16)
        mesh = np.array([0.1, 0.2, 0.4])
        traj = heat_trajectory(u, mesh)
        before = traj.value_at(0.15, -0.25)
        mesh[1] = 0.3
        npt.assert_array_equal(traj.times, [0.1, 0.2, 0.4])
        npt.assert_array_equal(traj.value_at(0.15, -0.25), before)
        assert not traj.times.flags.writeable
        with pytest.raises(ValueError):
            traj.times[0] = 0.05

    def test_arithmetic(self, lat2, divfree_datum):
        """Subtraction is the one trajectory operation: node by node, on the
        shared mesh."""
        traj = heat_trajectory(divfree_datum(lat2, seed=10), [0.1, 0.2])
        other = heat_trajectory(divfree_datum(lat2, seed=12), [0.1, 0.2])
        diff = traj - other
        npt.assert_array_equal(diff.times, traj.times)
        npt.assert_array_equal(diff.data, traj.data - other.data)
        assert not (traj - traj).data.any()
        with pytest.raises(TypeError):
            2.0 * traj

    def test_arithmetic_mesh_mismatch(self, lat2, divfree_datum):
        u = divfree_datum(lat2, seed=11)
        a = heat_trajectory(u, [0.1, 0.2])
        b = heat_trajectory(u, [0.1, 0.3])
        with pytest.raises(DataError, match="one lattice and mesh"):
            a - b


class TestMeshes:
    def test_quadratic_mesh(self):
        mesh = quadratic_mesh(2.0, 4)
        npt.assert_allclose(mesh, 2.0 * (np.arange(1, 5) / 4.0) ** 2)
        with pytest.raises(MeshError):
            quadratic_mesh(-1.0, 4)
        with pytest.raises(MeshError):
            quadratic_mesh(1.0, 1)

    def test_dyadic_grid_anchored_at_top(self):
        grid = dyadic_grid(1.0, 0.01, per_octave=4)
        assert grid[-1] == 1.0
        ratios = grid[1:] / grid[:-1]
        npt.assert_allclose(ratios, 2.0**0.25, rtol=1e-12)
        assert grid[0] >= 0.01 * (1 - 1e-12)

    def test_dyadic_grids_correspond_under_scaling(self):
        # grids for T and T/4 match element-wise after the lambda^2 shift
        a = dyadic_grid(1.0, 0.01)
        b = dyadic_grid(0.25, 0.0025)
        npt.assert_allclose(a[: b.size] if a.size > b.size else a, 4.0 * b[-a.size :], rtol=1e-12)

    def test_dyadic_grid_validation(self):
        with pytest.raises(ConfigError):
            dyadic_grid(0.1, 0.2)
        # the least normal float is the lowest t_min
        grid = dyadic_grid(1.0, np.finfo(float).tiny)
        assert np.isfinite(grid).all() and grid[0] >= np.finfo(float).tiny
        assert grid.size == 4 * 1022 + 1

    @pytest.mark.parametrize("t_max, t_min", [(np.inf, 0.1), (1.0, np.nan), (np.nan, 0.1),
                                              (np.inf, np.inf), (1.0, 5e-324), (1.0, 1.5e-323)])
    def test_dyadic_grid_refuses_non_finite_bounds(self, t_max, t_min):
        # an infinite t_max would descend from inf forever, and so would
        # every t a few subnormal units above zero, where t / 2**(1/4)
        # rounds back to t
        with pytest.raises(ConfigError, match="t_min < t_max < inf"):
            dyadic_grid(t_max, t_min)

    @pytest.mark.parametrize("per_octave", [0, -2, 0.5, 1e-9, 4.0, True, np.nan])
    def test_dyadic_grid_refuses_a_non_integer_per_octave(self, per_octave):
        with pytest.raises(ConfigError, match="points per octave"):
            dyadic_grid(1.0, 0.1, per_octave)
        assert dyadic_grid(1.0, 0.1, np.int64(1)).size == 4


class TestTimeWeightedNorms:
    def test_kato_requires_ordered_exponents(self, lat2, divfree_datum):
        traj = heat_trajectory(divfree_datum(lat2, seed=12), [0.01, 0.02])
        with pytest.raises(ConfigError, match="q_tilde >= q"):
            kato_norm(traj, 4.0, 2.0)

    def test_kato_single_mode_closed_form(self):
        lat = make_lattice(2, 32, 4.0 * np.pi)
        amp = 1.3
        u = realize_datum(
            DatumSpec(kind="single_mode", mode=(1, 2), amplitude=amp, divergence_free=True),
            lat,
        )
        ksq = (2.0 * np.pi / lat.box_len) ** 2 * 5.0
        times = quadratic_mesh(1.0, 12)
        report = kato_norm(heat_trajectory(u, times), 2.0, 4.0)
        c4 = lebesgue_norm(u, 4.0)
        expected = max(t**0.25 * np.exp(-ksq * t) * c4 for t in times)
        npt.assert_allclose(report.value, expected, rtol=1e-12)

    def test_n_norm_peaks_early_for_heat_flow(self, lat2, divfree_datum):
        traj = heat_trajectory(divfree_datum(lat2, seed=13), [0.01, 0.05, 0.1])
        report = n_norm(traj, 0.0, 2.0)
        assert report.argmax_t == 0.01
        npt.assert_allclose(report.value, lebesgue_norm(traj.fields[0], 2.0))

    @pytest.mark.parametrize("s", [0.0, -1.0 / 3.0, 0.5])
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_n_norm_is_the_per_node_sobolev_norm(self, s, p, divfree_datum, field_inits):
        """n_norm reduces the rows of traj.data, through |k|^s one batch of
        nodes at a time when s != 0, to the bits of the Lebesgue norm of
        each node's field under fractional_laplacian, a dead component
        included, and constructs no Field."""
        lat = make_lattice(2, 32, 2.0 * np.pi)
        for u0 in (realize_datum(DatumSpec(kind="gaussian", width=0.1), lat),
                   divfree_datum(lat, seed=17)):
            traj = heat_trajectory(u0, quadratic_mesh(1.0, 12))
            want = [lebesgue_norm(fractional_laplacian(f, s), p) for f in traj.fields]
            field_inits.clear()
            report = n_norm(traj, s, p)
            assert field_inits == []
            assert np.array_equal(report.values, want)

    def test_window_flag_tracks_horizon(self, lat2, divfree_datum):
        u = divfree_datum(lat2, seed=14)
        inside = heat_trajectory(u, [0.1, 0.3])
        outside = heat_trajectory(u, [0.1, lat2.box_len**2])
        assert kato_norm(inside, 2.0, 4.0).window_ok
        assert not kato_norm(outside, 2.0, 4.0).window_ok
        assert not n_norm(outside, 0.0, 2.0).window_ok


class TestBatches:
    """Batched reductions and flows give each node and each time the bits
    of a batch of one, whatever the cap (lattice.BATCH_BYTES) makes of the
    batches."""

    @staticmethod
    def flow(d, n, seed=23, nodes=16):
        lat = make_lattice(d, n, 2.0 * np.pi)
        u0 = realize_datum(DatumSpec(kind="random_band", seed=seed, k_min=1.0, k_max=5.0,
                                     divergence_free=True), lat)
        return u0, heat_trajectory(u0, quadratic_mesh(0.25, nodes))

    @pytest.mark.parametrize("r", [2.0, 3.0, 4.0, np.inf])
    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
    def test_rows_of_a_batch_are_the_rows_of_one(self, d, n, r):
        _, traj = self.flow(d, n)
        cell = traj.lattice.cell_volume
        batched = _lebesgue_rows(traj.data, r, cell)
        alone = [_lebesgue_rows(node[None], r, cell)[0] for node in traj.data]
        assert batched.shape == (len(traj),)
        assert np.array_equal(batched, alone)
        assert np.array_equal(alone, [lebesgue_norm(f, r) for f in traj.fields])

    @staticmethod
    def sups(u0, traj, s):
        grid = window_grid(u0.lattice)
        out = [heat_trajectory(u0, traj.times).data]
        for r in (2.0, 3.0, 4.0, np.inf):
            out += [heat_sup(u0, grid, 0.25, r).values, kato_norm(traj, 2.0, r).values,
                    n_norm(traj, s, r).values,
                    weighted_lebesgue(traj, -0.125, r, nodes=5, s=s)]
        return out

    @pytest.mark.parametrize("s", [0.0, -0.5, 0.25])
    @pytest.mark.parametrize("d, n", [(2, 32), (3, 16)])
    def test_split_batches_give_the_bits_of_one(self, d, n, s, monkeypatch):
        """With a cap that holds every sup here in one batch, and with one
        of a little over two nodes, which splits each into several, every
        value has the same bits."""
        u0, traj = self.flow(d, n)
        node_bytes = traj.data[0].nbytes
        monkeypatch.setattr(lattice, "BATCH_BYTES", 2**30)
        whole = self.sups(u0, traj, s)
        calls = []
        inverse = Lattice.inverse

        def counted(lat, c, out=None):
            calls.append(len(c))
            return inverse(lat, c, out=out)

        monkeypatch.setattr(lattice, "BATCH_BYTES", 2 * node_bytes + node_bytes // 2)
        monkeypatch.setattr(Lattice, "inverse", counted)
        split = self.sups(u0, traj, s)
        assert max(calls) == 2  # every sup was split
        for got, want in zip(split, whole):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("r", [2.0, 3.0, np.inf])
    def test_zero_byte_items_are_one_batch(self, lat2, r):
        """An item of 0 bytes, such as a field with no live row, counts as
        1 byte: the zero field's norm is one batch of no rows, exactly 0."""
        assert batches(3, 0) == [slice(0, 3)]
        assert lebesgue_norm(VectorField(lat2, np.zeros((2, 16, 16)), PHYSICAL), r) == 0.0

    def test_weight_is_one_scalar_power_per_node(self):
        """weighted_lebesgue is t**weight * norm node by node, bit for bit:
        the scalar power, not numpy's vectorised one, which differs in the
        last bit for some exponents."""
        _, traj = self.flow(2, 32)
        for weight in (-0.125, 0.25, 1.0 / 3.0, 0.7):
            got = weighted_lebesgue(traj, weight, 4.0)
            want = [t**weight * lebesgue_norm(f, 4.0) for t, f in zip(traj.times, traj.fields)]
            assert np.array_equal(got, want)


class TestHeldFlowBuffers:
    """The full-grid flow batches run in two buffers that each thread
    holds across calls (lattice.held), under lattice.BATCH_BYTES; nothing
    returned shares memory with them."""

    @staticmethod
    def corpus_datum(seed=5):
        """A datum the size of a calibration corpus datum: d = 2, n = 32,
        box 4 pi, both rows live."""
        lat = make_lattice(2, 32, 4.0 * np.pi)
        return realize_datum(DatumSpec(kind="random_band", seed=seed, k_min=1.0, k_max=4.0,
                                       divergence_free=True), lat)

    @staticmethod
    def held():
        return [buffer for (name, _), buffer in lattice._held.flat.items() if name == "flows"]

    def test_trajectories_share_no_memory(self):
        first_datum, second_datum = self.corpus_datum(5), self.corpus_datum(6)
        first = heat_trajectory(first_datum, quadratic_mesh(1.0, 16))
        kept = first.data.copy()
        second = heat_trajectory(second_datum, quadratic_mesh(0.5, 16))
        assert len(self.held()) == 2
        assert not np.shares_memory(first.data, second.data)
        for buffer in self.held():
            assert not np.shares_memory(first.data, buffer)
            assert not np.shares_memory(second.data, buffer)
        assert np.array_equal(first.data, kept)
        assert np.array_equal(second.data, heat_trajectory(second_datum, second.times).data)

    def test_flows_past_the_cap_are_not_held(self):
        """A 512^2 flow passes the cap alone, so it is built per use: after
        a corpus-size sup and a 512^2 one a new thread holds what the
        first left, at most 2 BATCH_BYTES."""
        fine = realize_datum(DatumSpec(kind="power_law", decay=1.0, r_inner=0.25, r_outer=2.0),
                             make_lattice(2, 512, 8.0))
        small = self.corpus_datum()
        held = []

        def work():
            heat_sup(small, window_grid(small.lattice, 1.0), 0.5, 4.0)
            held.append(sum(buffer.nbytes for buffer in self.held()))
            heat_sup(fine, window_grid(fine.lattice), 0.25, 3.0)
            held.append(sum(buffer.nbytes for buffer in self.held()))

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert 0 < held[0] == held[1] <= 2 * lattice.BATCH_BYTES

    @pytest.mark.parametrize("horizon", [1.0, None], ids=["kato-window", "besov"])
    def test_warm_heat_sup_allocates_less_than_one_batch(self, horizon):
        """A warm corpus-size sup at q = 4, the two smallness sups of a
        calibration: its traced peak is below the bytes of one batch's
        flowed coefficients and samples, which a sup that allocates its
        batches makes twice over."""
        u0 = self.corpus_datum()
        lat = u0.lattice
        grid = window_grid(lat, horizon)
        want = heat_sup(u0, grid, 0.5, 4.0).values
        count = max(span.stop - span.start
                    for span in batches(len(grid), 2 * math.prod(lat.half_shape) * 16))
        batch_bytes = count * 2 * (math.prod(lat.half_shape) * 16 + math.prod(lat.spatial_shape) * 8)
        tracemalloc.start()
        try:
            got = heat_sup(u0, grid, 0.5, 4.0).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak < batch_bytes


class TestVanishing:
    def test_needs_early_nodes(self, lat2, divfree_datum):
        traj = heat_trajectory(divfree_datum(lat2, seed=15), [0.5, 1.0])
        with pytest.raises(MeshError, match="below horizon/100"):
            vanishing_at_zero(traj, 0.25)

    def test_heat_flow_vanishes_in_the_kato_weight(self, lat2, divfree_datum):
        u = divfree_datum(lat2, seed=16)
        traj = heat_trajectory(u, quadratic_mesh(1.0, 64))
        report = vanishing_at_zero(traj, 0.25, r=4.0)
        assert report.vanishing
        assert report.values[0] < report.values[-1]

    def test_same_bits_as_the_per_node_loop(self, field_inits):
        """weighted_lebesgue, and the vanishing check through it, reduce the
        rows of traj.data, a dead row included, to the bits of lebesgue_norm
        on each node's field, and construct no Field."""
        lat = make_lattice(2, 32, 2.0 * np.pi)
        u0 = realize_datum(DatumSpec(kind="gaussian", width=0.1), lat)
        traj = heat_trajectory(u0, quadratic_mesh(1.0, 64))
        assert not traj.data[:, 1].any()  # the second component is dead
        explicit = {r: np.array([t**0.25 * lebesgue_norm(f, r)
                                 for t, f in zip(traj.times, traj.fields)])
                    for r in (2.0, 3.0, 4.0, 6.0, np.inf)}
        field_inits.clear()
        for r, want in explicit.items():
            assert np.array_equal(weighted_lebesgue(traj, 0.25, r), want)
            assert np.array_equal(weighted_lebesgue(traj, 0.25, r, nodes=5), want[:5])
            assert np.array_equal(vanishing_at_zero(traj, 0.25, r=r).values, want[:5])
        assert field_inits == []


class TestDecayFit:
    def test_exact_power_law(self):
        t = np.geomspace(0.1, 10.0, 20)
        fit = decay_exponent_fit(t, 3.0 * t**-0.75, window=(0.1, 10.0))
        npt.assert_allclose(fit.slope, -0.75, rtol=1e-12)
        assert fit.residual < 1e-12

    def test_needs_enough_samples(self):
        t = np.geomspace(0.1, 10.0, 20)
        with pytest.raises(ConfigError, match="at least 8"):
            decay_exponent_fit(t, t, window=(5.0, 6.0))

    def test_rejects_nonpositive_values(self):
        t = np.linspace(1.0, 2.0, 10)
        with pytest.raises(DataError, match="positive"):
            decay_exponent_fit(t, np.zeros(10), window=(1.0, 2.0))

    def test_is_the_loglog_fit_of_the_window(self):
        t = np.geomspace(0.1, 10.0, 30)
        wavy = t**-0.5 * np.exp(np.sin(3 * np.log(t)))
        fit = decay_exponent_fit(t, wavy, window=(1.0, 10.0))
        inside = t >= 1.0
        assert (fit.slope, fit.residual) == _loglog_fit(t[inside], wavy[inside])


def homes(predicate) -> list:
    """(module, function) of each AST node of the mildns sources that
    predicate accepts, function the innermost def around it (None at module
    level), in file order."""
    found = []
    for path in sorted(Path(mildns.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [node for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if predicate(node):
                around = [f for f in defs if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.stem, max(around, key=lambda f: f.lineno).name
                              if around else None))
    return found


def text(phrase: str):
    return lambda node: (isinstance(node, ast.Constant) and isinstance(node.value, str)
                         and phrase in node.value)


def named(name: str):
    return lambda node: (isinstance(node, ast.Attribute) and node.attr == name
                         or isinstance(node, ast.Name) and node.id == name)


class TestOneRoute:
    """Each quantity and each refusal below is written once in the package."""

    def test_one_log_log_fit(self):
        assert homes(named("polyfit")) == [("multipliers", "_loglog_fit")]

    def test_one_critical_book_refusal(self):
        assert homes(text("requires the critical book")) == [("norms", "require_critical")]

    def test_one_window_refusal(self):
        assert homes(text("exceeds the lattice validity window")) == [("lattice", "check_cap")]

    def test_the_ladder_and_the_besov_form_read_their_norms(self):
        assert ("picard", "regularity_ladder") not in homes(named("argmax"))
        # the Besov form reads besov_norm_heat: picard builds no Besov grid,
        # the call of window_grid without a horizon
        besov_grids = homes(lambda node: isinstance(node, ast.Call) and len(node.args) == 1
                            and named("window_grid")(node.func))
        assert not [home for home in besov_grids if home[0] == "picard"]

    def test_one_window_grid(self):
        """window_grid builds both heat grids and owns the floor refusal, and
        _in_window holds the one window slack (1e-9 is also a Picard
        tolerance, outside norms)."""
        assert homes(text("leaves no dyadic sample")) == [("norms", "window_grid")]
        assert [home for home in homes(named("dyadic_grid")) if home[0] != "lab"] == [
            ("norms", "window_grid")]
        slack = [home for home in homes(lambda node: isinstance(node, ast.Constant)
                                        and node.value == 1e-9) if home[0] == "norms"]
        assert slack == [("norms", "_in_window")] * 2


class TestEmbedding:
    def make_corpus(self, lat, count=6):
        return [
            realize_datum(
                DatumSpec(kind="random_band", seed=100 + i, k_min=1.0, k_max=5.0),
                lat,
            )
            for i in range(count)
        ]

    def test_scaling_line_enforced(self, lat2):
        corpus = self.make_corpus(lat2, 2)
        with pytest.raises(ConfigError, match="scaling line"):
            sobolev_embedding_check(corpus, 0.5, 2.0, 0.0, 3.0)
        with pytest.raises(ConfigError, match="s1 > s2"):
            sobolev_embedding_check(corpus, 0.0, 4.0, 0.5, 2.0)

    def test_measured_constant_is_finite_and_positive(self, lat2):
        # H^{1/2} into L^4 along the d = 2 scaling line
        corpus = self.make_corpus(lat2)
        report = sobolev_embedding_check(corpus, 0.5, 2.0, 0.0, 4.0)
        assert report.ratios.shape == (6,)
        assert np.all(report.ratios > 0)
        assert np.isfinite(report.max_ratio)
        npt.assert_allclose(report.max_ratio, report.ratios.max())
        # the stacked corpus gives each field the bits of sobolev_norm
        assert np.array_equal(report.upper_norms, [sobolev_norm(f, 0.5, 2.0) for f in corpus])
        assert np.array_equal(report.lower_norms, [sobolev_norm(f, 0.0, 4.0) for f in corpus])

    def test_corpus_on_two_lattices_rejected(self, lat2):
        corpus = self.make_corpus(lat2, 2) + self.make_corpus(make_lattice(2, 32, lat2.box_len), 1)
        with pytest.raises(DataError, match="one lattice"):
            sobolev_embedding_check(corpus, 0.5, 2.0, 0.0, 4.0)

    def test_zero_field_rejected(self, lat2):
        zero = VectorField(lat2, np.zeros((2, 16, 16)), PHYSICAL)
        with pytest.raises(DataError, match="zero source norm"):
            sobolev_embedding_check([zero], 0.5, 2.0, 0.0, 4.0)
