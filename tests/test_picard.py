"""Fixed-point engine, smallness conditions, calibration, and the solver.

The scalar quadratic map is the oracle for the iteration core: with
B(a, b) = a b and y = 1/4 the fixed point of x = y - x^2 is
(sqrt(2) - 1) / 2, and with the sign flipped at y = 1 the quadratic
x^2 - x + 1 has negative discriminant, so the iteration must blow
through the divergence guard rather than settle.

Calibration constants on the default corpus are frozen: they were
measured once and the whole pipeline is deterministic, so any drift
means the corpus, the estimator, or the quadrature changed.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from mildns import (
    CalibrationError,
    ConfigError,
    CorpusSpec,
    DataError,
    DatumSpec,
    DivergenceError,
    NonConvergenceError,
    NumericalError,
    QuadratureSpec,
    SmallnessError,
    Trajectory,
    VectorField,
    WindowError,
    abstract_fixed_point,
    bilinear_estimate_report,
    bilinear_trajectory,
    build_exponent_book,
    calibrate_thresholds,
    divergence_defect,
    fluctuation_analysis,
    heat_flow,
    heat_trajectory,
    kato_norm,
    lebesgue_norm,
    load_calibration,
    load_field,
    make_lattice,
    n_norm,
    quadratic_mesh,
    realize_datum,
    regularity_ladder,
    save_solution,
    smallness_lhs,
    sobolev_norm,
    solve_mild,
)
from mildns import picard
from mildns.lattice import PHYSICAL, Lattice
from mildns.norms import heat_sup, window_grid
from mildns.picard import (
    SMALLNESS_BESOV,
    SMALLNESS_CRITICAL,
    SMALLNESS_KATO,
)

ROOT = (np.sqrt(2.0) - 1.0) / 2.0


def quadratic(a, b):
    return a * b


class TestAbstractFixedPoint:
    def test_parameter_validation(self):
        with pytest.raises(ConfigError, match="eta"):
            abstract_fixed_point(0.25, quadratic, 0.0)
        with pytest.raises(ConfigError, match="tolerance"):
            abstract_fixed_point(0.25, quadratic, 1.0, tol=0.0)
        with pytest.raises(ConfigError, match="max_iter"):
            abstract_fixed_point(0.25, quadratic, 1.0, max_iter=0)

    def test_quadratic_root(self):
        x, trace = abstract_fixed_point(0.25, quadratic, 1.0, tol=1e-13)
        assert abs(x - ROOT) < 1e-12
        assert trace.iterations <= 50
        assert trace.converged
        assert trace.residual <= trace.threshold

    def test_residual_is_the_fixed_point_defect(self):
        """The reported residual is the defect of the returned iterate,
        not of the next one."""
        x, trace = abstract_fixed_point(0.25, quadratic, 1.0, tol=1e-13)
        assert abs((0.25 - x * x) - x) == trace.residual

    def test_zero_data_converges_immediately(self):
        x, trace = abstract_fixed_point(0.0, quadratic, 1.0)
        assert x == 0.0
        assert trace.iterations == 1
        assert trace.residual == 0.0

    def test_negative_discriminant_blows_the_guard(self):
        # x = 1 + x^2 has no real fixed point; iterates 1, 2, 5, 26, ...
        with pytest.raises(DivergenceError) as exc_info:
            abstract_fixed_point(1.0, lambda a, b: -a * b, 1.0, tol=1e-13)
        trace = exc_info.value.trace
        assert trace.iterations <= 20
        assert not trace.converged
        assert trace.norms[-1] > 10.0

    def test_guard_checks_the_start_iterate(self):
        # guard is 10/eta = 0.1 while ||y|| = 1, so not a single Picard
        # step may run
        with pytest.raises(DivergenceError) as exc_info:
            abstract_fixed_point(1.0, quadratic, 100.0)
        assert exc_info.value.trace.iterations == 0

    def test_non_convergence_carries_partial_trace(self):
        with pytest.raises(NonConvergenceError) as exc_info:
            abstract_fixed_point(0.25, quadratic, 1.0, tol=1e-16, max_iter=3)
        trace = exc_info.value.trace
        assert trace.iterations == 3
        assert len(trace.diffs) == 3
        assert not trace.converged

    def test_a_failure_outside_a_fixed_point_run_carries_no_trace(self):
        assert NumericalError("x").trace is None

    def test_two_start_uniqueness(self):
        """x0 = 0 runs the same orbit one step behind x0 = y, so both
        starts land on the identical fixed point."""
        tol = 1e-13
        x_heat, _ = abstract_fixed_point(0.25, quadratic, 1.0, tol=tol)
        x_zero, _ = abstract_fixed_point(0.25, quadratic, 1.0, tol=tol, x0=0.0)
        assert abs(x_heat - x_zero) <= 10 * tol

    def test_contraction_ratios_within_theory(self):
        y, eta = 0.1, 1.0
        x, trace = abstract_fixed_point(y, quadratic, eta, tol=1e-13)
        assert trace.ratios
        assert max(trace.ratios) <= 4.0 * eta * y + 0.05


class TestSmallness:
    def test_unknown_variant(self, lat2, divfree_datum):
        u = divfree_datum(lat2, seed=1)
        with pytest.raises(ConfigError, match="unknown smallness variant"):
            smallness_lhs(u, 0.5, build_exponent_book(2, 2.0, 0.0, 4.0), "tiny")

    def test_needs_vector_datum(self, rng):
        with pytest.raises(DataError, match="VectorField"):
            smallness_lhs(rng.standard_normal((2, 16, 16)), 0.5, build_exponent_book(2, 2.0, 0.0, 4.0))

    def test_horizon_must_fit_the_window(self, divfree_datum):
        lat = make_lattice(2, 16, 2.0 * np.pi)  # window is 0.3948
        u = divfree_datum(lat, seed=2)
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        with pytest.raises(WindowError, match="validity window"):
            smallness_lhs(u, 1.0, book)

    @pytest.mark.parametrize("variant", [SMALLNESS_KATO, SMALLNESS_BESOV])
    def test_homogeneity_degree_one(self, variant, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        one = smallness_lhs(divfree_datum(lat, seed=3), 1.0, book, variant)
        three = smallness_lhs(divfree_datum(lat, seed=3, amplitude=3.0), 1.0, book, variant)
        npt.assert_allclose(three.lhs, 3.0 * one.lhs, rtol=1e-12)

    def test_critical_variant_needs_critical_book(self, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        sub = build_exponent_book(2, 2.0, 0.25, 8.0)
        with pytest.raises(ConfigError, match="critical"):
            smallness_lhs(divfree_datum(lat, seed=4), 1.0, sub, SMALLNESS_CRITICAL)

    def test_critical_matches_windowed_form_at_criticality(self, divfree_datum):
        # the horizon prefactor is T^0 = 1 on a critical book, so the two
        # left-hand sides coincide
        lat = make_lattice(2, 16, 4.0 * np.pi)
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        u = divfree_datum(lat, seed=5)
        a = smallness_lhs(u, 1.0, book, SMALLNESS_KATO)
        b = smallness_lhs(u, 1.0, book, SMALLNESS_CRITICAL)
        assert a.lhs == b.lhs

    def test_uncalibrated_book_gives_no_verdict(self, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        report = smallness_lhs(divfree_datum(lat, seed=6), 1.0, book)
        assert report.threshold is None
        assert report.satisfied is None

    def test_calibrated_verdicts(self, book2, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        small = smallness_lhs(divfree_datum(lat, seed=7, amplitude=0.1), 1.0, book2)
        assert small.satisfied is True
        big = smallness_lhs(divfree_datum(lat, seed=7, amplitude=500.0), 1.0, book2)
        assert big.satisfied is False


class TestSharedSupPrimitives:
    """The shared heat sup and weighted values reproduce the explicit
    per-node loops they replaced, bit for bit."""

    @pytest.mark.parametrize("grid_name", ["window", "besov"])
    def test_heat_sup_matches_the_explicit_loop(self, grid_name, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        u0 = divfree_datum(lat, seed=8)
        if grid_name == "window":
            grid = window_grid(lat, 1.0)
            variant, key = SMALLNESS_KATO, "sup_value"
        else:
            grid = window_grid(lat)
            variant, key = SMALLNESS_BESOV, "besov_value"
        w = book.alpha / 2.0
        explicit = np.array(
            [t**w * lebesgue_norm(heat_flow(u0, float(t)), book.q_tilde) for t in grid]
        )
        report = heat_sup(u0, grid, w, book.q_tilde)
        npt.assert_array_equal(report.values, explicit)
        assert report.value == explicit.max()
        assert report.argmax_t == grid[int(np.argmax(explicit))]
        assert smallness_lhs(u0, 1.0, book, variant).detail[key] == explicit.max()

    def test_bilinear_ratio_matches_the_explicit_loop(self, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        mesh = quadratic_mesh(1.0, 6)
        u = heat_trajectory(divfree_datum(lat, seed=9), mesh)
        v = heat_trajectory(divfree_datum(lat, seed=10), mesh)
        quad = fast_quad(book)
        report = bilinear_estimate_report(u, v, book, quad=quad)
        b = bilinear_trajectory(u, v, quad)
        explicit = np.array(
            [
                t ** (book.alpha / 2.0) * lebesgue_norm(f, book.q_tilde)
                for t, f in zip(b.times, b.fields)
            ]
        )
        scale = (u.horizon**book.horizon_exponent * kato_norm(u, book.q, book.q_tilde).value
                 * kato_norm(v, book.q, book.q_tilde).value)
        assert report.ratio == explicit.max() / scale


class TestCalibration:
    def test_frozen_default_constants(self, book2):
        """Measured once on the seeded default corpus; the pipeline is
        deterministic so these are exact up to libm round-off."""
        npt.assert_allclose(book2.c_hat, 0.10112210300082865, rtol=1e-12)
        npt.assert_allclose(book2.delta, 2.4722587108176675, rtol=1e-12)
        npt.assert_allclose(book2.sigma, 2.512219363921953, rtol=1e-12)
        npt.assert_allclose(book2.equiv_constant, 1.0161636211167677, rtol=1e-12)
        npt.assert_allclose(book2.delta, 1.0 / (4.0 * book2.c_hat), rtol=1e-15)
        npt.assert_allclose(book2.sigma, book2.delta * book2.equiv_constant, rtol=1e-15)

    def test_depends_on_the_book_only_through_d_q_q_tilde(self, calibration_file, tmp_path):
        """Three books of d = 2, q = 2, q_tilde = 4 (critical, s > 0 with
        p < d, s < 0 with p > d) calibrate to bit-identical constants on the
        default corpus, and their files differ only in book and digest:
        the estimates reach the book through the embedding into L^q."""
        files = {(2, 2.0, 0.0, 4.0): Path(calibration_file)}
        books = {key: build_exponent_book(*key) for key in
                 [(2, 2.0, 0.0, 4.0), (2, 1.5, 1.0 / 3.0, 4.0), (2, 4.0, -0.5, 4.0)]}
        assert {(b.q, b.q_tilde) for b in books.values()} == {(2.0, 4.0)}
        for key in list(books)[1:]:
            files[key] = tmp_path / f"{key}.json"
            calibrate_thresholds(books[key], path=files[key])
        calibrated = [load_calibration(books[key], str(files[key])) for key in books]
        payloads = [json.loads(files[key].read_text()) for key in books]
        constants = ("c_hat", "delta", "sigma", "equiv_constant")
        for cal, payload in zip(calibrated[1:], payloads[1:]):
            for name in constants:
                assert getattr(cal, name) == getattr(calibrated[0], name)
            assert {k for k in payload if payload[k] != payloads[0][k]} == {"book", "digest"}

    def test_byte_identical_recalibration(self, tmp_path):
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        corpus = CorpusSpec(d=2, n=16)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cal1 = calibrate_thresholds(book, corpus, path=a)
        cal2 = calibrate_thresholds(book, corpus, path=b)
        assert a.read_bytes() == b.read_bytes()
        assert cal1.calibration_digest == cal2.calibration_digest

    def test_pair_floor(self):
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        with pytest.raises(CalibrationError, match="at least 20"):
            calibrate_thresholds(book, CorpusSpec(d=2, pairs=10))

    def test_dimension_mismatch(self):
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        with pytest.raises(CalibrationError, match="dimension"):
            calibrate_thresholds(book, CorpusSpec(d=3, n=8))

    def test_load_round_trip(self, tmp_path):
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        path = tmp_path / "cal.json"
        saved = calibrate_thresholds(book, CorpusSpec(d=2, n=16), path=path)
        loaded = load_calibration(build_exponent_book(2, 2.0, 0.0, 4.0), str(path))
        assert loaded.c_hat == saved.c_hat
        assert loaded.delta == saved.delta
        assert loaded.sigma == saved.sigma
        assert loaded.calibration_digest == saved.calibration_digest

    def test_load_rejects_wrong_book(self, tmp_path):
        path = tmp_path / "cal.json"
        calibrate_thresholds(build_exponent_book(2, 2.0, 0.0, 4.0), CorpusSpec(d=2, n=16), path=path)
        other = build_exponent_book(2, 2.0, 0.25, 8.0)
        with pytest.raises(CalibrationError, match="for book"):
            load_calibration(other, str(path))

    def test_load_rejects_tampered_file(self, tmp_path):
        path = tmp_path / "cal.json"
        calibrate_thresholds(build_exponent_book(2, 2.0, 0.0, 4.0), CorpusSpec(d=2, n=16), path=path)
        payload = json.loads(path.read_text())
        payload["c_hat"] = payload["c_hat"] * 1.01
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError, match="digest"):
            load_calibration(build_exponent_book(2, 2.0, 0.0, 4.0), str(path))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CalibrationError, match="unreadable"):
            load_calibration(build_exponent_book(2, 2.0, 0.0, 4.0), str(tmp_path / "no.json"))


def fast_quad(book):
    return QuadratureSpec(node_count=8, gamma=book.gamma_kato, theta=book.alpha)


@pytest.fixture(scope="module")
def tg_solution(book2):
    """Converged Taylor-Green solve: harmonic 2 on the 4 pi box makes the
    field sin(x) cos(y) with exact decay rate 2."""
    lat = make_lattice(2, 32, 4.0 * np.pi)
    tg = realize_datum(DatumSpec(kind="taylor_green", mode=(2,)), lat)
    return tg, solve_mild(tg, 1.0, book2, mesh_nodes=8, quad=fast_quad(book2))


@pytest.fixture(scope="module")
def small_random_solution(book2):
    lat = make_lattice(2, 16, 4.0 * np.pi)
    u0 = realize_datum(
        DatumSpec(
            kind="random_band", seed=21, k_min=1.0, k_max=3.0,
            amplitude=0.2, divergence_free=True,
        ),
        lat,
    )
    return u0, solve_mild(u0, 1.0, book2, mesh_nodes=8, quad=fast_quad(book2))


class TestSolveMild:
    def test_requires_calibration(self, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        with pytest.raises(CalibrationError, match="calibrate_thresholds"):
            solve_mild(divfree_datum(lat, seed=1), 1.0, book)

    def test_rejects_compressible_datum(self, book2):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        # an unprojected gaussian bump is curl-free, the worst case
        u0 = realize_datum(DatumSpec(kind="gaussian", width=0.5), lat)
        with pytest.raises(DataError, match="divergence-free"):
            solve_mild(u0, 1.0, book2)

    def test_rejects_datum_with_mean(self, book2):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        data = np.zeros((2, 16, 16))
        data[0] = 0.3  # constant drift: divergence-free but not mean-free
        with pytest.raises(DataError, match="mean-free"):
            solve_mild(VectorField(lat, data, PHYSICAL), 1.0, book2)

    def test_smallness_refusal_names_the_override(self, book2, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        big = divfree_datum(lat, seed=21, amplitude=400.0)
        with pytest.raises(SmallnessError, match="override_smallness"):
            solve_mild(big, 1.0, book2)

    def test_overridden_large_datum_trips_the_guard(self, book2, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        big = divfree_datum(lat, seed=21, amplitude=400.0)
        with pytest.raises(DivergenceError) as exc_info:
            solve_mild(big, 1.0, book2, mesh_nodes=8, quad=fast_quad(book2),
                       override_smallness=True)
        assert exc_info.value.trace.iterations <= 20

    def test_invalid_start(self, book2, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        with pytest.raises(ConfigError, match="start"):
            solve_mild(divfree_datum(lat, seed=1, amplitude=0.1), 1.0, book2,
                       start="random")

    def test_mesh_floor(self, book2, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        with pytest.raises(ConfigError, match="at least 4"):
            solve_mild(divfree_datum(lat, seed=1, amplitude=0.1), 1.0, book2,
                       mesh_nodes=2)

    def test_taylor_green_reproduces_the_closed_form(self, tg_solution):
        tg, sol = tg_solution
        assert sol.trace.converged
        assert sol.smallness.satisfied is True  # no override needed
        for t, f in zip(sol.trajectory.times, sol.trajectory.fields):
            exact = np.exp(-2.0 * t) * tg.data
            rel = np.linalg.norm(f.data - exact) / np.linalg.norm(exact)
            assert rel < 1e-10

    def test_solution_record_flags(self, tg_solution):
        _, sol = tg_solution
        assert sol.ball_ok
        assert sol.early_ok
        assert sol.divergence_defects.max() < 1e-10
        assert sol.trace.residual <= sol.trace.threshold
        assert sol.eta == sol.book.c_hat  # critical book: T^0 = 1

    def test_contraction_ratios_small_data(self, small_random_solution):
        _, sol = small_random_solution
        bound = 4.0 * sol.eta * sol.trace.norms[0] + 0.05
        assert all(r <= bound for r in sol.trace.ratios)

    def test_two_start_uniqueness(self, book2, small_random_solution):
        u0, heat_started = small_random_solution
        zero_started = solve_mild(u0, 1.0, book2, mesh_nodes=8,
                                  quad=fast_quad(book2), start="zero")
        gap = kato_norm(
            heat_started.trajectory - zero_started.trajectory,
            book2.q, book2.q_tilde,
        ).value
        assert gap <= 10.0 * 1e-9

    def test_solve_reads_no_trajectory_fields(self, book2, monkeypatch):
        """The Sobolev sup, the early-time values and the per-node divergence
        defects of a solve are reductions of trajectory rows: the solve
        completes with Trajectory.fields unusable, and each equals its
        per-field formula bit for bit."""
        book = build_exponent_book(2, 3.0, -1.0 / 3.0, 4.0).with_calibration(
            book2.c_hat, book2.delta, book2.sigma, book2.equiv_constant, None)
        lat = make_lattice(2, 16, 4.0 * np.pi)
        u0 = realize_datum(DatumSpec(kind="random_band", seed=22, k_min=1.0, k_max=3.0,
                                     amplitude=0.2, divergence_free=True), lat)

        def refuse(self):
            raise AssertionError("Trajectory.fields read during the solve")

        with monkeypatch.context() as patch:
            patch.setattr(Trajectory, "fields", property(refuse))
            sol = solve_mild(u0, 1.0, book, mesh_nodes=8, quad=fast_quad(book),
                             override_smallness=True)
        traj = sol.trajectory
        fluctuation = traj - heat_trajectory(u0, traj.times)
        sobolev = [sobolev_norm(f, book.s, book.p) for f in traj.fields]
        assert sol.trace.converged and sol.trace.aux_norms[-1] == max(sobolev)
        assert np.array_equal(sol.early_values,
                              [sobolev_norm(f, book.s, book.p) for f in fluctuation.fields[:5]])
        assert np.array_equal(sol.divergence_defects, [divergence_defect(f) for f in traj.fields])

    def test_defects_take_one_transform_per_batch(self, book2, monkeypatch):
        """At the benchmark's solve size (d = 2, n = 32, 16 mesh and 16
        quadrature nodes) multipliers transforms twice: the datum's
        divergence check and the defects of every node, one batch."""
        lat = make_lattice(2, 32, 4.0 * np.pi)
        tg = realize_datum(DatumSpec(kind="taylor_green", mode=(2,)), lat)
        calls = []
        rforward = Lattice.rforward

        def counted(lattice, a, out=None):
            calls.append(sys._getframe(1).f_globals["__name__"])
            return rforward(lattice, a, out)

        monkeypatch.setattr(Lattice, "rforward", counted)
        sol = solve_mild(tg, 1.0, book2, mesh_nodes=16,
                         quad=QuadratureSpec(node_count=16, gamma=book2.gamma_kato,
                                             theta=book2.alpha))
        assert calls.count("mildns.multipliers") == 2
        assert sol.divergence_defects.shape == (16,)

    def test_zero_datum_converges_at_once(self, book2):
        """An all-zero datum passes the datum checks (its divergence defect
        and its mean are 0) and is its own solution after one iteration."""
        lat = make_lattice(2, 16, 4.0 * np.pi)
        zero = VectorField(lat, np.zeros((2, 16, 16)), PHYSICAL)
        sol = solve_mild(zero, 1.0, book2, mesh_nodes=8, quad=fast_quad(book2))
        assert sol.trace.converged and sol.trace.iterations == 1
        assert not sol.trajectory.data.any()
        assert not sol.divergence_defects.any() and not sol.early_values.any()

    def test_save_solution(self, tmp_path, tg_solution):
        _, sol = tg_solution
        out = tmp_path / "solution"
        save_solution(sol, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["trace"]["converged"] is True
        assert manifest["book"]["d"] == 2
        assert len(manifest["times"]) == len(sol.trajectory)
        node0 = load_field(out / "node_0000.field")
        npt.assert_array_equal(node0.data, sol.trajectory.fields[0].data)


class TestPostSolveAnalyses:
    def test_ladder_exponent_floor(self, tg_solution):
        _, sol = tg_solution
        with pytest.raises(ConfigError, match="exceed max"):
            regularity_ladder(sol, [2.0, 4.0])

    def test_ladder_structure(self, tg_solution):
        _, sol = tg_solution
        report = regularity_ladder(sol, [3.0, 4.0, 6.0])
        assert report.r_values == [3.0, 4.0, 6.0]
        assert all(np.isfinite(v) and v > 0 for v in report.sups)
        assert all(report.early_ok)
        # weight (d/2)(1/q - 1/r) at d = 2, q = 2
        npt.assert_allclose(report.weights, [1.0 / 2 - 1.0 / 3, 0.25, 1.0 / 2 - 1.0 / 6])

    def test_ladder_reduces_the_trajectory_rows(self, small_random_solution, field_inits):
        """Every ladder row has the bits of the per-node lebesgue_norm loop,
        and the ladder constructs no Field."""
        _, sol = small_random_solution
        traj = sol.trajectory
        r_list = [3.0, 4.0, 6.0]
        weights = [(sol.book.d / 2.0) * (1.0 / sol.book.q - 1.0 / r) for r in r_list]
        explicit = [np.array([t**w * lebesgue_norm(f, r) for t, f in zip(traj.times, traj.fields)])
                    for w, r in zip(weights, r_list)]
        field_inits.clear()
        report = regularity_ladder(sol, r_list)
        assert field_inits == []
        assert report.weights == weights
        assert report.sups == [float(values.max()) for values in explicit]
        assert report.early_ok == [bool(v.argmax() > 0 or v.max() == 0) for v in explicit]

    def test_ladder_rows_are_kato_norms(self, small_random_solution):
        """Each ladder sup is kato_norm(trajectory, q, r) bit for bit, and
        each weight is that norm's alpha / 2."""
        _, sol = small_random_solution
        r_list = [3.0, 4.0, 6.0]
        report = regularity_ladder(sol, r_list)
        katos = [kato_norm(sol.trajectory, sol.book.q, r) for r in r_list]
        assert report.sups == [k.value for k in katos]
        assert report.early_ok == [k.argmax_t > sol.trajectory.times[0] or k.value == 0
                                   for k in katos]
        assert report.weights == [sol.book.d * (1.0 / sol.book.q - 1.0 / r) / 2.0
                                  for r in r_list]

    def test_fluctuation_requires_critical_book(self, tg_solution):
        tg, sol = tg_solution
        off_line = replace(sol, book=replace(sol.book, s=0.25))
        with pytest.raises(ConfigError, match="critical"):
            fluctuation_analysis(off_line, [4.0])

    def test_fluctuation_exponent_floor(self, tg_solution):
        tg, sol = tg_solution
        with pytest.raises(ConfigError, match="exceed max"):
            fluctuation_analysis(sol, [1.0])

    def test_taylor_green_fluctuation_vanishes(self, tg_solution):
        """For Taylor-Green data the bilinear term is zero, so the solution
        IS the heat flow and every fluctuation norm is round-off."""
        tg, sol = tg_solution
        report = fluctuation_analysis(sol, [2.0, 4.0])
        assert report.smoothness == [0.0, -0.5]
        assert max(report.sups) < 1e-12

    def test_fluctuation_is_measured_from_the_solved_datum(self, small_random_solution):
        """The solution holds the u0 it was solved from, by reference and
        outside its manifest; each fluctuation sup is the n_norm of the
        solution less the heat flow of that datum, bit for bit."""
        u0, sol = small_random_solution
        assert sol.datum is u0
        assert "datum" not in sol.manifest() and "fluctuation" not in sol.manifest()
        traj = sol.trajectory
        fluctuation = traj - heat_trajectory(u0, traj.times)
        assert np.array_equal(sol.fluctuation.data, fluctuation.data)
        report = fluctuation_analysis(sol, [2.0, 4.0])
        assert report.sups == [n_norm(fluctuation, sol.book.d / p - 1.0, p).value
                               for p in (2.0, 4.0)]

    def test_a_solve_and_its_fluctuation_flow_the_datum_once(self, book2, monkeypatch):
        """solve_mild forms w = u - e^{t Lap} u0 from its one heat flow of
        u0; fluctuation_analysis reads it and flows nothing."""
        lat = make_lattice(2, 16, 4.0 * np.pi)
        u0 = realize_datum(DatumSpec(kind="random_band", seed=23, k_min=1.0, k_max=3.0,
                                     amplitude=0.2, divergence_free=True), lat)
        flows = []
        flow = picard.heat_trajectory

        def counted(datum, times):
            flows.append(datum)
            return flow(datum, times)

        monkeypatch.setattr(picard, "heat_trajectory", counted)
        sol = solve_mild(u0, 1.0, book2, mesh_nodes=8, quad=fast_quad(book2))
        fluctuation_analysis(sol, [2.0, 4.0])
        assert flows == [u0]
