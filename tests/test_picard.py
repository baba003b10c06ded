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
from dataclasses import replace

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
    QuadratureSpec,
    ScalarField,
    SmallnessError,
    VectorField,
    WindowError,
    abstract_fixed_point,
    bilinear_estimate_report,
    bilinear_trajectory,
    build_exponent_book,
    calibrate_thresholds,
    fluctuation_analysis,
    heat_flow,
    heat_trajectory,
    kato_norm,
    lebesgue_norm,
    load_calibration,
    load_field,
    make_lattice,
    quadratic_mesh,
    realize_datum,
    regularity_ladder,
    save_solution,
    smallness_lhs,
    solve_mild,
)
from mildns.lattice import PHYSICAL
from mildns.norms import besov_grid, heat_sup
from mildns.picard import (
    SMALLNESS_BESOV,
    SMALLNESS_CRITICAL,
    SMALLNESS_KATO,
    _heat_window_grid,
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

    def test_needs_vector_datum(self, lat2, rng):
        f = ScalarField(lat2, rng.standard_normal((16, 16)), PHYSICAL)
        with pytest.raises(DataError, match="VectorField"):
            smallness_lhs(f, 0.5, build_exponent_book(2, 2.0, 0.0, 4.0))

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
            grid = _heat_window_grid(u0, 1.0)
            variant, key = SMALLNESS_KATO, "sup_value"
        else:
            grid = besov_grid(lat)
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
        assert "values" not in report.to_dict()

    def test_bilinear_weighted_values_match_the_explicit_loop(self, divfree_datum):
        lat = make_lattice(2, 16, 4.0 * np.pi)
        book = build_exponent_book(2, 2.0, 0.0, 4.0)
        mesh = quadratic_mesh(1.0, 6)
        u = heat_trajectory(divfree_datum(lat, seed=9), mesh)
        v = heat_trajectory(divfree_datum(lat, seed=10), mesh)
        quad = fast_quad(book)
        report = bilinear_estimate_report(u, v, book, quad=quad, refine=False)
        b = bilinear_trajectory(u, v, quad)
        explicit = np.array(
            [
                t ** (book.alpha / 2.0) * lebesgue_norm(f, book.q_tilde)
                for t, f in zip(b.times, b.fields)
            ]
        )
        npt.assert_array_equal(report.weighted_values, explicit)
        assert report.output_norm == explicit.max()


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

    def test_fluctuation_requires_critical_book(self, tg_solution):
        tg, sol = tg_solution
        off_line = replace(sol, book=replace(sol.book, s=0.25))
        with pytest.raises(ConfigError, match="critical"):
            fluctuation_analysis(off_line, tg, [4.0])

    def test_fluctuation_exponent_floor(self, tg_solution):
        tg, sol = tg_solution
        with pytest.raises(ConfigError, match="exceed max"):
            fluctuation_analysis(sol, tg, [1.0])

    def test_taylor_green_fluctuation_vanishes(self, tg_solution):
        """For Taylor-Green data the bilinear term is zero, so the solution
        IS the heat flow and every fluctuation norm is round-off."""
        tg, sol = tg_solution
        report = fluctuation_analysis(sol, tg, [2.0, 4.0])
        assert report.smoothness == [0.0, -0.5]
        assert max(report.sups) < 1e-12
