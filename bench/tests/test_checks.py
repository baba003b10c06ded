"""Every correctness check of the benchmark passes on real outputs and
rejects a perturbed one, so no check passes vacuously.

    python3 -m pytest bench/tests -q
"""
import math

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed
from mildns import lattice, norms, picard


@pytest.fixture(scope="module")
def solved(book):
    lat = lattice.make_lattice(2, workloads.N, workloads.BOX)
    u0 = workloads.small_datum(lat, book, 7)
    return u0, workloads.solve(u0, book)


def fields(solution):
    return [f.data for f in solution.trajectory.fields]


def test_converged(solved):
    trace = solved[1].trace
    checks.check_converged(trace.converged, trace.ratios, trace.residual, trace.threshold)
    with pytest.raises(CheckFailed):
        checks.check_converged(False, trace.ratios, trace.residual, trace.threshold)
    with pytest.raises(CheckFailed):
        checks.check_converged(True, trace.ratios + [1.0], trace.residual, trace.threshold)
    with pytest.raises(CheckFailed):
        checks.check_converged(True, trace.ratios, 2 * trace.threshold, trace.threshold)


def test_divergence_free(solved):
    data = fields(solved[1])
    checks.check_divergence_free(data, workloads.BOX)
    x, y = checks.grid(workloads.N, workloads.BOX, 2)
    gradient = np.stack([np.cos(x) * np.sin(y), np.sin(x) * np.cos(y)])  # grad(sin x sin y)
    bent = [f + 1e-6 * np.max(np.abs(f)) * gradient for f in data]
    with pytest.raises(CheckFailed):
        checks.check_divergence_free(bent, workloads.BOX)


def test_scaled_smallness(solved, book):
    lhs = solved[1].smallness.lhs
    checks.check_scaled_smallness(lhs, book.delta)
    with pytest.raises(CheckFailed):
        checks.check_scaled_smallness(lhs * 1.01, book.delta)


def test_taylor_green(book):
    lat = lattice.make_lattice(2, workloads.N, workloads.BOX)
    data, rate = checks.taylor_green(workloads.N, workloads.BOX, 1.0)
    u0 = workloads._scaled(lat, data, workloads.HORIZON, book)
    solution = workloads.solve(u0, book)
    times = solution.trajectory.times
    checks.check_taylor_green(times, fields(solution), u0.data, rate)
    with pytest.raises(CheckFailed):
        checks.check_taylor_green(times, [f * (1 + 1e-8) for f in fields(solution)],
                                  u0.data, rate)
    with pytest.raises(CheckFailed):  # the wrong decay rate
        checks.check_taylor_green(times, fields(solution), u0.data, rate * (1 + 1e-6))


def test_same_fixed_point(solved, book):
    u0, heat_start = solved
    zero_start = workloads.solve(u0, book, start="zero")
    checks.check_same_fixed_point(fields(zero_start), fields(heat_start))
    with pytest.raises(CheckFailed):
        checks.check_same_fixed_point([f * (1 + 1e-6) for f in fields(zero_start)],
                                      fields(heat_start))


@pytest.fixture(scope="module")
def b_runs(book):
    """B of the oracle pair at the picard mesh and at the doubled mesh."""
    return workloads.b_oracle_runs(workloads.N, workloads.BOX, workloads.HORIZON, book,
                                   workloads.MESH, workloads.QUAD)


def test_b_oracle(b_runs):
    coarse, fine = b_runs
    err_coarse, err_fine = checks.check_b_oracle(coarse, fine, workloads.N, workloads.BOX)
    assert err_coarse < 5e-3 and 3.0 < err_coarse / err_fine < 5.5

    def scaled(run, factor):
        return run[0], [f * factor for f in run[1]]

    with pytest.raises(CheckFailed):  # B scaled by 1 + 1e-3
        checks.check_b_oracle(scaled(coarse, 1 + 1e-3), scaled(fine, 1 + 1e-3),
                              workloads.N, workloads.BOX)
    with pytest.raises(CheckFailed):  # a wrong sign
        checks.check_b_oracle(scaled(coarse, -1.0), scaled(fine, -1.0),
                              workloads.N, workloads.BOX)
    with pytest.raises(CheckFailed):  # no convergence under mesh doubling
        checks.check_b_oracle(coarse, coarse, workloads.N, workloads.BOX)


def test_thresholds_and_digest(book):
    args = (book.c_hat, book.delta, book.sigma, book.equiv_constant)
    checks.check_thresholds(*args)
    with pytest.raises(CheckFailed):  # delta != 1/(4 c_hat)
        checks.check_thresholds(book.c_hat, book.delta * (1 + 1e-9), book.sigma,
                                book.equiv_constant)
    with pytest.raises(CheckFailed):  # sigma != delta * equiv_constant
        checks.check_thresholds(book.c_hat, book.delta, book.sigma * (1 + 1e-9),
                                book.equiv_constant)

    corpus = picard.CorpusSpec(d=2).to_dict()
    digest = checks.calibration_digest(book.key, *args, corpus)
    checks.check_digest(book.calibration_digest, digest)
    moved = checks.calibration_digest(book.key, book.c_hat * (1 + 1e-15), *args[1:], corpus)
    with pytest.raises(CheckFailed):
        checks.check_digest(book.calibration_digest, moved)


def test_worst_ratio_and_stability():
    ratios = [0.031, 0.047, 0.0505, 0.044]
    checks.check_worst_ratio(2 * max(ratios), ratios)
    with pytest.raises(CheckFailed):
        checks.check_worst_ratio(2 * max(ratios) * (1 + 1e-9), ratios)
    checks.check_ratio_stability(0.0505, 0.0506)
    with pytest.raises(CheckFailed):
        checks.check_ratio_stability(0.0505, 0.0505 * 1.6)


def power_law(lat, r_inner):
    spec = lattice.DatumSpec(kind="power_law", decay=1.0, r_inner=r_inner, r_outer=2.0)
    return lattice.realize_datum(spec, lat)


def test_power_law_l2():
    n, box = 256, 8.0
    lat = lattice.make_lattice(2, n, box)
    value = norms.lebesgue_norm(power_law(lat, 0.5), 2)
    checks.check_power_law_l2(value, 0.5, 2.0, n, box)
    with pytest.raises(CheckFailed):  # an L2 norm off by 1%
        checks.check_power_law_l2(value * 1.01, 0.5, 2.0, n, box)


def test_l2_tolerance_shrinks_with_n():
    errors = {}
    for n in (128, 256, 512):
        lat = lattice.make_lattice(2, n, 8.0)
        errors[n] = max(abs(norms.lebesgue_norm(power_law(lat, r), 2)
                            / checks.power_law_l2(r, 2.0) - 1.0) for r in (0.5, 0.25, 0.125))
        assert errors[n] <= checks.l2_tolerance(n, 8.0, 0.125)
    assert errors[512] < errors[256] < errors[128]
    assert checks.l2_tolerance(512, 8.0, 0.1) == checks.l2_tolerance(256, 8.0, 0.1) / 2


def test_dichotomy():
    lat = lattice.make_lattice(2, 256, 8.0)
    levels = [0.5, 0.25, 0.125, 0.0625]
    l2, besov = [], []
    for r in levels:
        u = power_law(lat, r)
        l2.append(norms.lebesgue_norm(u, 2))
        besov.append(norms.besov_norm_heat(u, -0.5, 4.0).value)
    checks.check_dichotomy(levels, l2, besov)
    with pytest.raises(CheckFailed):  # Lebesgue norm not growing
        checks.check_dichotomy(levels, l2[:2] + [l2[1], l2[3]], besov)
    with pytest.raises(CheckFailed):  # Lebesgue growth stalls
        checks.check_dichotomy(levels, l2[:3] + [l2[2] + 0.1 * (l2[2] - l2[1])], besov)
    with pytest.raises(CheckFailed):  # Besov value does not saturate
        checks.check_dichotomy(levels, l2, besov[:3] + [besov[2] * 1.2])


def test_single_mode_besov():
    n, box, mode = 128, 8.0, (1, 2)
    lat = lattice.make_lattice(2, n, box)
    data = np.zeros((2, n, n))
    data[0] = checks.single_mode_flow(n, box, mode, (1.0,), 0.0)[0]
    value = norms.besov_norm_heat(lattice.VectorField(lat, data, lattice.PHYSICAL),
                                  -0.5, 4.0).value
    ksq = (2 * math.pi / box) ** 2 * 5
    expected = checks.single_mode_besov(-0.5, ksq, checks.cos_lq_norm(1.0, box, 2, 4.0))
    checks.check_single_mode_besov(value, expected)
    with pytest.raises(CheckFailed):
        checks.check_single_mode_besov(value * 1.03, expected)
