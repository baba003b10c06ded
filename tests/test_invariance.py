"""Scaling and lattice-symmetry oracle for the whole Picard solve.

The Navier-Stokes scaling u_lam(x, t) = lam u(lam x, lam^2 t) maps
solutions to solutions, and in a critical book (s = d/p - 1) it leaves
every norm of the construction unchanged. With lam = 2 the rescaled
problem lives on the box L/2 up to the horizon T/4, its samples are twice
the original ones, and every lattice wavenumber, mesh time, quadrature
node and heat factor moves by an exact power of two. Only the tau^(-theta/2)
interpolation coordinate rounds differently, so the solve must give the
same iteration count and ball test, and 2 u to round-off. In a
subcritical book (s > d/p - 1) the fields still map to 2 u, but every
Kato norm of the rescaled solve is 2^(2h) times the original one, with
h = horizon_exponent = (1 + s - d/p) / 2. The stopping rule
||x_n - x_{n+1}|| <= tol max(1, ||y||) scales with the norms only when
||y|| > 1 on both sides, which these data meet.

A swap of two axes together with the matching velocity components, and a
reflection x_i -> -x_i together with u_i -> -u_i, are symmetries of the
equations and of the periodic lattice, so they too map the computed
solution to the solution of the mapped datum. The reflection of the last
axis also reverses the half spectrum that the inverse transform reads
(k_{d-1} -> -k_{d-1} swaps that half with the conjugate one it skips), so
it checks that reading only that half keeps the symmetry.

Successive differences are differences of nearly equal iterates, so their
agreement is measured against the iterate norm, not against themselves:
each difference may move by 1e-14 of the largest iterate norm, and each
contraction ratio by what those moves allow. (The last differences of a
solve are about 1e-9 of the iterate norm, so their ratios agree to about
1e-8 of themselves; that is round-off, not a fault.)
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from mildns import (
    DatumSpec,
    QuadratureSpec,
    VectorField,
    build_exponent_book,
    calibrate_thresholds,
    kato_norm,
    lebesgue_norm,
    make_lattice,
    realize_datum,
    regularity_ladder,
    smallness_lhs,
    solve_mild,
)
from mildns.lattice import PHYSICAL
from mildns.picard import CorpusSpec

RTOL = 1e-14


def calibrated(d, p, s, q_tilde, n):
    book = build_exponent_book(d=d, p=p, s=s, q_tilde=q_tilde)
    return calibrate_thresholds(book, CorpusSpec(d=d, n=n, mesh_nodes=4, quad_nodes=8))


def small_datum(lat, book, horizon):
    """A divergence-free band datum at half the Kato-window threshold."""
    spec = DatumSpec(kind="random_band", seed=3, k_min=1, k_max=3, divergence_free=True)
    u0 = realize_datum(spec, lat)
    lhs = smallness_lhs(u0, horizon, book).lhs
    return VectorField(lat, u0.data * (0.5 * book.delta / lhs), PHYSICAL)


def solve(u0, horizon, book, mesh_nodes, quad_nodes):
    quad = QuadratureSpec(quad_nodes, book.gamma_kato, book.alpha)
    return solve_mild(u0, horizon, book, mesh_nodes=mesh_nodes, quad=quad)


def assert_same_solve(mapped, reference, image, factor=1.0):
    """mapped solves the mapped datum; image maps reference's fields, and
    factor its Kato norms and successive differences."""
    a, b = reference.trace, mapped.trace
    assert b.iterations == a.iterations
    assert mapped.ball_ok == reference.ball_ok
    for got, field in zip(mapped.trajectory.fields, reference.trajectory.fields):
        want = image(field.data)
        assert np.abs(got.data - want).max() <= RTOL * np.abs(want).max()
    norms_a, norms_b = factor * np.array(a.norms), np.array(b.norms)
    scale = norms_a.max()
    assert np.all(np.abs(norms_b - norms_a) <= RTOL * scale)
    diffs_a, diffs_b = factor * np.array(a.diffs), np.array(b.diffs)
    assert np.all(np.abs(diffs_b - diffs_a) <= RTOL * scale)
    # r_k = diff_k / diff_{k-1}: a move of RTOL * scale in each difference
    # moves r_k by at most this share of itself
    ratio_tol = 2 * RTOL * scale * (1 / diffs_a[1:] + 1 / diffs_a[:-1])
    ratios_a, ratios_b = np.array(a.ratios), np.array(b.ratios)
    assert np.all(np.abs(ratios_b - ratios_a) <= ratio_tol * ratios_a)


def swap01(data):
    """Swap axes 0 and 1 and velocity components 0 and 1."""
    order = [1, 0] + list(range(2, data.shape[0]))
    return np.swapaxes(data[order], 1, 2)


def reflect(data, axis):
    """x_axis -> -x_axis on the periodic grid, with u_axis -> -u_axis."""
    out = np.roll(np.flip(data, axis=1 + axis), 1, axis=1 + axis)
    out[axis] *= -1.0
    return out


def reflect0(data):
    return reflect(data, 0)


def reflect_last(data):
    """The reflection of the last spatial axis, the one the inverse
    transform halves."""
    return reflect(data, data.shape[0] - 1)


CRITICAL_BOOKS = [(2, 2.0, 0.0, 4.0), (2, 1.5, 1.0 / 3.0, 6.0)]
SUBCRITICAL_BOOKS = [(2, 2.0, 0.25, 4.0), (2, 3.0, 0.0, 6.0)]


@lru_cache(maxsize=None)
def d2_reference(d, p, s, q_tilde):
    """The calibrated book, the datum and its solve on T = 0.25, L = 2 pi."""
    book = calibrated(d, p, s, q_tilde, n=16)
    lat = make_lattice(2, 16, 2.0 * np.pi)
    u0 = small_datum(lat, book, 0.25)
    return book, u0, solve(u0, 0.25, book, mesh_nodes=8, quad_nodes=16)


@pytest.fixture(scope="module", params=CRITICAL_BOOKS, ids=["p2-s0", "p1.5-s1/3"])
def d2_solve(request):
    d, p, s, q_tilde = request.param
    assert math.isclose(s, d / p - 1)
    return d2_reference(*request.param)


@pytest.mark.parametrize("key", CRITICAL_BOOKS + SUBCRITICAL_BOOKS,
                         ids=["p2-s0", "p1.5-s1/3", "p2-s1/4", "p3-s0"])
def test_dyadic_rescaling(key):
    book, u0, reference = d2_reference(*key)
    half = make_lattice(2, 16, np.pi)
    mapped = solve(VectorField(half, 2.0 * u0.data, PHYSICAL), 0.0625, book, 8, 16)
    np.testing.assert_array_equal(4.0 * mapped.trajectory.times, reference.trajectory.times)
    factor = 2.0 ** (2.0 * book.horizon_exponent)
    assert (factor == 1.0) == book.is_critical
    if not book.is_critical:
        assert min(reference.trace.norms[0], mapped.trace.norms[0]) > 1.0
    assert_same_solve(mapped, reference, lambda data: 2.0 * data, factor)


@pytest.mark.parametrize("symmetry", [swap01, reflect0, reflect_last],
                         ids=["swap", "reflect", "reflect-last"])
def test_lattice_symmetry(d2_solve, symmetry):
    book, u0, reference = d2_solve
    mapped = solve(VectorField(u0.lattice, symmetry(u0.data), PHYSICAL), 0.25, book, 8, 16)
    assert_same_solve(mapped, reference, symmetry)


@pytest.fixture(scope="module")
def d3_solve():
    book = calibrated(3, 3.0, 0.0, 6.0, n=16)
    lat = make_lattice(3, 16, 2.0 * np.pi)
    u0 = small_datum(lat, book, 0.25)
    return book, u0, solve(u0, 0.25, book, mesh_nodes=4, quad_nodes=8)


def test_axis_swap_in_three_dimensions(d3_solve):
    book, u0, reference = d3_solve
    mapped = solve(VectorField(u0.lattice, swap01(u0.data), PHYSICAL), 0.25, book, 4, 8)
    assert_same_solve(mapped, reference, swap01)


def test_ladder_in_three_dimensions_is_the_kato_norm(d3_solve):
    """At d = 3 the ladder weight (d/2)(1/q - 1/r) and kato_norm's
    d (1/q - 1/r) / 2 are the same float, so each ladder row has the bits
    of kato_norm and of the per-node lebesgue_norm loop."""
    book, _, reference = d3_solve
    traj = reference.trajectory
    r_list = [4.0, 5.0, 8.0]
    report = regularity_ladder(reference, r_list)
    for r, weight, sup in zip(r_list, report.weights, report.sups):
        explicit = [t**weight * lebesgue_norm(f, r) for t, f in zip(traj.times, traj.fields)]
        assert sup == kato_norm(traj, book.q, r).value == max(explicit)


@pytest.mark.parametrize("symmetry", [reflect0, reflect_last], ids=["x0", "last"])
def test_reflection_in_three_dimensions(d3_solve, symmetry):
    book, u0, reference = d3_solve
    mapped = solve(VectorField(u0.lattice, symmetry(u0.data), PHYSICAL), 0.25, book, 4, 8)
    assert_same_solve(mapped, reference, symmetry)
