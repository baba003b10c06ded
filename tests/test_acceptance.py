"""Acceptance gate: twelve checks, one printed verdict line each.

Covers the Taylor-Green solver oracle, the singular-integral identity,
kernel tail decay, Gaussian heat decay, the single-mode Besov closed
form, the scalar contraction demo, bilinear-ratio stability, the
smallness/divergence dichotomy, structural invariants, critical scaling,
the power-law norm dichotomy, and post-solve table stability.

Every check prints

    ACCEPTANCE nn name: PASS|FAIL [measured values; tolerance; runtime]

through capsys.disabled() so the scorecard shows up on a plain pytest
run. Runtime budgets are part of each verdict.
"""

import math
import time

import numpy as np
import pytest

from mildns import (
    DatumSpec,
    DivergenceError,
    QuadratureSpec,
    bilinear_B,
    divergence_defect,
    heat_flow,
    heat_trajectory,
    kato_norm,
    lebesgue_norm,
    leray_project,
    make_lattice,
    VectorField,
    quadratic_mesh,
    realize_datum,
    run,
    smallness_lhs,
    solve_mild,
    to_spectral,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture
def verdict(capsys):
    def _verdict(num, name, ok, detail):
        line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _verdict


def test_01_taylor_green_oracle(calibration_file, verdict):
    t0 = time.perf_counter()
    table = run({"experiment": "solve", "calibration_path": calibration_file})
    dt = time.perf_counter() - t0
    s = table.summary
    err = s["closed_form_max_rel_err"]
    ok = s["converged"] and err < 1e-10 and dt < 10.0
    verdict(
        1,
        "taylor-green-oracle",
        ok,
        f"n=64, 32 nodes, max rel L2 err {err:.2e} < 1e-10; {dt:.1f}s < 10s",
    )


def test_02_singular_integral_identity(verdict):
    t0 = time.perf_counter()
    table = run({"experiment": "beta-integral"})
    dt = time.perf_counter() - t0
    err = table.summary["max_rel_err"]
    points = table.summary["grid_points"]
    ok = points == 100 and err < 1e-8 and dt < 1.0
    verdict(
        2,
        "singular-integral-identity",
        ok,
        f"{points} exponent pairs, max rel err {err:.2e} < 1e-8; {dt:.2f}s < 1s",
    )


def test_03_kernel_tail_decay(verdict):
    t0 = time.perf_counter()
    table = run({"experiment": "kernel-decay"})
    dt = time.perf_counter() - t0
    ratio_col = table.columns.index("bound_ratio")
    ratios_finite = all(np.isfinite(row[ratio_col]) for row in table.rows)
    slope_err = max(v["slope_rel_err"] for v in table.summary.values())
    selfsim = max(v["selfsim_rel_err"] for v in table.summary.values())
    ok = ratios_finite and slope_err < 0.05 and selfsim < 1e-8 and dt < 30.0
    verdict(
        3,
        "kernel-tail-decay",
        ok,
        f"s in {{-0.5, 0, 0.4}}: slope rel err {slope_err:.3f} < 0.05, "
        f"self-similarity {selfsim:.2e} < 1e-8, bound ratios finite; {dt:.1f}s < 30s",
    )


def test_04_gaussian_heat_decay(verdict):
    t0 = time.perf_counter()
    table = run({"experiment": "heat-decay"})
    dt = time.perf_counter() - t0
    s = table.summary
    ok = (
        s["expected_slope"] == -0.75
        and s["max_closed_form_rel_err"] < 1e-6
        and s["slope_rel_err"] < 0.03
        and dt < 30.0
    )
    verdict(
        4,
        "gaussian-heat-decay",
        ok,
        f"closed form rel err {s['max_closed_form_rel_err']:.2e} < 1e-6, "
        f"slope {s['fitted_slope']:.4f} vs -0.75 (rel err {s['slope_rel_err']:.4f} < 0.03); "
        f"{dt:.1f}s < 30s",
    )


def test_05_single_mode_besov(verdict):
    t0 = time.perf_counter()
    table = run({"experiment": "besov-equiv"})
    dt = time.perf_counter() - t0
    s = table.summary
    ok = s["rel_err"] < 0.02 and s["argmax_invariant"] is True and dt < 10.0
    verdict(
        5,
        "single-mode-besov",
        ok,
        f"closed form rel err {s['rel_err']:.2e} < 0.02, "
        f"argmax t {s['argmax_t']:.4g} invariant under rescaling: {s['argmax_invariant']}; "
        f"{dt:.1f}s < 10s",
    )


def test_06_scalar_fixed_point(verdict):
    t0 = time.perf_counter()
    table = run({"experiment": "fixed-point-demo"})
    dt = time.perf_counter() - t0
    s = table.summary
    iters = table.rows[0][table.columns.index("iterations")]
    ok = (
        s["root_error"] < 1e-12
        and iters <= 50
        and s["divergence_detected"] is True
        and s["discriminant"] < 0
        and dt < 1.0
    )
    verdict(
        6,
        "scalar-fixed-point",
        ok,
        f"root err {s['root_error']:.2e} < 1e-12 in {iters} <= 50 iterations, "
        f"divergence reported at discriminant {s['discriminant']:g}; {dt:.2f}s < 1s",
    )


def test_07_bilinear_ratio_stability(verdict):
    t0 = time.perf_counter()
    table = run({"experiment": "bilinear"})
    dt = time.perf_counter() - t0
    s = table.summary
    finite = np.isfinite(s["max_ratio_kato"]) and np.isfinite(s["max_ratio_sobolev"])
    spreads = (
        s["horizon_spread_kato"],
        s["horizon_spread_sobolev"],
        s["mesh_doubling_spread"],
    )
    ok = finite and all(x < 1.5 for x in spreads) and dt < 300.0
    verdict(
        7,
        "bilinear-ratio-stability",
        ok,
        f"50 pairs: max ratio {s['max_ratio_kato']:.3f} finite, horizon spread "
        f"{spreads[0]:.3f}/{spreads[1]:.3f} < 1.5, mesh-doubling spread "
        f"{spreads[2]:.3f} < 1.5; {dt:.0f}s < 300s",
    )


def test_08_smallness_dichotomy(book2, verdict):
    t0 = time.perf_counter()
    lat = make_lattice(2, 32, TWO_PI)
    raw = realize_datum(
        DatumSpec(kind="random_band", seed=101, k_min=1.0, k_max=4.0, divergence_free=True),
        lat,
    )
    horizon = 0.25
    quad = QuadratureSpec(16, book2.gamma_kato, book2.alpha)
    lhs = smallness_lhs(raw, horizon, book2).lhs
    u_small = VectorField(lat, (0.5 * book2.delta / lhs) * raw.data)

    sol = solve_mild(u_small, horizon, book2, mesh_nodes=16, quad=quad, tol=1e-9)
    max_ratio = max(sol.trace.ratios) if sol.trace.ratios else 0.0

    guard_iters = None
    try:
        solve_mild(
            VectorField(lat, 100.0 * u_small.data),
            horizon,
            book2,
            mesh_nodes=16,
            quad=quad,
            tol=1e-9,
            override_smallness=True,
        )
    except DivergenceError as exc:
        guard_iters = exc.trace.iterations
    dt = time.perf_counter() - t0
    ok = (
        sol.trace.converged
        and sol.smallness.satisfied is True
        and max_ratio < 1.0
        and guard_iters is not None
        and guard_iters <= 20
        and dt < 120.0
    )
    verdict(
        8,
        "smallness-dichotomy",
        ok,
        f"lhs = delta/2 converges in {sol.trace.iterations} iterations, "
        f"max contraction ratio {max_ratio:.3f} < 1; x100 datum trips the guard "
        f"after {guard_iters} <= 20 iterations; {dt:.0f}s < 120s",
    )


def test_09_invariant_suite(book2, verdict):
    t0 = time.perf_counter()
    cases = 100
    lat = make_lattice(2, 16, TWO_PI)
    rng = np.random.default_rng(909)
    mesh = quadratic_mesh(0.25, 8)
    quad = QuadratureSpec(8, book2.gamma_kato, book2.alpha)
    t_last = float(mesh[-1])

    def band(seed, divfree=False, k_max=5.0):
        return realize_datum(
            DatumSpec(
                kind="random_band",
                seed=seed,
                k_min=1.0,
                k_max=k_max,
                divergence_free=divfree,
            ),
            lat,
        )

    limits = {
        "leray-divfree": 1e-10,
        "leray-idempotent": 1e-12,
        "semigroup": 1e-12,
        "parseval": 1e-12,
        "homogeneity": 1e-12,
        "bilinearity": 1e-11,
        "two-start": 10.0 * 1e-9,
    }
    worst = dict.fromkeys(limits, 0.0)

    for i in range(cases):
        u = band(3000 + 3 * i)
        v = band(3001 + 3 * i)
        w = band(3002 + 3 * i)

        pu = leray_project(u)
        scale = lebesgue_norm(pu, 2)
        worst["leray-divfree"] = max(worst["leray-divfree"], divergence_defect(pu))
        worst["leray-idempotent"] = max(
            worst["leray-idempotent"],
            lebesgue_norm(VectorField(lat, leray_project(pu).data - pu.data), 2) / scale,
        )

        t_a, t_b = rng.uniform(0.01, 0.5, size=2)
        direct = heat_flow(u, float(t_a + t_b))
        composed = heat_flow(heat_flow(u, float(t_a)), float(t_b))
        worst["semigroup"] = max(
            worst["semigroup"],
            lebesgue_norm(VectorField(lat, composed.data - direct.data), 2)
            / lebesgue_norm(direct, 2),
        )

        coeff = to_spectral(u)
        # the interior columns of the half array stand for their mirror images too
        weight = np.r_[1.0, np.full(lat.n // 2 - 1, 2.0), 1.0]
        spectral_side = math.sqrt(lat.box_len**2 * float(np.sum(weight * np.abs(coeff) ** 2)))
        physical_side = lebesgue_norm(u, 2)
        worst["parseval"] = max(
            worst["parseval"], abs(physical_side - spectral_side) / physical_side
        )

        c = float(rng.uniform(0.1, 10.0)) * float(rng.choice([-1.0, 1.0]))
        q = float(rng.choice([2.0, 4.0]))
        reference = abs(c) * lebesgue_norm(u, q)
        worst["homogeneity"] = max(
            worst["homogeneity"],
            abs(lebesgue_norm(VectorField(lat, c * u.data), q) - reference) / reference,
        )

        tu, tv, tw = (heat_trajectory(f, mesh) for f in (u, v, w))
        u_plus_v = VectorField(lat, u.data + v.data)
        b_sum = bilinear_B(heat_trajectory(u_plus_v, mesh), tw, t_last, quad)
        b_u = bilinear_B(tu, tw, t_last, quad)
        b_v = bilinear_B(tv, tw, t_last, quad)
        denom = lebesgue_norm(b_u, 2) + lebesgue_norm(b_v, 2)
        defect = VectorField(lat, b_sum.data - b_u.data - b_v.data)
        worst["bilinearity"] = max(worst["bilinearity"], lebesgue_norm(defect, 2) / denom)

    tol = 1e-9
    horizon = 0.25
    for i in range(cases):
        u0 = band(7000 + i, divfree=True, k_max=3.0)
        shrink = 0.25 * book2.delta / smallness_lhs(u0, horizon, book2).lhs
        u0 = VectorField(lat, shrink * u0.data)
        heat_started = solve_mild(u0, horizon, book2, mesh_nodes=8, quad=quad, tol=tol)
        zero_started = solve_mild(
            u0, horizon, book2, mesh_nodes=8, quad=quad, tol=tol, start="zero"
        )
        gap = kato_norm(
            heat_started.trajectory - zero_started.trajectory,
            book2.q,
            book2.q_tilde,
        ).value
        worst["two-start"] = max(worst["two-start"], gap)

    dt = time.perf_counter() - t0
    ok = all(worst[k] <= limits[k] for k in limits) and dt < 300.0
    measured = ", ".join(
        f"{k} {worst[k]:.1e}<={limits[k]:g}" for k in limits
    )
    verdict(9, "invariant-suite", ok, f"100 cases each: {measured}; {dt:.0f}s < 300s")


def test_10_critical_scaling(verdict):
    t0 = time.perf_counter()
    table = run({"experiment": "scaling"})
    dt = time.perf_counter() - t0
    rel = table.summary["rel_difference"]
    ok = rel < 1e-6 and dt < 30.0
    verdict(
        10,
        "critical-scaling",
        ok,
        f"lambda=2 rescaling changes the critical lhs by {rel:.2e} < 1e-6; "
        f"{dt:.1f}s < 30s",
    )


def test_11_powerlaw_dichotomy(verdict):
    t0 = time.perf_counter()
    table = run({"experiment": "powerlaw"})
    dt = time.perf_counter() - t0
    s = table.summary
    ok = (
        s["lebesgue_monotone"] is True
        and s["last_increment_ratio"] >= 0.5
        and s["besov_tail_rel_change"] < 0.10
        and dt < 120.0
    )
    verdict(
        11,
        "powerlaw-dichotomy",
        ok,
        f"Lebesgue norm grows monotonically (last increment ratio "
        f"{s['last_increment_ratio']:.2f} >= 0.5) while the Besov value moves "
        f"{s['besov_tail_rel_change']:.3f} < 0.10 over the last two levels; "
        f"{dt:.0f}s < 120s",
    )


def test_12_ladder_fluctuation_stability(calibration_file, verdict):
    t0 = time.perf_counter()
    ladder = run({"experiment": "ladder", "calibration_path": calibration_file})
    fluct = run({"experiment": "fluctuation", "calibration_path": calibration_file})
    dt = time.perf_counter() - t0
    ok = (
        ladder.summary["all_finite"]
        and fluct.summary["all_finite"]
        and ladder.summary["max_rel_change"] < 0.05
        and fluct.summary["max_rel_change"] < 0.05
        and dt < 300.0
    )
    verdict(
        12,
        "ladder-fluctuation-stability",
        ok,
        f"all table entries finite; mesh doubling moves the ladder by "
        f"{ladder.summary['max_rel_change']:.4f} and the fluctuation sups by "
        f"{fluct.summary['max_rel_change']:.4f}, both < 0.05; {dt:.0f}s < 300s",
    )
