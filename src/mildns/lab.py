"""Experiment runner: named, config-driven experiments over the other
modules, each producing a deterministic CSV table plus a JSON manifest.

Every experiment has a bundled default config (a flat JSON-compatible
dict; nested dicts only for datum descriptions). run() overlays the
user config onto the defaults, rejects unknown keys, validates and
constructs every object before any heavy computation, and only writes
output files after the experiment finished. Identical config and seed
give byte-identical CSV output: floats are serialized at 17 significant
digits and manifests carry no volatile fields (no timestamps, no paths
that did not come from the config).
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .duhamel import (
    TARGET_KATO,
    TARGET_SOBOLEV,
    QuadratureSpec,
    beta_integral,
    bilinear_estimate_report,
    bilinear_trajectory,
)
from .errors import ConfigError, DivergenceError
from .lattice import TWO_PI, DatumSpec, VectorField, make_lattice, realize_datum
from .multipliers import kernel_profile
from .norms import (
    besov_grid,
    besov_norm_heat,
    decay_exponent_fit,
    heat_sup,
    heat_trajectory,
    kato_norm,
    lebesgue_norm,
    quadratic_mesh,
    sobolev_embedding_check,
    vanishing_at_zero,
)
from .picard import (
    SMALLNESS_BESOV,
    SMALLNESS_CRITICAL,
    SMALLNESS_KATO,
    CorpusSpec,
    abstract_fixed_point,
    build_exponent_book,
    calibrate_thresholds,
    fluctuation_analysis,
    load_calibration,
    regularity_ladder,
    save_solution,
    smallness_lhs,
    solve_mild,
)
from .runtime import VERSION, canonical_json, fmt_float, sha256_hex

# ---------------------------------------------------------------------------
# Result tables


@dataclass
class ResultTable:
    """One experiment's output: a column schema, numeric/text rows, a
    summary of derived scalars, and a provenance block (config hash,
    calibration digest when thresholds were involved, code version)."""

    experiment_id: str
    columns: list
    rows: list
    summary: dict
    config: dict
    provenance: dict

    def to_csv_text(self) -> str:
        def cell(value) -> str:
            if isinstance(value, bool):
                return "true" if value else "false"
            if isinstance(value, float):
                return fmt_float(value)
            return str(value)

        lines = [",".join(self.columns)]
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ConfigError(
                    f"row width {len(row)} does not match schema width {len(self.columns)}"
                )
            lines.append(",".join(cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def manifest(self) -> dict:
        return {
            "experiment": self.experiment_id,
            "columns": self.columns,
            "row_count": len(self.rows),
            "summary": self.summary,
            "config": self.config,
            "provenance": self.provenance,
        }

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{self.experiment_id}.csv").write_text(self.to_csv_text())
        (out / f"{self.experiment_id}.json").write_text(
            canonical_json(self.manifest()) + "\n"
        )


# ---------------------------------------------------------------------------
# Config plumbing


def _merge_config(defaults: dict, overrides: dict, context: str) -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in overrides.items():
        if key in ("experiment", "out_dir"):
            continue
        if key not in defaults:
            raise ConfigError(
                f"unknown config key {context}{key!r}; valid keys: "
                f"{', '.join(sorted(defaults))}"
            )
        if isinstance(defaults[key], dict) and isinstance(value, dict):
            merged[key] = _merge_config(defaults[key], value, f"{context}{key}.")
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _datum_from_config(datum_cfg: dict) -> DatumSpec:
    cfg = dict(datum_cfg)
    if "mode" in cfg and cfg["mode"] is not None:
        cfg["mode"] = tuple(int(m) for m in cfg["mode"])
    return DatumSpec(**cfg)


def _calibrated_book(cfg: dict):
    book = build_exponent_book(cfg["d"], cfg["p"], cfg["s"], cfg["q_tilde"])
    path = cfg.get("calibration_path")
    if path:
        return load_calibration(book, path)
    return calibrate_thresholds(book, CorpusSpec(seed=cfg["corpus_seed"], d=book.d))


def _scaled_datum(cfg: dict, lattice, book) -> VectorField:
    """Realize cfg['datum'], optionally rescaling the amplitude so the
    Kato-window smallness lhs equals scale_to_delta_fraction * delta
    (all smallness forms are homogeneous of degree one in the datum)."""
    spec = _datum_from_config(cfg["datum"])
    fraction = cfg.get("scale_to_delta_fraction")
    if fraction is None:
        return realize_datum(spec, lattice)
    if not (fraction > 0):
        raise ConfigError(f"scale_to_delta_fraction must be positive, got {fraction}")
    probe = realize_datum(spec, lattice)
    lhs = smallness_lhs(probe, cfg["horizon"], book, SMALLNESS_KATO).lhs
    if lhs <= 0:
        raise ConfigError("cannot rescale a datum whose smallness lhs is zero")
    target = fraction * book.delta
    scaled = DatumSpec(**{**cfg["datum"], "amplitude": spec.amplitude * target / lhs})
    return realize_datum(scaled, lattice)


# ---------------------------------------------------------------------------
# Experiment runners (each returns columns, rows, summary, calibration digest)


def _run_kernel_decay(cfg):
    radii = np.geomspace(cfg["radius_min"], cfg["radius_max"], cfg["radius_count"])
    factor_t = float(cfg["selfsim_factor"])
    if factor_t <= 1:
        raise ConfigError(f"selfsim_factor must exceed 1, got {factor_t}")
    root = math.sqrt(factor_t)
    columns = [
        "s",
        "radius",
        "kernel_value",
        "bound_ratio",
        "tail_slope",
        "expected_slope",
        "selfsim_rel_err",
    ]
    rows, summary = [], {}
    for s in cfg["s_values"]:
        prof = kernel_profile(
            s,
            cfg["d"],
            radii,
            resolution=cfg["resolution"],
            box_len=cfg["box_len"],
            t=cfg["t"],
            tail_window=(cfg["tail_lo"], cfg["tail_hi"]),
        )
        # the same kernel at time factor_t * t on the sqrt(factor_t)-dilated
        # box: exact discrete self-similarity up to rounding
        prof_late = kernel_profile(
            s,
            cfg["d"],
            radii * root,
            resolution=cfg["resolution"],
            box_len=cfg["box_len"] * root,
            t=cfg["t"] * factor_t,
            tail_window=(cfg["tail_lo"] * root, cfg["tail_hi"] * root),
        )
        decay = -(cfg["d"] + 1 + s)
        predicted = factor_t ** (decay / 2.0) * prof.values
        scale = float(np.max(np.abs(predicted)))
        selfsim_err = float(np.max(np.abs(prof_late.values - predicted)) / scale)
        slope_err = abs(prof.tail_slope - decay) / abs(decay)
        for r, v, b in zip(radii, prof.values, prof.bound_ratio):
            rows.append([float(s), float(r), float(v), float(b), prof.tail_slope, float(decay), selfsim_err])
        summary[f"s={s:g}"] = {
            "tail_slope": prof.tail_slope,
            "expected_slope": float(decay),
            "slope_rel_err": float(slope_err),
            "tail_residual": prof.tail_residual,
            "selfsim_rel_err": selfsim_err,
            "bound_ratio_max": float(np.max(prof.bound_ratio)),
        }
    return columns, rows, summary, None


def _run_beta_integral(cfg):
    gammas = np.linspace(cfg["gamma_min"], cfg["gamma_max"], cfg["grid_points"])
    thetas = np.linspace(cfg["theta_min"], cfg["theta_max"], cfg["grid_points"])
    t = float(cfg["t"])
    columns = ["gamma", "theta", "closed_form", "quadrature", "rel_err"]
    rows = []
    worst = 0.0
    for g in gammas:
        for th in thetas:
            closed = beta_integral(float(g), float(th), t)
            quad = beta_integral(
                float(g), float(th), t, method="quadrature", node_count=cfg["node_count"]
            )
            rel = abs(quad - closed) / abs(closed)
            worst = max(worst, rel)
            rows.append([float(g), float(th), closed, quad, rel])
    summary = {"max_rel_err": worst, "grid_points": int(cfg["grid_points"]) ** 2}
    return columns, rows, summary, None


def _run_heat_decay(cfg):
    lat = make_lattice(cfg["d"], cfg["resolution"], cfg["box_len"])
    if cfg["box_len"] ** 2 < 100.0 * cfg["t_max"]:
        raise ConfigError(
            "box too small for the requested horizon: need box_len^2 >= 100 t_max"
        )
    spec = DatumSpec(kind="gaussian", width=cfg["width"], amplitude=cfg["amplitude"])
    u0 = realize_datum(spec, lat)
    octaves = math.log2(cfg["t_max"] / cfg["t_min"])
    count = int(round(octaves * cfg["per_octave"])) + 1
    t_grid = cfg["t_min"] * 2.0 ** (np.arange(count) / cfg["per_octave"])
    d, q, qt = cfg["d"], float(cfg["q"]), float(cfg["q_tilde"])
    expected_slope = -(d / 2.0) * (1.0 / q - 1.0 / qt)
    columns = ["t", "measured_norm", "closed_form", "rel_err"]
    rows = []
    measured = heat_sup(u0, t_grid, 0.0, qt).values
    for j, t in enumerate(t_grid):
        sigma = cfg["width"] + t
        closed = (
            cfg["amplitude"]
            * (4.0 * np.pi * sigma) ** (-(d / 2.0) * (1.0 - 1.0 / qt))
            * qt ** (-d / (2.0 * qt))
        )
        rows.append([float(t), float(measured[j]), float(closed), float(abs(measured[j] - closed) / closed)])
    fit = decay_exponent_fit(t_grid, measured, (cfg["t_min"], cfg["t_max"]))
    summary = {
        "fitted_slope": fit.slope,
        "expected_slope": expected_slope,
        "slope_rel_err": abs(fit.slope - expected_slope) / abs(expected_slope),
        "fit_residual": fit.residual,
        "max_closed_form_rel_err": max(r[3] for r in rows),
    }
    return columns, rows, summary, None


def _run_besov_equiv(cfg):
    lat = make_lattice(cfg["d"], cfg["n"], cfg["box_len"])
    spec = DatumSpec(
        kind="single_mode",
        mode=tuple(int(m) for m in cfg["mode"]),
        amplitude=cfg["amplitude"],
        divergence_free=True,
    )
    u0 = realize_datum(spec, lat)
    s_b, q = float(cfg["smoothness"]), float(cfg["q"])
    report = besov_norm_heat(u0, s_b, q)
    mode_sq = float(
        sum((TWO_PI / lat.box_len * m) ** 2 for m in cfg["mode"])
    )
    beta = -s_b / 2.0
    closed = (beta / (math.e * mode_sq)) ** beta * lebesgue_norm(u0, q)
    rescaled = realize_datum(
        DatumSpec(
            kind="single_mode",
            mode=spec.mode,
            amplitude=cfg["amplitude"] * cfg["rescale"],
            divergence_free=True,
        ),
        lat,
    )
    report_scaled = besov_norm_heat(rescaled, s_b, q)

    grid = besov_grid(lat)
    columns = ["t", "weighted_value"]
    rows = [[float(t), float(v)] for t, v in zip(grid, report.values)]
    summary = {
        "besov_value": report.value,
        "closed_form": float(closed),
        "rel_err": abs(report.value - closed) / closed,
        "argmax_t": report.argmax_t,
        "argmax_t_rescaled": report_scaled.argmax_t,
        "argmax_invariant": report.argmax_t == report_scaled.argmax_t,
        "value_scaling_err": abs(report_scaled.value / report.value - cfg["rescale"])
        / cfg["rescale"],
        "window_ok": report.window_ok,
    }
    return columns, rows, summary, None


def _run_embedding(cfg):
    lat = make_lattice(cfg["d"], cfg["n"], cfg["box_len"])
    fields = [
        realize_datum(
            DatumSpec(
                kind="random_band",
                seed=cfg["seed"] + i,
                k_min=cfg["k_min"],
                k_max=cfg["k_max"],
            ),
            lat,
        )
        for i in range(cfg["count"])
    ]
    report = sobolev_embedding_check(
        fields, cfg["s1"], cfg["q1"], cfg["s2"], cfg["q2"]
    )
    columns = ["index", "norm_upper", "norm_lower", "ratio"]
    rows = [
        [i, float(a), float(b), float(r)]
        for i, (a, b, r) in enumerate(
            zip(report.upper_norms, report.lower_norms, report.ratios)
        )
    ]
    summary = {
        "max_ratio": report.max_ratio,
        "count": len(fields),
        "s1": cfg["s1"],
        "q1": cfg["q1"],
        "s2": cfg["s2"],
        "q2": cfg["q2"],
    }
    return columns, rows, summary, None


def _run_bilinear(cfg):
    if not (isinstance(cfg["pairs"], int) and cfg["pairs"] >= 1):
        raise ConfigError(f"pairs must be an integer >= 1, got {cfg['pairs']!r}")
    if not cfg["horizons"]:
        raise ConfigError("horizons must list at least one horizon")
    book = build_exponent_book(cfg["d"], cfg["p"], cfg["s"], cfg["q_tilde"])
    lat = make_lattice(cfg["d"], cfg["n"], cfg["box_len"])
    gamma_for = {TARGET_KATO: book.gamma_kato, TARGET_SOBOLEV: book.gamma_sobolev}
    targets = list(cfg["targets"])
    for target in targets:
        if target not in gamma_for:
            raise ConfigError(
                f"unknown bilinear target {target!r}; valid: {sorted(gamma_for)}"
            )
    pair_data = [
        (
            realize_datum(
                DatumSpec(
                    kind="random_band",
                    seed=cfg["seed"] + 2 * i,
                    k_min=cfg["k_min"],
                    k_max=cfg["k_max"],
                    divergence_free=True,
                ),
                lat,
            ),
            realize_datum(
                DatumSpec(
                    kind="random_band",
                    seed=cfg["seed"] + 2 * i + 1,
                    k_min=cfg["k_min"],
                    k_max=cfg["k_max"],
                    divergence_free=True,
                ),
                lat,
            ),
        )
        for i in range(cfg["pairs"])
    ]

    columns = ["pair", "target", "horizon", "mesh_nodes", "ratio"]
    rows = []
    ratios = {}  # (pair, target, horizon, mesh) -> ratio

    def measure(pair_idx, target, horizon, mesh_nodes):
        u0, v0 = pair_data[pair_idx]
        mesh = quadratic_mesh(horizon, mesh_nodes)
        quad = QuadratureSpec(cfg["quad_nodes"], gamma_for[target], book.alpha)
        rep = bilinear_estimate_report(
            heat_trajectory(u0, mesh),
            heat_trajectory(v0, mesh),
            book,
            target=target,
            quad=quad,
            refine=False,
        )
        ratios[(pair_idx, target, horizon, mesh_nodes)] = rep.ratio
        rows.append([pair_idx, target, float(horizon), mesh_nodes, rep.ratio])

    horizons = [float(h) for h in cfg["horizons"]]
    for i in range(cfg["pairs"]):
        for horizon in horizons:
            for target in targets:
                measure(i, target, horizon, cfg["mesh_nodes"])
        if cfg["doubling"]:
            measure(i, TARGET_KATO, horizons[-1], 2 * cfg["mesh_nodes"])

    def spread(pairs_of_values):
        worst = 1.0
        for a, b in pairs_of_values:
            lo, hi = sorted([a, b])
            worst = max(worst, hi / lo if lo > 0 else float("inf"))
        return worst

    summary = {}
    for target in targets:
        vals = [
            ratios[(i, target, h, cfg["mesh_nodes"])]
            for i in range(cfg["pairs"])
            for h in horizons
        ]
        summary[f"max_ratio_{target}"] = float(max(vals))
        if len(horizons) >= 2:
            summary[f"horizon_spread_{target}"] = spread(
                (
                    ratios[(i, target, horizons[0], cfg["mesh_nodes"])],
                    ratios[(i, target, horizons[-1], cfg["mesh_nodes"])],
                )
                for i in range(cfg["pairs"])
            )
    if cfg["doubling"]:
        summary["mesh_doubling_spread"] = spread(
            (
                ratios[(i, TARGET_KATO, horizons[-1], cfg["mesh_nodes"])],
                ratios[(i, TARGET_KATO, horizons[-1], 2 * cfg["mesh_nodes"])],
            )
            for i in range(cfg["pairs"])
        )

    # weighted norm of B must vanish at t -> 0 (checked on the first pair
    # with a fine mesh so enough nodes sit below horizon/100)
    u0, v0 = pair_data[0]
    mesh = quadratic_mesh(horizons[-1], cfg["vanishing_mesh_nodes"])
    quad = QuadratureSpec(cfg["quad_nodes"], book.gamma_kato, book.alpha)
    b_traj = bilinear_trajectory(
        heat_trajectory(u0, mesh), heat_trajectory(v0, mesh), quad
    )
    vr = vanishing_at_zero(b_traj, book.alpha / 2.0, r=book.q_tilde)
    summary["vanishing_at_zero"] = bool(vr.vanishing)
    return columns, rows, summary, None


def _run_smallness(cfg):
    book = _calibrated_book(cfg)
    lat = make_lattice(cfg["d"], cfg["n"], cfg["box_len"])
    columns = ["datum", "variant", "lhs", "threshold", "satisfied"]
    rows = []
    equiv_ratios = []
    for idx, datum_cfg in enumerate(cfg["data"]):
        u0 = realize_datum(_datum_from_config(datum_cfg), lat)
        label = f"{idx}:{datum_cfg['kind']}"
        per_variant = {}
        variants = [SMALLNESS_KATO, SMALLNESS_BESOV]
        if book.is_critical:
            variants.insert(1, SMALLNESS_CRITICAL)
        for variant in variants:
            rep = smallness_lhs(u0, cfg["horizon"], book, variant)
            per_variant[variant] = rep.lhs
            rows.append([label, variant, rep.lhs, rep.threshold, rep.satisfied])
        if per_variant[SMALLNESS_KATO] > 0:
            equiv_ratios.append(
                per_variant[SMALLNESS_BESOV] / per_variant[SMALLNESS_KATO]
            )
    summary = {
        "delta": book.delta,
        "sigma": book.sigma,
        "c_hat": book.c_hat,
        "equiv_ratio_min": float(min(equiv_ratios)) if equiv_ratios else None,
        "equiv_ratio_max": float(max(equiv_ratios)) if equiv_ratios else None,
    }
    return columns, rows, summary, book.calibration_digest


def _tg_closed_form_error(solution, u0) -> float:
    """Max relative L2 node error against the decaying Taylor-Green flow."""
    lat = u0.lattice
    spec_data = np.fft.fftn(u0.data, axes=tuple(range(1, 1 + lat.d)))
    # infer the harmonic from the datum's dominant mode magnitude
    mags = np.abs(spec_data)
    idx = np.unravel_index(int(np.argmax(mags)), mags.shape)
    k_vec = [lat.k_axes[a].reshape(-1)[idx[1 + a]] for a in range(lat.d)]
    rate = float(sum(k * k for k in k_vec))
    worst = 0.0
    for t, field in zip(solution.trajectory.times, solution.trajectory.fields):
        exact = u0 * math.exp(-rate * float(t))
        err = lebesgue_norm(field - exact, 2) / lebesgue_norm(exact, 2)
        worst = max(worst, err)
    return worst


def _run_solve(cfg):
    book = _calibrated_book(cfg)
    lat = make_lattice(cfg["d"], cfg["n"], cfg["box_len"])
    u0 = _scaled_datum(cfg, lat, book)
    quad = QuadratureSpec(cfg["quad_nodes"], book.gamma_kato, book.alpha)
    solution = solve_mild(
        u0,
        cfg["horizon"],
        book,
        mesh_nodes=cfg["mesh_nodes"],
        quad=quad,
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
        override_smallness=cfg["override_smallness"],
    )
    columns = ["t", "kato_weighted_norm", "divergence_defect"]
    kato = kato_norm(solution.trajectory, book.q, book.q_tilde)
    rows = [
        [float(t), float(v), float(defect)]
        for t, v, defect in zip(
            solution.trajectory.times, kato.values, solution.divergence_defects
        )
    ]
    summary = {
        "iterations": solution.trace.iterations,
        "converged": solution.trace.converged,
        "residual": solution.trace.residual,
        "threshold": solution.trace.threshold,
        "contraction_ratio_max": float(max(solution.trace.ratios))
        if solution.trace.ratios
        else None,
        "max_divergence_defect": float(solution.divergence_defects.max()),
        "early_ok": solution.early_ok,
        "ball_ok": solution.ball_ok,
        "smallness_lhs": solution.smallness.lhs,
        "smallness_threshold": solution.smallness.threshold,
        "smallness_satisfied": solution.smallness.satisfied,
    }
    if cfg["datum"]["kind"] == "taylor_green":
        summary["closed_form_max_rel_err"] = _tg_closed_form_error(solution, u0)
    if cfg["save_fields"] and cfg.get("out_dir"):
        save_solution(solution, Path(cfg["out_dir"]) / "solution")
    return columns, rows, summary, book.calibration_digest


def _solve_for_analysis(cfg, book, lat, mesh_nodes):
    u0 = _scaled_datum(cfg, lat, book)
    quad = QuadratureSpec(cfg["quad_nodes"], book.gamma_kato, book.alpha)
    solution = solve_mild(
        u0,
        cfg["horizon"],
        book,
        mesh_nodes=mesh_nodes,
        quad=quad,
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
    )
    return u0, solution


def _run_ladder(cfg):
    book = _calibrated_book(cfg)
    lat = make_lattice(cfg["d"], cfg["n"], cfg["box_len"])
    _, coarse = _solve_for_analysis(cfg, book, lat, cfg["mesh_nodes"])
    _, fine = _solve_for_analysis(cfg, book, lat, 2 * cfg["mesh_nodes"])
    table_c = regularity_ladder(coarse, cfg["r_values"])
    table_f = regularity_ladder(fine, cfg["r_values"])
    columns = ["r", "weight", "sup_coarse", "sup_fine", "rel_change", "early_ok"]
    rows = []
    worst = 0.0
    for i, r in enumerate(table_c.r_values):
        a, b = table_c.sups[i], table_f.sups[i]
        change = abs(b - a) / max(a, b) if max(a, b) > 0 else 0.0
        worst = max(worst, change)
        rows.append(
            [float(r), table_c.weights[i], a, b, change, table_c.early_ok[i]]
        )
    summary = {
        "max_rel_change": worst,
        "iterations_coarse": coarse.trace.iterations,
        "iterations_fine": fine.trace.iterations,
        "all_finite": all(np.isfinite(table_c.sups)) and all(np.isfinite(table_f.sups)),
    }
    return columns, rows, summary, book.calibration_digest


def _run_fluctuation(cfg):
    book = _calibrated_book(cfg)
    lat = make_lattice(cfg["d"], cfg["n"], cfg["box_len"])
    u0_c, coarse = _solve_for_analysis(cfg, book, lat, cfg["mesh_nodes"])
    u0_f, fine = _solve_for_analysis(cfg, book, lat, 2 * cfg["mesh_nodes"])
    table_c = fluctuation_analysis(coarse, u0_c, cfg["p_tilde_values"])
    table_f = fluctuation_analysis(fine, u0_f, cfg["p_tilde_values"])
    columns = ["p_tilde", "smoothness", "sup_coarse", "sup_fine", "rel_change"]
    rows = []
    worst = 0.0
    for i, pt in enumerate(table_c.p_tilde_values):
        a, b = table_c.sups[i], table_f.sups[i]
        change = abs(b - a) / max(a, b) if max(a, b) > 0 else 0.0
        worst = max(worst, change)
        rows.append([float(pt), table_c.smoothness[i], a, b, change])
    summary = {
        "max_rel_change": worst,
        "iterations_coarse": coarse.trace.iterations,
        "iterations_fine": fine.trace.iterations,
        "all_finite": all(np.isfinite(table_c.sups)) and all(np.isfinite(table_f.sups)),
    }
    return columns, rows, summary, book.calibration_digest


def _run_scaling(cfg):
    book = build_exponent_book(cfg["d"], cfg["p"], cfg["s"], cfg["q_tilde"])
    if not book.is_critical:
        raise ConfigError(
            "scaling experiment requires the critical book s = d/p - 1; "
            f"got s = {book.s:g}"
        )
    lam = float(cfg["lam"])
    if not (lam > 1):
        raise ConfigError(f"rescaling factor must exceed 1, got {lam}")
    lat = make_lattice(cfg["d"], cfg["n"], cfg["box_len"])
    u0 = realize_datum(_datum_from_config(cfg["datum"]), lat)
    lat_fine = make_lattice(cfg["d"], cfg["n"], cfg["box_len"] / lam)
    u0_scaled = VectorField(lat_fine, lam * u0.data, u0.representation)
    horizon = float(cfg["horizon"])
    lhs = smallness_lhs(u0, horizon, book, SMALLNESS_CRITICAL).lhs
    lhs_scaled = smallness_lhs(
        u0_scaled, horizon / lam**2, book, SMALLNESS_CRITICAL
    ).lhs
    rel = abs(lhs - lhs_scaled) / lhs if lhs > 0 else float("inf")
    columns = ["which", "horizon", "box_len", "lhs"]
    rows = [
        ["original", horizon, float(cfg["box_len"]), lhs],
        ["rescaled", horizon / lam**2, float(cfg["box_len"]) / lam, lhs_scaled],
    ]
    summary = {"lam": lam, "rel_difference": float(rel)}
    return columns, rows, summary, None


def _run_powerlaw(cfg):
    lat = make_lattice(cfg["d"], cfg["n"], cfg["box_len"])
    d, p, qt = cfg["d"], float(cfg["p"]), float(cfg["q_tilde"])
    s_b = d / qt - d / p
    if not (s_b < 0):
        raise ConfigError(
            f"dichotomy needs d/q_tilde < d/p so the Besov smoothness is negative; "
            f"got {s_b:g}"
        )
    levels = [float(e) for e in cfg["r_inner_levels"]]
    if len(levels) < 2:
        raise ConfigError(
            f"r_inner_levels needs at least two levels for the tail change, got {len(levels)}"
        )
    if sorted(levels, reverse=True) != levels:
        raise ConfigError("r_inner_levels must be strictly decreasing")
    columns = ["r_inner", "lebesgue_norm", "lebesgue_increment", "besov_value", "besov_argmax_t"]
    rows = []
    lp_values, besov_values = [], []
    for eps in levels:
        spec = DatumSpec(
            kind="power_law",
            decay=cfg["decay"],
            r_inner=eps,
            r_outer=cfg["r_outer"],
            amplitude=cfg["amplitude"],
        )
        u0 = realize_datum(spec, lat)
        lp = lebesgue_norm(u0, p)
        rep = besov_norm_heat(u0, s_b, qt)
        lp_values.append(lp)
        besov_values.append(rep.value)
        increment = lp - lp_values[-2] if len(lp_values) >= 2 else 0.0
        rows.append([eps, float(lp), float(increment), rep.value, rep.argmax_t])
    increments = np.diff(lp_values)
    besov_tail_change = abs(besov_values[-1] - besov_values[-2]) / besov_values[-2]
    summary = {
        "lebesgue_monotone": bool(np.all(increments > 0)),
        "last_increment_ratio": float(increments[-1] / increments[-2])
        if len(increments) >= 2 and increments[-2] > 0
        else None,
        "besov_tail_rel_change": float(besov_tail_change),
        "besov_smoothness": float(s_b),
    }
    return columns, rows, summary, None


def _run_fixed_point_demo(cfg):
    eta = float(cfg["eta"])
    tol = float(cfg["tol"])
    columns = ["case", "y", "iterations", "result", "residual", "outcome"]
    rows = []

    y = float(cfg["y_converging"])
    x, trace = abstract_fixed_point(
        y, lambda a, b: eta * a * b, eta, tol=tol, max_iter=cfg["max_iter"]
    )
    root = (-1.0 + math.sqrt(1.0 + 4.0 * eta * y)) / (2.0 * eta)
    rows.append(["converging", y, trace.iterations, float(x), trace.residual, "converged"])

    y_bad = float(cfg["y_diverging"])
    discriminant = 1.0 - 4.0 * eta * y_bad
    try:
        abstract_fixed_point(
            y_bad, lambda a, b: -eta * a * b, eta, tol=tol, max_iter=cfg["max_iter"]
        )
        outcome = "converged-unexpectedly"
        iters = -1
        last = float("nan")
    except DivergenceError as exc:
        outcome = "divergence-detected"
        iters = exc.trace.iterations
        last = float(exc.trace.norms[-1])
    rows.append(["diverging", y_bad, iters, last, float("nan"), outcome])

    summary = {
        "root_error": abs(x - root),
        "fixed_point": float(x),
        "quadratic_root": float(root),
        "ball_bound_ok": bool(abs(x) <= 0.5 / eta),
        "divergence_detected": outcome == "divergence-detected",
        "discriminant": float(discriminant),
    }
    return columns, rows, summary, None


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class ExperimentDef:
    description: str
    defaults: dict
    runner: Callable = dc_field(compare=False)


_BOOK_DEFAULTS = {"d": 2, "p": 2.0, "s": 0.0, "q_tilde": 4.0}

EXPERIMENTS = {
    "kernel-decay": ExperimentDef(
        "dissipative-projection kernel: spatial decay rate and self-similarity",
        {
            "d": 2,
            "s_values": [-0.5, 0.0, 0.4],
            "t": 1.0,
            "selfsim_factor": 4.0,
            "box_len": 160.0,
            "resolution": 512,
            "radius_min": 0.1,
            "radius_max": 20.0,
            "radius_count": 24,
            "tail_lo": 4.0,
            "tail_hi": 20.0,
        },
        _run_kernel_decay,
    ),
    "beta-integral": ExperimentDef(
        "singular Volterra integral: quadrature against the Gamma-function identity",
        {
            "t": 1.0,
            "gamma_min": -1.0,
            "gamma_max": 0.9,
            "theta_min": -1.0,
            "theta_max": 0.9,
            "grid_points": 10,
            "node_count": 32,
        },
        _run_beta_integral,
    ),
    "heat-decay": ExperimentDef(
        "heat-flow decay of a Gaussian datum against the closed form",
        {
            "d": 2,
            "width": 0.1,
            "amplitude": 1.0,
            "q": 1.0,
            "q_tilde": 4.0,
            "box_len": 80.0,
            "resolution": 512,
            "t_min": 4.0,
            "t_max": 64.0,
            "per_octave": 4,
        },
        _run_heat_decay,
    ),
    "besov-equiv": ExperimentDef(
        "heat characterization of the Besov norm on a single-mode datum",
        {
            "d": 2,
            "n": 32,
            "box_len": TWO_PI,
            "mode": [1, 1],
            "amplitude": 1.0,
            "smoothness": -0.5,
            "q": 4.0,
            "rescale": 3.0,
        },
        _run_besov_equiv,
    ),
    "embedding": ExperimentDef(
        "Sobolev embedding constants on a random band-limited corpus",
        {
            "d": 2,
            "n": 64,
            "box_len": TWO_PI,
            "count": 50,
            "seed": 7,
            "k_min": 1,
            "k_max": 8,
            "s1": 0.5,
            "q1": 2.0,
            "s2": 0.0,
            "q2": 4.0,
        },
        _run_embedding,
    ),
    "bilinear": ExperimentDef(
        "measured bilinear-estimate constants over a random trajectory corpus",
        {
            **_BOOK_DEFAULTS,
            "n": 32,
            "box_len": TWO_PI,
            "pairs": 50,
            "seed": 23,
            "k_min": 1,
            "k_max": 4,
            "horizons": [0.5, 1.0],
            "mesh_nodes": 16,
            "quad_nodes": 16,
            "targets": [TARGET_KATO, TARGET_SOBOLEV],
            "doubling": True,
            "vanishing_mesh_nodes": 64,
        },
        _run_bilinear,
    ),
    "smallness": ExperimentDef(
        "the three smallness left-hand sides across datum families",
        {
            **_BOOK_DEFAULTS,
            "n": 32,
            "box_len": TWO_PI,
            "horizon": 0.25,
            "corpus_seed": 11,
            "calibration_path": None,
            "data": [
                {"kind": "gaussian", "width": 0.1},
                {"kind": "taylor_green"},
                {
                    "kind": "random_band",
                    "seed": 5,
                    "k_min": 1,
                    "k_max": 4,
                    "divergence_free": True,
                },
            ],
        },
        _run_smallness,
    ),
    "solve": ExperimentDef(
        "Picard construction of a mild solution (Taylor-Green oracle by default)",
        {
            **_BOOK_DEFAULTS,
            "n": 64,
            "box_len": 2.0 * TWO_PI,
            "horizon": 1.0,
            "mesh_nodes": 32,
            "quad_nodes": 32,
            "tol": 1e-9,
            "max_iter": 100,
            "datum": {"kind": "taylor_green", "amplitude": 1.0, "mode": [2, 2]},
            "override_smallness": True,
            "scale_to_delta_fraction": None,
            "corpus_seed": 11,
            "calibration_path": None,
            "save_fields": False,
        },
        _run_solve,
    ),
    "ladder": ExperimentDef(
        "weighted higher-integrability ladder of a converged solution",
        {
            **_BOOK_DEFAULTS,
            "n": 32,
            "box_len": TWO_PI,
            "horizon": 0.25,
            "mesh_nodes": 16,
            "quad_nodes": 16,
            "tol": 1e-9,
            "max_iter": 100,
            "datum": {
                "kind": "random_band",
                "seed": 41,
                "k_min": 1,
                "k_max": 4,
                "divergence_free": True,
            },
            "scale_to_delta_fraction": 0.5,
            "r_values": [4.0, 6.0, 8.0],
            "corpus_seed": 11,
            "calibration_path": None,
        },
        _run_ladder,
    ),
    "fluctuation": ExperimentDef(
        "heat-fluctuation norms of a critical solution",
        {
            **_BOOK_DEFAULTS,
            "n": 32,
            "box_len": TWO_PI,
            "horizon": 0.25,
            "mesh_nodes": 16,
            "quad_nodes": 16,
            "tol": 1e-9,
            "max_iter": 100,
            "datum": {
                "kind": "random_band",
                "seed": 43,
                "k_min": 1,
                "k_max": 4,
                "divergence_free": True,
            },
            "scale_to_delta_fraction": 0.5,
            "p_tilde_values": [2.0, 3.0],
            "corpus_seed": 11,
            "calibration_path": None,
        },
        _run_fluctuation,
    ),
    "scaling": ExperimentDef(
        "critical-norm invariance under exact dyadic rescaling",
        {
            **_BOOK_DEFAULTS,
            "n": 64,
            "box_len": TWO_PI,
            "horizon": 0.25,
            "lam": 2.0,
            "datum": {
                "kind": "random_band",
                "seed": 47,
                "k_min": 1,
                "k_max": 8,
                "divergence_free": True,
            },
        },
        _run_scaling,
    ),
    "powerlaw": ExperimentDef(
        "power-law datum dichotomy: unbounded Lebesgue norm, saturating Besov norm",
        {
            "d": 2,
            "p": 2.0,
            "q_tilde": 4.0,
            "n": 1024,
            "box_len": 8.0,
            "decay": 1.0,
            "r_outer": 2.0,
            "r_inner_levels": [0.5, 0.25, 0.125, 0.0625],
            "amplitude": 1.0,
        },
        _run_powerlaw,
    ),
    "fixed-point-demo": ExperimentDef(
        "scalar quadratic fixed point: convergence and the divergence guard",
        {
            "eta": 1.0,
            "y_converging": 0.25,
            "y_diverging": 1.0,
            "tol": 1e-13,
            "max_iter": 100,
        },
        _run_fixed_point_demo,
    ),
}


def list_experiments() -> list:
    """Catalog of experiment ids with one-line descriptions."""
    return [
        {"id": exp_id, "description": exp.description}
        for exp_id, exp in sorted(EXPERIMENTS.items())
    ]


def default_config(experiment_id: str) -> dict:
    if experiment_id not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; valid ids: "
            f"{', '.join(sorted(EXPERIMENTS))}"
        )
    cfg = copy.deepcopy(EXPERIMENTS[experiment_id].defaults)
    cfg["experiment"] = experiment_id
    return cfg


def run(config: dict) -> ResultTable:
    """Run one experiment from a config dict.

    The dict must name the experiment under 'experiment'; remaining keys
    override the bundled defaults (unknown keys are rejected). When
    'out_dir' is present the CSV and manifest are written there, but only
    after the experiment completed, so failed validation leaves no files.
    """
    if "experiment" not in config:
        raise ConfigError(
            f"config needs an 'experiment' key; valid ids: {', '.join(sorted(EXPERIMENTS))}"
        )
    exp_id = config["experiment"]
    if exp_id not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {exp_id!r}; valid ids: {', '.join(sorted(EXPERIMENTS))}"
        )
    exp = EXPERIMENTS[exp_id]
    cfg = _merge_config(exp.defaults, config, "")
    cfg["experiment"] = exp_id
    out_dir = config.get("out_dir")
    if out_dir is not None:
        cfg["out_dir"] = str(out_dir)

    columns, rows, summary, calibration_digest = exp.runner(cfg)

    echo = {k: v for k, v in cfg.items() if k != "out_dir"}
    provenance = {
        "config_sha256": sha256_hex(canonical_json(echo)),
        "calibration_digest": calibration_digest,
        "code_version": VERSION,
    }
    table = ResultTable(
        experiment_id=exp_id,
        columns=columns,
        rows=rows,
        summary=summary,
        config=echo,
        provenance=provenance,
    )
    if out_dir is not None:
        table.write(out_dir)
    return table
