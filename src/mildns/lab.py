"""Experiment runner: named, config-driven experiments over the other
modules, each producing a deterministic CSV table plus a JSON manifest.

Every experiment declares each of its config keys once, as a Key: its
default, its type (an integer, a number, a boolean, a path or null, a
non-empty list of numbers or strings, a datum section or a list of them)
and its single-key range, such as (0, inf) or [1, inf], which for points
per axis and quadrature nodes also says "a power of two" or "even". The
DatumSpec fields are declared once for every datum section, and the
CorpusSpec fields for the corpus of `mildns calibrate`, each with its
dataclass default. run() overlays the user config onto the defaults
through check_config, which refuses any other key or value with a
ConfigError naming the dotted key before any runner starts. A datum
section whose kind differs from the default's starts from the DatumSpec
defaults, as each item of a list of sections does; one of the same kind,
or of no kind, overlays the default. Only conditions between keys are
left to the runners and to the objects they build, and each such refusal
names the config keys that fed it through errors.require or, around a
call that refuses, errors.naming. A runner, and `mildns calibrate`,
builds its exponent book once, through exponent_book, which names d, p,
s and q_tilde in a refusal, and a calibration corpus through
calibration_corpus.
Output files are only written after the experiment finished, each
through a temporary file and os.replace, the CSV last. Identical config
and seed give byte-identical CSV output: floats are serialized at 17
significant digits and manifests carry no volatile fields (no timestamps,
no paths that did not come from the config).
"""
from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .duhamel import (
    TARGET_KATO,
    TARGET_SOBOLEV,
    beta_integral,
    bilinear_error_estimate,
    bilinear_estimate_report,
    bilinear_trajectory,
    estimate_quadrature,
)
from .errors import ConfigError, DivergenceError, NumericalError, naming, require
from .lattice import TWO_PI, DatumSpec, VectorField, make_lattice, realize_datum
from .multipliers import kernel_profile
from .norms import (
    Trajectory,
    besov_norm_heat,
    decay_exponent_fit,
    dyadic_grid,
    heat_sup,
    heat_trajectory,
    kato_norm,
    lebesgue_norm,
    quadratic_mesh,
    sobolev_embedding_check,
    vanishing_at_zero,
    weighted_lebesgue,
    window_grid,
)
from .picard import (
    SMALLNESS_BESOV,
    SMALLNESS_CRITICAL,
    SMALLNESS_KATO,
    CorpusSpec,
    abstract_fixed_point,
    build_exponent_book,
    calibrate_thresholds,
    check_datum,
    check_exponent_floor,
    fluctuation_analysis,
    load_calibration,
    regularity_ladder,
    save_solution,
    smallness_lhs,
    solve_mild,
)
from .runtime import VERSION, canonical_json, fmt_float, sha256_hex, stage_file

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
        """Write <id>.csv and its manifest <id>.json. Both go to temporary
        files first; the manifest is put in place before the CSV, so a CSV
        never stands without its manifest."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{self.experiment_id}.csv"
        json_path = out / f"{self.experiment_id}.json"
        csv_temp = stage_file(csv_path, self.to_csv_text())
        try:
            json_temp = stage_file(json_path, canonical_json(self.manifest()) + "\n")
        except BaseException:
            csv_temp.unlink()
            raise
        os.replace(json_temp, json_path)
        os.replace(csv_temp, csv_path)


# ---------------------------------------------------------------------------
# Config schema

INTEGER, NUMBER, BOOLEAN, STRING, PATH, SECTION = (
    "an integer", "a number", "a boolean", "a string", "a path string", "an object"
)
_PYTHON_TYPES = {INTEGER: int, NUMBER: (int, float), BOOLEAN: bool, STRING: str, PATH: str}


# the conditions an integer key can add to its range
_CONDITIONS = {"even": lambda v: v % 2 == 0, "a power of two": lambda v: v & (v - 1) == 0}


@dataclass(frozen=True)
class Key:
    """One config key, declared once: its default, its type and its range,
    an interval such as "(0, inf)" for an integer or a number (NaN lies in
    none, inf only in one closed at inf) or a tuple of choices for a string.
    An integer may also have to meet one of _CONDITIONS, such as "even".
    A section is an object of the keys `fields`, where a key whose default
    is None and that is not nullable must be given. items >= 1 makes the key
    a list of at least that many values."""

    default: object
    type: str
    range: object = "(-inf, inf)"
    items: int = 0
    nullable: bool = False
    fields: Optional[dict] = None
    condition: str = ""


def _keys(type_: str, range_: str, nullable: bool = False, **defaults) -> dict:
    """One Key of type_ and range_ for each keyword default."""
    return {k: Key(v, type_, range_, nullable=nullable) for k, v in defaults.items()}


def _spec_keys(spec, type_: str, range_: str, *names: str, nullable: bool = False) -> dict:
    """One Key of type_ and range_ for each named field of the dataclass
    spec, with the field's default."""
    return _keys(type_, range_, nullable, **{k: getattr(spec, k) for k in names})


def _fits(key: Key, value) -> bool:
    if not isinstance(value, _PYTHON_TYPES[key.type]) or (
        isinstance(value, bool) and key.type != BOOLEAN
    ):
        return False
    if key.type == STRING:
        return value in key.range
    if key.type in (INTEGER, NUMBER):
        lo, hi = (float(bound) for bound in key.range[1:-1].split(","))
        above = lo < value if key.range[0] == "(" else lo <= value
        within = above and (value < hi if key.range[-1] == ")" else value <= hi)
        return within and (not key.condition or _CONDITIONS[key.condition](value))
    return True


def _refuse(key: Key, value, name: str):
    what = key.type + (f" in {key.range}" if key.type in (INTEGER, NUMBER, STRING) else "")
    if key.condition:
        what += f" and {key.condition}"
    if key.items:
        more = f" of {key.items} or more items" if key.items > 1 else ""
        what = f"a non-empty list{more}, each item {what}"
    null = " or null" if key.nullable else ""
    raise ConfigError(f"config key {name!r} must be {what}{null}, got {value!r}")


def _checked(key: Key, value, name: str):
    if value is None and key.nullable:
        return None
    if key.items and not (isinstance(value, list) and len(value) >= key.items):
        _refuse(key, value, name)
    if key.type == SECTION:
        if key.items:
            return [check_config(key.fields, v, {}, f"{name}[{i}]") for i, v in enumerate(value)]
        # a section of another kind starts empty, as each list item does
        kind = key.default.get("kind")
        other_kind = isinstance(value, dict) and value.get("kind", kind) != kind
        return check_config(key.fields, value, {} if other_kind else key.default, name)
    if not all(_fits(key, v) for v in (value if key.items else [value])):
        _refuse(key, value, name)
    return copy.deepcopy(value)


def check_config(keys: dict, overrides, base: Optional[dict] = None, name: str = "") -> dict:
    """The defaults of `keys` (or `base`, for a section) overlaid with
    `overrides`, each value checked against its Key. Refuses with a
    ConfigError naming the dotted key, such as 'data[0].seed'."""
    if not isinstance(overrides, dict):
        raise ConfigError(f"config key {name!r} must be {SECTION}, got {overrides!r}")
    merged = copy.deepcopy({k: key.default for k, key in keys.items()} if base is None else base)
    for k, value in overrides.items():
        dotted = f"{name}.{k}" if name else k
        if k not in keys:
            raise ConfigError(
                f"unknown config key {dotted!r}; valid keys: {', '.join(sorted(keys))}"
            )
        merged[k] = _checked(keys[k], value, dotted)
    for k, key in keys.items():
        if key.default is None and not key.nullable and merged.get(k) is None:
            raise ConfigError(f"config key {name!r} needs {k!r}")
    return merged


# Ranges shared by many keys; a solve's mesh has at least 4 nodes. Points
# per axis of a lattice and a quadrature node budget (half per subinterval)
# are integers _POINTS and _NODES.
_POSITIVE, _NONNEGATIVE, _COUNT, _LEBESGUE = "(0, inf)", "[0, inf)", "[1, inf)", "[1, inf]"
_MESH = "[4, inf)"
_POINTS = dict(type=INTEGER, range="[4, inf)", condition="a power of two")
_NODES = dict(type=INTEGER, range="[8, inf)", condition="even")

# the fields of every datum section, with the DatumSpec defaults
_DATUM_KEYS = {
    "kind": Key(None, STRING, DatumSpec.KINDS),
    **_spec_keys(DatumSpec, NUMBER, _POSITIVE, "amplitude"),
    **_spec_keys(DatumSpec, NUMBER, _POSITIVE, "width", "decay", "r_inner", "r_outer", "k_max",
                 nullable=True),
    **_spec_keys(DatumSpec, NUMBER, _NONNEGATIVE, "k_min", nullable=True),
    **_spec_keys(DatumSpec, INTEGER, _NONNEGATIVE, "seed", nullable=True),
    "mode": Key(DatumSpec.mode, INTEGER, items=1, nullable=True),
    "divergence_free": Key(DatumSpec.divergence_free, BOOLEAN),
}


def _datum_from_config(datum_cfg: dict) -> DatumSpec:
    mode = datum_cfg.get("mode")
    return DatumSpec(**{**datum_cfg, "mode": None if mode is None else tuple(mode)})


def _realized(datum_cfg: dict, lattice, *names: str) -> VectorField:
    """The datum of a section; a refusal of its fields names the keys."""
    with naming(*names):
        return realize_datum(_datum_from_config(datum_cfg), lattice)


def _require_normal(value: float, keys, what: str) -> None:
    """Refuse, naming keys, a value below the normal floats. The norms are
    exact over the float range, so a norm falls below them only for a datum
    whose samples do, or at an exponent so large that even the scaled
    powers of the samples underflow."""
    require(value >= np.finfo(float).tiny, keys, f"{what} is {value:g}, below the normal floats")


def exponent_book(cfg: dict):
    """The uncalibrated book of cfg's d, p, s and q_tilde, the one route
    from a config to a book; a hypothesis it refuses names the four keys."""
    with naming("d", "p", "s", "q_tilde"):
        return build_exponent_book(cfg["d"], cfg["p"], cfg["s"], cfg["q_tilde"])


def calibration_corpus(book, fields: dict) -> CorpusSpec:
    """The calibration corpus of the CorpusSpec fields given; an unset
    corpus d is the book's."""
    return CorpusSpec(**{"d": book.d, **fields})


def _calibrated_book(cfg: dict, book):
    """book with the thresholds of cfg's calibration file, or else measured
    on the corpus of cfg's corpus_seed."""
    if cfg.get("calibration_path"):
        with naming("calibration_path"):
            return load_calibration(book, cfg["calibration_path"])
    return calibrate_thresholds(book, calibration_corpus(book, {"seed": cfg["corpus_seed"]}))


def _critical_book(cfg: dict, what: str):
    """The uncalibrated book of cfg, refused unless it is critical."""
    book = exponent_book(cfg)
    with naming("d", "p", "s"):
        book.require_critical(what)
    return book


def _lattice(cfg: dict, n_key: str = "n"):
    """The lattice of cfg; a lattice it refuses names the keys that set it."""
    with naming("d", n_key, "box_len"):
        return make_lattice(cfg["d"], cfg[n_key], cfg["box_len"])


def _check_window(cfg: dict, u0: VectorField) -> None:
    """Refuse a horizon outside the lattice validity window of u0, naming
    the keys that set the window; runners call it before any calibration."""
    with naming("horizon", "n", "box_len"):
        window_grid(u0.lattice, cfg["horizon"])


def _calibrated_datum(cfg: dict, book):
    """book calibrated, and cfg's scaled datum. The datum, the solver's
    conditions on it (check_datum) and its window are checked before
    calibration, so a bad datum section or horizon is refused first."""
    u0 = _realized(cfg["datum"], _lattice(cfg), "datum")
    with naming("datum"):
        check_datum(u0)
    _check_window(cfg, u0)
    book = _calibrated_book(cfg, book)
    return book, _scaled_datum(cfg, u0, book)


def _scaled_datum(cfg: dict, u0: VectorField, book) -> VectorField:
    """u0, the realized cfg['datum'], or with scale_to_delta_fraction the
    datum realized again at the amplitude that makes the Kato-window
    smallness lhs equal scale_to_delta_fraction * delta (all smallness
    forms are homogeneous of degree one in the datum)."""
    fraction = cfg.get("scale_to_delta_fraction")
    if fraction is None:
        return u0
    lhs = smallness_lhs(u0, cfg["horizon"], book, SMALLNESS_KATO).lhs
    require(lhs > 0, ("datum", "scale_to_delta_fraction"),
            "cannot rescale a datum whose smallness lhs is zero")
    target = fraction * book.delta
    amplitude = _datum_from_config(cfg["datum"]).amplitude
    scaled = {**cfg["datum"], "amplitude": amplitude * target / lhs}
    return _realized(scaled, u0.lattice, "datum")


def _band_datum(seed: int, k_max=4, k_min=1) -> dict:
    """Config section of a divergence-free random band-limited datum."""
    return dict(kind="random_band", seed=seed, k_min=k_min, k_max=k_max, divergence_free=True)


# the keys that decide whether a runner's random band holds a resolved mode
_BAND_KEYS = ("k_min", "k_max", "n", "box_len")


def _solve(cfg: dict, book, u0: VectorField, mesh_nodes: int):
    """The Picard construction for u0 on mesh_nodes nodes, and the largest
    half-mesh estimate of B's error on it over ||u(t)||_2 (not over ||B||:
    B of a Taylor-Green flow is round-off)."""
    quad = estimate_quadrature(book, cfg["quad_nodes"])
    solution = solve_mild(
        u0,
        cfg["horizon"],
        book,
        mesh_nodes=mesh_nodes,
        quad=quad,
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
        override_smallness=cfg.get("override_smallness", False),
    )
    u = solution.trajectory
    with np.errstate(invalid="ignore"):  # 0/0 of a zero flow is NaN, which run refuses
        errors = bilinear_error_estimate(u, u, quad) / weighted_lebesgue(u, 0.0, 2)[1::2]
    return solution, float(errors.max())


def _mesh_doubling(cfg: dict, book, analysis: str, key: str, analyse):
    """Refuse an exponent of cfg[key] below the floor of the analysis for
    book (check_exponent_floor), then solve the datum at mesh_nodes and
    2 * mesh_nodes with book calibrated and apply analyse(solution,
    cfg[key]) to each, a refusal of which names key; return both reports,
    the relative change of each sup, the shared summary and the
    calibration digest."""
    with naming(key):
        check_exponent_floor(book, analysis, cfg[key])
    book, u0 = _calibrated_datum(cfg, book)
    solves = [_solve(cfg, book, u0, nodes) for nodes in (cfg["mesh_nodes"], 2 * cfg["mesh_nodes"])]
    (coarse_u, coarse_b_error), (fine_u, fine_b_error) = solves
    with naming(key):
        coarse, fine = analyse(coarse_u, cfg[key]), analyse(fine_u, cfg[key])
    changes = [
        abs(b - a) / max(a, b) if max(a, b) > 0 else 0.0
        for a, b in zip(coarse.sups, fine.sups)
    ]
    summary = {
        "max_rel_change": max(changes),
        "iterations_coarse": coarse_u.trace.iterations,
        "iterations_fine": fine_u.trace.iterations,
        "all_finite": all(np.isfinite(coarse.sups)) and all(np.isfinite(fine.sups)),
        "b_error_estimate_coarse": coarse_b_error,
        "b_error_estimate_fine": fine_b_error,
    }
    return coarse, fine, changes, summary, book.calibration_digest


# ---------------------------------------------------------------------------
# Experiment runners (each returns columns, rows, summary, calibration digest)

# The kernel of exp(t Lap) P div at time t is t^(-(d+1)/2) K(x / sqrt(t)):
# its algebraic tail shows only past a core of a few sqrt(t), where the heat
# factor exp(-|x|^2 / (4t)) is e^-1 at 2 sqrt(t). So kernel-decay refuses a
# tail window that starts below _CORE_WIDTHS sqrt(t). Radii reach box_len/4,
# which is 2.5 sqrt(t) for t on the cap box_len^2/100, so the constant stays
# below 2.5, and the default window (t = 1, tail_lo = 4) passes.
_CORE_WIDTHS = 2.0


def _run_kernel_decay(cfg):
    count = cfg["radius_count"]
    require(cfg["radius_min"] < cfg["radius_max"], ("radius_min", "radius_max"),
            f"need radius_min < radius_max, got {cfg['radius_min']!r} and {cfg['radius_max']!r}")
    radii = np.geomspace(cfg["radius_min"], cfg["radius_max"], count)
    in_tail = int(np.count_nonzero((radii >= cfg["tail_lo"]) & (radii <= cfg["tail_hi"])))
    require(in_tail >= 2, ("radius_min", "radius_max", "radius_count", "tail_lo", "tail_hi"),
            f"radius_count={count} puts {in_tail} radii inside "
            f"[{cfg['tail_lo']}, {cfg['tail_hi']}]; the tail slope needs at least two")
    factor_t = float(cfg["selfsim_factor"])
    root = math.sqrt(factor_t)
    # the late profile runs at time factor_t * t on the sqrt(factor_t)-dilated
    # box, held inside that box's validity window: when t sits at the cap,
    # its t_cap can round one ulp below factor_t * t
    with naming("d", "resolution", "box_len", "selfsim_factor"):
        dilated = make_lattice(cfg["d"], cfg["resolution"], cfg["box_len"] * root)
    with naming("d", "resolution", "box_len"):
        lat = make_lattice(cfg["d"], cfg["resolution"], cfg["box_len"])
    with naming("resolution", "box_len", "t", "radius_max"):
        lat.check_cap(cfg["t"], "t")
    core = _CORE_WIDTHS * math.sqrt(cfg["t"])
    require(cfg["tail_lo"] >= core, ("tail_lo", "t"),
            f"the tail window starts at {cfg['tail_lo']!r}, inside the kernel's core "
            f"|x| < {_CORE_WIDTHS:g} sqrt(t) = {core:g}")
    t_late = min(cfg["t"] * factor_t, dilated.t_cap)
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
        # the kernel, and the same kernel late on the dilated box: exact
        # discrete self-similarity up to rounding
        with naming("resolution", "box_len", "t", "radius_max"):
            prof, prof_late = (
                kernel_profile(s, box, radii * dilation,
                               (cfg["tail_lo"] * dilation, cfg["tail_hi"] * dilation), t=t)
                for box, dilation, t in ((lat, 1.0, cfg["t"]), (dilated, root, t_late))
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
            with naming("t", "gamma_min", "gamma_max", "theta_min", "theta_max"):
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
    require(cfg["t_max"] > cfg["t_min"], ("t_min", "t_max"),
            f"need t_max > t_min, got {cfg['t_min']!r} and {cfg['t_max']!r}")
    require(cfg["q"] < cfg["q_tilde"], ("q", "q_tilde"),
            f"need q < q_tilde for a decay, got {cfg['q']!r} and {cfg['q_tilde']!r}")
    lat = _lattice(cfg, "resolution")
    with naming("box_len", "t_max"):
        lat.check_cap(cfg["t_max"], "t_max")
    u0 = _realized(dict(kind="gaussian", width=cfg["width"], amplitude=cfg["amplitude"]), lat,
                   "width")
    with naming("t_min", "t_max", "per_octave"):
        t_grid = dyadic_grid(cfg["t_max"], cfg["t_min"], cfg["per_octave"])
    d, q, qt = cfg["d"], float(cfg["q"]), float(cfg["q_tilde"])
    expected_slope = -(d / 2.0) * (1.0 / q - 1.0 / qt)
    columns = ["t", "measured_norm", "closed_form", "rel_err"]
    rows = []
    measured = heat_sup(u0, t_grid, 0.0, qt).values
    _require_normal(measured.min(), ("width", "amplitude", "q_tilde"), "the heat sup of the datum")
    for j, t in enumerate(t_grid):
        sigma = cfg["width"] + t
        closed = (
            cfg["amplitude"]
            * (4.0 * np.pi * sigma) ** (-(d / 2.0) * (1.0 - 1.0 / qt))
            * qt ** (-d / (2.0 * qt))
        )
        rows.append([float(t), float(measured[j]), float(closed), float(abs(measured[j] - closed) / closed)])
    with naming("t_min", "t_max", "per_octave"):
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
    lat = _lattice(cfg)
    datum = dict(kind="single_mode", mode=cfg["mode"], amplitude=cfg["amplitude"],
                 divergence_free=True)
    u0 = _realized(datum, lat, "mode", "d", "n")
    s_b, q = float(cfg["smoothness"]), float(cfg["q"])
    norm = lebesgue_norm(u0, q)
    _require_normal(norm, ("amplitude", "q"), f"the L^{q:g} norm of the datum")
    with naming("n"):
        report = besov_norm_heat(u0, s_b, q)
    mode_sq = float(
        sum((TWO_PI / lat.box_len * m) ** 2 for m in cfg["mode"])
    )
    beta = -s_b / 2.0
    try:
        closed = (beta / (math.e * mode_sq)) ** beta * norm
    except OverflowError:
        closed = math.inf
    require(np.finfo(float).tiny <= closed < math.inf and report.value > 0,
            ("smoothness", "mode", "box_len"),
            f"the heat-Besov norm {report.value:g} or its closed form {closed:g} is outside "
            "the normal floats")
    rescaled = _realized({**datum, "amplitude": cfg["amplitude"] * cfg["rescale"]}, lat,
                         "amplitude", "rescale")
    report_scaled = besov_norm_heat(rescaled, s_b, q)
    _require_normal(report_scaled.value, ("amplitude", "rescale"), "the rescaled heat-Besov norm")

    grid = window_grid(lat)
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
    lat = _lattice(cfg)
    band = dict(kind="random_band", k_min=cfg["k_min"], k_max=cfg["k_max"])
    fields = [_realized({**band, "seed": seed}, lat, *_BAND_KEYS)
              for seed in range(cfg["seed"], cfg["seed"] + cfg["count"])]
    with naming("s1", "q1", "s2", "q2"):
        report = sobolev_embedding_check(fields, cfg["s1"], cfg["q1"], cfg["s2"], cfg["q2"])
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
    targets = cfg["targets"]
    require(not cfg["doubling"] or TARGET_KATO in targets, ("doubling", "targets"),
            f"the mesh-doubling spread compares {TARGET_KATO!r} ratios, so targets must hold "
            f"{TARGET_KATO!r}, got {targets!r}")
    book = exponent_book(cfg)
    with naming("d", "p", "s", "q_tilde", "targets"):
        quads = {target: estimate_quadrature(book, cfg["quad_nodes"], target)
                 for target in targets}
    lat = _lattice(cfg)
    data = [_realized(_band_datum(seed, cfg["k_max"], cfg["k_min"]), lat, *_BAND_KEYS)
            for seed in range(cfg["seed"], cfg["seed"] + 2 * cfg["pairs"])]
    pair_data = list(zip(data[::2], data[1::2]))

    # each pair is measured at every horizon on mesh_nodes for each target,
    # then by the kato target at the last horizon on the doubled mesh
    mesh_nodes, horizons = cfg["mesh_nodes"], [float(h) for h in cfg["horizons"]]
    runs = [(horizon, mesh_nodes, targets) for horizon in horizons]
    if cfg["doubling"]:
        runs.append((horizons[-1], 2 * mesh_nodes, [TARGET_KATO]))
    columns = ["pair", "target", "horizon", "mesh_nodes", "ratio"]
    rows = []
    ratio = {}  # (pair, target, horizon, mesh nodes) -> the ratio, positive and finite
    for i, (u0, v0) in enumerate(pair_data):
        for horizon, nodes, run_targets in runs:
            # one heat-flow pair per horizon and mesh, read by every target; a
            # horizon whose mesh or ratio measures nothing is refused
            with naming("horizons"):
                mesh = quadratic_mesh(horizon, nodes)
                u_traj, v_traj = heat_trajectory(u0, mesh), heat_trajectory(v0, mesh)
                for target in run_targets:
                    report = bilinear_estimate_report(u_traj, v_traj, book, target,
                                                      quad=quads[target])
                    rows.append([i, target, horizon, nodes, report.ratio])
                    ratio[i, target, horizon, nodes] = report.ratio

    def spread(a: tuple, b: tuple) -> float:
        """The largest quotient of a pair's ratios at the runs a and b, each
        (target, horizon, mesh nodes), and at least 1."""
        pairs = [(ratio[(i,) + a], ratio[(i,) + b]) for i in range(len(pair_data))]
        return max([1.0] + [max(x, y) / min(x, y) for x, y in pairs])

    summary = {}
    for target in targets:
        summary[f"max_ratio_{target}"] = max(ratio[i, target, h, mesh_nodes]
                                             for i in range(len(pair_data)) for h in horizons)
        if len(horizons) >= 2:
            summary[f"horizon_spread_{target}"] = spread(
                (target, horizons[0], mesh_nodes), (target, horizons[-1], mesh_nodes))
    if cfg["doubling"]:
        summary["mesh_doubling_spread"] = spread(
            (TARGET_KATO, horizons[-1], mesh_nodes), (TARGET_KATO, horizons[-1], 2 * mesh_nodes))

    # weighted norm of B must vanish at t -> 0 (checked on the first pair
    # with a fine mesh so enough nodes sit below horizon/100)
    u0, v0 = pair_data[0]
    mesh = quadratic_mesh(horizons[-1], cfg["vanishing_mesh_nodes"])
    quad = estimate_quadrature(book, cfg["quad_nodes"])
    b_traj = bilinear_trajectory(heat_trajectory(u0, mesh), heat_trajectory(v0, mesh), quad)
    vanishing = vanishing_at_zero(b_traj, book.alpha / 2.0, r=book.q_tilde)
    summary["vanishing_at_zero"] = vanishing.vanishing
    return columns, rows, summary, None


def _run_smallness(cfg):
    lat = _lattice(cfg)
    data = [_realized(datum_cfg, lat, f"data[{idx}]") for idx, datum_cfg in enumerate(cfg["data"])]
    _check_window(cfg, data[0])
    book = _calibrated_book(cfg, exponent_book(cfg))
    columns = ["datum", "variant", "lhs", "threshold", "satisfied"]
    rows = []
    equiv_ratios = []
    for idx, (datum_cfg, u0) in enumerate(zip(cfg["data"], data)):
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


def _tg_closed_form_error(solution) -> float:
    """Max relative L2 node error against the decaying Taylor-Green flow of
    the solution's datum."""
    u0 = solution.datum
    lat = u0.lattice
    spec_data = lat.rforward(u0.data)
    # infer the harmonic from the datum's dominant mode magnitude
    mags = np.abs(spec_data)
    idx = np.unravel_index(int(np.argmax(mags)), mags.shape)
    k_vec = [lat.k_axes[a].reshape(-1)[idx[1 + a]] for a in range(lat.d)]
    rate = float(sum(k * k for k in k_vec))
    traj = solution.trajectory
    exact = Trajectory(lat, traj.times,
                       np.array([u0.data * math.exp(-rate * float(t)) for t in traj.times]))
    with np.errstate(invalid="ignore"):  # 0/0 of a zero flow is NaN, which run refuses
        errors = weighted_lebesgue(traj - exact, 0.0, 2) / weighted_lebesgue(exact, 0.0, 2)
    return float(errors.max())


def _run_solve(cfg):
    book, u0 = _calibrated_datum(cfg, exponent_book(cfg))
    solution, b_error = _solve(cfg, book, u0, cfg["mesh_nodes"])
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
    # the Taylor-Green flow solves Navier-Stokes only at d = 2, where its B
    # vanishes; at d = 3 its u.grad u is not a gradient, and the key would
    # measure B, not the solver's error
    if cfg["datum"]["kind"] == "taylor_green" and cfg["d"] == 2:
        summary["closed_form_max_rel_err"] = _tg_closed_form_error(solution)
    summary["b_error_estimate"] = b_error
    if cfg["save_fields"] and cfg.get("out_dir"):
        save_solution(solution, Path(cfg["out_dir"]) / "solution")
    return columns, rows, summary, book.calibration_digest


def _run_ladder(cfg):
    coarse, fine, changes, summary, digest = _mesh_doubling(
        cfg, exponent_book(cfg), "ladder", "r_values", regularity_ladder
    )
    columns = ["r", "weight", "sup_coarse", "sup_fine", "rel_change", "early_ok"]
    rows = [
        [float(r), weight, a, b, change, early]
        for r, weight, a, b, change, early in zip(
            coarse.r_values, coarse.weights, coarse.sups, fine.sups, changes, coarse.early_ok
        )
    ]
    return columns, rows, summary, digest


def _run_fluctuation(cfg):
    coarse, fine, changes, summary, digest = _mesh_doubling(
        cfg, _critical_book(cfg, "fluctuation table"), "fluctuation", "p_tilde_values",
        fluctuation_analysis
    )
    columns = ["p_tilde", "smoothness", "sup_coarse", "sup_fine", "rel_change"]
    rows = [
        [float(pt), smoothness, a, b, change]
        for pt, smoothness, a, b, change in zip(
            coarse.p_tilde_values, coarse.smoothness, coarse.sups, fine.sups, changes
        )
    ]
    return columns, rows, summary, digest


def _run_scaling(cfg):
    book = _critical_book(cfg, "scaling experiment")
    lam = float(cfg["lam"])
    horizon = float(cfg["horizon"])
    lat = _lattice(cfg)
    with naming("lam"):
        lat_fine = make_lattice(cfg["d"], cfg["n"], cfg["box_len"] / lam)
    horizon_fine = horizon / (lam * lam)  # lam**2 would raise where lam * lam is inf
    _require_normal(horizon_fine, ("lam",), "the rescaled horizon horizon / lam^2")
    u0 = _realized(cfg["datum"], lat, "datum")
    _check_window(cfg, u0)
    with naming("lam", "datum"), np.errstate(over="ignore"):  # VectorField refuses an inf
        u0_scaled = VectorField(lat_fine, lam * u0.data)
    lhs = smallness_lhs(u0, horizon, book, SMALLNESS_CRITICAL).lhs
    lhs_scaled = smallness_lhs(u0_scaled, horizon_fine, book, SMALLNESS_CRITICAL).lhs
    rel = abs(lhs - lhs_scaled) / lhs if lhs > 0 else float("inf")
    columns = ["which", "horizon", "box_len", "lhs"]
    rows = [
        ["original", horizon, float(cfg["box_len"]), lhs],
        ["rescaled", horizon_fine, float(cfg["box_len"]) / lam, lhs_scaled],
    ]
    summary = {"lam": lam, "rel_difference": float(rel)}
    return columns, rows, summary, None


def _run_powerlaw(cfg):
    lat = _lattice(cfg)
    d, p, qt = cfg["d"], float(cfg["p"]), float(cfg["q_tilde"])
    s_b = d / qt - d / p
    require(s_b < 0, ("p", "q_tilde"),
            "the dichotomy needs d/q_tilde < d/p so the Besov smoothness is negative, "
            f"got {s_b:g}")
    levels = [float(e) for e in cfg["r_inner_levels"]]
    require(all(a > b for a, b in zip(levels, levels[1:])), ("r_inner_levels",),
            f"the levels must be strictly decreasing, got {levels}")
    columns = ["r_inner", "lebesgue_norm", "lebesgue_increment", "besov_value", "besov_argmax_t"]
    rows = []
    lp_values, besov_values = [], []
    for i, eps in enumerate(levels):
        datum = dict(kind="power_law", decay=cfg["decay"], r_inner=eps, r_outer=cfg["r_outer"],
                     amplitude=cfg["amplitude"])
        keys = ("decay", "amplitude", f"r_inner_levels[{i}]", "r_outer", "box_len")
        u0 = _realized(datum, lat, *keys)
        lp = lebesgue_norm(u0, p)
        with naming("n"):
            rep = besov_norm_heat(u0, s_b, qt)
        _require_normal(min(lp, rep.value), keys + ("p", "q_tilde"), "the L^p or heat-Besov norm")
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
    keys: dict  # name -> Key
    runner: Callable = dc_field(compare=False)


def _declare(description: str, runner: Callable, **keys: Key) -> ExperimentDef:
    return ExperimentDef(description, keys, runner)


_DIMENSION = Key(2, INTEGER, "[2, 3]")
# the paper's hypotheses p > d/2 >= 1, d/p - 1 <= s < d/(2p) and q_tilde > q
# bound each exponent on its own; build_exponent_book checks them together
BOOK_KEYS = {
    "d": _DIMENSION,
    **_keys(NUMBER, "(1, inf)", p=2.0, q_tilde=4.0),
    "s": Key(0.0, NUMBER, "(-1, 1)"),
}
_CALIBRATION_KEYS = {
    "corpus_seed": Key(11, INTEGER, _NONNEGATIVE),
    "calibration_path": Key(None, PATH, nullable=True),
}
# shared by the mesh-doubling experiments (ladder, fluctuation)
_ANALYSIS_KEYS = {
    **BOOK_KEYS,
    **_keys(NUMBER, _POSITIVE, box_len=TWO_PI, horizon=0.25, tol=1e-9),
    "scale_to_delta_fraction": Key(0.5, NUMBER, _POSITIVE),
    "n": Key(32, **_POINTS),
    "mesh_nodes": Key(16, INTEGER, _MESH),
    "quad_nodes": Key(16, **_NODES),
    "max_iter": Key(100, INTEGER, _COUNT),
    **_CALIBRATION_KEYS,
}

# `mildns calibrate --config`: the book, the calibration file and a corpus
# section of the CorpusSpec fields, with their defaults (an unset corpus d
# is the book's, through calibration_corpus)
CALIBRATE_KEYS = {
    **BOOK_KEYS,
    "path": Key("calibration.json", PATH),
    "corpus": Key({}, SECTION, fields={
        "d": _DIMENSION,
        **_spec_keys(CorpusSpec, INTEGER, _NONNEGATIVE, "seed"),
        **_spec_keys(CorpusSpec, INTEGER, _COUNT, "pairs"),
        "n": Key(CorpusSpec.n, **_POINTS),
        **_spec_keys(CorpusSpec, INTEGER, _MESH, "mesh_nodes"),
        "quad_nodes": Key(CorpusSpec.quad_nodes, **_NODES),
        **_spec_keys(CorpusSpec, NUMBER, _POSITIVE, "box_len", "horizon", "k_max"),
        **_spec_keys(CorpusSpec, NUMBER, _NONNEGATIVE, "k_min"),
    }),
}

EXPERIMENTS = {
    "kernel-decay": _declare(
        "dissipative-projection kernel: spatial decay rate and self-similarity",
        _run_kernel_decay,
        d=_DIMENSION,
        s_values=Key([-0.5, 0.0, 0.4], NUMBER, "(-1, inf)", items=1),
        selfsim_factor=Key(4.0, NUMBER, "(1, inf)"),
        **_keys(NUMBER, _POSITIVE, t=1.0, box_len=160.0, radius_min=0.1, radius_max=20.0),
        **_keys(NUMBER, _POSITIVE, tail_lo=4.0, tail_hi=20.0),
        resolution=Key(512, **_POINTS),
        radius_count=Key(24, INTEGER, "[2, inf)"),
    ),
    "beta-integral": _declare(
        "singular Volterra integral: quadrature against the Gamma-function identity",
        _run_beta_integral,
        t=Key(1.0, NUMBER, _POSITIVE),
        **_keys(NUMBER, "(-inf, 1)", gamma_min=-1.0, gamma_max=0.9),
        **_keys(NUMBER, "(-inf, 1)", theta_min=-1.0, theta_max=0.9),
        grid_points=Key(10, INTEGER, _COUNT),
        node_count=Key(32, **_NODES),
    ),
    "heat-decay": _declare(
        "heat-flow decay of a Gaussian datum against the closed form",
        _run_heat_decay,
        d=_DIMENSION,
        **_keys(NUMBER, _POSITIVE, width=0.1, amplitude=1.0, box_len=80.0),
        **_keys(NUMBER, _POSITIVE, t_min=4.0, t_max=64.0),
        per_octave=Key(4, INTEGER, _COUNT),
        **_keys(NUMBER, _LEBESGUE, q=1.0, q_tilde=4.0),
        resolution=Key(512, **_POINTS),
    ),
    "besov-equiv": _declare(
        "heat characterization of the Besov norm on a single-mode datum",
        _run_besov_equiv,
        d=_DIMENSION,
        n=Key(32, **_POINTS),
        **_keys(NUMBER, _POSITIVE, box_len=TWO_PI, amplitude=1.0, rescale=3.0),
        mode=Key([1, 1], INTEGER, items=1),
        smoothness=Key(-0.5, NUMBER, "(-inf, 0)"),
        q=Key(4.0, NUMBER, _LEBESGUE),
    ),
    "embedding": _declare(
        "Sobolev embedding constants on a random band-limited corpus",
        _run_embedding,
        d=_DIMENSION,
        n=Key(64, **_POINTS),
        count=Key(50, INTEGER, _COUNT),
        seed=Key(7, INTEGER, _NONNEGATIVE),
        **_keys(NUMBER, _POSITIVE, box_len=TWO_PI, k_max=8),
        k_min=Key(1, NUMBER, _NONNEGATIVE),
        **_keys(NUMBER, "(-inf, inf)", s1=0.5, s2=0.0),
        **_keys(NUMBER, "(1, inf)", q1=2.0, q2=4.0),
    ),
    "bilinear": _declare(
        "measured bilinear-estimate constants over a random trajectory corpus",
        _run_bilinear,
        **BOOK_KEYS,
        n=Key(32, **_POINTS),
        mesh_nodes=Key(16, INTEGER, "[2, inf)"),
        quad_nodes=Key(16, **_NODES),
        # the vanishing check needs five nodes t_j = T (j / M)^2 below T / 100
        vanishing_mesh_nodes=Key(64, INTEGER, "[51, inf)"),
        pairs=Key(50, INTEGER, _COUNT),
        seed=Key(23, INTEGER, _NONNEGATIVE),
        **_keys(NUMBER, _POSITIVE, box_len=TWO_PI, k_max=4),
        k_min=Key(1, NUMBER, _NONNEGATIVE),
        horizons=Key([0.5, 1.0], NUMBER, _POSITIVE, items=1),
        targets=Key([TARGET_KATO, TARGET_SOBOLEV], STRING, (TARGET_KATO, TARGET_SOBOLEV), items=1),
        doubling=Key(True, BOOLEAN),
    ),
    "smallness": _declare(
        "the three smallness left-hand sides across datum families",
        _run_smallness,
        **BOOK_KEYS,
        n=Key(32, **_POINTS),
        **_keys(NUMBER, _POSITIVE, box_len=TWO_PI, horizon=0.25),
        **_CALIBRATION_KEYS,
        data=Key(
            [{"kind": "gaussian", "width": 0.1}, {"kind": "taylor_green"}, _band_datum(5)],
            SECTION, items=1, fields=_DATUM_KEYS,
        ),
    ),
    "solve": _declare(
        "Picard construction of a mild solution (Taylor-Green oracle by default)",
        _run_solve,
        **BOOK_KEYS,
        **_keys(NUMBER, _POSITIVE, box_len=2.0 * TWO_PI, horizon=1.0, tol=1e-9),
        n=Key(64, **_POINTS),
        mesh_nodes=Key(32, INTEGER, _MESH),
        quad_nodes=Key(32, **_NODES),
        max_iter=Key(100, INTEGER, _COUNT),
        datum=Key({"kind": "taylor_green", "amplitude": 1.0, "mode": [2, 2]}, SECTION,
                  fields=_DATUM_KEYS),
        override_smallness=Key(True, BOOLEAN),
        scale_to_delta_fraction=Key(None, NUMBER, _POSITIVE, nullable=True),
        **_CALIBRATION_KEYS,
        save_fields=Key(False, BOOLEAN),
    ),
    "ladder": _declare(
        "weighted higher-integrability ladder of a converged solution",
        _run_ladder,
        **_ANALYSIS_KEYS,
        datum=Key(_band_datum(41), SECTION, fields=_DATUM_KEYS),
        r_values=Key([4.0, 6.0, 8.0], NUMBER, "(1, inf)", items=1),
    ),
    "fluctuation": _declare(
        "heat-fluctuation norms of a critical solution",
        _run_fluctuation,
        **_ANALYSIS_KEYS,
        datum=Key(_band_datum(43), SECTION, fields=_DATUM_KEYS),
        p_tilde_values=Key([2.0, 3.0], NUMBER, "(1, inf)", items=1),
    ),
    "scaling": _declare(
        "critical-norm invariance under exact dyadic rescaling",
        _run_scaling,
        **BOOK_KEYS,
        n=Key(64, **_POINTS),
        **_keys(NUMBER, _POSITIVE, box_len=TWO_PI, horizon=0.25),
        lam=Key(2.0, NUMBER, "(1, inf)"),
        datum=Key(_band_datum(47, k_max=8), SECTION, fields=_DATUM_KEYS),
    ),
    "powerlaw": _declare(
        "power-law datum dichotomy: unbounded Lebesgue norm, saturating Besov norm",
        _run_powerlaw,
        d=_DIMENSION,
        **_keys(NUMBER, _LEBESGUE, p=2.0, q_tilde=4.0),
        n=Key(1024, **_POINTS),
        **_keys(NUMBER, _POSITIVE, box_len=8.0, decay=1.0, r_outer=2.0, amplitude=1.0),
        r_inner_levels=Key([0.5, 0.25, 0.125, 0.0625], NUMBER, _POSITIVE, items=2),
    ),
    "fixed-point-demo": _declare(
        "scalar quadratic fixed point: convergence and the divergence guard",
        _run_fixed_point_demo,
        **_keys(NUMBER, _POSITIVE, eta=1.0, tol=1e-13),
        y_converging=Key(0.25, NUMBER, "[0, inf)"),
        y_diverging=Key(1.0, NUMBER),
        max_iter=Key(100, INTEGER, _COUNT),
    ),
}


def list_experiments() -> list:
    """Catalog of experiment ids with one-line descriptions."""
    return [
        {"id": exp_id, "description": exp.description}
        for exp_id, exp in sorted(EXPERIMENTS.items())
    ]


def _experiment(experiment_id) -> ExperimentDef:
    if experiment_id not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment_id!r}; valid ids: {', '.join(sorted(EXPERIMENTS))}"
        )
    return EXPERIMENTS[experiment_id]


def default_config(experiment_id: str) -> dict:
    return {**check_config(_experiment(experiment_id).keys, {}), "experiment": experiment_id}


# The summary keys (or key prefixes) that may be inf by design: bilinear's
# spreads, each the largest quotient of two measured ratios, which
# overflows when one ratio lies far below the other.
_INF_KEYS = ("horizon_spread_", "mesh_doubling_spread")


def _nonfinite_keys(summary: dict, prefix: str = ""):
    """(dotted key, value) of the floats in summary that are NaN, or +-inf
    under a key outside _INF_KEYS, in order, nested sections included."""
    for key, value in summary.items():
        if isinstance(value, dict):
            yield from _nonfinite_keys(value, f"{prefix}{key}.")
        elif (isinstance(value, float) and not math.isfinite(value)
              and (math.isnan(value) or not key.startswith(_INF_KEYS))):
            yield f"{prefix}{key}", value


def run(config: dict) -> ResultTable:
    """Run one experiment from a config dict.

    The dict must name the experiment under 'experiment'; remaining keys
    override the bundled defaults (unknown keys are rejected). When
    'out_dir' is present the CSV and manifest are written there, but only
    after the experiment completed, so failed validation leaves no files.
    A summary float that is NaN, or +-inf outside the keys that may be inf
    (_INF_KEYS), raises NumericalError naming its key, and nothing is
    written.
    """
    if "experiment" not in config:
        raise ConfigError(
            f"config needs an 'experiment' key; valid ids: {', '.join(sorted(EXPERIMENTS))}"
        )
    exp_id = config["experiment"]
    exp = _experiment(exp_id)
    overrides = {k: v for k, v in config.items() if k not in ("experiment", "out_dir")}
    cfg = check_config(exp.keys, overrides)
    cfg["experiment"] = exp_id
    out_dir = config.get("out_dir")
    if out_dir is not None:
        cfg["out_dir"] = str(out_dir)

    columns, rows, summary, calibration_digest = exp.runner(cfg)
    found = next(_nonfinite_keys(summary), None)
    if found is not None:
        key, value = found
        raise NumericalError(f"{exp_id} summary key {key!r} is "
                             f"{'NaN' if math.isnan(value) else value}")

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
