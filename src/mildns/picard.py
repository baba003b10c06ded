"""Quadratic fixed-point solver, smallness conditions, threshold
calibration, and the assembled mild-solution pipeline.

The mild formulation is u = e^{t Lap} u0 - B(u, u) with B the Duhamel
bilinear term. On any normed space where ||B(x, y)|| <= eta ||x|| ||y||,
the Picard iteration x_{n+1} = y - B(x_n, x_n) contracts to the unique
small solution as soon as ||y|| <= 1/(4 eta), and the fixed point stays
inside the ball of radius 1/(2 eta). Everything here is organized around
measuring eta (calibration), checking ||y|| against the measured
threshold (smallness reports), and running the iteration on discrete
trajectories (solve_mild), plus the follow-up integrability ladder and
heat-fluctuation tables for converged solutions.
"""
from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .duhamel import (
    QuadratureSpec,
    bilinear_estimate_report,
    bilinear_trajectory,
    estimate_quadrature,
)
from .errors import (
    CalibrationError,
    ConfigError,
    DataError,
    DivergenceError,
    NonConvergenceError,
    SmallnessError,
    naming,
)
from .lattice import DatumSpec, VectorField, make_lattice, realize_datum, save_field
from .multipliers import _divergence_defects, divergence_defect
from .norms import (
    ExponentBook,
    Trajectory,
    besov_norm_heat,
    heat_sup,
    heat_trajectory,
    kato_norm,
    n_norm,
    quadratic_mesh,
    weighted_lebesgue,
    window_grid,
)
from .runtime import canonical_json, sha256_hex, write_atomic

# ---------------------------------------------------------------------------
# Exponent bookkeeping


def build_exponent_book(d: int, p: float, s: float, q_tilde: float) -> ExponentBook:
    """Validate the standing hypotheses and derive every exponent used
    downstream.

    Requirements: d in {2, 3}; p > d/2; d/p - 1 <= s < d/(2p);
    q_tilde > q where 1/q = 1/p - s/d, and alpha = d(1/q - 1/q_tilde) < 1
    in floats. The last holds for every finite q_tilde, since d/q <= 1,
    unless q_tilde is so large that alpha rounds to 1. Violations raise
    ConfigError naming the violated inequality.
    """
    if d not in (2, 3):
        raise ConfigError(f"dimension must be 2 or 3, got {d}")
    p = float(p)
    s = float(s)
    q_tilde = float(q_tilde)
    if not np.isfinite([p, s, q_tilde]).all():
        raise ConfigError("exponents must be finite")
    if not (p > d / 2):
        raise ConfigError(
            f"hypothesis p > d/2 violated: p = {p:g}, d/2 = {d / 2:g}"
        )
    lower = d / p - 1.0
    upper = d / (2.0 * p)
    if not (lower <= s < upper):
        raise ConfigError(
            f"hypothesis d/p - 1 <= s < d/(2p) violated: s = {s:g}, "
            f"admissible window [{lower:g}, {upper:g})"
        )
    q = d * p / (d - s * p)
    if not (q_tilde > q):
        raise ConfigError(
            f"auxiliary exponent must satisfy q_tilde > q: q_tilde = {q_tilde:g}, "
            f"q = {q:g}"
        )
    alpha = d * (1.0 / q - 1.0 / q_tilde)
    if not alpha < 1.0:
        raise ConfigError(f"auxiliary exponent q_tilde = {q_tilde:g} is too large to tell "
                          f"from inf: alpha = d(1/q - 1/q_tilde) rounds to {alpha:g}")
    young_h = 1.0 / (1.0 + 1.0 / q_tilde - 1.0 / q)
    inv_r = 1.0 + 1.0 / p - 2.0 / q_tilde
    young_r = 1.0 / inv_r if q_tilde <= 2.0 * p else None
    gamma_kato = d / (2.0 * q_tilde) + 0.5
    gamma_sobolev = 0.5 * (s + 1.0) + d / q_tilde - d / (2.0 * p)
    horizon_exponent = 0.5 * (1.0 + s - d / p)
    return ExponentBook(
        d=d,
        p=p,
        s=s,
        q_tilde=q_tilde,
        q=q,
        alpha=alpha,
        young_h=young_h,
        young_r=young_r,
        gamma_kato=gamma_kato,
        gamma_sobolev=gamma_sobolev,
        horizon_exponent=horizon_exponent,
    )


# ---------------------------------------------------------------------------
# Abstract fixed point


@dataclass
class PicardTrace:
    """Per-iteration record of the fixed-point run.

    norms[n] is the governing norm of iterate x_n (x_0 included), diffs[n]
    the norm of x_{n+1} - x_n, ratios the consecutive-difference quotients.
    residual is the certified fixed-point defect of the returned iterate;
    for the plain Picard map the defect of x_n equals diffs[n] exactly,
    which is what makes the single-map-per-iteration loop honest.
    """

    norms: list
    aux_norms: Optional[list]
    diffs: list
    ratios: list
    residual: Optional[float]
    iterations: int
    converged: bool
    threshold: float


def abstract_fixed_point(
    y,
    bilinear_map: Callable,
    eta: float,
    tol: float = 1e-9,
    max_iter: int = 100,
    *,
    norm: Callable = abs,
    aux_norm: Optional[Callable] = None,
    x0=None,
):
    """Solve x = y - B(x, x) by Picard iteration on any space supporting
    +, -, and the supplied norm.

    The returned iterate is the one whose fixed-point defect was measured
    directly: the loop stops when ||x_n - (y - B(x_n, x_n))|| falls below
    tol * max(1, ||y||), and that quantity is recorded as the residual.
    Iterates whose norm exceeds 10/eta abort with DivergenceError; running
    out of iterations raises NonConvergenceError. Both errors carry the
    partial trace. x0 defaults to y itself (the heat flow in the mild
    setting); passing a different start probes uniqueness of the small
    fixed point.
    """
    if not (eta > 0) or not np.isfinite(eta):
        raise ConfigError(f"bilinear constant eta must be positive and finite, got {eta}")
    if not (tol > 0):
        raise ConfigError(f"tolerance must be positive, got {tol}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 1:
        raise ConfigError(f"max_iter must be an integer >= 1, got {max_iter!r}")

    norm_y = float(norm(y))
    threshold = tol * max(1.0, norm_y)
    guard = 10.0 / eta

    x = y if x0 is None else x0
    norms = [float(norm(x))]
    aux_norms = [float(aux_norm(x))] if aux_norm is not None else None
    diffs: list = []
    ratios: list = []

    def trace(converged: bool, residual: Optional[float], iterations: int) -> PicardTrace:
        return PicardTrace(
            norms=norms,
            aux_norms=aux_norms,
            diffs=diffs,
            ratios=ratios,
            residual=residual,
            iterations=iterations,
            converged=converged,
            threshold=threshold,
        )

    for iteration in range(1, max_iter + 1):
        if norms[-1] > guard:
            raise DivergenceError(
                f"iterate norm {norms[-1]:.6g} exceeded the divergence guard "
                f"10/eta = {guard:.6g} at iteration {iteration - 1}",
                trace=trace(False, None, iteration - 1),
            )
        x_next = y - bilinear_map(x, x)
        diff = float(norm(x_next - x))
        diffs.append(diff)
        if len(diffs) >= 2 and diffs[-2] > 0:
            ratios.append(diffs[-1] / diffs[-2])
        if diff <= threshold:
            # diff is exactly the fixed-point defect of x, so x (not
            # x_next) is the iterate whose residual is certified
            return x, trace(True, diff, iteration)
        x = x_next
        norms.append(float(norm(x)))
        if aux_norms is not None:
            aux_norms.append(float(aux_norm(x)))

    raise NonConvergenceError(
        f"no convergence after {max_iter} iterations "
        f"(last successive difference {diffs[-1]:.6g}, threshold {threshold:.6g})",
        trace=trace(False, None, max_iter),
    )


# ---------------------------------------------------------------------------
# Smallness conditions

SMALLNESS_KATO = "kato-window"
SMALLNESS_CRITICAL = "critical"
SMALLNESS_BESOV = "besov"
SMALLNESS_VARIANTS = (SMALLNESS_KATO, SMALLNESS_CRITICAL, SMALLNESS_BESOV)


@dataclass
class SmallnessReport:
    """One smallness-condition evaluation: the measured left-hand side
    against the calibrated threshold (None when the book is uncalibrated,
    in which case satisfied is None too)."""

    variant: str
    lhs: float
    threshold: Optional[float]
    satisfied: Optional[bool]
    horizon: float
    detail: dict


def smallness_lhs(
    u0: VectorField, horizon: float, book: ExponentBook, variant: str = SMALLNESS_KATO
) -> SmallnessReport:
    """Evaluate one of the three smallness left-hand sides for datum u0
    over [0, horizon].

    All three are the heat sup of t^(alpha/2) ||e^{t Lap} u0||_{q_tilde};
    they differ only in grid, prefactor and threshold.

    * 'kato-window': horizon^horizon_exponent times the sup over the dyadic
      grid below the horizon.
    * 'critical': the same sup with no horizon prefactor; requires a
      critical book (s = d/p - 1), where the quantity is scale-invariant.
    * 'besov': horizon^horizon_exponent times besov_norm_heat of smoothness
      -alpha and integrability q_tilde, the sup over the Besov grid.

    The threshold comes from the book's calibration: delta for the first
    two variants, sigma for the Besov one.
    """
    if variant not in SMALLNESS_VARIANTS:
        raise ConfigError(
            f"unknown smallness variant {variant!r}; expected one of {SMALLNESS_VARIANTS}"
        )
    if not isinstance(u0, VectorField):
        raise DataError("smallness evaluation needs a VectorField datum")
    if not (horizon > 0):
        raise ConfigError(f"horizon must be positive, got {horizon}")

    if variant == SMALLNESS_CRITICAL:
        book.require_critical("critical smallness variant")
    if variant == SMALLNESS_BESOV:
        report = besov_norm_heat(u0, -book.alpha, book.q_tilde)
    else:
        grid = window_grid(u0.lattice, horizon)
        report = heat_sup(u0, grid, book.alpha / 2.0, book.q_tilde)
    prefactor = 1.0 if variant == SMALLNESS_CRITICAL else horizon**book.horizon_exponent
    lhs = prefactor * report.value
    threshold = book.sigma if variant == SMALLNESS_BESOV else book.delta
    detail = {"prefactor": prefactor, "argmax_t": report.argmax_t}
    if variant == SMALLNESS_BESOV:
        detail.update(besov_value=report.value, smoothness=-book.alpha)
    else:
        detail.update(sup_value=report.value, grid_points=int(grid.size))

    satisfied = None if threshold is None else bool(lhs <= threshold)
    return SmallnessReport(
        variant=variant,
        lhs=float(lhs),
        threshold=threshold,
        satisfied=satisfied,
        horizon=float(horizon),
        detail=detail,
    )


# ---------------------------------------------------------------------------
# Calibration


@dataclass(frozen=True)
class CorpusSpec:
    """Random trajectory corpus for threshold calibration: `pairs` heat
    flows of independent band-limited divergence-free data on a shared
    lattice and mesh. The box must satisfy the lattice validity window
    horizon <= box_len^2 / 100 because the smallness forms are evaluated
    on the corpus data while measuring the equivalence constant."""

    seed: int = 11
    pairs: int = 20
    d: int = 2
    n: int = 32
    box_len: float = 4.0 * np.pi
    horizon: float = 1.0
    mesh_nodes: int = 16
    quad_nodes: int = 16
    k_min: int = 1
    k_max: int = 4

    def to_dict(self) -> dict:
        return asdict(self)


def _corpus_datum(corpus: CorpusSpec, index: int, lattice) -> VectorField:
    spec = DatumSpec(
        kind="random_band",
        amplitude=1.0,
        seed=corpus.seed + index,
        k_min=corpus.k_min,
        k_max=corpus.k_max,
        divergence_free=True,
    )
    with naming("corpus.k_min", "corpus.k_max", "corpus.n", "corpus.box_len"):
        return realize_datum(spec, lattice)


def calibrate_thresholds(
    book: ExponentBook,
    corpus: Optional[CorpusSpec] = None,
    path: Optional[str] = None,
) -> ExponentBook:
    """Measure the bilinear constant on a random corpus and derive the
    smallness thresholds.

    c_hat is twice the largest Kato-target ratio
    ||B(u, v)||_K / (T^horizon_exponent ||u||_K ||v||_K) over the corpus
    pairs; delta = 1/(4 c_hat). sigma transfers delta to the Besov form
    through the smallest measured quotient of the Besov lhs over the
    Kato-window lhs on the corpus data (the discrete equivalence
    constant). The result is deterministic in the corpus seed, and the
    persisted JSON has no volatile fields, so recalibration reproduces
    the file byte for byte. A path in a missing directory creates it.
    Each refusal of the corpus names the keys of `mildns calibrate` that
    set it, before the first B: the pair count, the dimension, the
    lattice, the validity window of the horizon and each datum's band.
    """
    if corpus is None:
        corpus = CorpusSpec(d=book.d)
    with naming("corpus.pairs"):
        if corpus.pairs < 20:
            raise CalibrationError(
                f"calibration corpus needs at least 20 pairs, got {corpus.pairs}")
    with naming("d", "corpus.d"):
        if corpus.d != book.d:
            raise CalibrationError(
                f"corpus dimension {corpus.d} does not match book dimension {book.d}")

    with naming("corpus.n", "corpus.box_len"):
        lattice = make_lattice(corpus.d, corpus.n, corpus.box_len)
    with naming("corpus.horizon", "corpus.n", "corpus.box_len"):
        window_grid(lattice, corpus.horizon)
    mesh = quadratic_mesh(corpus.horizon, corpus.mesh_nodes)
    quad = estimate_quadrature(book, corpus.quad_nodes)

    max_ratio = 0.0
    equiv = np.inf
    for i in range(corpus.pairs):
        u0 = _corpus_datum(corpus, 2 * i, lattice)
        v0 = _corpus_datum(corpus, 2 * i + 1, lattice)
        u_traj = heat_trajectory(u0, mesh)
        v_traj = heat_trajectory(v0, mesh)
        report = bilinear_estimate_report(u_traj, v_traj, book, quad=quad)
        max_ratio = max(max_ratio, report.ratio)
        for datum in (u0, v0):
            kato_lhs = smallness_lhs(datum, corpus.horizon, book, SMALLNESS_KATO).lhs
            besov_lhs = smallness_lhs(datum, corpus.horizon, book, SMALLNESS_BESOV).lhs
            if kato_lhs > 0:
                equiv = min(equiv, besov_lhs / kato_lhs)

    if not np.isfinite(equiv):
        raise CalibrationError("could not measure the Besov/Kato equivalence constant")

    c_hat = 2.0 * max_ratio
    delta = 1.0 / (4.0 * c_hat)
    sigma = delta * equiv

    payload = {
        "book": book.key,
        "c_hat": c_hat,
        "delta": delta,
        "sigma": sigma,
        "equiv_constant": equiv,
        "corpus": corpus.to_dict(),
    }
    digest = _digest(payload)
    payload["digest"] = digest
    if path is not None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, canonical_json(payload) + "\n")
    return book.with_calibration(c_hat, delta, sigma, equiv, digest)


def _digest(payload: dict) -> str:
    """The digest of a calibration: sha256 of the canonical JSON of the
    payload without its digest key."""
    return sha256_hex(canonical_json({k: v for k, v in payload.items() if k != "digest"}))


def load_calibration(book: ExponentBook, path: str) -> ExponentBook:
    """Attach a previously persisted calibration to a freshly built book.

    A file that is not UTF-8 JSON holding an object, that is for another
    book, that fails its digest check or whose constant is not a positive
    finite number raises CalibrationError naming it.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CalibrationError(f"unreadable calibration file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CalibrationError(f"calibration file {path} must hold a JSON object")
    if payload.get("book") != book.key:
        raise CalibrationError(
            f"calibration file {path} is for book {payload.get('book')!r}, "
            f"not {book.key!r}"
        )
    if _digest(payload) != payload.get("digest"):
        raise CalibrationError(f"calibration file {path} fails its digest check")
    keys = ("c_hat", "delta", "sigma", "equiv_constant")
    for key in keys:
        value = payload.get(key)
        if type(value) not in (int, float) or not 0 < value <= sys.float_info.max:
            raise CalibrationError(f"calibration file {path} needs a positive finite {key}, "
                                   f"got {value!r}")
    return book.with_calibration(*(payload[key] for key in keys), payload["digest"])


# ---------------------------------------------------------------------------
# The assembled solver


@dataclass
class MildSolution:
    """Converged mild solution with its construction record; datum is the
    u0 it was solved from, held by reference, and fluctuation the
    trajectory w = u - e^{t Lap} u0 on its mesh. Both are left out of
    manifest()."""

    trajectory: Trajectory
    datum: VectorField
    fluctuation: Trajectory
    book: ExponentBook
    trace: PicardTrace
    smallness: SmallnessReport
    eta: float
    quad: QuadratureSpec
    divergence_defects: np.ndarray
    early_values: np.ndarray
    early_ok: bool
    ball_ok: bool

    def manifest(self) -> dict:
        return {
            "book": asdict(self.book),
            "times": [float(t) for t in self.trajectory.times],
            "trace": asdict(self.trace),
            "smallness": asdict(self.smallness),
            "eta": self.eta,
            "quad": asdict(self.quad),
            "divergence_defects": [float(v) for v in self.divergence_defects],
            "early_values": [float(v) for v in self.early_values],
            "early_ok": self.early_ok,
            "ball_ok": self.ball_ok,
        }


def check_datum(u0: VectorField):
    """Refuse, as DataError, a datum that is not a VectorField, not
    divergence-free (defect > 1e-8) or not mean-free (mean > 1e-10)."""
    if not isinstance(u0, VectorField):
        raise DataError("solver needs a VectorField datum")
    scale = float(np.abs(u0.data).max())
    defect = divergence_defect(u0)
    if defect > 1e-8:
        raise DataError(
            f"datum is not divergence-free: relative defect {defect:.3g} > 1e-08"
        )
    d = u0.lattice.d
    mean = np.abs(u0.data.mean(axis=tuple(range(1, 1 + d)))).max()
    if mean > 1e-10 * scale:
        raise DataError(
            f"datum must be mean-free: relative mean {mean / scale:.3g} > 1e-10"
        )


def solve_mild(
    u0: VectorField,
    horizon: float,
    book: ExponentBook,
    mesh_nodes: int = 32,
    quad: Optional[QuadratureSpec] = None,
    tol: float = 1e-9,
    max_iter: int = 100,
    override_smallness: bool = False,
    start: str = "heat-flow",
) -> MildSolution:
    """Run the Picard construction for datum u0 on [0, horizon].

    The governing norm is the Kato norm of the book; the homogeneous
    Sobolev sup-norm rides along as the auxiliary trace column. The
    Kato-window smallness condition, the form that the Picard contraction
    needs, is checked first and refusal raises SmallnessError unless
    override_smallness is set (deliberately unguarded runs are how the
    divergence regime is exhibited). quad defaults to the Kato target's
    rule on 32 nodes, estimate_quadrature(book, 32).
    start selects the initial iterate: 'heat-flow' (the default x_0 = y)
    or 'zero'; in the contraction regime both reach the same fixed point,
    which is the uniqueness probe.
    """
    if not book.is_calibrated:
        raise CalibrationError(
            "book has no calibrated thresholds; run calibrate_thresholds first"
        )
    if mesh_nodes < 4:
        raise ConfigError(f"mesh needs at least 4 nodes, got {mesh_nodes}")
    check_datum(u0)

    smallness = smallness_lhs(u0, horizon, book, SMALLNESS_KATO)
    if smallness.satisfied is False and not override_smallness:
        raise SmallnessError(
            f"smallness condition failed: lhs {smallness.lhs:.6g} > "
            f"threshold {smallness.threshold:.6g} "
            f"(variant {smallness.variant}); pass override_smallness=True "
            "to run anyway"
        )

    if start not in ("heat-flow", "zero"):
        raise ConfigError(f"start must be 'heat-flow' or 'zero', got {start!r}")
    mesh = quadratic_mesh(horizon, mesh_nodes)
    y = heat_trajectory(u0, mesh)
    x0 = None
    if start == "zero":
        x0 = Trajectory(y.lattice, y.times, np.zeros_like(y.data))
    if quad is None:
        quad = estimate_quadrature(book, 32)
    eta = book.c_hat * horizon**book.horizon_exponent

    solution_traj, trace = abstract_fixed_point(
        y,
        lambda a, b: bilinear_trajectory(a, b, quad),
        eta,
        tol=tol,
        max_iter=max_iter,
        norm=lambda traj: kato_norm(traj, book.q, book.q_tilde).value,
        aux_norm=lambda traj: n_norm(traj, book.s, book.p).value,
        x0=x0,
    )

    defects = _divergence_defects(solution_traj.data, u0.lattice)
    fluctuation = solution_traj - y
    early = weighted_lebesgue(fluctuation, 0.0, book.p, nodes=5, s=book.s)
    early_ok = bool(np.all(np.diff(early) >= -1e-12 * max(1.0, early.max())))
    ball_ok = bool(trace.norms[-1] <= 0.5 / eta + trace.threshold)

    return MildSolution(
        trajectory=solution_traj,
        datum=u0,
        fluctuation=fluctuation,
        book=book,
        trace=trace,
        smallness=smallness,
        eta=eta,
        quad=quad,
        divergence_defects=defects,
        early_values=early,
        early_ok=early_ok,
        ball_ok=ball_ok,
    )


def save_solution(solution: MildSolution, out_dir) -> None:
    """Persist a solution as one binary field per node plus manifest.json.

    Every file is replaced atomically and the manifest is written last, so
    a manifest stands only beside a complete set of node files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for j, field in enumerate(solution.trajectory.fields):
        save_field(field, out / f"node_{j:04d}.field")
    write_atomic(out / "manifest.json", canonical_json(solution.manifest()) + "\n")


# ---------------------------------------------------------------------------
# Post-solve analyses


@dataclass
class LadderReport:
    """Weighted-integrability table: per r, the sup over nodes of
    t^{(d/2)(1/q - 1/r)} ||u(t)||_{L^r}."""

    r_values: list
    weights: list
    sups: list
    early_ok: list


def check_exponent_floor(book: ExponentBook, analysis: str, values) -> None:
    """Refuse, by its index i, the first entry of values that does not
    exceed the floor of the analysis for this book: every ladder exponent r
    must exceed max(p, q), every fluctuation exponent p_tilde max(p, d)/2."""
    floor, formula = {
        "ladder": (max(book.p, book.q), "max(p, q)"),
        "fluctuation": (max(book.p, float(book.d)) / 2.0, "max(p, d)/2"),
    }[analysis]
    for i, value in enumerate(values):
        if not float(value) > floor:
            raise ConfigError(f"{analysis} exponent [{i}] must exceed {formula} = {floor:g}, "
                              f"got {float(value):g}")


def regularity_ladder(solution: MildSolution, r_list: Sequence[float]) -> LadderReport:
    """Evaluate the higher-integrability ladder on a converged solution.

    Every r must exceed max(p, q) (check_exponent_floor), so each sup is
    kato_norm(trajectory, q, r). The early_ok flag per r records that the
    weighted values do not peak at the very first node, i.e. the weighted
    quantity stays bounded toward t -> 0. A value that is 0 or not finite
    (an r so large that the scaled powers |u|^r underflow) raises
    DataError naming r.
    """
    if not solution.trace.converged:
        raise ConfigError("ladder requires a converged solution")
    book = solution.book
    check_exponent_floor(book, "ladder", r_list)
    first = float(solution.trajectory.times[0])
    r_values, weights, sups, early = [], [], [], []
    for r in r_list:
        r = float(r)
        report = kato_norm(solution.trajectory, book.q, r)
        if not ((0 < report.values) & (report.values < np.inf)).all():
            raise DataError(f"zero or non-finite ladder values at r = {r:g}")
        r_values.append(r)
        weights.append((book.d / 2.0) * (1.0 / book.q - 1.0 / r))
        sups.append(report.value)
        early.append(report.argmax_t > first)
    return LadderReport(r_values, weights, sups, early)


@dataclass
class FluctuationReport:
    """Sup over nodes of the critical-regularity Sobolev norm of the
    fluctuation w = u - e^{t Lap} u0, one row per integrability p_tilde."""

    p_tilde_values: list
    smoothness: list
    sups: list


def fluctuation_analysis(solution: MildSolution,
                         p_tilde_list: Sequence[float]) -> FluctuationReport:
    """Measure the heat-flow fluctuation u - e^{t Lap} u0 of a critical
    solution, u0 its datum, in the scaling-matched Sobolev norms: the
    solution.fluctuation that its solve formed, so no datum is flowed here.

    Requires a critical book (s = d/p - 1) and every p_tilde above
    max(p, d)/2 (check_exponent_floor). For each p_tilde the smoothness is
    d/p_tilde - 1. A value that is not finite, or zero at a node where the
    fluctuation has a nonzero sample (a p_tilde so large that the scaled
    powers underflow), raises DataError naming p_tilde; a node whose
    samples are all zero, as for Taylor-Green data, whose B vanishes,
    reads 0.
    """
    book = solution.book
    book.require_critical("fluctuation analysis")
    check_exponent_floor(book, "fluctuation", p_tilde_list)
    fluctuation = solution.fluctuation
    live = fluctuation.data.reshape(len(fluctuation), -1).any(axis=1)
    p_values, smooth, sups = [], [], []
    for p_tilde in p_tilde_list:
        p_tilde = float(p_tilde)
        s_tilde = book.d / p_tilde - 1.0
        report = n_norm(fluctuation, s_tilde, p_tilde)
        if not np.isfinite(report.values).all():
            raise DataError(f"non-finite fluctuation values at p_tilde = {p_tilde:g}")
        if (live & (report.values == 0)).any():
            raise DataError(f"zero fluctuation values of a nonzero fluctuation at p_tilde = "
                            f"{p_tilde:g}")
        p_values.append(p_tilde)
        smooth.append(s_tilde)
        sups.append(report.value)
    return FluctuationReport(p_values, smooth, sups)
