"""Function-space norms on the lattice and their report types.

Scalar norms are Riemann sums with cell weights spacing^d; vector and
tensor fields aggregate their component norms in l2, matching the
convention used by the estimates this package measures. Negative-order
Sobolev and Besov quantities rely on the homogeneous zero-mode convention
(the mean carries no homogeneous information).

Time-dependent objects live on a Trajectory: fields at strictly increasing
positive times. Sup-in-time norms are evaluated on the trajectory mesh;
heat-characterized norms use a dyadic time grid with four points per
octave, capped by the lattice validity window t <= box_len^2 / 100.

Every sup-in-time quantity -- the Kato and Sobolev sup norms, the heat
characterization of the Besov norm, the smallness forms, the
integrability ladder, the fluctuation table and the per-node table rows --
is computed by exactly two primitives: weighted_values, which returns
t^w * norm(f(t)) at each node of any sequence of fields, and heat_flows,
which transforms a datum once and yields exp(t Lap) u0 one field at a
time. heat_sup is their composition with the Lebesgue norm.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import ConfigError, DataError, MeshError
from .lattice import PHYSICAL, SPECTRAL, Field, Lattice, VectorField, to_physical, to_spectral
from .multipliers import fractional_laplacian


# ---------------------------------------------------------------------------
# Exponent bookkeeping


@dataclass(frozen=True)
class ExponentBook:
    """Derived exponents for one (d, p, s, q_tilde) configuration.

    q is the Sobolev-embedding target (1/q = 1/p - s/d), alpha the Kato
    time weight d(1/q - 1/q_tilde), young_h and young_r the convolution
    exponents (young_r is None when q_tilde > 2p puts it below 1),
    gamma_kato and gamma_sobolev the time-singularity exponents of the
    Duhamel kernel for the two estimate targets, and horizon_exponent the
    power of the horizon multiplying the bilinear constant,
    (1 + s - d/p)/2 = (1 - d/q)/2.

    c_hat, delta, sigma, equiv_constant are filled in by calibration:
    measured bilinear constant (with safety factor), smallness threshold
    1/(4 c_hat), guaranteed solution-ball radius, and the measured
    Kato-vs-Besov equivalence constant.
    """

    d: int
    p: float
    s: float
    q_tilde: float
    q: float
    alpha: float
    young_h: float
    young_r: Optional[float]
    gamma_kato: float
    gamma_sobolev: float
    horizon_exponent: float
    c_hat: Optional[float] = None
    delta: Optional[float] = None
    sigma: Optional[float] = None
    equiv_constant: Optional[float] = None
    calibration_digest: Optional[str] = None

    @property
    def is_critical(self) -> bool:
        return abs(self.s - (self.d / self.p - 1.0)) <= 1e-12

    @property
    def is_calibrated(self) -> bool:
        return self.c_hat is not None and self.delta is not None

    @property
    def key(self) -> str:
        return f"d{self.d}-p{self.p:g}-s{self.s:g}-qt{self.q_tilde:g}"

    def with_calibration(self, c_hat, delta, sigma, equiv_constant, digest):
        return replace(
            self,
            c_hat=c_hat,
            delta=delta,
            sigma=sigma,
            equiv_constant=equiv_constant,
            calibration_digest=digest,
        )


# ---------------------------------------------------------------------------
# Trajectories


class Trajectory:
    """Vector fields sampled at strictly increasing positive times.

    Values between mesh nodes come from two-point interpolation that is
    exact for trajectories of the form c * t**interp_power + c' (linear
    interpolation in the coordinate t**interp_power, or log t when the
    power is zero) -- consistent with the Kato-weight power behavior near
    t = 0. Below the first node the first field is used unchanged; the
    trajectory never extrapolates past its last node.
    """

    def __init__(self, lattice: Lattice, times, fields):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise MeshError("trajectory needs a one-dimensional, non-empty time mesh")
        if not np.all(times > 0):
            raise MeshError("trajectory times must be positive")
        if not np.all(np.diff(times) > 0):
            raise MeshError("trajectory times must be strictly increasing")
        if len(fields) != times.size:
            raise MeshError(f"{len(fields)} fields for {times.size} time nodes")
        for f in fields:
            if not isinstance(f, VectorField):
                raise DataError("trajectories hold vector fields")
            if f.lattice != lattice:
                raise DataError("trajectory fields must share the trajectory lattice")
        self.lattice = lattice
        self.times = times
        self.fields = [to_physical(f) for f in fields]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self):
        return self.times.size

    def node_index(self, t: float) -> int:
        """Index of the mesh node equal to t (relative tolerance 1e-12)."""
        idx = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[idx] - t) > 1e-12 * max(1.0, abs(t)):
            raise MeshError(f"t={t!r} is not a node of the trajectory mesh")
        return idx

    def value_at(self, tau: float, interp_power: float = 0.0) -> VectorField:
        times = self.times
        if tau > times[-1] * (1 + 1e-12):
            raise MeshError(f"tau={tau!r} lies beyond the trajectory horizon {times[-1]!r}")
        if tau <= times[0]:
            return self.fields[0]
        if tau >= times[-1]:
            return self.fields[-1]
        hi = int(np.searchsorted(times, tau))
        lo = hi - 1
        t_lo, t_hi = times[lo], times[hi]
        if abs(tau - t_lo) <= 1e-14 * t_lo:
            return self.fields[lo]
        if interp_power != 0.0:
            phi = lambda t: t**interp_power
        else:
            phi = np.log
        lam = (phi(tau) - phi(t_lo)) / (phi(t_hi) - phi(t_lo))
        data = (1.0 - lam) * self.fields[lo].data + lam * self.fields[hi].data
        return VectorField(self.lattice, data, PHYSICAL)

    def _check_compatible(self, other):
        if not isinstance(other, Trajectory):
            raise DataError("trajectory arithmetic requires trajectories")
        if other.lattice != self.lattice or not np.array_equal(other.times, self.times):
            raise DataError("trajectory arithmetic requires identical meshes")

    def __add__(self, other):
        self._check_compatible(other)
        fields = [
            VectorField(self.lattice, a.data + b.data, PHYSICAL)
            for a, b in zip(self.fields, other.fields)
        ]
        return Trajectory(self.lattice, self.times, fields)

    def __sub__(self, other):
        self._check_compatible(other)
        fields = [
            VectorField(self.lattice, a.data - b.data, PHYSICAL)
            for a, b in zip(self.fields, other.fields)
        ]
        return Trajectory(self.lattice, self.times, fields)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        fields = [VectorField(self.lattice, f.data * scalar, PHYSICAL) for f in self.fields]
        return Trajectory(self.lattice, self.times, fields)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


def quadratic_mesh(horizon: float, nodes: int) -> np.ndarray:
    """Graded mesh t_j = T (j / M)^2, j = 1..M, clustered near t = 0."""
    if not (horizon > 0):
        raise MeshError(f"horizon must be positive, got {horizon}")
    if nodes < 2:
        raise MeshError(f"mesh needs at least 2 nodes, got {nodes}")
    j = np.arange(1, nodes + 1, dtype=float)
    return horizon * (j / nodes) ** 2


def heat_flows(u0: Field, times):
    """Yield exp(t Lap) u0 as a physical field for each t in times.

    u0 is transformed once; each flow is built only when the consumer asks
    for it, so a sup over many times holds one flowed field, not all.
    """
    lat = u0.lattice
    spectral = to_spectral(u0)
    for t in times:
        yield to_physical(type(u0)(lat, spectral.data * np.exp(-lat.ksq * t), SPECTRAL))


def heat_trajectory(u0: VectorField, times) -> Trajectory:
    """Trajectory of the free heat evolution of a datum."""
    times = np.asarray(times, dtype=float)
    return Trajectory(u0.lattice, times, list(heat_flows(u0, times)))


def dyadic_grid(t_max: float, t_min: float, per_octave: int = 4) -> np.ndarray:
    """Dyadic time grid with per_octave points per octave, anchored at t_max.

    Built by descending from t_max in factors of 2**(1/per_octave), so grids
    for horizons T and T/lambda^2 (dyadic lambda) correspond element-wise in
    exact floating point. Returned ascending.
    """
    if not (0 < t_min < t_max):
        raise ConfigError(f"need 0 < t_min < t_max, got [{t_min}, {t_max}]")
    ratio = 2.0 ** (1.0 / per_octave)
    out = []
    t = float(t_max)
    while t >= t_min * (1 - 1e-12):
        out.append(t)
        t = t / ratio
    return np.array(out[::-1])


def besov_grid(lattice: Lattice) -> np.ndarray:
    """Default heat grid of the Besov characterization: the dyadic grid from
    the resolution floor spacing^2 up to the validity cap box_len^2 / 100."""
    return dyadic_grid(lattice.box_len**2 / 100.0, lattice.spacing**2)


# ---------------------------------------------------------------------------
# Norm reports


@dataclass
class NormReport:
    kind: str
    exponents: dict
    value: float
    argmax_t: Optional[float] = None
    window_ok: bool = True
    # per-node weighted values behind the sup; not part of the manifest form
    values: Optional[np.ndarray] = dc_field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "exponents": dict(self.exponents),
            "value": self.value,
            "argmax_t": self.argmax_t,
            "window_ok": self.window_ok,
        }


def _component_view(field: Field) -> np.ndarray:
    """Flatten leading component axes to one axis."""
    spatial = field.lattice.spatial_shape
    return field.data.reshape((-1,) + spatial)


def lebesgue_norm(field: Field, r) -> float:
    """Lebesgue norm with Riemann cell weights; components aggregate in l2.

    r may be any value in [1, inf]; np.inf gives the grid sup norm.
    """
    if not (r == np.inf or r >= 1):
        raise ConfigError(f"Lebesgue exponent must be in [1, inf], got {r}")
    phys = to_physical(field)
    comps = _component_view(phys)
    if r == np.inf:
        per_comp = np.max(np.abs(comps), axis=tuple(range(1, comps.ndim)))
    else:
        weights = phys.lattice.cell_volume
        sums = np.sum(np.abs(comps) ** r, axis=tuple(range(1, comps.ndim))) * weights
        per_comp = sums ** (1.0 / r)
    return float(np.sqrt(np.sum(per_comp**2)))


def sobolev_norm(field: Field, s: float, p) -> float:
    """Homogeneous Sobolev norm: Lebesgue-p norm of |k|^s applied to the field."""
    return lebesgue_norm(fractional_laplacian(field, s), p)


def weighted_values(times, fields: Iterable[Field], weight: float,
                    norm: Callable[[Field], float]) -> np.ndarray:
    """t^weight * norm(f) for each (t, f) of times zipped with fields.

    fields may be a generator (heat_flows). Each field goes straight from
    next() into norm and nothing else keeps it, so a generator's previous
    field is freed before it builds the next. weight = 0 gives the plain
    norms.
    """
    fields = iter(fields)
    return np.array([t**weight * norm(next(fields)) for t in times])


def _sup_report(kind: str, exponents: dict, times, values: np.ndarray,
                window_ok: bool) -> NormReport:
    arg = int(np.argmax(values))
    return NormReport(
        kind=kind,
        exponents=exponents,
        value=float(values[arg]),
        argmax_t=float(times[arg]),
        window_ok=window_ok,
        values=values,
    )


def heat_sup(u0: Field, t_grid, weight: float, q) -> NormReport:
    """sup over t_grid of t^weight ||exp(t Lap) u0||_q, streaming the flows.

    window_ok records whether the grid stayed inside the lattice validity
    range [spacing^2, box_len^2 / 100].
    """
    lat = u0.lattice
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or np.any(t_grid <= 0):
        raise ConfigError("heat time grid must be non-empty and positive")
    values = weighted_values(
        t_grid, heat_flows(u0, t_grid), weight, lambda f: lebesgue_norm(f, q)
    )
    window_ok = bool(
        t_grid[-1] <= lat.box_len**2 / 100.0 * (1 + 1e-9)
        and t_grid[0] >= lat.spacing**2 * (1 - 1e-9)
    )
    exponents = {"weight": float(weight), "q": float(q)}
    return _sup_report("heat-sup", exponents, t_grid, values, window_ok)


def besov_norm_heat(field: Field, s: float, q, t_grid=None) -> NormReport:
    """Heat-flow characterization of the Besov norm with negative smoothness:
    sup over the dyadic grid (besov_grid by default) of
    t^(-s/2) * ||exp(t Lap) f||_q.

    Only s < 0 is admissible (the characterization degenerates otherwise).
    """
    if not (s < 0):
        raise ConfigError(
            f"heat characterization requires negative smoothness, got s = {s}"
        )
    if t_grid is None:
        t_grid = besov_grid(field.lattice)
    report = heat_sup(field, t_grid, -s / 2.0, q)
    return replace(report, kind="besov-heat", exponents={"s": float(s), "q": float(q)})


def _horizon_ok(traj: Trajectory) -> bool:
    return bool(traj.horizon <= traj.lattice.box_len**2 / 100.0 * (1 + 1e-9))


def kato_norm(traj: Trajectory, q, q_tilde) -> NormReport:
    """sup over mesh nodes of t^(alpha/2) ||u(t)||_{q_tilde},
    alpha = d (1/q - 1/q_tilde). Requires q_tilde >= q."""
    if q_tilde < q:
        raise ConfigError(f"kato norm requires q_tilde >= q, got q={q}, q_tilde={q_tilde}")
    alpha = traj.lattice.d * (1.0 / q - 1.0 / q_tilde)
    values = weighted_values(
        traj.times, traj.fields, alpha / 2.0, lambda f: lebesgue_norm(f, q_tilde)
    )
    exponents = {"q": float(q), "q_tilde": float(q_tilde), "alpha": alpha}
    return _sup_report("kato-sup", exponents, traj.times, values, _horizon_ok(traj))


def n_norm(traj: Trajectory, s: float, p) -> NormReport:
    """sup over mesh nodes of the homogeneous Sobolev (s, p) norm."""
    values = weighted_values(traj.times, traj.fields, 0.0, lambda f: sobolev_norm(f, s, p))
    exponents = {"s": float(s), "p": float(p)}
    return _sup_report("sobolev-sup", exponents, traj.times, values, _horizon_ok(traj))


@dataclass
class VanishingReport:
    times: np.ndarray
    values: np.ndarray
    vanishing: bool


def vanishing_at_zero(traj: Trajectory, weight_exponent: float, r=2) -> VanishingReport:
    """Weighted norm sequence t^w ||u(t)||_r over the first five mesh nodes,
    with a flag: does it decrease strictly toward zero as t -> 0?

    Requires at least five nodes below horizon / 100 so the early-time
    behavior is actually sampled.
    """
    below = np.count_nonzero(traj.times < traj.horizon / 100.0)
    if below < 5:
        raise MeshError(
            f"vanishing check needs >= 5 nodes below horizon/100, found {below}"
        )
    times = traj.times[:5]
    values = weighted_values(
        times, traj.fields[:5], weight_exponent, lambda f: lebesgue_norm(f, r)
    )
    vanishing = bool(np.all(np.diff(values) > 0))
    return VanishingReport(times=times, values=values, vanishing=vanishing)


@dataclass
class DecayFit:
    slope: float
    intercept: float
    residual: float
    n_points: int
    power_law: bool


def decay_exponent_fit(t_values, norm_values, window) -> DecayFit:
    """Least-squares slope of log(norm) against log(t) inside a time window.

    Needs at least 8 positive samples in the window. residual is the RMS
    of the log-space residuals; fits with residual above 10% are flagged
    as non-power-law.
    """
    t_values = np.asarray(t_values, dtype=float)
    norm_values = np.asarray(norm_values, dtype=float)
    lo, hi = window
    mask = (t_values >= lo) & (t_values <= hi)
    if np.count_nonzero(mask) < 8:
        raise ConfigError(
            f"decay fit needs at least 8 samples in [{lo}, {hi}], "
            f"got {np.count_nonzero(mask)}"
        )
    if np.any(norm_values[mask] <= 0):
        raise DataError("decay fit requires positive norm values")
    x = np.log(t_values[mask])
    y = np.log(norm_values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    residual = float(np.sqrt(np.mean(resid**2)))
    return DecayFit(
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
        n_points=int(np.count_nonzero(mask)),
        power_law=residual <= 0.10,
    )


@dataclass
class EmbeddingReport:
    s_high: float
    q_high: float
    s_low: float
    q_low: float
    upper_norms: np.ndarray
    lower_norms: np.ndarray
    ratios: np.ndarray
    max_ratio: float


def sobolev_embedding_check(fields, s1: float, q1, s2: float, q2) -> EmbeddingReport:
    """Measure ||f||_{s2, q2} / ||f||_{s1, q1} over a corpus of fields.

    The two index pairs must sit on the same scaling line
    (s1 - d/q1 = s2 - d/q2) with s1 > s2, and both integrabilities must be
    in (1, inf). The max ratio is the measured embedding constant.
    """
    fields = list(fields)
    if not fields:
        raise ConfigError("embedding check needs a non-empty corpus")
    d = fields[0].lattice.d
    for q in (q1, q2):
        if not (1 < q < np.inf):
            raise ConfigError(f"integrability must lie in (1, inf), got {q}")
    if abs((s1 - d / q1) - (s2 - d / q2)) > 1e-12:
        raise ConfigError(
            "embedding indices must sit on one scaling line: "
            f"s1 - d/q1 = {s1 - d / q1!r} but s2 - d/q2 = {s2 - d / q2!r}"
        )
    if not (s1 > s2):
        raise ConfigError(f"embedding requires s1 > s2, got s1={s1}, s2={s2}")
    upper, lower = [], []
    for f in fields:
        denom = sobolev_norm(f, s1, q1)
        if denom == 0.0:
            raise DataError("embedding corpus contains a field with zero source norm")
        upper.append(denom)
        lower.append(sobolev_norm(f, s2, q2))
    upper = np.array(upper)
    lower = np.array(lower)
    ratios = lower / upper
    return EmbeddingReport(
        s_high=float(s1),
        q_high=float(q1),
        s_low=float(s2),
        q_low=float(q2),
        upper_norms=upper,
        lower_norms=lower,
        ratios=ratios,
        max_ratio=float(np.max(ratios)),
    )
