"""Duhamel-layer numerics: the singular Volterra quadrature, the beta
integral used to cross-check it, the bilinear term

    B(u, v)(t) = integral_0^t exp((t - tau) Lap) P div(u x v) d tau,

and measured-constant reports for the bilinear estimates.

Quadrature design: the integrand carries algebraic endpoint behavior,
(t - tau)^(-gamma) from the dissipative-projection kernel and tau^(-theta)
from the time weights of the trajectory factors. The interval [0, t] is
split at t/2 and each half is mapped by the power substitution that
absorbs its own endpoint (tau = (t/2) sigma^(1/(1-theta)) on the left,
t - tau = (t/2) sigma^(1/(1-gamma)) on the right, identity when the
exponent is nonpositive), then integrated with Gauss-Legendre nodes.
The beta-integral cross-check mode replaces Gauss-Legendre with
Gauss-Jacobi weights on each half, which integrates the pure algebraic
endpoint factors to near machine precision for every admissible exponent
pair; the graded Gauss-Legendre rule keeps an observed order well above
the contracted 1.5 but is not spectrally accurate for fractional theta.

Fused evaluation of B at one output time t: the Q node products
u(tau_q) x v(tau_q) are formed from the interpolated factors in chunks of
at most _CHUNK_BYTES (256 KB) of half-spectrum coefficients, each chunk is
transformed by one Lattice.rforward call (the products are real, so only
the half of the spectrum that Lattice.inverse reads is computed) and
contracted with the real kernel w_q exp(-|k|^2 gap_q) on that half, and
P div and the inverse transform act once on the summed (d, d) half
coefficients. For B(u, u), the case of every Picard step, only the
products i <= j are formed. The factors still come from one
Trajectory.value_at call per factor and node, so the frozen value below
the first mesh node and the exact-node shortcut are the trajectory's own.
The sums are re-associated against a per-node projection, so B moves at
round-off, not bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.special import gamma as gamma_fn, roots_jacobi, roots_legendre

from .errors import ConfigError, DataError
# to_physical is no longer called here, but it stays bound: the benchmark's
# span tracer (bench/spans.py) patches it in every module that imports it,
# and bench/tests/test_spans.py checks this module's binding.
from .lattice import PHYSICAL, VectorField, to_physical  # noqa: F401
from .multipliers import _project_div_spectral
from .norms import ExponentBook, NormReport, Trajectory, kato_norm, n_norm


@dataclass(frozen=True)
class QuadratureSpec:
    """Volterra quadrature parameters.

    node_count is the total node budget (even, >= 8; half per subinterval).
    gamma and theta are the endpoint exponents being absorbed; both must be
    < 1 or the integral itself diverges.
    """

    node_count: int = 32
    gamma: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.node_count < 8:
            raise ConfigError(f"quadrature needs at least 8 nodes, got {self.node_count}")
        if self.node_count % 2 != 0:
            raise ConfigError(f"quadrature node count must be even, got {self.node_count}")
        for name, value in (("gamma", self.gamma), ("theta", self.theta)):
            if not (value < 1):
                raise ConfigError(
                    f"quadrature exponent {name} = {value} is not < 1; "
                    "the endpoint singularity would not be integrable"
                )

    def doubled(self):
        return QuadratureSpec(2 * self.node_count, self.gamma, self.theta)


@lru_cache(maxsize=None)
def _legendre(m: int):
    """Gauss-Legendre roots and weights on [-1, 1], read-only."""
    x, w = roots_legendre(m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def volterra_nodes(spec: QuadratureSpec, t: float):
    """Nodes, endpoint gaps, and weights for integral_0^t f(tau) d tau with
    f carrying tau^(-theta) and (t - tau)^(-gamma) endpoint behavior.

    Returns (taus, gaps, weights) with gaps = t - taus carried as an exact
    array: the graded map clusters nodes within one float spacing of the
    endpoints, where recomputing t - tau from tau would round to zero and
    turn an integrable factor into an overflow. Evaluate tau-singular
    factors on taus and (t - tau)-singular factors on gaps;
    sum(weights * f) approximates the integral.
    """
    if not (t > 0):
        raise ConfigError(f"quadrature interval needs t > 0, got {t}")
    m = spec.node_count // 2
    x, w = _legendre(m)
    sigma = 0.5 * (x + 1.0)
    w_sigma = 0.5 * w
    c = 0.5 * t
    tiny = np.finfo(float).tiny

    def half(exponent_target):
        e = 1.0 / (1.0 - exponent_target) if exponent_target > 0 else 1.0
        offset = np.maximum(c * sigma**e, tiny)
        jac = c * e * sigma ** (e - 1.0)
        return offset, jac * w_sigma

    off_left, w_left = half(spec.theta)
    off_right, w_right = half(spec.gamma)
    taus = np.concatenate([off_left, t - off_right])
    gaps = np.concatenate([t - off_left, off_right])
    weights = np.concatenate([w_left, w_right])
    return taus, gaps, weights


def _beta_quadrature(gamma: float, theta: float, t: float, node_count: int) -> float:
    """Split Gauss-Jacobi evaluation of the beta integrand, spectrally
    accurate for purely algebraic endpoint factors."""
    m = node_count // 2
    c = 0.25 * t

    # left half: tau = c (1 + u), weight (1 + u)^(-theta)
    u, w = roots_jacobi(m, 0.0, -theta)
    g = (t - c * (1.0 + u)) ** (-gamma)
    left = c ** (1.0 - theta) * np.sum(w * g)

    # right half: t - tau = c (1 + u), weight (1 + u)^(-gamma)
    u, w = roots_jacobi(m, 0.0, -gamma)
    h = (t - c * (1.0 + u)) ** (-theta)
    right = c ** (1.0 - gamma) * np.sum(w * h)
    return float(left + right)


def beta_integral(gamma: float, theta: float, t: float, method: str = "closed-form",
                  node_count: int = 32) -> float:
    """integral_0^t (t - tau)^(-gamma) tau^(-theta) d tau.

    method 'closed-form' evaluates the Gamma-function identity
    Gamma(1-gamma) Gamma(1-theta) / Gamma(2-gamma-theta) * t^(1-gamma-theta);
    method 'quadrature' integrates directly (split Gauss-Jacobi) and exists
    to cross-validate the identity and the quadrature layer against each
    other on exponent grids.
    """
    for name, value in (("gamma", gamma), ("theta", theta)):
        if not (value < 1):
            raise ConfigError(
                f"beta integral diverges: exponent {name} = {value} is not < 1"
            )
    if not (t > 0):
        raise ConfigError(f"beta integral needs t > 0, got {t}")
    if method == "closed-form":
        constant = gamma_fn(1.0 - gamma) * gamma_fn(1.0 - theta) / gamma_fn(2.0 - gamma - theta)
        return float(constant * t ** (1.0 - gamma - theta))
    if method == "quadrature":
        if node_count < 8 or node_count % 2:
            raise ConfigError(f"node_count must be even and >= 8, got {node_count}")
        return _beta_quadrature(gamma, theta, t, node_count)
    raise ConfigError(f"unknown beta_integral method {method!r}")


# ---------------------------------------------------------------------------
# The bilinear term


# Cap on the half-spectrum coefficients (Lattice.rforward) of the node
# products transformed in one batch: 10 nodes of B(u, u) at d=2, n=32. A
# larger cap only holds more at once: at d=2, n=32, M=Q=16 a 32 MB cap
# raised a solve's peak memory by 1.7 MB and was no faster.
_CHUNK_BYTES = 256 * 1024


def _check_pair(u_traj: Trajectory, v_traj: Trajectory):
    if u_traj.lattice != v_traj.lattice or not np.array_equal(u_traj.times, v_traj.times):
        raise DataError("bilinear term requires trajectories on one lattice and mesh")


def bilinear_B(u_traj: Trajectory, v_traj: Trajectory, t: float,
               quad: QuadratureSpec) -> VectorField:
    """Evaluate B(u, v)(t) by the graded Volterra rule.

    t must be a node of the trajectory mesh (no extrapolation past sampled
    data). Trajectory values at quadrature abscissae between nodes use the
    power-consistent two-point interpolation with exponent -theta/2 per
    factor (theta is the product's weight exponent).

    P div and the inverse transform are linear, so they act once, on
    sum_q w_q exp(-|k|^2 gap_q) F[u(tau_q) x v(tau_q)], not once per node.
    The products are real, so F is Lattice.rforward and every step runs on
    the half spectrum that Lattice.inverse reads. The node products are
    transformed in chunks of at most _CHUNK_BYTES of half-spectrum
    coefficients, one transform per chunk. When u_traj is v_traj only the
    products i <= j are formed; u_i * u_j == u_j * u_i in IEEE arithmetic,
    so the shortcut is exact. value_at is still called for both factors at
    every node: the interpolation (the frozen value below the first mesh
    node, the exact-node shortcut) stays the trajectory's own, and the
    call count is what span tracing of a solve expects.
    """
    _check_pair(u_traj, v_traj)
    u_traj.node_index(t)  # raises MeshError when t is off the mesh
    lat = u_traj.lattice
    d = lat.d
    interp_power = -0.5 * quad.theta
    taus, gaps, weights = volterra_nodes(quad, t)

    if u_traj is v_traj:
        rows, cols = np.triu_indices(d)
    else:
        rows, cols = np.indices((d, d)).reshape(2, -1)
    pair_of = np.empty((d, d), dtype=int)  # tensor entry (i, j) -> product row
    pair_of[cols, rows] = np.arange(rows.size)  # the mirror, when u is v
    pair_of[rows, cols] = np.arange(rows.size)
    ksq = lat.ksq_half
    node_bytes = rows.size * ksq.size * np.dtype(np.complex128).itemsize
    chunk = max(1, _CHUNK_BYTES // node_bytes)
    node_axis = (-1,) + (1,) * d

    acc = np.zeros((rows.size,) + ksq.shape, dtype=np.complex128)
    for start in range(0, taus.size, chunk):
        nodes = slice(start, start + chunk)
        products = np.array([
            u_traj.value_at(tau, interp_power).data[rows]
            * v_traj.value_at(tau, interp_power).data[cols]
            for tau in taus[nodes]
        ])
        coeff = lat.rforward(products)
        kernel = weights[nodes].reshape(node_axis) * np.exp(
            -ksq * gaps[nodes].reshape(node_axis))
        coeff *= kernel[:, None]
        acc += coeff.sum(axis=0)
    w = _project_div_spectral(acc[pair_of], lat)
    return VectorField(lat, lat.inverse(w), PHYSICAL)


def bilinear_trajectory(u_traj: Trajectory, v_traj: Trajectory,
                        quad: QuadratureSpec) -> Trajectory:
    """B(u, v) evaluated at every node of the shared mesh."""
    _check_pair(u_traj, v_traj)
    fields = [bilinear_B(u_traj, v_traj, float(t), quad) for t in u_traj.times]
    return Trajectory(u_traj.lattice, u_traj.times, fields)


# ---------------------------------------------------------------------------
# Measured-constant reports


TARGET_KATO = "kato"
TARGET_SOBOLEV = "sobolev"
TARGET_KATO_CROSS = "kato-cross"


def _cross_region_ok(d: float, q: float, qt_in: float, qt_out: float) -> bool:
    """Admissible (q_tilde_in, q_tilde_out) region for the cross-exponent
    estimate at integrability q >= d."""
    if not (q < qt_in) or not (q <= qt_out):
        return False
    if qt_in < 2 * d:
        return qt_out < d * qt_in / (2 * d - qt_in)
    if qt_in <= 2 * q:
        return True
    return qt_out > qt_in / 2


@dataclass
class BilinearEstimateReport:
    """Measured ratio ||B(u, v)|| / (T^horizon_exponent ||u||_K ||v||_K)
    for one estimate target, with a per-node breakdown and a
    quadrature-refinement stability factor."""

    target: str
    exponents: dict
    horizon: float
    prefactor: float
    input_norm_u: float
    input_norm_v: float
    output_norm: float
    ratio: float
    times: np.ndarray
    weighted_values: np.ndarray
    quad_nodes: int
    ratio_refined: Optional[float] = None
    stability_factor: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "exponents": dict(self.exponents),
            "horizon": self.horizon,
            "prefactor": self.prefactor,
            "input_norm_u": self.input_norm_u,
            "input_norm_v": self.input_norm_v,
            "output_norm": self.output_norm,
            "ratio": self.ratio,
            "times": [float(t) for t in self.times],
            "weighted_values": [float(v) for v in self.weighted_values],
            "quad_nodes": self.quad_nodes,
            "ratio_refined": self.ratio_refined,
            "stability_factor": self.stability_factor,
        }


def _output_report(b_traj: Trajectory, book: ExponentBook, target: str,
                   q_tilde_out: Optional[float]) -> NormReport:
    if target == TARGET_KATO:
        return kato_norm(b_traj, book.q, book.q_tilde)
    if target == TARGET_SOBOLEV:
        return n_norm(b_traj, book.s, book.p)
    return kato_norm(b_traj, book.q, q_tilde_out)


def bilinear_estimate_report(u_traj: Trajectory, v_traj: Trajectory, book: ExponentBook,
                             target: str = TARGET_KATO,
                             quad: Optional[QuadratureSpec] = None,
                             q_tilde_out: Optional[float] = None,
                             refine: bool = True) -> BilinearEstimateReport:
    """Measure one bilinear-estimate constant on a trajectory pair.

    Targets:

    * 'kato': output in the same Kato space as the inputs; requires
      q_tilde > q >= d.
    * 'sobolev': output in the sup-in-time homogeneous Sobolev norm;
      requires q < q_tilde <= 2p.
    * 'kato-cross': inputs in the Kato space with auxiliary exponent
      book.q_tilde, output with q_tilde_out; the pair must lie in the
      admissible cross-exponent region.

    The ratio divides the output norm by T^horizon_exponent times the
    product of input Kato norms. With refine=True the ratio is recomputed
    at doubled quadrature resolution and the spread is reported.
    """
    _check_pair(u_traj, v_traj)
    d, q = book.d, book.q
    if target == TARGET_KATO:
        if not (book.q_tilde > q and q >= d):
            raise ConfigError(
                "kato-target estimate requires q_tilde > q >= d, got "
                f"q_tilde={book.q_tilde}, q={q}, d={d}"
            )
        gamma = book.gamma_kato
        exponents = {"q": q, "q_tilde": book.q_tilde, "alpha": book.alpha}
    elif target == TARGET_SOBOLEV:
        if not (q < book.q_tilde <= 2 * book.p):
            raise ConfigError(
                "sobolev-target estimate requires q < q_tilde <= 2p, got "
                f"q={q}, q_tilde={book.q_tilde}, p={book.p}"
            )
        gamma = book.gamma_sobolev
        exponents = {"s": book.s, "p": book.p, "q_tilde": book.q_tilde}
    elif target == TARGET_KATO_CROSS:
        if q_tilde_out is None:
            raise ConfigError("kato-cross target needs q_tilde_out")
        if not (q >= d):
            raise ConfigError(f"cross-exponent estimate requires q >= d, got q={q}, d={d}")
        if not _cross_region_ok(d, q, book.q_tilde, q_tilde_out):
            raise ConfigError(
                "cross-exponent pair outside the admissible region: "
                f"q_tilde_in={book.q_tilde}, q_tilde_out={q_tilde_out} at q={q}, d={d}"
            )
        gamma = 0.5 + d / book.q_tilde - d / (2.0 * q_tilde_out)
        exponents = {
            "q": q,
            "q_tilde_in": book.q_tilde,
            "q_tilde_out": q_tilde_out,
        }
    else:
        raise ConfigError(f"unknown estimate target {target!r}")

    if quad is None:
        quad = QuadratureSpec(node_count=32, gamma=gamma, theta=book.alpha)

    norm_u = kato_norm(u_traj, q, book.q_tilde).value
    norm_v = kato_norm(v_traj, q, book.q_tilde).value
    if norm_u == 0.0 or norm_v == 0.0:
        raise DataError("bilinear estimate needs nonzero input trajectories")
    horizon = u_traj.horizon
    prefactor = horizon**book.horizon_exponent

    def measured_ratio(spec: QuadratureSpec):
        b_traj = bilinear_trajectory(u_traj, v_traj, spec)
        out_report = _output_report(b_traj, book, target, q_tilde_out)
        return out_report.value, out_report.values

    output_norm, weighted = measured_ratio(quad)
    ratio = output_norm / (prefactor * norm_u * norm_v)

    ratio_refined = None
    stability = None
    if refine:
        output_fine, _ = measured_ratio(quad.doubled())
        ratio_refined = output_fine / (prefactor * norm_u * norm_v)
        pair = sorted([ratio, ratio_refined])
        stability = pair[1] / pair[0] if pair[0] > 0 else float("inf")

    return BilinearEstimateReport(
        target=target,
        exponents=exponents,
        horizon=horizon,
        prefactor=prefactor,
        input_norm_u=norm_u,
        input_norm_v=norm_v,
        output_norm=output_norm,
        ratio=ratio,
        times=u_traj.times.copy(),
        weighted_values=weighted,
        quad_nodes=quad.node_count,
        ratio_refined=ratio_refined,
        stability_factor=stability,
    )
