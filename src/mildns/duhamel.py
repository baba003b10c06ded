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
contracted with the real kernel w_q exp(-|k|^2 gap_q) on that half (one
Lattice.heat call per chunk, whose node axis runs over the gaps), and
P div and the inverse transform act once on the summed (d, d) half
coefficients. For B(u, u), the case of every Picard step, only the
products i <= j are formed. The products of a chunk are multiplied into
one buffer and transformed into a second, both allocated once per call
and reused by every chunk; each product u_i(tau_q) v_j(tau_q) is
multiplied row by row into the first, so no factor is copied. Fresh
arrays per chunk (rfftn makes one per axis) were mapped, zero-filled and returned to the system by the
allocator on every chunk. A default calibration took 61k minor page
faults that way once importing the package loaded no special-function
library, and 5k-19k, varying by process, while it did; with the buffers
it takes 10.7k in every process. The factor pairs are cached per (d, u
is v) (_pair_layout) and the graded unit rule of volterra_nodes per (node
count, exponent) (_graded_rule). The factors come from one
Trajectory.value_at call per factor and node, so the frozen value below
the first mesh node and the exact-node shortcut are the trajectory's own. The sums are re-associated against a per-node
projection, so B moves at round-off, not bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import gamma as gamma_fn
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError
from .lattice import VectorField, to_physical
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
    x, w = np.polynomial.legendre.leggauss(m)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@lru_cache(maxsize=None)
def _graded_rule(m: int, exponent: float):
    """The m-node Gauss-Legendre rule on [0, 1] graded to absorb one
    endpoint exponent: (e, sigma^e, sigma^(e - 1), w_sigma) with
    e = 1 / (1 - exponent) when the exponent is positive, else 1. The
    arrays are read-only; volterra_nodes scales them by t/2."""
    x, w = _legendre(m)
    sigma = 0.5 * (x + 1.0)
    e = 1.0 / (1.0 - exponent) if exponent > 0 else 1.0
    rule = (sigma**e, sigma ** (e - 1.0), 0.5 * w)
    for a in rule:
        a.flags.writeable = False
    return (e,) + rule


_TINY = np.finfo(float).tiny


def volterra_nodes(spec: QuadratureSpec, t: float):
    """Nodes, endpoint gaps, and weights for integral_0^t f(tau) d tau with
    f carrying tau^(-theta) and (t - tau)^(-gamma) endpoint behavior.

    Returns (taus, gaps, weights) with gaps = t - taus carried as an exact
    array: the graded map clusters nodes within one float spacing of the
    endpoints, where recomputing t - tau from tau would round to zero and
    turn an integrable factor into an overflow. Evaluate tau-singular
    factors on taus and (t - tau)-singular factors on gaps;
    sum(weights * f) approximates the integral. Each half scales the
    cached unit rule of its exponent (_graded_rule) by c = t/2.
    """
    if not (t > 0):
        raise ConfigError(f"quadrature interval needs t > 0, got {t}")
    m = spec.node_count // 2
    c = 0.5 * t

    def half(exponent_target):
        e, sigma_e, sigma_e1, w_sigma = _graded_rule(m, exponent_target)
        offset = np.maximum(c * sigma_e, _TINY)
        return offset, c * e * sigma_e1 * w_sigma

    off_left, w_left = half(spec.theta)
    off_right, w_right = half(spec.gamma)
    taus = np.concatenate([off_left, t - off_right])
    gaps = np.concatenate([t - off_left, off_right])
    weights = np.concatenate([w_left, w_right])
    return taus, gaps, weights


def _beta_quadrature(spec: QuadratureSpec, t: float) -> float:
    """Split Gauss-Jacobi evaluation of the beta integrand, spectrally
    accurate for purely algebraic endpoint factors."""
    # the package's one special-function import, kept off the import path
    from scipy.special import roots_jacobi

    gamma, theta = spec.gamma, spec.theta
    m = spec.node_count // 2
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
    other on exponent grids. Both methods check their arguments through
    QuadratureSpec(node_count, gamma, theta): exponents < 1, an even budget >= 8.
    A t so large or so small that the value overflows, or falls below the
    normal floats, is refused (ConfigError).
    """
    spec = QuadratureSpec(node_count, gamma, theta)
    if not (t > 0):
        raise ConfigError(f"beta integral needs t > 0, got {t}")
    if method not in ("closed-form", "quadrature"):
        raise ConfigError(f"unknown beta_integral method {method!r}")
    try:
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            if method == "closed-form":
                constant = (gamma_fn(1.0 - gamma) * gamma_fn(1.0 - theta)
                            / gamma_fn(2.0 - gamma - theta))
                value = float(constant * t ** (1.0 - gamma - theta))
            else:
                value = _beta_quadrature(spec, t)
    except OverflowError:
        value = math.inf
    if not np.finfo(float).tiny <= value < math.inf:
        raise ConfigError(f"beta integral at t = {t:g}, gamma = {gamma:g}, theta = {theta:g} "
                          f"is {value:g}, outside the normal floats")
    return value


# ---------------------------------------------------------------------------
# The bilinear term


# Cap on the half-spectrum coefficients (Lattice.rforward) of the node
# products transformed in one batch: 10 nodes of B(u, u) at d=2, n=32. The
# product and coefficient buffers of one chunk are allocated once per
# bilinear_B call and reused by its chunks (see the module docstring for
# the page faults this saves). A larger cap only holds more at once: at
# d=2, n=32, M=Q=16 a 32 MB cap raised a solve's peak memory by 1.7 MB and
# was no faster. A 128 KB cap also kept the per-chunk temporaries below the
# allocator's mapping threshold, but through twice the transform calls it
# cost the picard benchmark about 5% of its op_s (0.156 -> 0.165 s, 4 of 4
# alternating pairs, with the buffers on both sides).
_CHUNK_BYTES = 256 * 1024


def _check_pair(u_traj: Trajectory, v_traj: Trajectory):
    if u_traj.lattice != v_traj.lattice or not np.array_equal(u_traj.times, v_traj.times):
        raise DataError("bilinear term requires trajectories on one lattice and mesh")


@lru_cache(maxsize=None)
def _pair_layout(d: int, symmetric: bool):
    """The node products of B in d dimensions: the factor pairs (i, j),
    only i <= j when symmetric (u is v), and pair_of, the read-only (d, d)
    map from tensor entry (i, j) to the row of its product."""
    if symmetric:
        rows, cols = np.triu_indices(d)
    else:
        rows, cols = np.indices((d, d)).reshape(2, -1)
    pair_of = np.empty((d, d), dtype=int)
    pair_of[cols, rows] = np.arange(rows.size)  # the mirror, when u is v
    pair_of[rows, cols] = np.arange(rows.size)
    pair_of.flags.writeable = False
    return tuple(zip(rows.tolist(), cols.tolist())), pair_of


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
    coefficients, one transform per chunk, through two buffers allocated
    once per call; each product u_i * v_j is multiplied row by row into
    the first, so no factor is copied. The pairs (i, j) come from the
    cached _pair_layout(d, u_traj is v_traj), and the nodes from the
    cached unit rule of volterra_nodes. When u_traj is v_traj only the
    products i <= j are formed; u_i * u_j == u_j * u_i in IEEE arithmetic,
    so the shortcut is exact. value_at is still called for both factors at
    every node: the interpolation (the frozen value below the first mesh
    node, the exact-node shortcut) stays the trajectory's own, and the
    call count is what span tracing expects.
    """
    _check_pair(u_traj, v_traj)
    u_traj.node_index(t)  # raises MeshError when t is off the mesh
    lat = u_traj.lattice
    d = lat.d
    interp_power = -0.5 * quad.theta
    taus, gaps, weights = volterra_nodes(quad, t)

    pairs, pair_of = _pair_layout(d, u_traj is v_traj)
    # one node's half-spectrum products take as many bytes as the sum
    acc = np.zeros((len(pairs),) + lat.half_shape, dtype=np.complex128)
    chunk = min(taus.size, max(1, _CHUNK_BYTES // acc.nbytes))
    products = np.empty((chunk, len(pairs)) + lat.spatial_shape)
    coeff_buf = np.empty((chunk,) + acc.shape, dtype=np.complex128)
    node_axis = (-1,) + (1,) * d
    for start in range(0, taus.size, chunk):
        nodes = slice(start, start + chunk)
        size = taus[nodes].size
        for q, tau in enumerate(taus[nodes].tolist()):
            a = u_traj.value_at(tau, interp_power)
            b = v_traj.value_at(tau, interp_power)
            for r, (i, j) in enumerate(pairs):
                np.multiply(a[i], b[j], out=products[q, r])
        coeff = lat.rforward(products[:size], out=coeff_buf[:size])
        kernel = weights[nodes].reshape(node_axis) * lat.heat(gaps[nodes])
        coeff *= kernel[:, None]
        acc += coeff.sum(axis=0)
    return to_physical(lat, _project_div_spectral(acc[pair_of], lat))


def bilinear_trajectory(u_traj: Trajectory, v_traj: Trajectory,
                        quad: QuadratureSpec) -> Trajectory:
    """B(u, v) evaluated at every node of the shared mesh."""
    _check_pair(u_traj, v_traj)
    data = np.array([bilinear_B(u_traj, v_traj, float(t), quad).data for t in u_traj.times])
    return Trajectory(u_traj.lattice, u_traj.times, data)


# ---------------------------------------------------------------------------
# Measured-constant reports


TARGET_KATO = "kato"
TARGET_SOBOLEV = "sobolev"


def _check_target(target: str):
    if target not in (TARGET_KATO, TARGET_SOBOLEV):
        raise ConfigError(f"unknown estimate target {target!r}; valid targets: "
                          f"{TARGET_KATO!r}, {TARGET_SOBOLEV!r}")


def estimate_quadrature(book: ExponentBook, node_count: int,
                        target: str = TARGET_KATO) -> QuadratureSpec:
    """The Volterra rule of one estimate target on node_count nodes: the
    target's kernel exponent (book.gamma_kato or book.gamma_sobolev) and
    the Kato weight alpha of the trajectory factors."""
    _check_target(target)
    gamma = book.gamma_kato if target == TARGET_KATO else book.gamma_sobolev
    return QuadratureSpec(node_count, gamma, book.alpha)


@dataclass
class BilinearEstimateReport:
    """Measured ratio ||B(u, v)|| / (T^horizon_exponent ||u||_K ||v||_K)
    for one estimate target: the output norm, its weighted value at each
    mesh node, the quadrature node count, and with refinement the ratio at
    doubled nodes and the stability factor."""

    output_norm: float
    ratio: float
    weighted_values: np.ndarray
    quad_nodes: int
    ratio_refined: Optional[float] = None
    stability_factor: Optional[float] = None


def bilinear_estimate_report(u_traj: Trajectory, v_traj: Trajectory, book: ExponentBook,
                             target: str = TARGET_KATO, *, quad: QuadratureSpec,
                             refine: bool = True) -> BilinearEstimateReport:
    """Measure one bilinear-estimate constant on a trajectory pair.

    Targets:

    * 'kato': output in the same Kato space as the inputs; requires
      q_tilde > q >= d.
    * 'sobolev': output in the sup-in-time homogeneous Sobolev norm;
      requires q < q_tilde <= 2p.

    B is evaluated with quad as given; estimate_quadrature(book, nodes,
    target) is the target's own rule. The ratio divides the output norm
    by T^horizon_exponent times the product of input Kato norms. With
    refine=True, B is recomputed at doubled quadrature nodes, and the
    report also holds that ratio (ratio_refined) and the larger of the two
    ratios over the smaller (stability_factor).
    """
    _check_pair(u_traj, v_traj)
    _check_target(target)
    d, q = book.d, book.q
    if target == TARGET_KATO and not (book.q_tilde > q and q >= d):
        raise ConfigError(
            "kato-target estimate requires q_tilde > q >= d, got "
            f"q_tilde={book.q_tilde}, q={q}, d={d}"
        )
    if target == TARGET_SOBOLEV and not (q < book.q_tilde <= 2 * book.p):
        raise ConfigError(
            "sobolev-target estimate requires q < q_tilde <= 2p, got "
            f"q={q}, q_tilde={book.q_tilde}, p={book.p}"
        )

    norm_u = kato_norm(u_traj, q, book.q_tilde).value
    norm_v = kato_norm(v_traj, q, book.q_tilde).value
    if norm_u == 0.0 or norm_v == 0.0:
        raise DataError("bilinear estimate needs nonzero input trajectories")
    scale = u_traj.horizon**book.horizon_exponent * norm_u * norm_v

    def output(spec: QuadratureSpec) -> NormReport:
        b_traj = bilinear_trajectory(u_traj, v_traj, spec)
        if target == TARGET_KATO:
            return kato_norm(b_traj, q, book.q_tilde)
        return n_norm(b_traj, book.s, book.p)

    out = output(quad)
    ratio = out.value / scale

    ratio_refined = None
    stability = None
    if refine:
        ratio_refined = output(quad.doubled()).value / scale
        pair = sorted([ratio, ratio_refined])
        stability = pair[1] / pair[0] if pair[0] > 0 else float("inf")

    return BilinearEstimateReport(
        output_norm=out.value,
        ratio=ratio,
        weighted_values=out.values,
        quad_nodes=quad.node_count,
        ratio_refined=ratio_refined,
        stability_factor=stability,
    )
