"""Duhamel-layer numerics: the singular Volterra quadrature, the beta
integral used to cross-check it, the bilinear term

    B(u, v)(t) = integral_0^t exp((t - tau) Lap) P div(u x v) d tau,

the measured ratio of the bilinear estimates, and a half-mesh estimate of
B's discretisation error.

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
u(tau_q) x v(tau_q) are formed from the interpolated factors in the
fewest chunks of nodes, as equal as Q allows, whose half-spectrum
coefficients fit lattice.BATCH_BYTES (512 KiB; lattice.batches), one node
to a chunk when one alone passes it. At d = 2, n <= 32 and Q = 16 that is
one chunk, so one call makes one transform. Each chunk is transformed by
one Lattice.rforward call (the products are real, so only
the half of the spectrum that Lattice.inverse reads is computed) and
contracted with the real kernel w_q exp(-|k|^2 gap_q) on that half, and
P div and the inverse transform act once on the summed pair coefficients.
P annihilates gradients and div(phi I) = grad phi, so the rows formed are
those of u x v - u_{d-1} v_{d-1} I: the off-diagonal products, u_i v_i -
u_{d-1} v_{d-1} on the diagonal for i < d-1, and no (d-1, d-1) entry,
which is zero. That is P = d^2 - 1 rows, and for B(u, u), the case of
every Picard step, only the d(d+1)/2 - 1 rows i <= j: 2 at d = 2, 5 at
d = 3. Each product u_i(tau_q) v_j(tau_q) is multiplied row by row into
a buffer, so no factor is copied. The factors come from one
Trajectory.value_at call per factor and node, so the frozen value below
the first mesh node and the exact-node shortcut are the trajectory's own
(and span tracing counts both calls). For B(u, u) the second call at a
node between mesh nodes repeats the first and costs a lookup, not an
interpolation: value_at returns the read-only array of its last
interpolation while that array is alive, as the first factor is.
The sums are re-associated against a per-node projection, so B moves at
round-off, not bit for bit.

The leading nodes of a chunk that the trajectory freezes onto its first
node (Trajectory.frozen, tau <= t_1) all have the product of the first
fields. Only the last of them and the nodes after it are formed and
transformed; its coefficient rows are copied into the slots before it,
ahead of the kernel multiply and the chunk sum, so the rows, their order
and the sum are those of a transform of every node. pocketfft transforms
a row to the same bits alone or in a batch, so B keeps its bits. On the
quadratic mesh at M = Q = 16 the leading frozen runs of the 16 output
times are 16, 5, 4, 3, 3, eight of 2 and three of 1 nodes long, so a
trajectory transforms 222 of its 256 node products. Frozen nodes that
follow a node that is not frozen (the right half of the rule at t_2 on a
mesh with t_2 < 2 t_1) are formed and transformed each; so are the nodes
of a chunk of one node (d = 3, n >= 16 for B(u, v), n >= 32 for B(u, u)).

What B derives from its inputs' shape is built once and kept, in two
read-only tables that all threads share, so a call redoes none of it:

* _volterra_rule(lattice, t, quad), one entry per output time: the nodes
  of volterra_nodes and the one-axis heat factors of the gaps
  (Lattice.heat_factors) with the weights folded into the first, so the
  kernel of a chunk is one broadcast product (two at d = 3). 2 Q n
  floats per output time: 8.5 KiB at n = 32, Q = 16, whatever d, and
  33 KiB at n = 64, Q = 32. The last _RULES_KEPT output times are kept;
* _layout(lattice, u is v), one entry per process, for the last
  (lattice, u is v) used, rebuilt whole (the old entry freed first) when
  a call brings another: the factor pairs and the P div symbol. The
  symbol (_project_div_symbol) is P div as one real (d, P) matrix per
  half-spectrum mode, applied by one einsum over the P pair rows. Each
  entry is stored twice (for the real and the imaginary part), so it
  takes the bytes of a complex (d, P) + half_shape array: at d = 2,
  P = 2 (u is v) or 3, 34 or 51 KiB at n = 32 and 132 or 198 KiB at
  n = 64, and at d = 3, P = 5 or 8, 4.0 or 6.4 MiB at n = 32 and 31 or
  50 MiB at n = 64. A Picard solve and a calibration each call B on one
  lattice and layout, so each builds this entry once.

The product, coefficient, kernel, sum and u_{d-1} v_{d-1} buffers of a
chunk come from lattice.held, the one account of what a thread holds.

Under the Volterra rule lies _legendre(m), the Gauss-Legendre rule, kept
because numpy's leggauss costs more than a whole volterra_nodes call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from math import gamma as gamma_fn

import numpy as np

from .errors import ConfigError, DataError, MeshError
from .lattice import Lattice, VectorField, batches, held, to_physical
from .multipliers import _project_div_spectral
from .norms import ExponentBook, Trajectory, kato_norm, n_norm, weighted_lebesgue


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


_TINY = np.finfo(float).tiny


def volterra_nodes(spec: QuadratureSpec, t: float):
    """Nodes, endpoint gaps, and weights for integral_0^t f(tau) d tau with
    f carrying tau^(-theta) and (t - tau)^(-gamma) endpoint behavior.

    Returns (taus, gaps, weights) with gaps = t - taus carried as an exact
    array: the graded map clusters nodes within one float spacing of the
    endpoints, where recomputing t - tau from tau would round to zero and
    turn an integrable factor into an overflow. Evaluate tau-singular
    factors on taus and (t - tau)-singular factors on gaps;
    sum(weights * f) approximates the integral. Both halves map the
    cached Gauss-Legendre rule of m = node_count / 2 nodes (_legendre).
    """
    if not (t > 0):
        raise ConfigError(f"quadrature interval needs t > 0, got {t}")
    x, w = _legendre(spec.node_count // 2)
    sigma = 0.5 * (x + 1.0)
    w_sigma = 0.5 * w
    c = 0.5 * t

    def half(exponent_target):
        e = 1.0 / (1.0 - exponent_target) if exponent_target > 0 else 1.0
        offset = np.maximum(c * sigma**e, _TINY)
        return offset, c * e * sigma ** (e - 1.0) * w_sigma

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
        # roots_jacobi divides by zero at an exponent 2^-53 below 1, harmlessly
        with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
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


# Output times (lattice, t, rule) whose Volterra rule is kept.
_RULES_KEPT = 256


@lru_cache(maxsize=_RULES_KEPT)
def _volterra_rule(lat: Lattice, t: float, quad: QuadratureSpec):
    """The rule of B at output time t: the nodes tau_q of volterra_nodes as
    floats, and the d one-axis heat factors of the gaps
    (Lattice.heat_factors) with the weights w_q folded into the first,
    read-only, each with a leading node axis. The product of node q's
    factors is w_q exp(-|k|^2 gap_q) on the half grid."""
    taus, gaps, weights = volterra_nodes(quad, t)
    factors = lat.heat_factors(gaps)
    factors[0] = weights.reshape((-1,) + (1,) * lat.d) * factors[0]
    for f in factors:
        f.flags.writeable = False
    return taus.tolist(), tuple(factors)


def _project_div_symbol(lat: Lattice, pair_of: np.ndarray) -> np.ndarray:
    """P div of the pair rows of B, read-only: a real array of shape
    (d, P, 2 * modes) with (P div T)_i = 1j * sum_r symbol[i, r] * acc[r]
    over the float view of the pair rows acc (P, modes) of T, where
    pair_of maps tensor entry (i, j) to its row and (d-1, d-1) to row P,
    one past the last, which is always zero.

    Column r is _project_div_spectral applied to the unit tensor of pair
    r (both mirror entries when u is v). The kernel maps a real tensor
    to 1j times a real vector, so its real part is zero; the imaginary
    part is kept, each entry twice, once for the real and once for the
    imaginary part of its mode.
    """
    pair_count = int(pair_of.max())
    symbol = np.empty((lat.d, pair_count, 2 * math.prod(lat.half_shape)))
    unit = np.zeros((pair_count + 1,) + lat.half_shape, dtype=np.complex128)
    for r in range(pair_count):
        unit[r] = 1.0
        column = _project_div_spectral(unit[pair_of], lat).imag.reshape(lat.d, -1)
        symbol[:, r] = np.repeat(column, 2, axis=-1)
        unit[r] = 0.0
    symbol.flags.writeable = False
    return symbol


def _project_div(acc: np.ndarray, lat: Lattice, symbol: np.ndarray) -> np.ndarray:
    """The half-array coefficients of P div T from its contiguous pair rows
    acc, through one real contraction with the symbol of
    _project_div_symbol."""
    rows = acc.reshape(len(acc), -1).view(np.float64)
    out = np.einsum("irm,rm->im", symbol, rows)
    out = out.view(np.complex128).reshape((lat.d,) + lat.half_shape)
    out *= 1j
    return out


@lru_cache(maxsize=1)
def _layout(lat: Lattice, symmetric: bool):
    """B's set-up for one (lattice, u is v), read-only and shared by all
    threads: the factor pairs (i, j), only i <= j when u is v and never
    (d-1, d-1), and the P div symbol of pair_of, the map from tensor entry
    (i, j) to the row of its product and from (d-1, d-1) to the zero row
    P. Only the last layout is kept, and a miss frees it before the next
    symbol is built."""
    _layout.cache_clear()  # frees the old symbol first
    rows, cols = (np.triu_indices(lat.d) if symmetric
                  else np.indices((lat.d, lat.d)).reshape(2, -1))
    rows, cols = rows[:-1], cols[:-1]  # (d-1, d-1) is last in both orders
    pair_of = np.full((lat.d, lat.d), rows.size)  # (d-1, d-1): the zero row
    pair_of[cols, rows] = np.arange(rows.size)  # the mirror, when u is v
    pair_of[rows, cols] = np.arange(rows.size)
    return tuple(zip(rows.tolist(), cols.tolist())), _project_div_symbol(lat, pair_of)


def _frozen_head(traj: Trajectory, taus: list) -> int:
    """The count of the leading nodes of taus that traj freezes onto its
    first node (Trajectory.frozen): nodes that share one value, so one
    product and one transform."""
    head = 0
    while head < len(taus) and traj.frozen(taus[head]):
        head += 1
    return head


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
    transformed in the chunks of lattice.batches, one transform per chunk,
    in buffers that the calling thread holds across calls (lattice.held);
    each product u_i * v_j is multiplied row by row into them, so no
    factor is copied. The nodes and the weighted heat factors come from
    the cached _volterra_rule of t; the pairs (i, j) and the P div symbol
    from _layout, kept for the lattice and for whether u_traj is v_traj.
    P div maps the isotropic part u_{d-1} v_{d-1} I of the tensor, a
    pressure gradient, to zero, so it is subtracted from the diagonal
    before the transform and the (d-1, d-1) row, then zero, is not formed:
    d^2 - 1 rows. When u_traj is v_traj only the rows i <= j are formed;
    u_i * u_j == u_j * u_i in IEEE arithmetic, so that shortcut is exact.
    The leading nodes of a chunk at or below the first mesh node
    (_frozen_head) share one product and one transform: only the last of
    them is formed and transformed, and its coefficient rows fill the
    slots before it, so (Q - shared) P rows are transformed and B keeps
    its bits. rforward's result is read, not assumed to be in its out.
    value_at is still called for both factors at every node, a shared one
    too: the interpolation (the frozen value below the first mesh node,
    the exact-node shortcut) stays the trajectory's own, and the call
    count is what span tracing expects. When u_traj is v_traj the second
    call repeats the first, whose array a still holds, so value_at returns
    that array (read-only) after one comparison instead of interpolating
    again.
    """
    u_traj.check_same_mesh(v_traj)
    u_traj.node_index(t)  # raises MeshError when t is off the mesh
    lat = u_traj.lattice
    interp_power = -0.5 * quad.theta
    taus, factors = _volterra_rule(lat, float(t), quad)
    pairs, symbol = _layout(lat, u_traj is v_traj)
    sums = (len(pairs),) + lat.half_shape
    chunks = batches(len(taus), math.prod(sums) * np.dtype(np.complex128).itemsize)
    chunk = (max(c.stop - c.start for c in chunks),)
    products, coeff_buf, kernel_buf, acc, last = held(
        "B", (chunk + (len(pairs),) + lat.spatial_shape, np.float64),
        (chunk + sums, np.complex128), (chunk + lat.half_shape, np.float64),
        (sums, np.complex128), (lat.spatial_shape, np.float64))
    frozen = _frozen_head(u_traj, taus)
    acc[...] = 0.0
    for nodes in chunks:
        # the first `shared` nodes of the chunk take the coefficients of
        # the frozen node after them
        shared = max(min(frozen, nodes.stop) - nodes.start - 1, 0)
        for q, tau in enumerate(taus[nodes]):
            a = u_traj.value_at(tau, interp_power)
            b = v_traj.value_at(tau, interp_power)
            if q < shared:
                continue
            np.multiply(a[-1], b[-1], out=last)
            for r, (i, j) in enumerate(pairs):
                np.multiply(a[i], b[j], out=products[q, r])
                if i == j:
                    products[q, r] -= last
        size = nodes.stop - nodes.start
        coeff = coeff_buf[:size]
        coeff[shared:] = lat.rforward(products[shared:size], out=coeff[shared:])
        coeff[:shared] = coeff[shared]
        kernel = np.multiply(factors[0][nodes], factors[1][nodes], out=kernel_buf[:size])
        for f in factors[2:]:
            kernel *= f[nodes]
        coeff *= kernel[:, None]
        acc += coeff.sum(axis=0)
    return to_physical(lat, _project_div(acc, lat, symbol))


def bilinear_trajectory(u_traj: Trajectory, v_traj: Trajectory,
                        quad: QuadratureSpec) -> Trajectory:
    """B(u, v) evaluated at every node of the shared mesh; bilinear_B
    refuses a v_traj on another lattice or mesh."""
    data = np.array([bilinear_B(u_traj, v_traj, float(t), quad).data for t in u_traj.times])
    return Trajectory(u_traj.lattice, u_traj.times, data)


# ---------------------------------------------------------------------------
# The measured estimate ratio and B's error


TARGET_KATO = "kato"
TARGET_SOBOLEV = "sobolev"


def _check_target(book: ExponentBook, target: str):
    """Refuse, as ConfigError, an unknown target or a book outside the
    target's estimate: 'kato' requires q_tilde > q >= d, 'sobolev'
    q < q_tilde <= 2p."""
    if target not in (TARGET_KATO, TARGET_SOBOLEV):
        raise ConfigError(f"unknown estimate target {target!r}; valid targets: "
                          f"{TARGET_KATO!r}, {TARGET_SOBOLEV!r}")
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


def estimate_quadrature(book: ExponentBook, node_count: int,
                        target: str = TARGET_KATO) -> QuadratureSpec:
    """The Volterra rule of one estimate target on node_count nodes: the
    target's kernel exponent (book.gamma_kato or book.gamma_sobolev) and
    the Kato weight alpha of the trajectory factors. A target whose
    estimate the book does not satisfy is refused (_check_target)."""
    _check_target(book, target)
    gamma = book.gamma_kato if target == TARGET_KATO else book.gamma_sobolev
    return QuadratureSpec(node_count, gamma, book.alpha)


@dataclass
class BilinearEstimateReport:
    """Measured ratio ||B(u, v)|| / (T^horizon_exponent ||u||_K ||v||_K)
    for one estimate target."""

    ratio: float


def bilinear_estimate_report(u_traj: Trajectory, v_traj: Trajectory, book: ExponentBook,
                             target: str = TARGET_KATO, *, quad: QuadratureSpec,
                             refine: bool = False) -> BilinearEstimateReport:
    """Measure one bilinear-estimate constant on a trajectory pair.

    Targets:

    * 'kato': output in the same Kato space as the inputs; requires
      q_tilde > q >= d.
    * 'sobolev': output in the sup-in-time homogeneous Sobolev norm;
      requires q < q_tilde <= 2p.

    B is evaluated with quad as given; estimate_quadrature(book, nodes,
    target) is the target's own rule. The ratio divides the output norm
    by T^horizon_exponent times the product of input Kato norms. A ratio
    that is not a positive finite float measures no constant (an input or
    a B that is zero or underflowed, a product of norms that leaves the
    floats) and raises DataError. B's error comes from the interpolation in time between mesh
    nodes, not from the rule, so doubled quadrature nodes do not see it:
    bilinear_error_estimate measures it, and refine=True is refused.
    """
    if refine:
        raise ConfigError("refine=True is not supported: doubled quadrature nodes do not see "
                          "B's error; bilinear_error_estimate measures it")
    u_traj.check_same_mesh(v_traj)
    _check_target(book, target)
    q = book.q
    norm_u = kato_norm(u_traj, q, book.q_tilde).value
    norm_v = kato_norm(v_traj, q, book.q_tilde).value
    b_traj = bilinear_trajectory(u_traj, v_traj, quad)
    out = (kato_norm(b_traj, q, book.q_tilde) if target == TARGET_KATO
           else n_norm(b_traj, book.s, book.p)).value
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = float(np.divide(out, u_traj.horizon**book.horizon_exponent * norm_u * norm_v))
    if not 0.0 < ratio < math.inf:
        raise DataError(f"the bilinear estimate ratio {ratio:g} is not a positive finite "
                        f"number: ||B(u, v)|| = {out:g}, input Kato norms {norm_u:g} and "
                        f"{norm_v:g}")
    return BilinearEstimateReport(ratio)


def bilinear_error_estimate(u_traj: Trajectory, v_traj: Trajectory,
                            quad: QuadratureSpec) -> np.ndarray:
    """Richardson estimate of B(u, v)'s error: the L^2 norm of
    (B_{M/2} - B_M) / 3 at the nodes t_2, t_4, ..., where B_M is B on the
    M >= 4 mesh nodes and B_{M/2} is B on those nodes alone.

    The even nodes of the quadratic mesh t_j = T (j/M)^2 are the quadratic
    mesh of M // 2 nodes (to t_{M-1} for odd M), and B's error, from the
    interpolation in time, falls 4x when the step halves. When u_traj is
    v_traj the half trajectories are one object, so B takes its symmetric
    pair path.
    """
    u_traj.check_same_mesh(v_traj)
    if len(u_traj) < 4:
        raise MeshError(f"the half-mesh estimate needs at least 4 nodes, got {len(u_traj)}")
    u_half = Trajectory(u_traj.lattice, u_traj.times[1::2], u_traj.data[1::2])
    v_half = (u_half if v_traj is u_traj
              else Trajectory(v_traj.lattice, v_traj.times[1::2], v_traj.data[1::2]))
    fine = [bilinear_B(u_traj, v_traj, float(t), quad).data for t in u_half.times]
    error = (bilinear_trajectory(u_half, v_half, quad).data - fine) / 3.0
    return weighted_lebesgue(Trajectory(u_half.lattice, u_half.times, error), 0.0, 2)
