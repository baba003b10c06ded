"""Correctness checks for the benchmark's outputs.

Every reference here is computed apart from mildns, with numpy only:
closed forms (the Duhamel term of two single-mode heat flows, the decaying
Taylor-Green vortex, the L2 norm of a truncated power law, the Besov value
of one Fourier mode) or properties the method must have (contraction,
divergence-free output, the calibration identities). Each check raises
CheckFailed with the measured values when the output is wrong and returns
None otherwise, so a test can feed it a perturbed output and expect a
failure.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np


class CheckFailed(Exception):
    """An output disagreed with its reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| / ||b|| in the flat l2 sense."""
    return float(np.linalg.norm((a - b).ravel()) / np.linalg.norm(b.ravel()))


def wavenumbers(n: int, box_len: float, d: int):
    """Signed wavenumbers per axis, shaped for broadcasting over (n,)*d,
    with the unpaired Nyquist entry zeroed: a grid mode at n/2 has no
    well-defined derivative, so derivatives skip it."""
    k = 2.0 * np.pi / box_len * np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    axes = []
    for axis in range(d):
        shape = [1] * d
        shape[axis] = n
        axes.append(k.reshape(shape))
    return axes


def grid(n: int, box_len: float, d: int):
    """Physical coordinates per axis, broadcast to the full grid."""
    x = box_len / n * np.arange(n)
    return np.meshgrid(*([x] * d), indexing="ij")


# ---------------------------------------------------------------------------
# Picard solve


def check_converged(converged: bool, ratios, residual, threshold) -> None:
    """A solve in the small-data regime converges, every contraction ratio
    is below 1 (a solve done in one step has none), and the certified
    residual is within the tolerance."""
    require(converged, "Picard iteration did not converge")
    worst = max(ratios, default=0.0)
    require(worst < 1.0, f"contraction ratio {worst:.4g} >= 1")
    require(residual is not None and residual <= threshold,
            f"residual {residual} exceeds threshold {threshold}")


def divergence_defect(data: np.ndarray, box_len: float) -> float:
    """max |div u| / max |u| of a physical vector field (d, n, ..., n)."""
    d, n = data.shape[0], data.shape[1]
    ks = wavenumbers(n, box_len, d)
    axes = tuple(range(1, d + 1))
    coeff = np.fft.fftn(data, axes=axes)
    div = np.fft.ifftn(sum(1j * ks[i] * coeff[i] for i in range(d))).real
    return float(np.max(np.abs(div)) / np.max(np.abs(data)))


def check_divergence_free(fields, box_len: float, tol: float = 1e-10) -> None:
    worst = max(divergence_defect(f, box_len) for f in fields)
    require(worst <= tol, f"relative divergence {worst:.3g} > {tol:g}")


def check_scaled_smallness(lhs: float, delta: float, fraction: float = 0.5,
                           rtol: float = 1e-9) -> None:
    """The smallness form is homogeneous of degree one, so a datum scaled
    by fraction * delta / lhs has left-hand side fraction * delta."""
    target = fraction * delta
    require(abs(lhs - target) <= rtol * target,
            f"smallness lhs {lhs!r} is not {fraction} * delta = {target!r}")


def taylor_green(n: int, box_len: float, amplitude: float) -> tuple:
    """The d = 2 Taylor-Green cell at the box fundamental and its heat
    decay rate |k|^2 = 2 (2 pi / L)^2; it solves Navier-Stokes exactly as
    amplitude * exp(-rate t) because its nonlinearity is a gradient."""
    x, y = grid(n, box_len, 2)
    k = 2.0 * np.pi / box_len
    data = amplitude * np.stack([np.sin(k * x) * np.cos(k * y),
                                 -np.cos(k * x) * np.sin(k * y)])
    return data, 2.0 * k * k


def check_taylor_green(times, fields, u0: np.ndarray, rate: float,
                       tol: float = 1e-10) -> None:
    worst = max(rel_l2(f, u0 * math.exp(-rate * t)) for t, f in zip(times, fields))
    require(worst <= tol, f"Taylor-Green error {worst:.3g} > {tol:g}")


def check_same_fixed_point(fields_a, fields_b, rtol: float = 1e-8) -> None:
    """Two starts of one contraction reach one fixed point."""
    worst = max(rel_l2(a, b) for a, b in zip(fields_a, fields_b))
    require(worst <= rtol, f"the two starts differ by {worst:.3g} > {rtol:g}")


# ---------------------------------------------------------------------------
# The Duhamel term B against its closed form


def single_mode_flow(n: int, box_len: float, mode, amplitude, t: float) -> np.ndarray:
    """Heat flow of amplitude * cos(k . x) at time t, d = 2."""
    k = 2.0 * np.pi / box_len * np.asarray(mode, dtype=float)
    x, y = grid(n, box_len, 2)
    profile = np.cos(k[0] * x + k[1] * y) * math.exp(-t * float(k @ k))
    return np.stack([a * profile for a in amplitude])


def b_closed_form(n: int, box_len: float, mode_u, a, mode_v, b, t: float) -> np.ndarray:
    """B(u, v)(t) for the heat flows of u0 = a cos(k1 . x), v0 = b cos(k2 . x):

        sum over K = k1 +- k2 of  1/2 (-b . K) (P_K a) sin(K . x)
            (exp(-t (|k1|^2 + |k2|^2)) - exp(-t |K|^2)) / (|K|^2 - |k1|^2 - |k2|^2),

    with the limit t exp(-t |K|^2) when the denominator vanishes.
    """
    scale = 2.0 * np.pi / box_len
    k1 = scale * np.asarray(mode_u, dtype=float)
    k2 = scale * np.asarray(mode_v, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = float(k1 @ k1 + k2 @ k2)
    x, y = grid(n, box_len, 2)
    out = np.zeros((2, n, n))
    for big_k in (k1 + k2, k1 - k2):
        ksq = float(big_k @ big_k)
        if ksq == 0.0:
            continue
        projected = a - big_k * float(big_k @ a) / ksq
        if abs(ksq - s) <= 1e-12 * s:
            time_factor = t * math.exp(-t * s)
        else:
            time_factor = (math.exp(-t * s) - math.exp(-t * ksq)) / (ksq - s)
        wave = np.sin(big_k[0] * x + big_k[1] * y)
        coeff = 0.5 * float(-(b @ big_k)) * time_factor
        out += coeff * projected[:, None, None] * wave
    return out


# Divergence-free polarisations, modes with |k1 +- k2|^2 != |k1|^2 + |k2|^2.
ORACLE_U = ((1, 0), (0.0, 1.0))
ORACLE_V = ((1, 1), (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)))


def b_oracle_error(times, fields, n: int, box_len: float) -> float:
    """Largest relative error over the nodes of B(u, v) for the heat flows
    of ORACLE_U and ORACLE_V against b_closed_form."""
    (mode_u, a), (mode_v, b) = ORACLE_U, ORACLE_V
    return max(rel_l2(f, b_closed_form(n, box_len, mode_u, a, mode_v, b, t))
               for t, f in zip(times, fields))


def check_b_oracle(coarse, fine, n: int, box_len: float, tol: float = 5e-3,
                   low: float = 3.0, high: float = 5.5) -> tuple:
    """B matches the closed form at the workload's mesh, and the error
    falls about 4x (second order) when the mesh and the nodes double.

    coarse and fine are (times, fields) of B at the two meshes; returns
    the two errors.
    """
    err_coarse = b_oracle_error(*coarse, n, box_len)
    err_fine = b_oracle_error(*fine, n, box_len)
    require(err_coarse <= tol, f"B error {err_coarse:.3g} > {tol:g} at the workload mesh")
    drop = err_coarse / err_fine if err_fine > 0 else math.inf
    require(low <= drop <= high,
            f"B error falls {drop:.3g}x under mesh doubling, outside [{low}, {high}]")
    return err_coarse, err_fine


# ---------------------------------------------------------------------------
# Calibration


def check_thresholds(c_hat: float, delta: float, sigma: float, equiv: float,
                     rtol: float = 1e-14) -> None:
    require(math.isfinite(c_hat) and c_hat > 0, f"c_hat {c_hat!r} is not positive")
    require(math.isfinite(equiv) and equiv > 0, f"equivalence constant {equiv!r}")
    want = 1.0 / (4.0 * c_hat)
    require(abs(delta - want) <= rtol * want, f"delta {delta!r} != 1/(4 c_hat) = {want!r}")
    want = delta * equiv
    require(abs(sigma - want) <= rtol * want,
            f"sigma {sigma!r} != delta * equiv_constant = {want!r}")


def calibration_digest(book_key: str, c_hat, delta, sigma, equiv, corpus: dict) -> str:
    """SHA-256 of the persisted calibration payload in canonical JSON."""
    payload = {"book": book_key, "c_hat": c_hat, "delta": delta, "sigma": sigma,
               "equiv_constant": equiv, "corpus": corpus}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_digest(digest: str, expected: str) -> None:
    require(digest == expected, f"calibration digest {digest} != {expected}")


def check_worst_ratio(c_hat: float, pair_ratios, rtol: float = 1e-12) -> None:
    """c_hat is twice the largest pair ratio of its corpus."""
    want = 2.0 * max(pair_ratios)
    require(abs(c_hat - want) <= rtol * want, f"c_hat {c_hat!r} != 2 max ratio {want!r}")


def check_ratio_stability(ratio: float, ratio_doubled: float, factor: float = 1.5) -> None:
    lo, hi = sorted((ratio, ratio_doubled))
    require(lo > 0 and hi / lo < factor,
            f"worst-pair ratio moves {ratio:.6g} -> {ratio_doubled:.6g} under doubled nodes")


# ---------------------------------------------------------------------------
# Power-law datum and Besov norms


def power_law_l2(r_inner: float, r_outer: float) -> float:
    """L2 norm of |x|^-1 on r_inner <= |x| <= r_outer in the plane."""
    return math.sqrt(2.0 * math.pi * math.log(r_outer / r_inner))


def l2_tolerance(n: int, box_len: float, r_inner: float) -> float:
    """Relative tolerance of the lattice L2 norm of the cut power law.

    The error comes from cells cut by the inner circle and scales like
    spacing / r_inner; measured it stays below 0.053, 0.038 and 0.023 times
    that at n = 256, 512 and 1024 on box 8, so 0.08 holds with margin and
    the tolerance shrinks as n grows.
    """
    return 0.08 * (box_len / n) / r_inner


def check_power_law_l2(value: float, r_inner: float, r_outer: float, n: int,
                       box_len: float) -> None:
    want = power_law_l2(r_inner, r_outer)
    err = abs(value / want - 1.0)
    tol = l2_tolerance(n, box_len, r_inner)
    require(err <= tol, f"L2 norm {value!r} is {err:.3g} off {want!r} (> {tol:.3g}) "
                        f"at r_inner {r_inner!r}")


def check_dichotomy(r_inner, l2, besov) -> None:
    """Over r_inner levels about an octave apart, the Lebesgue norm grows
    without stalling while the Besov value saturates: the same criteria as
    the lab's power-law dichotomy."""
    order = np.argsort(r_inner)[::-1]  # decreasing r_inner
    l2 = np.asarray(l2, dtype=float)[order]
    besov = np.asarray(besov, dtype=float)[order]
    steps = np.diff(l2)
    require(bool(np.all(steps > 0)), f"Lebesgue norm not increasing: {l2.tolist()}")
    require(steps[-1] / steps[-2] >= 0.5,
            f"Lebesgue growth stalls: last increments {steps[-2]:.4g}, {steps[-1]:.4g}")
    tail = abs(besov[-1] - besov[-2]) / besov[-2]
    require(tail < 0.10, f"Besov value still moves {tail:.3g} over the last level")


def cos_lq_norm(amplitude: float, box_len: float, d: int, q: float) -> float:
    """L^q norm of amplitude * cos(k . x) over the box [0, L)^d."""
    mean = math.gamma((q + 1) / 2) / (math.sqrt(math.pi) * math.gamma(q / 2 + 1))
    return amplitude * (box_len**d * mean) ** (1.0 / q)


def single_mode_besov(smoothness: float, ksq: float, lq_norm: float) -> float:
    """sup_t t^beta ||e^{t Lap} u||_q = (beta / (e |k|^2))^beta ||u||_q for a
    single mode, beta = -smoothness / 2."""
    beta = -smoothness / 2.0
    return (beta / (math.e * ksq)) ** beta * lq_norm


def check_single_mode_besov(value: float, expected: float, rtol: float = 0.02) -> None:
    err = abs(value / expected - 1.0)
    require(err <= rtol, f"single-mode Besov {value!r} is {err:.3g} off {expected!r}")
