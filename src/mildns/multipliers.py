"""Fourier multipliers: heat flow, fractional Laplacian, Leray projection,
the projected divergence P div of a tensor, and kernel profiling for the
convolution kernel of |k|^s exp(-t |k|^2) P div.

All multipliers act diagonally on the Fourier coefficients. Operators
homogeneous of nonzero degree annihilate the k = 0 mode; the heat flow and
the Leray projection act as the identity on it (constants are divergence
free and do not diffuse). heat_flow is the one node of
norms.heat_trajectory, the heat path every run takes; each other operator
takes a field, multiplies its coefficients (to_spectral, a plain array)
and returns the field of the product (to_physical).

Every coefficient array is the half array of Lattice.rforward, and every
multiplier is built on the same half grid. Operators odd in k contract
against Lattice.k_deriv (Nyquist entries zeroed) so that real fields map
to real fields and the discrete Leray projection is exactly idempotent and
divergence free under the same discrete divergence. _divergence_spectral
and _leray_inplace are the one P div kernel: leray_project, the Duhamel
term (through a symbol it builds from them once per lattice) and
kernel_profile all use them. kernel_profile builds no lattice: it
profiles on the one its caller passes, so a caller that profiles several
orders s on one box builds that box once. _divergence, which the kernel
applies row by row, is also the one divergence that _divergence_defects
measures: the relative defect max |div u| / max |u| of each node of an
array of nodes, one transform pair per batch of lattice.batches.
divergence_defect passes it a field as a batch of one, and a solve the
nodes of its trajectory in one call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, WindowError
from .lattice import Field, Lattice, TWO_PI, VectorField, batches, to_physical, to_spectral


def _divergence(coeff: np.ndarray, lat: Lattice) -> np.ndarray:
    """Coefficients sum_j i k_j c_j of div c, for vector coefficients c."""
    return sum(1j * kd * c for kd, c in zip(lat.k_deriv, coeff))


def _divergence_spectral(tensor_coeff: np.ndarray, lat: Lattice) -> np.ndarray:
    """Vector coefficients sum_j i k_j T_ij of div T, as a new array."""
    out = np.empty(tensor_coeff.shape[1:], dtype=np.complex128)
    for i in range(lat.d):
        out[i] = _divergence(tensor_coeff[i], lat)
    return out


def _leray_inplace(coeff: np.ndarray, lat: Lattice) -> np.ndarray:
    """Overwrite vector coefficients c with c - k (k . c) / |k|^2 and return them."""
    k_dot_c = sum(kd * c for kd, c in zip(lat.k_deriv, coeff)) / lat.safe_ksq_deriv
    for kd, c in zip(lat.k_deriv, coeff):
        c -= kd * k_dot_c
    return coeff


def _fractional_multiplier(lattice: Lattice, s: float) -> np.ndarray:
    """|k|^s on the half grid, 0 at k = 0 for s != 0 (1 everywhere for s = 0)."""
    if not np.isfinite(s):
        raise ConfigError(f"fractional order must be finite, got {s}")
    if s == 0:
        return np.ones(lattice.half_shape)
    kmag = np.sqrt(sum(lattice.half(ka) ** 2 for ka in lattice.k_axes))
    kmag[(0,) * lattice.d] = 1.0
    mult = kmag**s
    mult[(0,) * lattice.d] = 0.0
    return mult


def heat_flow(field: Field, t: float) -> Field:
    """Apply exp(t * Laplacian): coefficients scale by exp(-|k|^2 t). The
    flow is the one node of norms.heat_trajectory(field, [t])."""
    # deferred: norms imports multipliers
    from .norms import heat_trajectory

    if not (t >= 0) or not np.isfinite(t):
        raise ConfigError(f"heat flow time must be >= 0 and finite, got {t}")
    if t == 0:
        return field
    return heat_trajectory(field, [t]).fields[0]


def fractional_laplacian(field: Field, s: float) -> Field:
    """Apply |k|^s. The mean is annihilated for every s != 0 (homogeneous
    operators have no action on constants); s = 0 is the identity."""
    if s == 0:
        return field
    lat = field.lattice
    return to_physical(lat, to_spectral(field) * _fractional_multiplier(lat, s))


def leray_project(field: VectorField) -> VectorField:
    """Project onto divergence-free fields: c_i -> c_i - k_i (k.c) / |k|^2.

    The mean (k = 0) passes through unchanged. The result's spectral
    divergence vanishes to round-off and the projection is idempotent.
    """
    lat = field.lattice
    return to_physical(lat, _leray_inplace(to_spectral(field), lat))


def divergence_defect(field: VectorField) -> float:
    """max |div u| over the grid relative to max |u|."""
    return float(_divergence_defects(field.data[None], field.lattice)[0])


def _divergence_defects(samples: np.ndarray, lat: Lattice) -> np.ndarray:
    """divergence_defect of each node of samples (node axis first, then
    (d, *spatial)), such as the nodes of a trajectory: one rforward and one
    inverse per batch of lattice.batches, and 0.0 for a zero node."""
    defects = np.zeros(len(samples))
    axes = tuple(range(1, samples.ndim))
    for span in batches(len(samples), samples[0].nbytes):
        nodes = samples[span]
        div_phys = np.abs(lat.inverse(_divergence(lat.rforward(nodes).swapaxes(0, 1), lat)))
        scale = np.max(np.abs(nodes), axis=axes)
        np.divide(np.max(div_phys, axis=axes[:-1]), scale, out=defects[span], where=scale > 0)
    return defects


def _project_div_spectral(tensor_coeff: np.ndarray, lat: Lattice) -> np.ndarray:
    """Spectral coefficients of P div(T) from tensor coefficients."""
    return _leray_inplace(_divergence_spectral(tensor_coeff, lat), lat)


# ---------------------------------------------------------------------------
# Kernel profiling


@dataclass
class KernelProfile:
    """Radial profile of the convolution kernel of |k|^s exp(-t |k|^2) P div.

    values[i] is the max over the d**3 kernel components of |K(x)| at
    |x| = radii[i] along the first coordinate axis, for the radii that
    kernel_profile samples; bound_ratio[i] is
    values[i] * (1 + radii[i])**(d + 1 + s), which stays bounded exactly
    when the kernel obeys the expected algebraic decay. tail_slope and
    tail_residual are the log-log fit over the tail window (NaN when it
    holds fewer than two radii).
    """

    values: np.ndarray
    bound_ratio: np.ndarray
    tail_slope: float
    tail_residual: float


def kernel_profile(s: float, lattice: Lattice, radii, tail_window: tuple,
                   t: float = 1.0) -> KernelProfile:
    """Profile the kernel of |k|^s exp(-t |k|^2) P (i k .) along a coordinate ray.

    The kernel is recovered by an inverse transform of the exact symbol on
    the given (fine) lattice; sampling is restricted to radii <= box_len / 4
    so that periodization images stay subdominant, t to the lattice validity
    window (Lattice.check_cap, t <= box_len^2 / 100), and the lattice must
    resolve the heat factor (2 pi n / box_len * sqrt(t) >= 16).

    The same profile at a different time is the t = 1 profile rescaled:
    computing at time t on a box scaled by sqrt(t) reproduces the scaling
    K_t(x) = t^(-(d+1+s)/2) K(x / sqrt(t)) exactly, which the kernel-decay
    experiment uses as a consistency check. A symbol that is not finite,
    |k|^s overflowing where exp(-t |k|^2) is 0, raises NumericalError; a
    t so large that the profile is 0 at every radius raises ConfigError.
    """
    if not (s > -1):
        raise ConfigError(f"kernel profile requires s > -1, got {s}")
    if not (t > 0):
        raise ConfigError(f"kernel profile requires t > 0, got {t}")
    d, box_len = lattice.d, lattice.box_len
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if radii.size == 0 or np.any(radii <= 0):
        raise ConfigError("radii must be positive")
    if np.max(radii) > box_len / 4 + 1e-12:
        raise WindowError(
            f"max radius {np.max(radii):.4g} exceeds box_len/4 = {box_len / 4:.4g}; "
            "periodization would contaminate the tail"
        )
    if TWO_PI * lattice.n / box_len * np.sqrt(t) < 16.0:
        raise ConfigError(
            "lattice too coarse for the heat factor: need "
            f"2*pi*n/box_len*sqrt(t) >= 16, got {TWO_PI * lattice.n / box_len * np.sqrt(t):.3g}"
        )
    lattice.check_cap(t, "t")

    with np.errstate(over="ignore", invalid="ignore"):  # refused below when not finite
        mult = _fractional_multiplier(lattice, s) * lattice.heat(t)
    if not np.all(np.isfinite(mult)):
        raise NumericalError(f"kernel profile at s = {s:g}: the symbol |k|^s exp(-t |k|^2) "
                             "is not finite")
    half = lattice.n // 2
    ray = (slice(None), slice(0, half)) + (0,) * (d - 1)
    ray_max = np.zeros(half)
    unit = np.zeros((d, d) + lattice.half_shape)
    for ell in range(d):
        for j in range(d):
            # column (ell, j): the d kernel components P_{i ell} i k_j
            unit[ell, j] = 1.0
            symbol = _project_div_spectral(unit, lattice) * mult
            unit[ell, j] = 0.0
            column = lattice.inverse(symbol) / box_len**d
            ray_max = np.maximum(ray_max, np.abs(column[ray]).max(axis=0))
    ray_r = lattice.spacing * np.arange(half)
    values = np.interp(radii, ray_r, ray_max)
    if not values.any():
        raise ConfigError(f"kernel profile at t = {t:g} is 0 at every radius: exp(-t |k|^2) "
                          "underflows on the modes it reads")

    bound_ratio = values * (1.0 + radii) ** (d + 1 + s)

    lo, hi = tail_window
    in_tail = (radii >= lo) & (radii <= hi) & (values > 0)
    if np.count_nonzero(in_tail) >= 2:
        tail_slope, tail_residual = _loglog_fit(radii[in_tail], values[in_tail])
    else:
        tail_slope = tail_residual = float("nan")

    return KernelProfile(values, bound_ratio, tail_slope, tail_residual)


def _loglog_fit(x, y) -> tuple:
    """(slope, residual) of the least-squares line through (log x, log y),
    residual the RMS of its log-space residuals; x and y positive, at least
    two points."""
    logs_x, logs_y = np.log(x), np.log(y)
    slope, intercept = np.polyfit(logs_x, logs_y, 1)
    resid = logs_y - (slope * logs_x + intercept)
    return float(slope), float(np.sqrt(np.mean(resid**2)))
