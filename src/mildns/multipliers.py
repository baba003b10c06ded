"""Fourier multipliers: heat flow, fractional Laplacian, Leray projection,
the projected divergence P div of a tensor, and kernel profiling for the
convolution kernel of |k|^s exp(-t |k|^2) P div.

All multipliers act diagonally on the Fourier coefficients. Operators
homogeneous of nonzero degree annihilate the k = 0 mode; the heat flow and
the Leray projection act as the identity on it (constants are divergence
free and do not diffuse). Each takes a field, multiplies its coefficients
(to_spectral, a plain array) and returns the field of the product
(to_physical).

Operators odd in k contract against Lattice.k_deriv (Nyquist entries
zeroed) so that real fields map to real fields and the discrete Leray
projection is exactly idempotent and divergence free under the same
discrete divergence. _divergence_spectral and _leray_inplace are the one
P div kernel: leray_project, the Duhamel term and kernel_profile all use
them. The kernel is elementwise, and it reads k_deriv and safe_ksq_deriv
through their prefix k[..., :c.shape[-1]], so it takes the full spectrum
(leray_project, kernel_profile) or its half (Lattice.half, the Duhamel
term's Lattice.rforward coefficients) alike: on a half array it gives the
half of what it gives on the full one, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, WindowError
from .lattice import Field, Lattice, TWO_PI, VectorField, make_lattice, to_physical, to_spectral


def _apply_multiplier(field: Field, multiplier: np.ndarray) -> Field:
    """The field whose coefficients are those of field times a
    spatial-shape array."""
    return to_physical(field.lattice, to_spectral(field) * multiplier)


def _divergence_spectral(tensor_coeff: np.ndarray, lat: Lattice) -> np.ndarray:
    """Vector coefficients sum_j i k_j T_ij of div T, as a new array."""
    m = tensor_coeff.shape[-1]
    k = [kd[..., :m] for kd in lat.k_deriv]
    out = np.empty(tensor_coeff.shape[1:], dtype=np.complex128)
    for i in range(lat.d):
        out[i] = sum(1j * k[j] * tensor_coeff[i, j] for j in range(lat.d))
    return out


def _leray_inplace(coeff: np.ndarray, lat: Lattice) -> np.ndarray:
    """Overwrite vector coefficients c with c - k (k . c) / |k|^2 and return them."""
    m = coeff.shape[-1]
    k = [kd[..., :m] for kd in lat.k_deriv]
    k_dot_c = sum(k[i] * coeff[i] for i in range(lat.d)) / lat.safe_ksq_deriv[..., :m]
    for i in range(lat.d):
        coeff[i] -= k[i] * k_dot_c
    return coeff


def _fractional_multiplier(lattice: Lattice, s: float) -> np.ndarray:
    """|k|^s on the full grid, 0 at k = 0 for s != 0 (1 everywhere for s = 0)."""
    if not np.isfinite(s):
        raise ConfigError(f"fractional order must be finite, got {s}")
    if s == 0:
        return np.ones(lattice.spatial_shape)
    kmag = lattice.kmag.copy()
    kmag[(0,) * lattice.d] = 1.0
    mult = kmag**s
    mult[(0,) * lattice.d] = 0.0
    return mult


def heat_flow(field: Field, t: float) -> Field:
    """Apply exp(t * Laplacian): coefficients scale by exp(-|k|^2 t)."""
    if not (t >= 0) or not np.isfinite(t):
        raise ConfigError(f"heat flow time must be >= 0 and finite, got {t}")
    if t == 0:
        return field
    return _apply_multiplier(field, field.lattice.heat(t, half=False))


def fractional_laplacian(field: Field, s: float) -> Field:
    """Apply |k|^s. The mean is annihilated for every s != 0 (homogeneous
    operators have no action on constants); s = 0 is the identity."""
    if s == 0:
        return field
    return _apply_multiplier(field, _fractional_multiplier(field.lattice, s))


def leray_project(field: VectorField) -> VectorField:
    """Project onto divergence-free fields: c_i -> c_i - k_i (k.c) / |k|^2.

    The mean (k = 0) passes through unchanged. The result's spectral
    divergence vanishes to round-off and the projection is idempotent.
    """
    lat = field.lattice
    return to_physical(lat, _leray_inplace(to_spectral(field), lat))


def divergence_defect(field: VectorField) -> float:
    """max |div u| over the grid relative to max |u|."""
    return _divergence_defect(field.data, field.lattice)


def _divergence_defect(samples: np.ndarray, lat: Lattice) -> float:
    """divergence_defect of the physical samples (d, *spatial) of a vector
    field, such as one node of a trajectory."""
    spectral = lat.forward(samples)
    div_phys = lat.inverse(sum(1j * lat.k_deriv[i] * spectral[i] for i in range(lat.d)))
    scale = float(np.max(np.abs(samples)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(div_phys)) / scale)


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


def kernel_profile(
    s: float,
    d: int,
    radii,
    resolution: int,
    box_len: float = None,
    t: float = 1.0,
    tail_window: tuple = None,
) -> KernelProfile:
    """Profile the kernel of |k|^s exp(-t |k|^2) P (i k .) along a coordinate ray.

    The kernel is recovered by an inverse transform of the exact symbol on a
    fine lattice; sampling is restricted to radii <= box_len / 4 so that
    periodization images stay subdominant, and the lattice must resolve the
    heat factor (2 pi n / box_len * sqrt(t) >= 16).

    The same profile at a different time is the t = 1 profile rescaled:
    computing at time t on a box scaled by sqrt(t) reproduces the scaling
    K_t(x) = t^(-(d+1+s)/2) K(x / sqrt(t)) exactly, which the kernel-decay
    experiment uses as a consistency check. A symbol that is not finite,
    |k|^s overflowing where exp(-t |k|^2) is 0, raises NumericalError.
    """
    if not (s > -1):
        raise ConfigError(f"kernel profile requires s > -1, got {s}")
    if not (t > 0):
        raise ConfigError(f"kernel profile requires t > 0, got {t}")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if radii.size == 0 or np.any(radii <= 0):
        raise ConfigError("radii must be positive")
    if box_len is None:
        box_len = 8.0 * float(np.max(radii))
    if np.max(radii) > box_len / 4 + 1e-12:
        raise WindowError(
            f"max radius {np.max(radii):.4g} exceeds box_len/4 = {box_len / 4:.4g}; "
            "periodization would contaminate the tail"
        )
    if TWO_PI * resolution / box_len * np.sqrt(t) < 16.0:
        raise ConfigError(
            "lattice too coarse for the heat factor: need "
            f"2*pi*n/box_len*sqrt(t) >= 16, got {TWO_PI * resolution / box_len * np.sqrt(t):.3g}"
        )
    lat = make_lattice(d, resolution, box_len)

    with np.errstate(over="ignore", invalid="ignore"):  # refused below when not finite
        mult = _fractional_multiplier(lat, s) * lat.heat(t, half=False)
    if not np.all(np.isfinite(mult)):
        raise NumericalError(f"kernel profile at s = {s:g}: the symbol |k|^s exp(-t |k|^2) "
                             "is not finite")
    half = lat.n // 2
    ray = (slice(None), slice(0, half)) + (0,) * (d - 1)
    ray_max = np.zeros(half)
    unit = np.zeros((d, d) + lat.spatial_shape)
    for ell in range(d):
        for j in range(d):
            # column (ell, j): the d kernel components P_{i ell} i k_j
            unit[ell, j] = 1.0
            symbol = _project_div_spectral(unit, lat) * mult
            unit[ell, j] = 0.0
            column = lat.inverse(symbol) / box_len**d
            ray_max = np.maximum(ray_max, np.abs(column[ray]).max(axis=0))
    ray_r = lat.spacing * np.arange(half)
    values = np.interp(radii, ray_r, ray_max)

    bound_ratio = values * (1.0 + radii) ** (d + 1 + s)

    if tail_window is None:
        tail_window = (float(np.max(radii)) / 5.0, float(np.max(radii)))
    lo, hi = tail_window
    in_tail = (radii >= lo) & (radii <= hi) & (values > 0)
    if np.count_nonzero(in_tail) >= 2:
        logs_r = np.log(radii[in_tail])
        logs_v = np.log(values[in_tail])
        slope, intercept = np.polyfit(logs_r, logs_v, 1)
        resid = logs_v - (slope * logs_r + intercept)
        tail_residual = float(np.sqrt(np.mean(resid**2)))
        tail_slope = float(slope)
    else:
        tail_slope = float("nan")
        tail_residual = float("nan")

    return KernelProfile(values, bound_ratio, tail_slope, tail_residual)
