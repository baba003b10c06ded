"""Fourier multipliers: heat flow, fractional Laplacian, Riesz and Leray
projections, tensor divergence, the fused dissipative-projection composite,
and kernel profiling for the composite's convolution kernel.

All multipliers act diagonally on the spectral representation. Operators
homogeneous of nonzero degree annihilate the k = 0 mode; the heat flow and
the Leray projection act as the identity on it (constants are divergence
free and do not diffuse). Inputs may be physical or spectral; the output
matches the input representation.

Operators odd in k contract against Lattice.k_deriv (Nyquist entries
zeroed) so that real fields map to real fields and the discrete Leray
projection is exactly idempotent and divergence free under the same
discrete divergence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, WindowError
from .lattice import (
    PHYSICAL,
    SPECTRAL,
    Field,
    Lattice,
    TensorField,
    TWO_PI,
    VectorField,
    make_lattice,
    to_physical,
    to_spectral,
)


def _apply_multiplier(field: Field, multiplier: np.ndarray) -> Field:
    """Multiply every component's coefficients by a spatial-shape array."""
    spectral = to_spectral(field)
    out = type(field)(field.lattice, spectral.data * multiplier, SPECTRAL)
    return to_physical(out) if field.representation == PHYSICAL else out


def _safe_ksq_deriv(lattice: Lattice) -> np.ndarray:
    """|k|^2 built from the derivative wavenumbers, with zeros replaced by 1.

    Zeros occur exactly where every component of k_deriv vanishes (the mean
    and the pure-Nyquist corners); there the numerators vanish too, so the
    substitute value never leaks into a result.
    """
    ksq = sum(kd**2 for kd in lattice.k_deriv)
    return np.where(ksq == 0.0, 1.0, ksq)


def _divergence_spectral(tensor_coeff: np.ndarray, lat: Lattice) -> np.ndarray:
    """Vector coefficients sum_j i k_j T_ij of div T, as a new array."""
    out = np.empty((lat.d,) + lat.spatial_shape, dtype=np.complex128)
    for i in range(lat.d):
        out[i] = sum(1j * lat.k_deriv[j] * tensor_coeff[i, j] for j in range(lat.d))
    return out


def _leray_inplace(coeff: np.ndarray, lat: Lattice) -> np.ndarray:
    """Overwrite vector coefficients c with c - k (k . c) / |k|^2 and return them."""
    k_dot_c = sum(lat.k_deriv[i] * coeff[i] for i in range(lat.d)) / _safe_ksq_deriv(lat)
    for i in range(lat.d):
        coeff[i] -= lat.k_deriv[i] * k_dot_c
    return coeff


def _fractional_multiplier(lattice: Lattice, s: float) -> np.ndarray:
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
    return _apply_multiplier(field, np.exp(-field.lattice.ksq * t))


def fractional_laplacian(field: Field, s: float) -> Field:
    """Apply |k|^s. The mean is annihilated for every s != 0 (homogeneous
    operators have no action on constants); s = 0 is the identity."""
    if not np.isfinite(s):
        raise ConfigError(f"fractional order must be finite, got {s}")
    if s == 0:
        return field
    return _apply_multiplier(field, _fractional_multiplier(field.lattice, s))


def riesz_transform(field: Field, axis: int) -> Field:
    """Apply i k_axis / |k| componentwise, zero on the mean."""
    lat = field.lattice
    if not (0 <= axis < lat.d):
        raise ConfigError(f"riesz axis must be in [0, {lat.d}), got {axis}")
    kmag = lat.kmag.copy()
    kmag[(0,) * lat.d] = 1.0
    mult = 1j * lat.k_deriv[axis] / kmag
    return _apply_multiplier(field, mult)


def leray_project(field: VectorField) -> VectorField:
    """Project onto divergence-free fields: c_i -> c_i - k_i (k.c) / |k|^2.

    The mean (k = 0) passes through unchanged. The result's spectral
    divergence vanishes to round-off and the projection is idempotent.
    """
    if field.rank != 1:
        raise ConfigError("leray_project expects a vector field")
    lat = field.lattice
    out = _leray_inplace(to_spectral(field).data.copy(), lat)
    projected = VectorField(lat, out, SPECTRAL)
    return to_physical(projected) if field.representation == PHYSICAL else projected


def divergence_of_tensor(field: TensorField) -> VectorField:
    """Contract a rank-2 tensor with i k over its second index:
    out_i = sum_j i k_j T_ij, the spectral form of (div T)_i = d_j T_ij."""
    if field.rank != 2:
        raise ConfigError("divergence_of_tensor expects a rank-2 tensor field")
    lat = field.lattice
    result = VectorField(lat, _divergence_spectral(to_spectral(field).data, lat), SPECTRAL)
    return to_physical(result) if field.representation == PHYSICAL else result


def divergence_defect(field: VectorField) -> float:
    """max |div u| over the grid relative to max |u| (both physical)."""
    lat = field.lattice
    spectral = to_spectral(field)
    div_coeff = sum(1j * lat.k_deriv[i] * spectral.data[i] for i in range(lat.d))
    div_phys = np.fft.ifftn(div_coeff).real * lat.n**lat.d
    scale = float(np.max(np.abs(to_physical(field).data)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(div_phys)) / scale)


def _project_div_spectral(tensor_coeff: np.ndarray, lat: Lattice) -> np.ndarray:
    """Spectral coefficients of P div(T) from tensor coefficients."""
    return _leray_inplace(_divergence_spectral(tensor_coeff, lat), lat)


def composite_apply(field: TensorField, s: float, t: float) -> VectorField:
    """Fused application of |k|^s exp(-|k|^2 t) P (i k . ) to a tensor field.

    One multiplier pass; agrees with the composition of the individual
    operators to round-off. Requires s > -1 (kernel integrability) and t > 0.
    """
    if not (s > -1):
        raise ConfigError(f"composite requires s > -1, got {s}")
    if not (t > 0):
        raise ConfigError(f"composite requires t > 0, got {t}")
    lat = field.lattice
    spectral = to_spectral(field)
    w = _project_div_spectral(spectral.data, lat)
    mult = _fractional_multiplier(lat, s) * np.exp(-lat.ksq * t)
    w *= mult
    result = VectorField(lat, w, SPECTRAL)
    return to_physical(result) if field.representation == PHYSICAL else result


# ---------------------------------------------------------------------------
# Kernel profiling


@dataclass
class KernelProfile:
    """Radial profile of the composite operator's convolution kernel.

    values[i] is the max over the d**3 kernel components of |K(x)| at
    |x| = radii[i] along the first coordinate axis; bound_ratio[i] is
    values[i] * (1 + radii[i])**(d + 1 + s), which stays bounded exactly
    when the kernel obeys the expected algebraic decay.
    """

    s: float
    d: int
    t: float
    box_len: float
    resolution: int
    radii: np.ndarray
    values: np.ndarray
    bound_ratio: np.ndarray
    tail_slope: float
    tail_residual: float
    tail_window: tuple

    def to_csv(self, path) -> None:
        from .runtime import fmt_float

        with open(path, "w", newline="") as fh:
            fh.write("radius,kernel_value,bound_ratio\n")
            for r, v, b in zip(self.radii, self.values, self.bound_ratio):
                fh.write(f"{fmt_float(r)},{fmt_float(v)},{fmt_float(b)}\n")


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
    experiment uses as a consistency check.
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

    mult = _fractional_multiplier(lat, s) * np.exp(-lat.ksq * t)
    ksq = _safe_ksq_deriv(lat)
    half = lat.n // 2
    ray = (slice(0, half),) + (0,) * (d - 1)
    ray_max = np.zeros(half)
    for i in range(d):
        for ell in range(d):
            # Leray entry P_{i ell}; delta term only on the diagonal
            p_entry = -lat.k_deriv[i] * lat.k_deriv[ell] / ksq
            if i == ell:
                p_entry = p_entry + 1.0
            for j in range(d):
                symbol = mult * p_entry * (1j * lat.k_deriv[j])
                component = np.fft.ifftn(symbol) * (lat.n**d / box_len**d)
                ray_max = np.maximum(ray_max, np.abs(component[ray]))
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

    return KernelProfile(
        s=float(s),
        d=int(d),
        t=float(t),
        box_len=float(box_len),
        resolution=int(resolution),
        radii=radii,
        values=values,
        bound_ratio=bound_ratio,
        tail_slope=tail_slope,
        tail_residual=tail_residual,
        tail_window=(float(lo), float(hi)),
    )
