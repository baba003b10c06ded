"""Periodic lattice, field containers, transforms, and the initial-data library.

Conventions used throughout the package:

* The domain is the periodic box [0, L)^d sampled on n points per axis,
  d in {2, 3}, n a power of two. Physical fields are real float64 samples.
* Spectral fields hold Fourier-series coefficients c_k with
  f(x) = sum_k c_k exp(i k.x), k in (2*pi/L) * Z^d (standard FFT layout).
  In terms of the DFT this is fftn(f) / n^d, so a constant field has all
  of its spectral mass in c_0.
* Plancherel with these weights: the physical L2 norm computed with cell
  weights (L/n)^d equals L^(d/2) times the l2 norm of the coefficients.
* Spectral fields hold the full grid of coefficients, but the inverse
  transform reads only the non-negative half of the last spatial axis,
  indices 0..n/2 (Lattice.half). That is exact for Hermitian coefficients,
  c(-k) = conj(c(k)), which every caller passes: spectra of real samples,
  times real even symbols (heat factor, |k|^s, the Leray projection) or
  odd ones built on the Nyquist-zeroed k_deriv. The other half is their
  complex conjugate and carries no information.
* The half is a prefix of the FFT layout: fftfreq puts m = 0, 1, ..., n/2
  first on every axis (the n/2 entry stored as -n/2), so a half array is
  c[..., :n/2 + 1] of the full one, and an elementwise multiplier acts on
  it through the same prefix of its own array, k[..., :c.shape[-1]].
  Lattice.rforward yields such a half array straight from real samples;
  the Duhamel term (duhamel.bilinear_B) is its one caller, and its half
  arrays never become a spectral Field.
* Component axes lead: scalars have shape (n,)*d, vector fields
  (d,) + (n,)*d, rank-2 tensor fields (d, d) + (n,)*d.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .runtime import write_atomic

TWO_PI = 2.0 * np.pi

PHYSICAL = "physical"
SPECTRAL = "spectral"


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Lattice:
    """Uniform periodic lattice with cached wavevector arrays.

    Attributes
    ----------
    d : spatial dimension (2 or 3)
    n : points per axis (power of two, >= 4)
    box_len : side length L of the periodic box
    spacing : grid spacing L / n
    cell_volume : spacing ** d, the Riemann weight of one cell
    k_axes : list of d arrays shaped for broadcasting, k_axes[i] holds the
        signed wavenumbers (2*pi/L) * m along axis i
    k_deriv : like k_axes but with the self-paired Nyquist entry zeroed.
        fftfreq stores m = -n/2 at that index with no +n/2 partner, so any
        operator odd in k would map real fields to complex ones there.
        Odd-order multipliers (the divergence, the k (k . ) part of the
        Leray projection) contract against these instead.
    ksq : |k|^2 on the full grid
    kmag : |k| on the full grid
    safe_ksq_deriv : |k|^2 from k_deriv with zeros replaced by 1, built on
        first use and read-only
    ksq_half : |k|^2 on the half of the grid that inverse() reads and
        rforward() yields, a read-only view of ksq built on first use
    """

    def __init__(self, d: int, n: int, box_len: float):
        if d not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3, got {d}")
        if not isinstance(n, (int, np.integer)) or not _is_power_of_two(int(n)) or n < 4:
            raise ConfigError(f"points per axis must be a power of two >= 4, got {n}")
        if not (box_len > 0) or not np.isfinite(box_len):
            raise ConfigError(f"box length must be positive and finite, got {box_len}")
        self.d = int(d)
        self.n = int(n)
        self.box_len = float(box_len)
        self.spacing = self.box_len / self.n
        self.cell_volume = self.spacing**self.d

        modes = np.fft.fftfreq(self.n, d=1.0 / self.n)  # 0, 1, ..., -n/2, ..., -1
        k1 = (TWO_PI / self.box_len) * modes
        k1_deriv = k1.copy()
        k1_deriv[self.n // 2] = 0.0
        self.k_axes = []
        self.k_deriv = []
        for axis in range(self.d):
            shape = [1] * self.d
            shape[axis] = self.n
            self.k_axes.append(k1.reshape(shape))
            self.k_deriv.append(k1_deriv.reshape(shape))
        self.ksq = sum(ka**2 for ka in self.k_axes)
        self.kmag = np.sqrt(self.ksq)
        coords = self.spacing * np.arange(self.n)
        self.x_axes = [coords.reshape(ka.shape) for ka in self.k_axes]

    @cached_property
    def safe_ksq_deriv(self) -> np.ndarray:
        """|k|^2 built from the derivative wavenumbers, with zeros replaced by 1.

        Zeros occur exactly where every component of k_deriv vanishes (the
        mean and the pure-Nyquist corners); there the numerators vanish too,
        so the substitute value never leaks into a result. Lazy, so a
        lattice that never projects does not hold it.
        """
        ksq = sum(kd**2 for kd in self.k_deriv)
        safe = np.where(ksq == 0.0, 1.0, ksq)
        safe.flags.writeable = False
        return safe

    @cached_property
    def ksq_half(self) -> np.ndarray:
        """|k|^2 on the half spectrum that inverse() reads, so a flow can
        multiply only the coefficients that reach the samples. A read-only
        view of ksq, built on first use."""
        half = self.half(self.ksq)
        half.flags.writeable = False
        return half

    @property
    def spatial_shape(self):
        return (self.n,) * self.d

    def half(self, c: np.ndarray) -> np.ndarray:
        """View of the coefficients inverse() reads: indices 0..n/2 of the
        last spatial axis. Slicing a half array again returns all of it."""
        return c[..., : self.n // 2 + 1]

    def forward(self, a: np.ndarray) -> np.ndarray:
        """Fourier-series coefficients fftn(a) / n^d over the trailing d axes.

        Every transform in the package goes through this method,
        rforward() and inverse(). n is a power of two, so the 1/n^d scaling
        is exact.
        """
        return np.fft.fftn(a, axes=tuple(range(-self.d, 0)), norm="forward")

    def rforward(self, a: np.ndarray) -> np.ndarray:
        """The half of forward(a) that inverse() reads, for real samples a:
        rfftn(a) / n^d over the trailing d axes, indices 0..n/2 of the last.

        It equals half(forward(a)) to round-off, not bit for bit, at half
        the transform work. The result is a half array, not the layout of
        a spectral Field; the Duhamel term transforms its real node
        products with it.
        """
        return np.fft.rfftn(a, axes=tuple(range(-self.d, 0)), norm="forward")

    def inverse(self, c: np.ndarray) -> np.ndarray:
        """Real samples of the Hermitian coefficients c over the trailing d axes.

        A real inverse transform (irfftn) of half(c), the non-negative half
        of the last spatial axis; the other half of a Hermitian array is the
        conjugate of this one, so it is never read, and a full or a half
        array gives the same bits. For coefficients that are not Hermitian
        the result is not the real part of their inverse transform.
        """
        return np.fft.irfftn(self.half(c), s=self.spatial_shape,
                             axes=tuple(range(-self.d, 0)), norm="forward")

    @property
    def k_max_resolved(self) -> float:
        """Largest wavenumber magnitude with a symmetric partner on the grid."""
        return (TWO_PI / self.box_len) * (self.n // 2 - 1)

    def mode_resolved(self, mode: Sequence[int]) -> bool:
        """True when the integer mode and its negation both live on the grid."""
        return all(abs(int(m)) <= self.n // 2 - 1 for m in mode)

    def periodic_distance(self) -> np.ndarray:
        """Nearest-image distance to the origin at every grid point."""
        parts = []
        for axis in range(self.d):
            x = self.x_axes[axis]
            folded = np.minimum(x, self.box_len - x)
            parts.append(folded**2)
        return np.sqrt(sum(parts))

    def meshgrid(self):
        """Broadcast coordinate arrays to full (n,)*d shape."""
        return [np.broadcast_to(x, self.spatial_shape) for x in self.x_axes]

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.d == other.d
            and self.n == other.n
            and self.box_len == other.box_len
        )

    def __hash__(self):
        return hash((self.d, self.n, self.box_len))

    def __repr__(self):
        return f"Lattice(d={self.d}, n={self.n}, box_len={self.box_len!r})"


def make_lattice(d: int, n: int, box_len: float) -> Lattice:
    """Build a lattice, validating dimension, size, and box length."""
    return Lattice(d, n, box_len)


class Field:
    """A scalar, vector, or rank-2 tensor field on a lattice.

    data layout: component axes first (none for scalars, (d,) for vectors,
    (d, d) for tensors), then the spatial axes. Physical data is float64,
    spectral data complex128.
    """

    rank = None  # set by subclasses

    def __init__(self, lattice: Lattice, data: np.ndarray, representation: str):
        if representation not in (PHYSICAL, SPECTRAL):
            raise DataError(f"unknown representation {representation!r}")
        expected = self._expected_shape(lattice)
        data = np.asarray(data)
        if data.shape != expected:
            raise DataError(
                f"{type(self).__name__} data shape {data.shape} does not match "
                f"lattice shape {expected}"
            )
        if representation == PHYSICAL:
            if np.iscomplexobj(data):
                raise DataError("physical fields must be real-valued")
            data = data.astype(np.float64, copy=False)
        else:
            data = data.astype(np.complex128, copy=False)
        if not np.all(np.isfinite(data)):
            raise DataError("field contains non-finite samples")
        self.lattice = lattice
        self.data = data
        self.representation = representation

    @classmethod
    def _expected_shape(cls, lattice: Lattice):
        comp = ()
        if cls.rank == 1:
            comp = (lattice.d,)
        elif cls.rank == 2:
            comp = (lattice.d, lattice.d)
        return comp + lattice.spatial_shape

    def copy(self):
        return type(self)(self.lattice, self.data.copy(), self.representation)

    def _check_compatible(self, other):
        if not isinstance(other, Field) or type(other) is not type(self):
            raise DataError("field arithmetic requires matching field types")
        if other.lattice != self.lattice or other.representation != self.representation:
            raise DataError("field arithmetic requires matching lattice and representation")

    def __add__(self, other):
        self._check_compatible(other)
        return type(self)(self.lattice, self.data + other.data, self.representation)

    def __sub__(self, other):
        self._check_compatible(other)
        return type(self)(self.lattice, self.data - other.data, self.representation)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return type(self)(self.lattice, self.data * scalar, self.representation)

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.lattice, -self.data, self.representation)

    def __repr__(self):
        return (
            f"{type(self).__name__}({self.lattice!r}, representation={self.representation!r})"
        )


class ScalarField(Field):
    rank = 0


class VectorField(Field):
    rank = 1


class TensorField(Field):
    rank = 2


_RANK_TO_CLASS = {0: ScalarField, 1: VectorField, 2: TensorField}


def to_spectral(field: Field) -> Field:
    """Forward transform to Fourier-series coefficients (identity if already spectral)."""
    if field.representation == SPECTRAL:
        return field
    return type(field)(field.lattice, field.lattice.forward(field.data), SPECTRAL)


def to_physical(field: Field) -> Field:
    """Inverse transform to real samples (identity if already physical)."""
    if field.representation == PHYSICAL:
        return field
    return type(field)(field.lattice, field.lattice.inverse(field.data), PHYSICAL)


# ---------------------------------------------------------------------------
# Initial-data library


@dataclass(frozen=True)
class DatumSpec:
    """Declarative description of an initial datum.

    kind selects the family; only the parameters that family uses are read:

    * ``gaussian``: width > 0; component 0 carries the normalized heat
      kernel profile (4 pi width)^(-d/2) exp(-|x|^2 / (4 width)) at the
      nearest-image distance |x|.
    * ``taylor_green``: amplitude, optional mode; the Taylor-Green cell at
      harmonic m = mode[0] (default 1, the box fundamental), wavevector
      components m * 2 pi / L, divergence-free by construction (d = 2 uses
      the classic pair, d = 3 the standard z-invariant extension).
    * ``single_mode``: mode (integer tuple), amplitude; a single cosine
      mode, polarized along axis 0, or perpendicular to the wavevector
      when divergence_free is set.
    * ``power_law``: decay a > 0, r_inner, r_outer; radial profile |x|^(-a)
      hard-cut to r_inner <= |x| <= r_outer, on component 0.
    * ``random_band``: seed, k_min, k_max, amplitude; Hermitian Gaussian
      coefficients supported on k_min <= |k| <= k_max, scaled to L2 norm
      equal to amplitude (after projection when divergence_free is set).
    """

    kind: str
    amplitude: float = 1.0
    width: Optional[float] = None
    mode: Optional[tuple] = None
    decay: Optional[float] = None
    r_inner: Optional[float] = None
    r_outer: Optional[float] = None
    seed: Optional[int] = None
    k_min: Optional[float] = None
    k_max: Optional[float] = None
    divergence_free: bool = False

    KINDS = ("gaussian", "taylor_green", "single_mode", "power_law", "random_band")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigError(
                f"unknown datum kind {self.kind!r}; valid kinds: {', '.join(self.KINDS)}"
            )


def _gaussian_datum(spec: DatumSpec, lattice: Lattice) -> np.ndarray:
    if spec.width is None or not (spec.width > 0):
        raise ConfigError("gaussian datum requires width > 0")
    r = lattice.periodic_distance()
    profile = (4.0 * np.pi * spec.width) ** (-lattice.d / 2.0) * np.exp(
        -(r**2) / (4.0 * spec.width)
    )
    data = np.zeros((lattice.d,) + lattice.spatial_shape)
    data[0] = spec.amplitude * profile
    return data

def _taylor_green_datum(spec: DatumSpec, lattice: Lattice) -> np.ndarray:
    # Taylor-Green cell at harmonic m: wavevector components m*2*pi/L, so
    # the heat decay rate is exactly d * (m*2*pi/L)^2 in d dimensions.
    harmonic = 1
    if spec.mode is not None:
        harmonic = int(spec.mode[0])
        if harmonic < 1:
            raise ConfigError(f"taylor_green harmonic must be >= 1, got {harmonic}")
        if not lattice.mode_resolved([harmonic] * lattice.d):
            raise ConfigError(
                f"taylor_green harmonic {harmonic} is not resolved on n={lattice.n}"
            )
    xs = lattice.meshgrid()
    scale = harmonic * TWO_PI / lattice.box_len
    a = spec.amplitude
    data = np.zeros((lattice.d,) + lattice.spatial_shape)
    if lattice.d == 2:
        x, y = (scale * c for c in xs)
        data[0] = a * np.sin(x) * np.cos(y)
        data[1] = -a * np.cos(x) * np.sin(y)
    else:
        x, y, z = (scale * c for c in xs)
        data[0] = a * np.sin(x) * np.cos(y) * np.cos(z)
        data[1] = -a * np.cos(x) * np.sin(y) * np.cos(z)
        # third component identically zero
    return data


def _single_mode_datum(spec: DatumSpec, lattice: Lattice) -> np.ndarray:
    if spec.mode is None or len(spec.mode) != lattice.d:
        raise ConfigError("single_mode datum requires a mode tuple of length d")
    mode = np.array([int(m) for m in spec.mode])
    if np.all(mode == 0):
        raise ConfigError("single_mode datum requires a nonzero wavevector")
    if not lattice.mode_resolved(mode):
        raise ConfigError(
            f"mode {tuple(mode)} is not resolved on n={lattice.n} "
            f"(need |m_i| <= {lattice.n // 2 - 1})"
        )
    k = (TWO_PI / lattice.box_len) * mode
    xs = lattice.meshgrid()
    phase = sum(k[i] * xs[i] for i in range(lattice.d))
    if spec.divergence_free:
        # polarization: unit vector orthogonal to k, seeded from the axis
        # where |mode| is smallest
        axis = int(np.argmin(np.abs(mode)))
        e = np.zeros(lattice.d)
        e[axis] = 1.0
        v = e - (mode[axis] / float(mode @ mode)) * mode
        v = v / np.linalg.norm(v)
    else:
        v = np.zeros(lattice.d)
        v[0] = 1.0
    data = np.zeros((lattice.d,) + lattice.spatial_shape)
    cosine = np.cos(phase)
    for i in range(lattice.d):
        if v[i] != 0.0:
            data[i] = spec.amplitude * v[i] * cosine
    return data


def _power_law_datum(spec: DatumSpec, lattice: Lattice) -> np.ndarray:
    if spec.decay is None or not (spec.decay > 0):
        raise ConfigError("power_law datum requires decay > 0")
    eps, big_r = spec.r_inner, spec.r_outer
    if eps is None or big_r is None or not (0 < eps < big_r <= lattice.box_len / 2):
        raise ConfigError(
            "power_law datum requires 0 < r_inner < r_outer <= box_len / 2, got "
            f"r_inner={eps}, r_outer={big_r}, box_len={lattice.box_len}"
        )
    r = lattice.periodic_distance()
    mask = (r >= eps) & (r <= big_r)
    safe_r = np.where(mask, r, 1.0)
    profile = np.where(mask, safe_r ** (-spec.decay), 0.0)
    data = np.zeros((lattice.d,) + lattice.spatial_shape)
    data[0] = spec.amplitude * profile
    return data


def _random_band_datum(spec: DatumSpec, lattice: Lattice) -> np.ndarray:
    if spec.seed is None:
        raise ConfigError("random_band datum requires a seed")
    if spec.k_min is None or spec.k_max is None or not (0 <= spec.k_min <= spec.k_max):
        raise ConfigError("random_band datum requires 0 <= k_min <= k_max")
    band = (lattice.kmag >= spec.k_min) & (lattice.kmag <= spec.k_max) & (lattice.ksq > 0)
    # keep the index set symmetric: drop the unpaired Nyquist rows
    modes = np.fft.fftfreq(lattice.n, d=1.0 / lattice.n)
    for axis in range(lattice.d):
        shape = [1] * lattice.d
        shape[axis] = lattice.n
        band &= np.abs(modes.reshape(shape)) <= lattice.n // 2 - 1
    if not np.any(band):
        raise ConfigError(
            f"random_band [{spec.k_min}, {spec.k_max}] contains no resolved modes "
            f"on this lattice (k spacing {TWO_PI / lattice.box_len:.4g})"
        )
    rng = np.random.default_rng(spec.seed)
    shape = (lattice.d,) + lattice.spatial_shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    raw *= band  # broadcast over components
    # Hermitian part, so the physical samples are real
    flipped = raw
    for axis in range(1, lattice.d + 1):
        flipped = np.roll(np.flip(flipped, axis=axis), 1, axis=axis)
    coeff = 0.5 * (raw + np.conj(flipped))
    return coeff


def realize_datum(spec: DatumSpec, lattice: Lattice) -> VectorField:
    """Sample a datum description on a lattice, returning a physical vector field."""
    from .multipliers import leray_project  # deferred: multipliers imports lattice

    if spec.kind == "random_band":
        coeff = _random_band_datum(spec, lattice)
        field = to_physical(VectorField(lattice, coeff, SPECTRAL))
        if spec.divergence_free:
            field = to_physical(leray_project(field))
        from .norms import lebesgue_norm  # deferred, same reason

        norm = lebesgue_norm(field, 2)
        if norm == 0.0:
            raise DataError("random_band datum realized to the zero field")
        return VectorField(lattice, field.data * (spec.amplitude / norm), PHYSICAL)

    builders = {
        "gaussian": _gaussian_datum,
        "taylor_green": _taylor_green_datum,
        "single_mode": _single_mode_datum,
        "power_law": _power_law_datum,
    }
    data = builders[spec.kind](spec, lattice)
    if not np.all(np.isfinite(data)):
        raise DataError(f"{spec.kind} datum produced non-finite samples")
    field = VectorField(lattice, data, PHYSICAL)
    if spec.divergence_free and spec.kind not in ("taylor_green", "single_mode"):
        field = to_physical(leray_project(field))
    return field


# ---------------------------------------------------------------------------
# Flat binary serialization
#
# header: little-endian int32 d, int32 n, float64 box_len, int32 component
# count, int32 representation flag (0 physical, 1 spectral); payload:
# row-major float64 samples, or complex128 written as (re, im) pairs.

_HEADER = struct.Struct("<iidii")


def field_to_bytes(field: Field) -> bytes:
    ncomp = {0: 1, 1: field.lattice.d, 2: field.lattice.d**2}[field.rank]
    rep_flag = 0 if field.representation == PHYSICAL else 1
    header = _HEADER.pack(field.lattice.d, field.lattice.n, field.lattice.box_len, ncomp, rep_flag)
    payload = np.ascontiguousarray(field.data)
    if field.representation == PHYSICAL:
        payload = payload.astype("<f8", copy=False)
    else:
        payload = payload.astype("<c16", copy=False)
    return header + payload.tobytes()


def field_from_bytes(blob: bytes) -> Field:
    if len(blob) < _HEADER.size:
        raise DataError("field blob shorter than its header")
    d, n, box_len, ncomp, rep_flag = _HEADER.unpack_from(blob)
    lattice = make_lattice(d, n, box_len)
    rank = {1: 0, d: 1, d * d: 2}.get(ncomp)
    if rank is None or (d == 1 and ncomp != 1):
        raise DataError(f"component count {ncomp} does not match dimension {d}")
    if rep_flag not in (0, 1):
        raise DataError(f"unknown representation flag {rep_flag}")
    representation = PHYSICAL if rep_flag == 0 else SPECTRAL
    dtype = np.dtype("<f8") if rep_flag == 0 else np.dtype("<c16")
    expected = ncomp * n**d
    payload = np.frombuffer(blob, dtype=dtype, offset=_HEADER.size)
    if payload.size != expected:
        raise DataError(f"payload holds {payload.size} values, expected {expected}")
    shape = _RANK_TO_CLASS[rank]._expected_shape(lattice)
    data = payload.reshape(shape).copy()
    return _RANK_TO_CLASS[rank](lattice, data, representation)


def save_field(field: Field, path) -> None:
    write_atomic(path, field_to_bytes(field))


def load_field(path) -> Field:
    with open(path, "rb") as fh:
        return field_from_bytes(fh.read())
