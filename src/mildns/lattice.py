"""Periodic lattice, the vector field type, transforms, and the initial-data library.

Conventions used throughout the package:

* The domain is the periodic box [0, L)^d sampled on n points per axis,
  d in {2, 3}, n a power of two.
* Every field is a VectorField (also named Field): real float64 samples
  of shape (d,) + (n,)*d, the component axis first.
* Spectral coefficients are plain complex arrays, never Fields: the
  Fourier-series coefficients c_k with f(x) = sum_k c_k exp(i k.x),
  k in (2*pi/L) * Z^d (standard FFT layout). In terms of the DFT this is
  fftn(f) / n^d, so a constant field has all of its spectral mass in c_0.
  to_spectral and to_physical are the one boundary between a Field and
  its coefficients.
* Plancherel with these weights: the physical L2 norm computed with cell
  weights (L/n)^d equals L^(d/2) times the l2 norm of the coefficients.
* Every coefficient array is a half array: the non-negative half of the
  last spatial axis, indices 0..n/2, shape Lattice.half_shape. Fields are
  real, so their coefficients are Hermitian, c(-k) = conj(c(k)), and stay
  so under every multiplier the package applies: real even symbols (heat
  factor, |k|^s, the Leray projection) and odd ones built on the
  Nyquist-zeroed k_deriv. The other half is the complex conjugate of this
  one and carries no information. Lattice.rforward yields the half array
  of real samples and Lattice.inverse reads it; no transform makes the
  full grid of coefficients.
"""
from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, WindowError
from .runtime import fmt_float, write_atomic

TWO_PI = 2.0 * np.pi

PHYSICAL = "physical"

# The one byte cap of batched array work: B transforms its node products,
# the sup norms reduce trajectory nodes and the heat sups inverse-transform
# full-grid flows in batches (batches()) of at most this many bytes each.
# At d = 2, n = 32, M = Q = 16 a B(u, u) call (272 KiB of products) and a
# B(u, v) call (408 KiB) are one batch, and so is every sup over a mesh.
# Against a 256 KiB cap of B alone (chunks of 15 + 1 and 9 + 7 nodes) and
# per-node sups, bench/run.py read picard op_s 0.0974 -> 0.0882 s (-9.5%,
# lower in 10 of 10 alternating 20 s pairs), calibrate 0.370 -> 0.335 s
# (6 of 6) and spectral 0.0989 -> 0.0942 s (6 of 6), with peak RSS up
# 0.3-0.4 MB, on a shared 2-core VM. It also caps each buffer a thread
# holds across calls (held).
BATCH_BYTES = 512 * 1024

# The most bytes one vector field (d n^d float64) of a Lattice may take:
# every run holds a few such arrays, and a larger lattice is refused before
# anything is allocated. d = 2 reaches n = 4096 and d = 3 n = 128.
FIELD_BYTES = 256 * 1024**2


def batches(count: int, item_bytes: int) -> list:
    """The slices that split count items of item_bytes each into the fewest
    consecutive batches of at most BATCH_BYTES, one item to a batch when one
    alone passes the cap; their sizes differ by at most one. An item of 0
    bytes counts as 1."""
    per = max(1, BATCH_BYTES // max(item_bytes, 1))
    parts = -(-count // per)
    return [slice(i * count // parts, (i + 1) * count // parts) for i in range(parts)]


class _Held(threading.local):
    """The store of held, one per thread: the flat buffers by (name, i),
    and the last request for each name with the arrays it got."""

    def __init__(self):
        self.flat, self.last = {}, {}

    def take(self, key: tuple, shape: tuple, dtype) -> np.ndarray:
        """A prefix view of the flat buffer key, or past the cap a new array."""
        size = math.prod(shape)
        if size * np.dtype(dtype).itemsize > BATCH_BYTES:
            return np.empty(shape, dtype)
        flat = self.flat.get(key)
        if flat is None or flat.dtype != dtype or flat.size < size:
            self.flat[key] = None  # frees the old buffer first
            flat = self.flat[key] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


_held = _Held()


def held(name: str, *specs) -> tuple:
    """Uninitialised arrays of the (shape, dtype) specs, held by the calling
    thread across calls: the one store of what B and the heat flows keep.

    Array i is a prefix view of the flat buffer (name, i), which grows to
    the largest request and never past BATCH_BYTES; an array past the cap
    is new on every call and is not kept. A request that repeats the last
    one for name gets the same tuple back, in one lookup. The names are
    "B" (the products, coefficients, kernel, pair sums and u_{d-1} v_{d-1}
    of a chunk of duhamel.bilinear_B: 621 KiB for B(u, u) and 894 KiB for
    B(u, v) at d = 2, n = 32, Q = 16) and "flows" (the flowed coefficients
    and samples of a batch of norms._full_flows), so a thread keeps at
    most 7 BATCH_BYTES. Held, they fault in no fresh pages on a warm call;
    made per call, arrays past glibc's 128 KiB mmap threshold are mapped,
    zero-filled and unmapped on every call. At d = 2 and at d = 3, n = 16
    every array is under the cap; at d = 3, n >= 32 B's products,
    coefficients and pair sums are made per call, as is every 512^2 flow.
    The caller lets no array out: the next request for name overwrites it.
    """
    last = _held.last.get(name)
    if last is not None and last[0] == specs:
        return last[1]
    _held.last.pop(name, None)  # so a buffer that grows frees its old bytes
    arrays = tuple(_held.take((name, i), *spec) for i, spec in enumerate(specs))
    # an array past the cap is no view, and a request that made one is not kept
    _held.last[name] = (specs, arrays) if all(a.base is not None for a in arrays) else None
    return arrays


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class Lattice:
    """Uniform periodic lattice with cached wavevector arrays.

    A lattice whose vector field (d n^d float64) takes more than
    FIELD_BYTES is refused before any array is made.

    Attributes
    ----------
    d : spatial dimension (2 or 3)
    n : points per axis (power of two, >= 4)
    box_len : side length L of the periodic box
    spacing : grid spacing L / n
    cell_volume : spacing ** d, the Riemann weight of one cell
    t_floor, t_cap : the lattice validity window [spacing ** 2,
        box_len ** 2 / 100] of heat-flow times: below the floor the grid does
        not resolve the flow, above the cap the periodic images do not stay
        negligible; check_cap(t, what) refuses a time past the cap
    half_shape : (n,)*(d-1) + (n/2 + 1,), the shape of a half array
    k_axes : list of d arrays shaped for broadcasting, k_axes[i] holds the
        signed wavenumbers (2*pi/L) * m along axis i, every m of the axis
    k_deriv : the wavenumbers of the half grid, with the self-paired
        Nyquist entry zeroed. fftfreq stores m = -n/2 at that index with no
        +n/2 partner, so any operator odd in k would map real fields to
        complex ones there. Odd-order multipliers (the divergence, the
        k (k . ) part of the Leray projection) contract against these.
    ksq : |k|^2 on the full grid, built on every read and not held; only
        the random-band datum draws on the full grid
    safe_ksq_deriv : |k|^2 from k_deriv with zeros replaced by 1, on the
        half grid, built on first use and read-only
    heat_factors(t) : the d one-axis factors exp(-t k_a^2), shaped to
        broadcast against a half array (the last one halved), with a
        leading node axis when t is an array
    heat(t) : the heat kernel exp(-|k|^2 t) on the half grid, the product
        of heat_factors(t)
    heat_band(t, cutoff) : the modes per axis that the heat flow at t keeps
        above exp(-cutoff), and a bound of the kernel on the rest
    coarsened(n) : the lattice of the same box with n points per axis,
        built on first use and kept on this one; restrict() moves a half
        array onto it
    """

    def __init__(self, d: int, n: int, box_len: float):
        if d not in (2, 3):
            raise ConfigError(f"dimension must be 2 or 3, got {d}")
        if not isinstance(n, (int, np.integer)) or not _is_power_of_two(int(n)) or n < 4:
            raise ConfigError(f"points per axis must be a power of two >= 4, got {n}")
        field_bytes = d * int(n) ** d * 8
        if field_bytes > FIELD_BYTES:
            raise ConfigError(f"a vector field on the d={d}, n={n} lattice takes "
                              f"{field_bytes / 1024**2:g} MiB, past the budget of "
                              f"{FIELD_BYTES // 1024**2} MiB")
        if not (box_len > 0) or not np.isfinite(box_len):
            raise ConfigError(f"box length must be positive and finite, got {box_len}")
        k_top = np.pi * n / box_len  # the largest wavenumber on an axis
        if not d * k_top * k_top < np.inf:
            raise ConfigError(f"box length {box_len:g} is too small for n={n}: |k|^2 overflows")
        self.d = int(d)
        self.n = int(n)
        self.box_len = float(box_len)
        self.spacing = self.box_len / self.n
        try:
            self.cell_volume = self.spacing**self.d
            self.t_cap = self.box_len**2 / 100.0
        except OverflowError:
            raise ConfigError(f"box length {box_len:g} is too large for n={n}: the cell "
                              "volume or the validity window overflows") from None
        self.t_floor = self.spacing**2

        modes = np.fft.fftfreq(self.n, d=1.0 / self.n)  # 0, 1, ..., -n/2, ..., -1
        k1 = (TWO_PI / self.box_len) * modes
        k1_deriv = k1.copy()
        k1_deriv[self.n // 2] = 0.0
        self.k_axes = []
        self.k_deriv = []
        for axis in range(self.d):
            shape = [1] * self.d
            shape[axis] = -1
            self.k_axes.append(k1.reshape(shape))
            deriv = k1_deriv if axis < self.d - 1 else self.half(k1_deriv)
            self.k_deriv.append(deriv.reshape(shape))
        self._ksq_axis = k1**2
        coords = self.spacing * np.arange(self.n)
        self.x_axes = [coords.reshape(ka.shape) for ka in self.k_axes]
        self._coarse = {}  # points per axis -> Lattice of the same box

    def check_cap(self, t: float, what: str) -> None:
        """Refuse, as WindowError naming what, a time t past t_cap; both
        times print in fmt_float's 17 digits, so an excess of one ulp shows."""
        if t > self.t_cap:
            raise WindowError(f"{what} {fmt_float(t)} exceeds the lattice validity window "
                              f"L^2/100 = {fmt_float(self.t_cap)}")

    @property
    def ksq(self) -> np.ndarray:
        """|k|^2 on the full grid, a new array on every read."""
        return sum(ka**2 for ka in self.k_axes)

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

    def heat_factors(self, t) -> list:
        """The d one-axis factors exp(-t k_a^2) of heat(t), each shaped to
        broadcast against a half array, the last one sliced by half().

        Every axis has the same wavenumbers, so one exponential per mode m
        serves all of them: n exponentials per t. t is a scalar or a 1-D
        array; an array gives each factor a leading node axis. The factors
        are views of one array of exponentials.
        """
        t = np.asarray(t, dtype=float)
        factor = np.exp(np.multiply.outer(-t, self._ksq_axis))

        def along(axis, f):
            return f.reshape(t.shape + (1,) * axis + (-1,) + (1,) * (self.d - 1 - axis))

        return ([along(axis, factor) for axis in range(self.d - 1)]
                + [along(self.d - 1, self.half(factor))])

    def heat(self, t) -> np.ndarray:
        """The heat kernel exp(-|k|^2 t) on the half grid.

        |k|^2 = sum_a k_a^2, so the kernel is the broadcast product of the d
        one-axis factors of heat_factors(t), taken from the first axis on.
        That is n exponentials per t instead of one per coefficient. Each
        argument -t k_a^2 is rounded on its own, so the product is within
        2 eps (1 + |k|^2 t) relative of np.exp(-ksq * t) where that is a
        normal float. t is a scalar or a 1-D array; an array gives a
        leading node axis, whose entries equal the scalar calls bit for bit.
        """
        return reduce(np.multiply, self.heat_factors(t))

    def heat_band(self, t: float, cutoff: float) -> tuple:
        """(band, past) of the heat flow at time t: band is the largest mode
        m <= n/2 whose one-axis factor exp(-t k_m^2) is >= exp(-cutoff), so
        the band keeps the modes with every |m_a| <= band, and past is the
        factor exp(-t k_(band+1)^2) of the next mode, which bounds
        exp(-|k|^2 t) on every mode outside the band."""
        band = int(np.count_nonzero(-t * self.half(self._ksq_axis) >= -cutoff)) - 1
        return band, float(np.exp(-t * ((band + 1) * TWO_PI / self.box_len) ** 2))

    def coarsened(self, n: int) -> "Lattice":
        """The lattice of the same box with n points per axis, built on the
        first call and the same object on every later one."""
        lat = self._coarse.get(n)
        if lat is None:
            lat = self._coarse[n] = Lattice(self.d, n, self.box_len)
        return lat

    def half_shells(self) -> np.ndarray:
        """max_a |m_a| over the half spectrum: the least band that holds each
        mode, as integers. Built on every call, so the lattice does not
        hold it."""
        modes = np.abs(np.fft.fftfreq(self.n, d=1.0 / self.n)).astype(np.intp)
        shells = np.zeros(self.half_shape, dtype=np.intp)
        for axis in range(self.d):
            along = modes if axis < self.d - 1 else self.half(modes)
            np.maximum(shells, along.reshape([-1 if a == axis else 1 for a in range(self.d)]),
                       out=shells)
        return shells

    def restrict(self, c: np.ndarray, band: int, coarse: "Lattice") -> np.ndarray:
        """The modes |m_a| <= band of the half array c, as a half array of
        the coarse lattice, zero elsewhere.

        Needs band < coarse.n / 2 and band <= n / 2 - 1, so both layouts
        hold the modes -band..band on every axis but the last and 0..band
        on the last, with no Nyquist entry among them; the leading axes of
        c are kept. The modes are the same, so coarse.heat(t) takes the
        same factors on them as heat(t) does here, bit for bit.
        """
        if not 0 <= band < min(coarse.n // 2, self.n // 2):
            raise ConfigError(f"band {band} does not fit n={coarse.n} and n={self.n}")
        kept = np.r_[0 : band + 1, -band:0]
        axes = [kept] * (self.d - 1) + [np.arange(band + 1)]
        out = np.zeros(c.shape[: -self.d] + coarse.half_shape, dtype=complex)
        out[(Ellipsis,) + np.ix_(*axes)] = c[(Ellipsis,) + np.ix_(*axes)]
        return out

    @property
    def spatial_shape(self):
        return (self.n,) * self.d

    @property
    def half_shape(self):
        return self.spatial_shape[:-1] + (self.n // 2 + 1,)

    def half(self, c: np.ndarray) -> np.ndarray:
        """View of indices 0..n/2 of the last axis of c, such as a full-grid
        array or a one-axis factor. Slicing a half array again returns all
        of it."""
        return c[..., : self.n // 2 + 1]

    def rforward(self, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The half array of Fourier-series coefficients of real samples a:
        rfftn(a) / n^d over the trailing d axes.

        Every transform in the package goes through this method and
        inverse(). n is a power of two, so the 1/n^d scaling is exact.
        With out (complex128, the shape of the result), each axis is
        transformed into out, which is returned: the bits are those of a
        call without out, and the result-size array that such a call
        allocates for each axis is never made.
        """
        return np.fft.rfftn(a, axes=tuple(range(-self.d, 0)), norm="forward", out=out)

    def inverse(self, c: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Real samples of the Hermitian half array c over the trailing d axes.

        A real inverse transform in irfftn's own steps: ifft on each leading
        axis, then irfft on the last. The other half of a Hermitian array is
        the conjugate of c, so it is never needed. For coefficients that are
        not Hermitian the result is not the real part of their inverse.

        Without out each step makes a new array, as irfftn does, and c is
        left as it was. With out (float64, the shape of the result), c
        (complex128) is overwritten: each ifft runs in place in c and irfft
        writes into out, which is returned. Either way the bits are
        irfftn's; with out, irfftn's complex intermediate is never made.
        """
        if c.shape[-self.d:] != self.half_shape:
            raise DataError(f"coefficients of shape {c.shape} are not a half array "
                            f"{self.half_shape} of this lattice")
        for axis in range(-self.d, -1):
            c = np.fft.ifft(c, self.n, axis=axis, norm="forward", out=None if out is None else c)
        return np.fft.irfft(c, self.n, axis=-1, norm="forward", out=out)

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


class VectorField:
    """A vector field on a lattice: real float64 samples of shape
    (d,) + (n,)*d, the component axis first.

    The optional third argument is PHYSICAL, the one kind of data a field
    holds; anything else is refused.
    """

    def __init__(self, lattice: Lattice, data: np.ndarray, representation: str = PHYSICAL):
        if representation != PHYSICAL:
            raise DataError(f"fields hold physical samples, got representation {representation!r}")
        expected = (lattice.d,) + lattice.spatial_shape
        data = np.asarray(data)
        if np.iscomplexobj(data):
            raise DataError("fields must be real-valued")
        if data.shape != expected:
            raise DataError(
                f"VectorField data shape {data.shape} does not match lattice shape {expected}"
            )
        data = data.astype(np.float64, copy=False)
        if not np.all(np.isfinite(data)):
            raise DataError("field contains non-finite samples")
        self.lattice = lattice
        self.data = data

    def __repr__(self):
        return f"VectorField({self.lattice!r})"


Field = VectorField


def to_spectral(field: Field) -> np.ndarray:
    """The half array of Fourier-series coefficients of a field, a new
    array: field.lattice.rforward(field.data)."""
    return field.lattice.rforward(field.data)


def to_physical(lattice: Lattice, coeff: np.ndarray) -> Field:
    """The field whose Hermitian half array of coefficients is coeff:
    lattice.inverse(coeff) as a VectorField."""
    return VectorField(lattice, lattice.inverse(coeff))


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
    with np.errstate(over="ignore", invalid="ignore"):  # realize_datum refuses a non-finite one
        profile = np.float64(4.0 * np.pi * spec.width) ** (-lattice.d / 2.0) * np.exp(
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
        raise ConfigError(f"single_mode datum requires a mode tuple of length d = {lattice.d}, "
                          f"got {spec.mode!r}")
    mode = np.array([int(m) for m in spec.mode])
    if np.all(mode == 0):
        raise ConfigError("single_mode datum requires a nonzero wavevector")
    if not lattice.mode_resolved(mode):
        raise ConfigError(
            f"mode {tuple(mode.tolist())} is not resolved on n={lattice.n} "
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
    with np.errstate(over="ignore"):  # realize_datum refuses an overflowed profile
        profile = np.where(mask, safe_r ** (-spec.decay), 0.0)
    data = np.zeros((lattice.d,) + lattice.spatial_shape)
    data[0] = spec.amplitude * profile
    return data


def _random_band_datum(spec: DatumSpec, lattice: Lattice) -> np.ndarray:
    if spec.seed is None:
        raise ConfigError("random_band datum requires a seed")
    if spec.k_min is None or spec.k_max is None or not (0 <= spec.k_min <= spec.k_max):
        raise ConfigError("random_band datum requires 0 <= k_min <= k_max")
    ksq = lattice.ksq
    kmag = np.sqrt(ksq)
    band = (kmag >= spec.k_min) & (kmag <= spec.k_max) & (ksq > 0)
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
    # Hermitian part, so the physical samples are real; the draw is made
    # on the full grid, and inverse reads its half
    flipped = raw
    for axis in range(1, lattice.d + 1):
        flipped = np.roll(np.flip(flipped, axis=axis), 1, axis=axis)
    return lattice.inverse(lattice.half(0.5 * (raw + np.conj(flipped))))


def realize_datum(spec: DatumSpec, lattice: Lattice) -> VectorField:
    """Sample a datum description on a lattice, returning a vector field."""
    # deferred: multipliers and norms import lattice
    from .multipliers import leray_project
    from .norms import lebesgue_norm

    builders = {
        "gaussian": _gaussian_datum,
        "taylor_green": _taylor_green_datum,
        "single_mode": _single_mode_datum,
        "power_law": _power_law_datum,
        "random_band": _random_band_datum,
    }
    data = builders[spec.kind](spec, lattice)
    if not np.all(np.isfinite(data)):
        raise DataError(f"{spec.kind} datum produced non-finite samples")
    field = VectorField(lattice, data)
    if spec.divergence_free and spec.kind not in ("taylor_green", "single_mode"):
        field = leray_project(field)
    if spec.kind == "random_band":
        norm = lebesgue_norm(field, 2)
        if norm == 0.0:
            raise DataError("random_band datum realized to the zero field")
        field = VectorField(lattice, field.data * (spec.amplitude / norm))
    return field


# ---------------------------------------------------------------------------
# Flat binary serialization
#
# header: little-endian int32 d, int32 n, float64 box_len, int32 component
# count (always d), int32 representation flag (always 0, physical samples);
# payload: row-major float64 samples.

_HEADER = struct.Struct("<iidii")


def field_to_bytes(field: Field) -> bytes:
    lat = field.lattice
    header = _HEADER.pack(lat.d, lat.n, lat.box_len, lat.d, 0)
    return header + np.ascontiguousarray(field.data).astype("<f8", copy=False).tobytes()


def field_from_bytes(blob: bytes) -> Field:
    if len(blob) < _HEADER.size:
        raise DataError("field blob shorter than its header")
    d, n, box_len, ncomp, flag = _HEADER.unpack_from(blob)
    lattice = make_lattice(d, n, box_len)
    if ncomp != d:
        raise DataError(f"component count {ncomp} does not match dimension {d}")
    if flag != 0:
        raise DataError(f"representation flag {flag}: only 0, physical samples, is read")
    expected = d * n**d
    payload = np.frombuffer(blob, dtype="<f8", offset=_HEADER.size)
    if payload.size != expected:
        raise DataError(f"payload holds {payload.size} values, expected {expected}")
    return VectorField(lattice, payload.reshape((d,) + lattice.spatial_shape).copy())


def save_field(field: Field, path) -> None:
    write_atomic(path, field_to_bytes(field))


def load_field(path) -> Field:
    with open(path, "rb") as fh:
        return field_from_bytes(fh.read())
