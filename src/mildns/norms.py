"""Function-space norms on the lattice and their report types.

Lebesgue norms are Riemann sums with cell weights spacing^d, and the
components of a vector field aggregate in l2, matching the convention
used by the estimates this package measures. Negative-order
Sobolev and Besov quantities rely on the homogeneous zero-mode convention
(the mean carries no homogeneous information).

Time-dependent objects live on a Trajectory: one float64 array of the
physical samples at strictly increasing positive times, node first, so
interpolation and trajectory differences are array operations that build
no field per node. Sup-in-time norms are evaluated on the trajectory mesh;
heat-characterized norms use window_grid, the one dyadic time grid with
four points per octave inside the lattice validity window [Lattice.t_floor,
Lattice.t_cap] = [spacing^2, box_len^2 / 100]: up to the cap for the Besov
characterization, and up to 2^(-1/4) times a horizon for the Kato-window
smallness form. A window that holds no grid point (every n <= 8 for the
Besov grid) is refused as WindowError. The window_ok flag of a report
allows the one relative slack 1e-9 (_in_window).

Every sup-in-time quantity -- the Kato and Sobolev sup norms, the heat
characterization of the Besov norm, the smallness forms, the
integrability ladder, the fluctuation table, the early-time values of a
solve and the per-node table rows -- is t^w * norm(f(t)) maximized over
nodes. One row reduction, _lebesgue_rows, computes every Lebesgue norm,
one call for a batch of nodes with a leading node axis. Batches are the
slices of lattice.batches, at most lattice.BATCH_BYTES (512 KiB) of
samples or of flowed coefficients each, or one node or flow that alone
passes it: the 16 nodes of a sup at d = 2, n = 32 are one batch.
_node_norms is the one node norm: it batches an array of nodes, applies
|k|^s to each batch first when s != 0 (one transform pair per batch),
reduces each batch and enters np.errstate for those reductions.
lebesgue_norm (the live rows of a field) and sobolev_norm pass it a batch
of one, weighted_lebesgue the nodes of a trajectory (the Kato norm, the
Sobolev sup norm, the vanishing check, the ladder and the early values of
a solve) and sobolev_embedding_check its stacked corpus; none builds a
field. heat_sup reduces the batches of flowed rows that _heat_flows yields
(exp(t Lap) u0, transformed once) itself, because each batch comes on its
own, possibly coarser, lattice. Each node of a batch gets the bits of a
batch of one, and each weight t^w is one scalar power (_weighted). At
r = 4 the reduction squares twice instead of calling pow. A power sum
that overflows gives inf, with no warning, which the callers refuse.

Held flow buffers: a full-grid batch of flows is multiplied and
inverse-transformed in the arrays of lattice.held. The yielded rows are
views of them, so heat_trajectory copies and heat_sup reduces each batch
before asking for the next, and neither returns an array that shares
memory with them.

Live components: a component row that is identically zero stays zero under
the heat flow and adds exactly 0.0 to the l2 aggregate of a norm. So
_heat_flows transforms and flows only the rows of a datum that hold a
nonzero sample (a subnormal one counts) and yields only those, and
lebesgue_norm reduces only the live rows of a field; heat_trajectory
writes each batch of flowed rows into one zero-filled (M, d, *spatial)
array.
Pocketfft transforms each row the same way alone or in a batch, so both
give the same bits as the all-component path.

Half spectrum: _heat_flows takes a physical datum's coefficients from the
real forward transform (Lattice.rforward), which computes only the
non-negative half of the last spectral axis that the inverse transform
reads, and each flow multiplies only that half by the heat kernel
exp(-|k|^2 t) of Lattice.heat, a product of d one-axis factors that takes
n exponentials per flow, not one per coefficient. A full-grid batch is
inverse-transformed with Lattice.inverse's out, which overwrites the
flowed half array in place and writes the samples into the held real
buffer: the bits of irfftn, without its complex intermediate.

Band-limited flows: for an even integer q, |f|^q of a trigonometric
polynomial of band m (every |m_a| <= m) has band q m, so its Riemann sum is
the exact integral on any grid with more than q m points per axis: no
alias reaches the zero mode. So heat_sup at an even q takes each flow's band
m(t), the modes whose one-axis factors exp(-t k_a^2) are all >= e^-40
(Lattice.heat_band), into the half spectrum of the coarsest power-of-two
lattice of the same box with more than q m points per axis
(Lattice.coarsened, kept on the fine lattice, and Lattice.restrict), and
flows and inverse-transforms it there. A guard allows this only when a
bound of the dropped part is at most 1e-14 of a lower bound of the kept
flow's L^q norm (_coarse_flow); the bound reads the l1 tails of the datum's
coefficients past each shell max_a |m_a|, summed once per datum. A coarse
flow agrees with the full-grid one to round-off, not bit for bit. Every
other flow stays on the full grid, bit for bit: an odd, non-integer or
infinite q, a band too wide for a coarser power of two (at n = 32 every
flow of the Picard and calibration sups), a flow the guard refuses, and
heat_trajectory, which keeps its samples.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, MeshError, NumericalError, WindowError
# to_physical is not called here, but it stays bound: the benchmark's span
# tracer (bench/spans.py) patches it in every module that imports it, and
# bench/tests/test_spans.py checks this module's binding.
from .lattice import Field, Lattice, VectorField, batches, held, to_physical  # noqa: F401
from .multipliers import _fractional_multiplier, _loglog_fit


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

    def require_critical(self, what: str) -> None:
        """Refuse, as ConfigError naming what, a book off the critical line."""
        if not self.is_critical:
            raise ConfigError(f"the {what} requires the critical book s = d/p - 1, "
                              f"got s = {self.s:g}")

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
    """Vector fields at strictly increasing positive times, held as one
    float64 array data of shape (M, d, *spatial); fields are VectorField
    views of its rows. The constructor keeps such an array uncopied or
    stacks the samples of a list of vector fields; it scans the samples
    once and names the node of a non-finite one.

    Values between mesh nodes come from two-point interpolation that is
    exact for trajectories of the form c * t**interp_power + c' (linear
    interpolation in the coordinate t**interp_power, or log t when the
    power is zero) -- consistent with the Kato-weight power behavior near
    t = 0. Below the first node the first field is used unchanged; the
    trajectory never extrapolates past its last node.

    value_at reads a per-trajectory table, not the mesh array: the mesh
    as Python floats, searched with bisect, and per interpolation power p
    the coordinates phi(t_j) = t_j**p (np.log(t_j) at p = 0), built on
    first use, each the scalar operation the formula names, so the bits
    are those of a direct evaluation. times is a read-only copy of the
    given mesh, so the table cannot go stale.
    """

    def __init__(self, lattice: Lattice, times, fields):
        times = np.array(times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise MeshError("trajectory needs a one-dimensional, non-empty time mesh")
        if not np.all(times > 0):
            raise MeshError("trajectory times must be positive")
        if not np.all(np.diff(times) > 0):
            raise MeshError("trajectory times must be strictly increasing")
        if not isinstance(fields, np.ndarray):
            if not all(isinstance(f, VectorField) and f.lattice == lattice for f in fields):
                raise DataError("trajectories hold vector fields on the trajectory lattice")
            fields = np.array([f.data for f in fields])
        if fields.shape[:1] != times.shape:
            raise MeshError(f"{len(fields)} fields for {times.size} time nodes")
        if fields.shape[1:] != (lattice.d,) + lattice.spatial_shape:
            raise DataError(f"trajectory data shape {fields.shape} does not fit the lattice")
        if np.iscomplexobj(fields):
            raise DataError("trajectory samples must be real-valued")
        self.data = fields.astype(np.float64, copy=False)
        finite = np.isfinite(self.data).reshape(times.size, -1).all(axis=1)
        if not finite.all():
            j = int(np.argmin(finite))
            raise DataError(f"non-finite samples at trajectory node {j}, t = {times[j]:g}")
        times.flags.writeable = False
        self.lattice = lattice
        self.times = times
        self._mesh = times.tolist()
        self._limit = self._mesh[-1] * (1 + 1e-12)  # past it, tau is beyond the horizon
        self._phi = {}  # interpolation power -> [phi(t_j)]

    @property
    def fields(self) -> list:
        """The nodes as physical VectorFields; each shares memory with data[j]."""
        return [VectorField(self.lattice, f) for f in self.data]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def __len__(self):
        return self.times.size

    def node_index(self, t: float) -> int:
        """Index of the mesh node equal to t (relative tolerance 1e-12)."""
        if math.isfinite(t):
            idx = int(np.argmin(np.abs(self.times - t)))
            if abs(self.times[idx] - t) <= 1e-12 * max(1.0, abs(t)):
                return idx
        raise MeshError(f"t={t!r} is not a node of the trajectory mesh")

    def value_at(self, tau: float, interp_power: float = 0.0) -> np.ndarray:
        """Samples at time tau: a view of data[j] at (or frozen onto) node j,
        else a new array interpolated between the nodes around tau."""
        mesh = self._mesh
        if not 0.0 <= tau <= self._limit:
            if 0.0 < tau < math.inf:
                raise MeshError(f"tau={float(tau)!r} lies beyond the trajectory "
                                f"horizon {mesh[-1]!r}")
            raise MeshError(f"tau={float(tau)!r} is not a finite nonnegative time")
        if tau <= mesh[0]:
            return self.data[0]
        if tau >= mesh[-1]:
            return self.data[-1]
        hi = bisect_left(mesh, tau)
        lo = hi - 1
        t_lo = mesh[lo]
        if abs(tau - t_lo) <= 1e-14 * t_lo:
            return self.data[lo]
        phi = self._phi.get(interp_power)
        if phi is None:
            phi = self._phi[interp_power] = [float(self._coordinate(t, interp_power))
                                             for t in self.times]
        lam = (self._coordinate(tau, interp_power) - phi[lo]) / (phi[hi] - phi[lo])
        out = np.multiply(self.data[lo], 1.0 - lam)
        out += lam * self.data[hi]
        return out

    @staticmethod
    def _coordinate(t, interp_power):
        return t**interp_power if interp_power != 0.0 else np.log(t)

    def check_same_mesh(self, other) -> None:
        """Refuse, as DataError, an other that is not a trajectory on this
        lattice and mesh."""
        if not (isinstance(other, Trajectory) and other.lattice == self.lattice
                and np.array_equal(other.times, self.times)):
            raise DataError("trajectories must share one lattice and mesh")

    def __sub__(self, other):
        self.check_same_mesh(other)
        return Trajectory(self.lattice, self.times, self.data - other.data)


def quadratic_mesh(horizon: float, nodes: int) -> np.ndarray:
    """Graded mesh t_j = T (j / M)^2, j = 1..M, clustered near t = 0."""
    if not (horizon > 0):
        raise MeshError(f"horizon must be positive, got {horizon}")
    if nodes < 2:
        raise MeshError(f"mesh needs at least 2 nodes, got {nodes}")
    j = np.arange(1, nodes + 1, dtype=float)
    return horizon * (j / nodes) ** 2


def _heat_flows(u0: Field, times, q=None):
    """The live component rows of u0 and their heat flows: (live, flows).

    live is the boolean mask of the component rows of u0 that hold a
    nonzero sample (_live_rows); flows is a generator that yields, in the
    order of times, pairs (lattice, rows): rows is the float64 array
    (flows, live.sum(), *spatial) of those rows of exp(t Lap) u0 for a
    batch of consecutive times t, sampled on lattice. A dead row stays zero
    under the flow, so it is neither transformed nor yielded.

    The live rows are transformed once, by rforward, which yields only the
    half spectrum that Lattice.inverse reads. Consecutive flows on u0's
    lattice come in the batches of lattice.batches, whose flowed
    coefficients fit lattice.BATCH_BYTES: one product with the kernels of
    Lattice.heat(times of the batch), which equal the scalar kernels bit
    for bit, and one inverse transform each, both written into the
    buffers that the thread holds (lattice.held). Batches are built only
    when the consumer asks for them, so a sup over many times holds one
    batch, not every flow; a flow that alone passes the cap is a batch of
    one, in arrays of its own. An all-zero datum flows with no transform
    at all.

    The rows of a full-grid batch are a view of a held buffer, which the
    next batch, and the next call on the thread, overwrite: the consumer
    copies or reduces each batch before it asks for the next, and lets no
    rows out (list() of the flows would repeat the last batch).

    lattice is u0's own unless q is an even integer: then a flow whose band
    is narrow comes alone on the coarsest lattice that sums |f|^q exactly
    (see _coarse_flow and the module docstring), and its rows serve only
    that Lebesgue-q norm.
    """
    lat = u0.lattice
    rows = u0.data
    live = _live_rows(rows)
    if not live.any():
        return live, iter([(lat, np.zeros((len(times), 0) + lat.spatial_shape))])
    # a transform that overflows is not warned of: heat_sup and Trajectory refuse its flows
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = lat.rforward(rows if live.all() else rows[live])
    even = q is not None and math.isfinite(q) and q >= 2 and q % 2 == 0
    return live, _flows(lat, coeffs, times, int(q) if even else None)


# A flow's band keeps the modes whose one-axis heat factors are all >= e^-40,
# and it is coarsened only when the part it drops is at most _GUARD of it.
_BAND_EXPONENT = 40.0
_GUARD = 1e-14


def _flows(lat: Lattice, coeffs: np.ndarray, times, q: Optional[int]):
    """The (lattice, rows) batches of _heat_flows, from the half coefficients
    of the live rows; q is the even integer exponent or None. A run of
    times whose flows stay on lat is held as times until a coarse flow or
    the end of times closes it, so the inverse transforms run in the order
    of times."""
    tails = None  # built at the first flow narrow enough to be coarsened
    run = []
    for t in times:
        flow = None
        if q is not None:
            band, past = lat.heat_band(t, _BAND_EXPONENT)
            # the least power of two above q * band, and no Lattice is below 4
            size = max(4, 1 << (q * band).bit_length())
            if size < lat.n:
                if tails is None:
                    tails = _shell_tails(lat, coeffs)
                flow = _coarse_flow(lat, coeffs, t, band, lat.coarsened(size),
                                    past * tails[band + 1])
        if flow is None:
            run.append(t)
            continue
        yield from _full_flows(lat, coeffs, run)
        run = []
        coarse, flowed = flow
        yield coarse, coarse.inverse(flowed[None])
    yield from _full_flows(lat, coeffs, run)


def _full_flows(lat: Lattice, coeffs: np.ndarray, times: list):
    """The flows at times on lat, in the batches of lattice.batches, each
    multiplied and inverse-transformed in the arrays of lattice.held; the
    inverse overwrites the flowed coefficients in place."""
    for span in batches(len(times), coeffs.nbytes):
        kernels = lat.heat(times[span])
        flowed, rows = held("flows", ((len(kernels),) + coeffs.shape, np.complex128),
                            ((len(kernels), len(coeffs)) + lat.spatial_shape, np.float64))
        np.multiply(coeffs, kernels[:, None], out=flowed)
        yield lat, lat.inverse(flowed, out=rows)


def _shell_tails(lat: Lattice, coeffs: np.ndarray) -> np.ndarray:
    """tails[m], m = 0..n/2 + 1: the l1 norm of the coefficients in the
    shells max_a |m_a| >= m, over every row and the whole spectrum.

    coeffs is a half array, so each entry of the last axis but its mode 0
    and its Nyquist mode stands for itself and its conjugate and counts
    twice. One O(n^d) pass per datum.
    """
    half = lat.n // 2
    mags = np.abs(coeffs).sum(axis=0)
    mags[..., 1:half] *= 2.0
    sums = np.bincount(lat.half_shells().ravel(), weights=mags.ravel(), minlength=half + 1)
    return np.append(np.cumsum(sums[::-1])[::-1], 0.0)


def _coarse_flow(lat: Lattice, coeffs: np.ndarray, t: float, band: int, coarse: Lattice,
                 dropped: float):
    """(coarse, coefficients) of the flow at t of the modes |m_a| <= band,
    a half array of the coarse lattice, or None when the guard refuses to
    drop the rest.

    dropped bounds the sup of the rest: its modes all lie in shells past
    band, where exp(-|k|^2 t) is at most Lattice.heat_band's past factor,
    so the sup is at most that factor times the l1 tail of _shell_tails. Its
    L^q norm is at most |Omega|^(1/q) dropped. The kept flow's L^q norm is at
    least |Omega|^(1/q - 1/2) times its L^2 norm (Hoelder), which is
    |Omega|^(1/2) times the l2 norm of its coefficients (Parseval). The
    powers of |Omega| cancel, so the guard compares dropped with _GUARD
    times that l2 norm; the components aggregate in l1 and l2, which bound
    the l2 aggregate of the norms from above and below.
    """
    flowed = lat.restrict(coeffs, band, coarse) * coarse.heat(t)
    # Parseval on a half array: each column but mode 0 stands for two modes
    # (the Nyquist column lies past the band, so it is zero)
    energy = np.abs(flowed) ** 2
    if not dropped <= _GUARD * np.sqrt(2.0 * energy.sum() - energy[..., 0].sum()):
        return None
    return coarse, flowed


def heat_trajectory(u0: VectorField, times) -> Trajectory:
    """Trajectory of the free heat evolution of a datum: the flows of
    _heat_flows copied into one new (M, d, *spatial) array, on u0's
    lattice, one assignment per batch, so it shares no memory with the
    held flow buffers."""
    live, flows = _heat_flows(u0, times)
    data = np.zeros((len(times),) + u0.data.shape)
    start = 0
    for _, rows in flows:
        data[start:start + len(rows), live] = rows
        start += len(rows)
    return Trajectory(u0.lattice, times, data)


def dyadic_grid(t_max: float, t_min: float, per_octave: int = 4) -> np.ndarray:
    """Dyadic time grid with per_octave points per octave, anchored at t_max.

    Built by descending from t_max in factors of 2**(1/per_octave), so grids
    for horizons T and T/lambda^2 (dyadic lambda) correspond element-wise in
    exact floating point. Returned ascending. t_min must be a normal float:
    below the normal floats t / 2**(1/per_octave) can round back to t.
    """
    if not (np.finfo(float).tiny <= t_min < t_max < math.inf):
        raise ConfigError(f"need 0 < t_min < t_max < inf, t_min normal, got [{t_min}, {t_max}]")
    if isinstance(per_octave, bool) or not isinstance(per_octave, (int, np.integer)) \
            or per_octave < 1:
        raise ConfigError(f"points per octave must be an integer >= 1, got {per_octave!r}")
    ratio = 2.0 ** (1.0 / per_octave)
    out = []
    t = float(t_max)
    while t >= t_min * (1 - 1e-12):
        out.append(t)
        t = t / ratio
    return np.array(out[::-1])


def window_grid(lattice: Lattice, horizon: Optional[float] = None) -> np.ndarray:
    """The dyadic heat-time grid, four points per octave, from the resolution
    floor spacing^2 of the lattice up to a top time: the validity cap
    box_len^2 / 100 when horizon is None (the grid of the Besov
    characterization), else horizon * 2^(-1/4) for a horizon that
    Lattice.check_cap admits (the grid of the Kato-window smallness form).

    A top at or below the floor leaves no grid point and raises WindowError;
    the window of every lattice with n <= 8 points per axis is empty.
    """
    if horizon is None:
        top, what = lattice.t_cap, f"the validity cap L^2/100 = {lattice.t_cap:g}"
    else:
        lattice.check_cap(horizon, "horizon")
        top, what = horizon * 2.0 ** (-0.25), f"horizon {horizon:g}"
    if not top > lattice.t_floor:
        raise WindowError(f"{what} leaves no dyadic sample above the resolution floor "
                          f"spacing^2 = {lattice.t_floor:g}")
    return dyadic_grid(top, lattice.t_floor)


def _in_window(lattice: Lattice, t_last: float, t_first: Optional[float] = None) -> bool:
    """Whether times up to t_last, and from t_first unless it is None, stay
    in the lattice validity window [t_floor, t_cap], with a relative slack
    of 1e-9 at each end."""
    return bool(t_last <= lattice.t_cap * (1 + 1e-9)
                and (t_first is None or t_first >= lattice.t_floor * (1 - 1e-9)))


# ---------------------------------------------------------------------------
# Norm reports


@dataclass
class NormReport:
    """A sup over time nodes: its value, the node time where it is reached,
    whether the nodes stayed inside the lattice validity window, and the
    weighted value at every node."""

    value: float
    argmax_t: float
    window_ok: bool
    values: np.ndarray = dc_field(repr=False, compare=False)


def _live_rows(rows: np.ndarray) -> np.ndarray:
    """Boolean mask of the component rows that hold a nonzero sample."""
    return rows.reshape(len(rows), -1).any(axis=1)


def _lebesgue_rows(nodes: np.ndarray, r, cell_volume: float) -> np.ndarray:
    """The Lebesgue-r norm of each node of nodes (node axis first, then
    the component axis), its component rows aggregated in l2: one
    reduction for the whole batch, which gives each node the bits of a
    batch of one.

    r = 4 squares twice instead of calling pow per sample; every other r
    takes np.abs(x) ** r, and np.inf the grid sup. A row that is
    identically zero has norm exactly 0.0, and numpy sums fewer than eight
    terms in order, so leaving a dead row out changes no bits.
    """
    if not (r == np.inf or r >= 1):
        raise ConfigError(f"Lebesgue exponent must be in [1, inf], got {r}")
    axes = tuple(range(2, nodes.ndim))
    if r == np.inf:
        per_row = np.max(np.abs(nodes), axis=axes)
    else:
        if r == 4:
            # made per call, not held: a held powers buffer grows to the cap
            # on the coarse lattices of the 512^2 sups and fragments the
            # heap; holding it raised the peak RSS of bench/run.py's
            # spectral workload from 84.4 to 88.6 MB
            powers = nodes * nodes
            powers *= powers
        else:
            powers = np.abs(nodes) ** r
        per_row = (np.sum(powers, axis=axes) * cell_volume) ** (1.0 / r)
    return np.sqrt(np.sum(per_row**2, axis=1))


def _weighted(times, weight: float, norms: np.ndarray) -> np.ndarray:
    """t^weight * norm at each time: one scalar power per time, since
    numpy's vectorised power differs from it in the last bit for some
    exponents."""
    return np.array([t**weight for t in times]) * norms


def lebesgue_norm(field: Field, r) -> float:
    """Lebesgue norm of a vector field with Riemann cell weights; its
    components aggregate in l2.

    r may be any value in [1, inf]; np.inf gives the grid sup norm.
    Identically zero components are not reduced: their norm is exactly 0.
    """
    live = _live_rows(field.data)
    rows = field.data if live.all() else field.data[live]
    return float(_node_norms(field.lattice, rows[None], 0.0, r)[0])


def _node_norms(lat: Lattice, data: np.ndarray, s: float, r) -> np.ndarray:
    """The Lebesgue-r norm of |k|^s f for each node f of data (node axis
    first, then the component axis), one row reduction per batch of
    lattice.batches whose samples fit lattice.BATCH_BYTES. For s != 0 each
    batch goes through one rforward, the |k|^s multiplier (built once per
    call) and one inverse, so no spectrum of more than one batch is held.
    A dead row stays exactly zero and adds exactly 0.0 to a norm; a power
    sum that overflows gives inf, with no warning."""
    mult = None if s == 0 else _fractional_multiplier(lat, s)
    norms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for span in batches(len(data), data[0].nbytes):
            batch = data[span] if mult is None else lat.inverse(lat.rforward(data[span]) * mult)
            norms.append(_lebesgue_rows(batch, r, lat.cell_volume))
    return np.concatenate(norms)


def sobolev_norm(field: Field, s: float, p) -> float:
    """Homogeneous Sobolev norm: Lebesgue-p norm of |k|^s applied to the
    field, _node_norms on a batch of one."""
    return float(_node_norms(field.lattice, field.data[None], s, p)[0])


def weighted_lebesgue(traj: Trajectory, weight: float, r, nodes=None, s=0.0) -> np.ndarray:
    """t^weight * || |k|^s u(t) ||_r at the first nodes mesh nodes (every
    node by default), the _node_norms of those nodes.

    No field is built: the Trajectory constructor has already scanned the
    samples for non-finite values. The values equal lebesgue_norm (s = 0)
    or sobolev_norm of each node's field, times the scalar power t^weight,
    bit for bit; one that overflows is inf.
    """
    times = traj.times[:nodes]
    return _weighted(times, weight, _node_norms(traj.lattice, traj.data[:len(times)], s, r))


def _sup_report(times, values: np.ndarray, window_ok: bool) -> NormReport:
    arg = int(np.argmax(values))
    return NormReport(
        value=float(values[arg]),
        argmax_t=float(times[arg]),
        window_ok=window_ok,
        values=values,
    )


def heat_sup(u0: Field, t_grid, weight: float, q) -> NormReport:
    """sup over t_grid of t^weight ||exp(t Lap) u0||_q, streaming the
    batches of flowed live rows of _heat_flows into the row reduction, one
    call per batch before the next is asked for, with the cell volume of
    the lattice the batch comes on:
    at an even integer q a narrow flow comes on a coarser lattice (see the
    module docstring).

    A grid that is empty or holds a time that is not positive and finite
    raises ConfigError naming the first such time. A weighted value that
    is not finite (a sample or a power that overflowed) raises
    NumericalError naming t and q. window_ok records whether the grid
    stayed inside the lattice validity window [Lattice.t_floor,
    Lattice.t_cap].
    """
    lat = u0.lattice
    t_grid = np.asarray(t_grid, dtype=float)
    bad = ~((0 < t_grid) & (t_grid < np.inf))
    if t_grid.size == 0 or bad.any():
        found = f", got t = {t_grid.flat[np.argmax(bad)]:g}" if bad.any() else ""
        raise ConfigError(f"heat time grid must be non-empty, positive and finite{found}")
    _, flows = _heat_flows(u0, t_grid, q)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [_lebesgue_rows(rows, q, flow_lat.cell_volume) for flow_lat, rows in flows]
        values = _weighted(t_grid, weight, np.concatenate(norms))
    finite = np.isfinite(values)
    if not finite.all():
        t = t_grid[int(np.argmin(finite))]
        raise NumericalError(f"non-finite heat-sup value at t = {t:g}, q = {q:g}")
    return _sup_report(t_grid, values, _in_window(lat, t_grid[-1], t_grid[0]))


def besov_norm_heat(field: Field, s: float, q) -> NormReport:
    """Heat-flow characterization of the Besov norm with negative smoothness:
    sup over window_grid(field.lattice) of t^(-s/2) * ||exp(t Lap) f||_q.

    Only s < 0 is admissible (the characterization degenerates otherwise).
    """
    if not (s < 0):
        raise ConfigError(
            f"heat characterization requires negative smoothness, got s = {s}"
        )
    return heat_sup(field, window_grid(field.lattice), -s / 2.0, q)


def kato_norm(traj: Trajectory, q, q_tilde) -> NormReport:
    """sup over mesh nodes of t^(alpha/2) ||u(t)||_{q_tilde},
    alpha = d (1/q - 1/q_tilde). Requires q_tilde >= q."""
    if q_tilde < q:
        raise ConfigError(f"kato norm requires q_tilde >= q, got q={q}, q_tilde={q_tilde}")
    alpha = traj.lattice.d * (1.0 / q - 1.0 / q_tilde)
    values = weighted_lebesgue(traj, alpha / 2.0, q_tilde)
    return _sup_report(traj.times, values, _in_window(traj.lattice, traj.horizon))


def n_norm(traj: Trajectory, s: float, p) -> NormReport:
    """sup over mesh nodes of the homogeneous Sobolev (s, p) norm, the
    weighted_lebesgue reduction with weight 0 and order s."""
    values = weighted_lebesgue(traj, 0.0, p, s=s)
    return _sup_report(traj.times, values, _in_window(traj.lattice, traj.horizon))


@dataclass
class VanishingReport:
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
    values = weighted_lebesgue(traj, weight_exponent, r, nodes=5)
    return VanishingReport(values=values, vanishing=bool(np.all(np.diff(values) > 0)))


@dataclass
class DecayFit:
    slope: float
    residual: float


def decay_exponent_fit(t_values, norm_values, window) -> DecayFit:
    """Least-squares slope of log(norm) against log(t) inside a time window.

    Needs at least 8 positive samples in the window. residual is the RMS
    of the log-space residuals.
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
    return DecayFit(*_loglog_fit(t_values[mask], norm_values[mask]))


@dataclass
class EmbeddingReport:
    upper_norms: np.ndarray
    lower_norms: np.ndarray
    ratios: np.ndarray
    max_ratio: float


def sobolev_embedding_check(fields, s1: float, q1, s2: float, q2) -> EmbeddingReport:
    """Measure ||f||_{s2, q2} / ||f||_{s1, q1} over a corpus of fields.

    The two index pairs must sit on the same scaling line
    (s1 - d/q1 = s2 - d/q2) with s1 > s2, and both integrabilities must be
    in (1, inf). The max ratio is the measured embedding constant. The
    corpus must lie on one lattice (DataError otherwise): its fields are
    stacked and each index pair takes one _node_norms call, which gives
    every field the bits of sobolev_norm.
    """
    fields = list(fields)
    if not fields:
        raise ConfigError("embedding check needs a non-empty corpus")
    lat = fields[0].lattice
    if any(f.lattice != lat for f in fields):
        raise DataError("embedding corpus must lie on one lattice")
    d = lat.d
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
    data = np.stack([f.data for f in fields])
    upper = _node_norms(lat, data, s1, q1)
    if not upper.all():
        raise DataError("embedding corpus contains a field with zero source norm")
    lower = _node_norms(lat, data, s2, q2)
    ratios = lower / upper
    return EmbeddingReport(
        upper_norms=upper,
        lower_norms=lower,
        ratios=ratios,
        max_ratio=float(np.max(ratios)),
    )
