"""Lattice geometry, spectral transforms, datum builders, serialization."""

import ast
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import mildns
from mildns import (
    ConfigError,
    DataError,
    DatumSpec,
    QuadratureSpec,
    VectorField,
    WindowError,
    bilinear_B,
    divergence_defect,
    field_from_bytes,
    field_to_bytes,
    fractional_laplacian,
    heat_flow,
    heat_trajectory,
    kernel_profile,
    lebesgue_norm,
    leray_project,
    load_field,
    make_lattice,
    realize_datum,
    save_field,
    to_physical,
    to_spectral,
)
from mildns import lattice
from mildns.lattice import _HEADER, BATCH_BYTES, FIELD_BYTES, PHYSICAL, Lattice, held


class TestLatticeConstruction:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigError, match="dimension"):
            make_lattice(1, 16, 1.0)
        with pytest.raises(ConfigError, match="dimension"):
            make_lattice(4, 16, 1.0)

    @pytest.mark.parametrize("n", [0, 2, 3, 12, 17])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ConfigError, match="power of two"):
            make_lattice(2, n, 1.0)

    @pytest.mark.parametrize("box_len", [0.0, -1.0, np.nan, np.inf, 1e-300, 1e160])
    def test_rejects_bad_box(self, box_len):
        with pytest.raises(ConfigError, match="box length"):
            make_lattice(2, 16, box_len)

    @pytest.mark.parametrize("d, n, mib", [(2, 8192, 1024), (3, 256, 384), (3, 512, 3072)])
    def test_refuses_a_field_past_the_budget(self, d, n, mib, monkeypatch):
        """A lattice whose vector field passes FIELD_BYTES is refused before
        it makes any array; d = 2, n = 4096 and d = 3, n = 128 are the
        largest that pass."""
        def refuse(*args, **kwargs):
            raise AssertionError("the lattice allocated before its budget check")

        with monkeypatch.context() as patch:
            patch.setattr(np.fft, "fftfreq", refuse)
            with pytest.raises(ConfigError) as info:
                make_lattice(d, n, 1.0)
        assert str(info.value) == (f"a vector field on the d={d}, n={n} lattice takes "
                                   f"{mib} MiB, past the budget of 256 MiB")
        for dim, points in ((2, 4096), (3, 128)):
            assert dim * points**dim * 8 <= FIELD_BYTES < dim * (2 * points) ** dim * 8

    def test_geometry(self):
        lat = make_lattice(2, 8, 4.0)
        assert lat.spacing == 0.5
        assert lat.cell_volume == 0.25
        assert lat.spatial_shape == (8, 8)
        assert lat.k_axes[0].shape == (8, 1)
        assert lat.k_axes[1].shape == (1, 8)
        npt.assert_allclose(lat.k_axes[0].ravel()[1], 2.0 * np.pi / 4.0)

    def test_nyquist_entry_zeroed_in_derivative_wavenumbers(self):
        # fftfreq stores the self-paired mode as m = -n/2 with no +n/2
        # partner; odd-order multipliers contract against k_deriv, which
        # zeroes that entry, and agree with k_axes everywhere else.
        lat = make_lattice(2, 8, 2.0 * np.pi)
        full = lat.k_axes[0].ravel()
        deriv = lat.k_deriv[0].ravel()
        assert full[4] == -4.0
        assert deriv[4] == 0.0
        npt.assert_array_equal(np.delete(deriv, 4), np.delete(full, 4))

    def test_check_cap_passes_the_cap_and_refuses_one_ulp_past_it(self):
        lat = make_lattice(2, 16, 2.0 * np.pi)
        lat.check_cap(lat.t_cap, "horizon")
        with pytest.raises(WindowError) as info:
            lat.check_cap(np.nextafter(lat.t_cap, np.inf), "horizon")
        assert str(info.value) == ("horizon 0.39478417604357435 exceeds the lattice validity "
                                   "window L^2/100 = 0.3947841760435743")

    def test_mode_resolved(self):
        lat = make_lattice(2, 16, 2.0 * np.pi)
        assert lat.mode_resolved([7, -7])
        assert not lat.mode_resolved([8, 0])

    def test_equality_and_hash(self):
        a = make_lattice(2, 16, 1.0)
        b = make_lattice(2, 16, 1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != make_lattice(2, 32, 1.0)
        assert a != make_lattice(2, 16, 2.0)


class TestFields:
    def test_shape_mismatch_rejected(self, lat2):
        with pytest.raises(DataError, match="shape"):
            VectorField(lat2, np.zeros((3, 16, 16)), PHYSICAL)
        with pytest.raises(DataError, match="shape"):
            VectorField(lat2, np.zeros((16, 16)), PHYSICAL)

    def test_physical_fields_must_be_real(self, lat2, rng):
        """A field holds real samples only: coefficients stay arrays."""
        data = np.zeros((2, 16, 16), dtype=complex)
        with pytest.raises(DataError, match="real"):
            VectorField(lat2, data, PHYSICAL)
        coeff = to_spectral(VectorField(lat2, rng.standard_normal((2, 16, 16))))
        with pytest.raises(DataError, match="real"):
            VectorField(lat2, coeff)

    def test_spectral_representation_refused(self, lat2, rng):
        data = rng.standard_normal((2, 16, 16))
        with pytest.raises(DataError, match="physical samples, got representation 'spectral'"):
            VectorField(lat2, data, "spectral")
        assert np.array_equal(VectorField(lat2, data).data, VectorField(lat2, data, PHYSICAL).data)

    def test_non_finite_samples_rejected(self, lat2):
        data = np.zeros((2, 16, 16))
        data[0, 0, 0] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            VectorField(lat2, data, PHYSICAL)

    def test_field_is_the_vector_field(self):
        assert mildns.Field is mildns.VectorField

class TestTransforms:
    def test_round_trip_identity(self, lat2, rng):
        data = rng.standard_normal((2, 16, 16))
        back = to_physical(lat2, to_spectral(VectorField(lat2, data, PHYSICAL)))
        npt.assert_allclose(back.data, data, atol=1e-14)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_boundary_is_the_lattice_transforms(self, d, n, rng):
        """to_spectral is Lattice.rforward of the samples and to_physical
        Lattice.inverse of the coefficients, bit for bit."""
        lat = make_lattice(d, n, 2.0 * np.pi)
        data = rng.standard_normal((d,) + lat.spatial_shape)
        coeff = to_spectral(VectorField(lat, data))
        assert type(coeff) is np.ndarray and coeff.dtype == np.complex128
        assert coeff.shape == (d,) + lat.half_shape
        assert np.array_equal(coeff, lat.rforward(data))
        back = to_physical(lat, coeff)
        assert type(back) is VectorField and back.lattice == lat
        assert np.array_equal(back.data, lat.inverse(coeff))

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)])
    def test_inverse_refuses_a_full_grid_of_coefficients(self, d, n, rng):
        """irfftn would crop a full grid to its half without a word; inverse
        reads half arrays only."""
        lat = make_lattice(d, n, 2.0 * np.pi)
        full = np.fft.fftn(rng.standard_normal((d,) + lat.spatial_shape),
                           axes=tuple(range(1, d + 1)), norm="forward")
        with pytest.raises(DataError, match="not a half array"):
            lat.inverse(full)

    def test_cosine_coefficients(self, row0_field):
        """cos(x) carries exactly two Fourier-series coefficients of 1/2."""
        lat = make_lattice(2, 16, 2.0 * np.pi)
        f = row0_field(lat, np.cos(np.broadcast_to(lat.x_axes[0], (16, 16))))
        coeff = to_spectral(f)
        assert abs(coeff[0, 1, 0] - 0.5) < 1e-14
        assert abs(coeff[0, -1, 0] - 0.5) < 1e-14
        rest = coeff.copy()
        rest[0, 1, 0] = rest[0, -1, 0] = 0.0
        assert np.abs(rest).max() < 1e-14

    def test_hermitian_defect_vanishes_for_real_data(self, lat2, rng):
        """c(-k) = conj(c(k)) for the coefficients of real samples: the
        Hermitian completion of the half array is the complex transform."""
        data = rng.standard_normal((2, 16, 16))
        c = hermitian_completion(lat2, to_spectral(VectorField(lat2, data, PHYSICAL)))
        full = np.fft.fftn(data, axes=(1, 2), norm="forward")
        assert np.abs(c - full).max() < 1e-14 * np.abs(full).max()
        flipped = np.roll(np.flip(c, axis=(1, 2)), 1, axis=(1, 2))
        assert np.abs(flipped - np.conj(c)).max() < 1e-14 * np.abs(c).max()

    @pytest.mark.parametrize("shape, d, n", [((2, 32, 32), 2, 32), ((5, 3, 32, 32), 2, 32),
                                             ((3, 16, 16, 16), 3, 16)])
    def test_forward_and_inverse_are_the_scaled_dft(self, shape, d, n, rng):
        """Lattice.rforward is rfftn / n^d over the trailing d axes, and
        Lattice.inverse is irfftn * n^d of the half spectrum (indices 0..n/2
        of the last axis), bit for bit (n^d is a power of two, so the
        scaling is exact), whatever the leading axes. rforward is the half
        of the complex transform fftn / n^d to round-off; for the Hermitian
        coefficients of real samples inverse is the real part of the
        complex inverse to round-off, and it undoes rforward; given out,
        rforward fills and returns out with the same bits."""
        lat = make_lattice(d, n, 2.0 * np.pi)
        axes = tuple(range(len(shape) - d, len(shape)))
        a = rng.standard_normal(shape)
        c = np.fft.fftn(a, axes=axes) / n**d
        half = c[..., : n // 2 + 1]
        back = lat.inverse(half.copy())
        npt.assert_array_equal(back, np.fft.irfftn(half, s=(n,) * d, axes=axes) * n**d)
        complex_inverse = (np.fft.ifftn(c, axes=axes) * n**d).real
        assert np.abs(back - complex_inverse).max() <= 1e-15 * np.abs(a).max()
        r = lat.rforward(a)
        npt.assert_array_equal(r, np.fft.rfftn(a, axes=axes) / n**d)
        assert np.abs(r - half).max() <= 1e-15 * np.abs(a).max()
        assert np.abs(lat.inverse(r) - a).max() <= 1e-15 * np.abs(a).max()
        buf = np.empty_like(r)
        assert lat.rforward(a, out=buf) is buf
        npt.assert_array_equal(buf, r)

    @pytest.mark.parametrize("shape, d, n", [((16, 2, 32, 32), 2, 32),
                                             ((4, 3, 16, 16, 16), 3, 16)])
    def test_inverse_into_out_is_irfftn(self, shape, d, n, rng):
        """Given out, inverse overwrites c, fills and returns out, and the
        samples are irfftn's bit for bit: a batch of 16 flows at d = 2,
        n = 32 and one of 4 nodes at d = 3, n = 16, every Nyquist mode live.
        Without out they are irfftn's too and c is unchanged, also for the
        non-contiguous half view of a full grid that the random-band datum
        passes."""
        lat = make_lattice(d, n, 2.0 * np.pi)
        axes = tuple(range(-d, 0))
        c = lat.rforward(rng.standard_normal(shape))
        assert np.all(c[..., n // 2] != 0.0) and np.all(c[..., n // 2, :] != 0.0)
        want = np.fft.irfftn(c, s=(n,) * d, axes=axes, norm="forward")
        npt.assert_array_equal(lat.inverse(c), want)
        out = np.empty(shape)
        assert lat.inverse(c.copy(), out=out) is out
        npt.assert_array_equal(out, want)
        view = lat.half(np.fft.fftn(rng.standard_normal(shape), axes=axes, norm="forward"))
        assert not view.flags.c_contiguous
        before = view.copy()
        npt.assert_array_equal(lat.inverse(view),
                               np.fft.irfftn(view, s=(n,) * d, axes=axes, norm="forward"))
        npt.assert_array_equal(view, before)


class TestHeatKernel:
    """Lattice.heat is exp(-|k|^2 t) as the product of d one-axis factors."""

    CASES = [(2, 64, 8.0), (3, 16, 2.0 * np.pi)]
    TIMES = np.geomspace(1e-4, 50.0, 25)  # up to where most entries underflow

    @pytest.mark.parametrize("d, n, box_len", CASES, ids=["2d", "3d"])
    def test_round_off_from_the_exponential_of_ksq(self, d, n, box_len):
        """Each argument -t k_a^2 is rounded once, so the error grows with
        |k|^2 t: within 2 eps (1 + |k|^2 t) relative (2e-13 up to
        |k|^2 t = 450) where np.exp(-ksq * t) is a normal float, and both
        are below 1e-280 where it is not."""
        lat = make_lattice(d, n, box_len)
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        ksq = lat.half(lat.ksq)
        for t in self.TIMES:
            want = np.exp(-ksq * t)
            got = lat.heat(t)
            normal = want >= tiny
            rel = np.abs(got[normal] - want[normal]) / want[normal]
            assert np.all(rel <= 2 * eps * (1 + ksq[normal] * t))
            assert np.all(got[~normal] < 1e-280) and np.all(want[~normal] < 1e-280)
        assert not normal.all()  # the largest t reaches the underflow

    @pytest.mark.parametrize("d, n, box_len", CASES, ids=["2d", "3d"])
    def test_half_and_node_axis_give_the_same_bits(self, d, n, box_len):
        """On the half grid, an array of times gives the stacked scalar
        kernels, bit for bit, so the chunked kernels of bilinear_B equal
        per-node ones."""
        lat = make_lattice(d, n, box_len)
        stacked = np.array([lat.heat(t) for t in self.TIMES])
        assert np.array_equal(lat.heat(self.TIMES), stacked)
        assert lat.heat(1.0).shape == lat.half(lat.ksq).shape == lat.half_shape
        assert lat.heat(self.TIMES[:3]).shape == (3,) + lat.half_shape

    @pytest.mark.parametrize("d, n, box_len", CASES, ids=["2d", "3d"])
    def test_time_zero_is_the_identity(self, d, n, box_len):
        lat = make_lattice(d, n, box_len)
        assert np.array_equal(lat.heat(0.0), np.ones(lat.half_shape))
        assert np.all(lat.heat(0) == 1.0)


def hermitian_completion(lat, c):
    """The full grid of coefficients whose half array is c: column
    n - j of the last axis is the mirror image conj(c(-k)) of column j,
    for j = 1..n/2-1."""
    mirror = np.conj(c[..., 1 : lat.n // 2][..., ::-1])
    for axis in range(-lat.d, -1):
        mirror = np.roll(np.flip(mirror, axis=axis), 1, axis=axis)
    return np.concatenate([c, mirror], axis=-1)


def complex_forward(self, a, out=None):
    """The half of the complex forward transform fftn, a new array whatever
    out is given."""
    return self.half(np.fft.fftn(a, axes=tuple(range(-self.d, 0)), norm="forward"))


def complex_inverse(self, c, out=None):
    """The complex inverse transform: the real part of ifftn of the
    Hermitian completion of c, written into out when it is given."""
    full = hermitian_completion(self, c)
    real = np.fft.ifftn(full, axes=tuple(range(-self.d, 0)), norm="forward").real
    if out is None:
        return real
    out[...] = real
    return out


# Every call site of Lattice.inverse in the package, as a function of the
# lattice, a datum u (a random real field, so every mode is live, the
# Nyquist ones included) and a pair of its heat trajectories.
INVERSE_CALL_SITES = {
    "heat_flows": lambda lat, u, trajs: [
        f.data for f in heat_trajectory(u, [0.01, 0.1, 0.5]).fields],
    "heat_flow": lambda lat, u, trajs: heat_flow(u, 0.05).data,
    "fractional_laplacian": lambda lat, u, trajs: fractional_laplacian(u, 0.5).data,
    "leray_project": lambda lat, u, trajs: leray_project(u).data,
    "divergence_defect": lambda lat, u, trajs: divergence_defect(u),
    "bilinear_B": lambda lat, u, trajs: bilinear_B(
        *trajs, float(trajs[0].times[-1]), QuadratureSpec(8, 0.5, 0.5)).data,
    "bilinear_B(u, u)": lambda lat, u, trajs: bilinear_B(
        trajs[0], trajs[0], float(trajs[0].times[-1]), QuadratureSpec(8, 0.5, 0.5)).data,
    "kernel_profile": lambda lat, u, trajs: kernel_profile(
        0.0, make_lattice(lat.d, 32, 10.0), np.linspace(0.25, 1.0, 6),
        tail_window=(0.2, 1.0)).values,
    "random_band": lambda lat, u, trajs: realize_datum(
        DatumSpec(kind="random_band", seed=4, k_min=1, k_max=3, divergence_free=True),
        lat).data,
}


class TestCoarseLattice:
    """The coarse companion lattice of the same box, and the restriction of
    a half array onto it."""

    CASES = [(2, 64, 8.0), (3, 16, 2.0 * np.pi)]

    @pytest.mark.parametrize("d, n, box_len", CASES, ids=["2d", "3d"])
    def test_coarsened_is_memoised_and_holds_no_full_grid(self, d, n, box_len):
        lat = make_lattice(d, n, box_len)
        coarse = lat.coarsened(n // 4)
        assert coarse is lat.coarsened(n // 4) and coarse == make_lattice(d, n // 4, box_len)
        coarse.heat(0.5)
        assert "ksq" not in vars(coarse)

    @pytest.mark.parametrize("d, n, box_len", CASES, ids=["2d", "3d"])
    def test_restricted_band_samples_the_fine_flow(self, d, n, box_len):
        """A trigonometric polynomial of band m < N/2 sampled on the coarse
        lattice: the coarse points are every (n/N)-th fine point."""
        lat = make_lattice(d, n, box_len)
        rng = np.random.default_rng(5)
        band, size = 3, 8
        shells = lat.half_shells()
        coeffs = lat.rforward(rng.standard_normal((2,) + lat.spatial_shape)) * (shells <= band)
        fine = lat.inverse(coeffs)
        coarse = lat.coarsened(size)
        restricted = lat.restrict(coeffs, band, coarse)
        assert restricted.shape == (2,) + (size,) * (d - 1) + (size // 2 + 1,)
        stride = (slice(None),) + (slice(None, None, n // size),) * d
        npt.assert_allclose(coarse.inverse(restricted), fine[stride], rtol=0,
                            atol=1e-14 * np.abs(fine).max())
        assert np.array_equal(coarse.heat(0.3)[(0,) * d], lat.heat(0.3)[(0,) * d])

    def test_half_shells_and_heat_band(self):
        lat = make_lattice(2, 8, 2.0 * np.pi)  # k_a = m_a
        assert lat.half_shells()[:, 0].tolist() == [0, 1, 2, 3, 4, 3, 2, 1]
        assert lat.half_shells()[6].tolist() == [2, 2, 2, 3, 4]
        assert lat.heat_band(40.0 / 9.0, 40.0) == (3, np.exp(-40.0 / 9.0 * 16))
        assert lat.heat_band(1e-9, 40.0)[0] == 4

    def test_restriction_needs_a_band_below_both_nyquist_modes(self):
        lat = make_lattice(2, 32, 8.0)
        coeffs = np.zeros((1, 32, 17), dtype=complex)
        lat.restrict(coeffs, 3, lat.coarsened(8))
        for band in (4, -1):
            with pytest.raises(ConfigError, match="band"):
                lat.restrict(coeffs, band, lat.coarsened(8))


class TestHalfSpectrumCallSites:
    """Each in-package caller of Lattice.inverse passes the half array of
    Hermitian coefficients, so the real transforms give what the complex
    ones give, to round-off. The reference runs the same code with
    Lattice.rforward the half of the complex forward transform and
    Lattice.inverse the complex inverse of the Hermitian completion."""

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)], ids=["2d", "3d"])
    @pytest.mark.parametrize("site", sorted(INVERSE_CALL_SITES))
    def test_matches_the_complex_inverse(self, site, d, n, monkeypatch):
        lat = make_lattice(d, n, 2.0 * np.pi)
        rng = np.random.default_rng(7)
        u = VectorField(lat, rng.standard_normal((d,) + lat.spatial_shape), PHYSICAL)
        v = VectorField(lat, rng.standard_normal((d,) + lat.spatial_shape), PHYSICAL)
        mesh = [0.01, 0.04, 0.09]
        trajs = (heat_trajectory(u, mesh), heat_trajectory(v, mesh))
        got = np.asarray(INVERSE_CALL_SITES[site](lat, u, trajs))
        monkeypatch.setattr(Lattice, "inverse", complex_inverse)
        monkeypatch.setattr(Lattice, "rforward", complex_forward)
        want = np.asarray(INVERSE_CALL_SITES[site](lat, u, trajs))
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def transform_uses(source: str) -> list:
    """Line numbers where source reaches numpy.fft or scipy.fft: an `fft`
    attribute (np.fft.fftn, scipy.fft), or an import of or from either."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "fft":
            lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[:2] in (["numpy", "fft"], ["scipy", "fft"])
                   for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[:2] in (["numpy", "fft"], ["scipy", "fft"]) or (
                    parts in (["numpy"], ["scipy"])
                    and any(alias.name == "fft" for alias in node.names)):
                lines.append(node.lineno)
    return lines


def fft_functions(source: str) -> set:
    """Names of the functions source reaches in an `fft` module: attributes
    of it (fftn for np.fft.fftn or fft.fftn) and names imported from it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if getattr(node.value, "attr", getattr(node.value, "id", None)) == "fft":
                names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "fft":
            names.update(alias.name for alias in node.names)
    return names


def forward_uses(source: str) -> list:
    """Line numbers where source defines a function named forward or calls
    an attribute named forward."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "forward":
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "forward"):
            lines.append(node.lineno)
    return lines


class TestTransformLayer:
    def test_one_spectral_layout(self):
        """Every coefficient array is a half array: lattice.py reaches
        numpy.fft through the real transforms, the one-axis inverses of
        Lattice.inverse (irfftn's own steps) and fftfreq only, and no
        module of the package defines or calls a complex forward."""
        package = Path(mildns.__file__).parent
        assert fft_functions((package / "lattice.py").read_text()) == {
            "rfftn", "ifft", "irfft", "fftfreq"}
        offenders = {path.name: forward_uses(path.read_text())
                     for path in sorted(package.glob("*.py"))}
        assert {name: lines for name, lines in offenders.items() if lines} == {}

    @pytest.mark.parametrize("source, functions, forwards", [
        ("import numpy as np\nnp.fft.fftn(a)", {"fftn"}, []),
        ("np.fft.ifftn(c).real + np.fft.rfftn(a)", {"ifftn", "rfftn"}, []),
        ("from numpy import fft\nfft.fftn(a)", {"fftn"}, []),
        ("from numpy.fft import ifftn as inv\n", {"ifftn"}, []),
        ("class Lattice:\n    def forward(self, a):\n        pass", set(), [2]),
        ("c = lat.forward(u.data)", set(), [1]),
    ])
    def test_layout_scans_see_their_targets(self, source, functions, forwards):
        assert fft_functions(source) == functions
        assert forward_uses(source) == forwards

    def test_only_lattice_calls_a_transform_module(self):
        """The Fourier convention lives in Lattice.rforward and
        Lattice.inverse (and fftfreq in Lattice): no other module of the
        package touches numpy.fft or scipy.fft."""
        package = Path(mildns.__file__).parent
        offenders = {
            path.name: transform_uses(path.read_text())
            for path in sorted(package.glob("*.py")) if path.name != "lattice.py"
        }
        assert {name: lines for name, lines in offenders.items() if lines} == {}
        assert transform_uses((package / "lattice.py").read_text())

    @pytest.mark.parametrize("source", [
        "import numpy as np\nnp.fft.fftn(a)",
        "import numpy\nnumpy.fft.fftfreq(8)",
        "import scipy.fft\n",
        "from numpy.fft import ifftn\n",
        "from scipy import fft\n",
        "from numpy import fft as f\n",
    ])
    def test_scan_sees_every_spelling(self, source):
        assert transform_uses(source)


class TestHeld:
    """The one store of held buffers, in a fresh thread each."""

    def test_arrays_are_prefix_views_of_buffers_that_grow(self, fresh_thread):
        def work():
            small = held("x", ((2, 3), np.float64), ((4,), np.complex128))
            assert [(a.shape, a.dtype) for a in small] == [((2, 3), np.float64),
                                                           ((4,), np.complex128)]
            large = held("x", ((5, 3), np.float64), ((2,), np.complex128))
            flat = lattice._held.flat
            assert [flat["x", i].size for i in range(2)] == [15, 4]
            again = held("x", ((2, 3), np.float64), ((4,), np.complex128))
            assert again is not small
            for a, b, buffer in zip(again, large, (flat["x", 0], flat["x", 1])):
                assert a.base is buffer and b.base is buffer
            assert held("y", ((2, 3), np.float64))[0].base is not flat["x", 0]

        fresh_thread(work)

    def test_a_repeated_request_gets_the_same_tuple(self, fresh_thread):
        def work():
            specs = (((3, 4), np.float64), ((3,), np.complex128))
            first = held("x", *specs)
            assert held("x", *specs) is first
            held("y", *specs)
            assert held("x", *specs) is first
            held("x", ((3, 4), np.float64))
            assert held("x", *specs) is not first

        fresh_thread(work)

    def test_arrays_past_the_cap_are_new_and_not_kept(self, fresh_thread):
        def work():
            past = ((BATCH_BYTES // 8 + 1,), np.float64)
            first = held("x", past, ((BATCH_BYTES // 8,), np.float64))
            second = held("x", past, ((BATCH_BYTES // 8,), np.float64))
            assert first is not second and first[0].base is None
            assert not np.shares_memory(first[0], second[0])
            assert first[1].base is second[1].base
            assert [key for key in lattice._held.flat] == [("x", 1)]

        fresh_thread(work)

    def test_threads_hold_buffers_of_their_own(self, fresh_thread):
        """The calling thread's store is left as it was found, so a later
        test that compares it with other threads' stores sees no "x"."""
        store = lattice._held
        before = dict(store.flat), dict(store.last)
        try:
            specs = (((8,), np.float64),)
            mine = held("x", *specs)
            theirs = fresh_thread(lambda: held("x", *specs))
            assert not np.shares_memory(mine[0], theirs[0])
            assert held("x", *specs) is mine
        finally:
            store.flat, store.last = before

    def test_one_held_buffer_mechanism(self):
        """Only lattice._Held, the store of held, is thread-local: no module
        keeps buffers of its own, and what is read-only is shared."""
        package = Path(mildns.__file__).parent
        uses = {(path.name, cls) for path in sorted(package.glob("*.py"))
                for _, cls in thread_local_uses(path.read_text())}
        assert uses == {("lattice.py", "_Held")}

    @pytest.mark.parametrize("source, uses", [
        ("import threading\nclass A(threading.local):\n    pass", [(2, "A")]),
        ("import threading as t\nbuffers = t.local()", [(2, None)]),
        ("from threading import local", [(1, None)]),
        ("from threading import local as L\nclass A(L):\n    pass", [(1, None)]),
        ("import threading\nthreading.Thread(target=f)", []),
    ])
    def test_scan_sees_every_spelling(self, source, uses):
        assert thread_local_uses(source) == uses


def thread_local_uses(source: str) -> list:
    """(line, class) for each use of threading.local in source: class is
    the name of the class that subclasses it, or None for any other use
    (an instance, an import of the name)."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names
               if alias.name == "threading"}
    subclass = {id(base): node.name for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) for base in node.bases}
    uses = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "local"
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            uses.append((node.lineno, subclass.get(id(node))))
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            uses += [(node.lineno, None) for alias in node.names if alias.name == "local"]
    return sorted(uses)


def heat_kernel_uses(source: str) -> list:
    """Line numbers where source calls an `exp` (np.exp, math.exp, a bare
    exp) on an expression that reads a name containing `ksq`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != "exp":
            continue
        for arg in node.args:
            for sub in ast.walk(arg):
                ident = sub.attr if isinstance(sub, ast.Attribute) else getattr(sub, "id", "")
                if "ksq" in ident:
                    lines.append(node.lineno)
    return sorted(set(lines))


class TestHeatKernelLayer:
    def test_only_lattice_exponentiates_ksq(self):
        """The heat kernel has one implementation, Lattice.heat: no other
        module of the package calls exp on |k|^2."""
        package = Path(mildns.__file__).parent
        offenders = {
            path.name: heat_kernel_uses(path.read_text())
            for path in sorted(package.glob("*.py")) if path.name != "lattice.py"
        }
        assert {name: lines for name, lines in offenders.items() if lines} == {}
        assert heat_kernel_uses((package / "lattice.py").read_text())

    @pytest.mark.parametrize("source", [
        "import numpy as np\nnp.exp(-lat.ksq * t)",
        "import numpy\nnumpy.exp(-t * ksq)",
        "from numpy import exp\nexp(-self.ksq_half * t)",
        "np.exp(np.multiply.outer(-t, lat._ksq_axis))",
        "import math\nmath.exp(-ksq)",
    ])
    def test_scan_sees_every_spelling(self, source):
        assert heat_kernel_uses(source)

    @pytest.mark.parametrize("source", [
        "np.exp(-rate * t)",
        "lat.heat(t) * lat.ksq",
        "np.exp(x) / lat.safe_ksq_deriv",
    ])
    def test_scan_passes_other_exponentials(self, source):
        assert not heat_kernel_uses(source)


class TestDatumSpec:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown datum kind"):
            DatumSpec(kind="vortex")

    def test_gaussian_needs_width(self, lat2):
        with pytest.raises(ConfigError, match="width"):
            realize_datum(DatumSpec(kind="gaussian"), lat2)

    def test_gaussian_profile_peak(self):
        lat = make_lattice(2, 32, 8.0)
        w = 0.25
        u = realize_datum(DatumSpec(kind="gaussian", width=w, amplitude=3.0), lat)
        npt.assert_allclose(u.data[0][0, 0], 3.0 / (4.0 * np.pi * w), rtol=1e-14)
        assert np.abs(u.data[1]).max() == 0.0

    def test_taylor_green_matches_closed_form(self):
        lat = make_lattice(2, 16, 2.0 * np.pi)
        u = realize_datum(DatumSpec(kind="taylor_green"), lat)
        x, y = lat.meshgrid()
        npt.assert_allclose(u.data[0], np.sin(x) * np.cos(y), atol=1e-15)
        npt.assert_allclose(u.data[1], -np.cos(x) * np.sin(y), atol=1e-15)
        assert divergence_defect(u) < 1e-14

    def test_taylor_green_harmonic_sets_wavevector(self):
        # harmonic m on box L oscillates at m * 2 pi / L per axis
        lat = make_lattice(2, 32, 4.0 * np.pi)
        u = realize_datum(DatumSpec(kind="taylor_green", mode=(2, 2)), lat)
        x, y = lat.meshgrid()
        npt.assert_allclose(u.data[0], np.sin(x) * np.cos(y), atol=1e-14)

    def test_taylor_green_harmonic_validation(self, lat2):
        with pytest.raises(ConfigError, match="harmonic"):
            realize_datum(DatumSpec(kind="taylor_green", mode=(0,)), lat2)
        with pytest.raises(ConfigError, match="not resolved"):
            realize_datum(DatumSpec(kind="taylor_green", mode=(8,)), lat2)

    def test_taylor_green_3d_third_component_zero(self, lat3):
        u = realize_datum(DatumSpec(kind="taylor_green"), lat3)
        assert np.abs(u.data[2]).max() == 0.0
        assert divergence_defect(u) < 1e-13

    def test_single_mode_validation(self, lat2):
        with pytest.raises(ConfigError, match="mode tuple"):
            realize_datum(DatumSpec(kind="single_mode"), lat2)
        with pytest.raises(ConfigError, match="nonzero"):
            realize_datum(DatumSpec(kind="single_mode", mode=(0, 0)), lat2)
        with pytest.raises(ConfigError, match="not resolved"):
            realize_datum(DatumSpec(kind="single_mode", mode=(8, 0)), lat2)

    def test_single_mode_polarization(self, lat2):
        u = realize_datum(DatumSpec(kind="single_mode", mode=(1, 2), amplitude=2.0), lat2)
        x, y = lat2.meshgrid()
        npt.assert_allclose(u.data[0], 2.0 * np.cos(x + 2 * y), atol=1e-14)
        assert np.abs(u.data[1]).max() == 0.0

    def test_single_mode_divergence_free(self, lat2):
        u = realize_datum(
            DatumSpec(kind="single_mode", mode=(1, 2), divergence_free=True), lat2
        )
        assert divergence_defect(u) < 1e-13

    def test_power_law_annulus_support(self):
        lat = make_lattice(2, 64, 8.0)
        spec = DatumSpec(kind="power_law", decay=1.0, r_inner=0.5, r_outer=2.0)
        u = realize_datum(spec, lat)
        r = lat.periodic_distance()
        assert np.all(u.data[0][r < 0.5] == 0.0)
        assert np.all(u.data[0][r > 2.0] == 0.0)
        inside = (r >= 0.5) & (r <= 2.0)
        npt.assert_allclose(u.data[0][inside], r[inside] ** -1.0, rtol=1e-14)

    def test_power_law_validation(self, lat2):
        with pytest.raises(ConfigError, match="decay"):
            realize_datum(DatumSpec(kind="power_law", r_inner=0.1, r_outer=1.0), lat2)
        with pytest.raises(ConfigError, match="r_inner"):
            realize_datum(
                DatumSpec(kind="power_law", decay=1.0, r_inner=1.0, r_outer=0.5), lat2
            )


class TestRandomBand:
    SPEC = dict(kind="random_band", seed=7, k_min=1.0, k_max=3.0, amplitude=0.5)

    def test_seed_required(self, lat2):
        with pytest.raises(ConfigError, match="seed"):
            realize_datum(DatumSpec(kind="random_band", k_min=1.0, k_max=2.0), lat2)

    def test_deterministic(self, lat2):
        a = realize_datum(DatumSpec(**self.SPEC), lat2)
        b = realize_datum(DatumSpec(**self.SPEC), lat2)
        assert field_to_bytes(a) == field_to_bytes(b)

    def test_l2_norm_equals_amplitude(self, lat2):
        u = realize_datum(DatumSpec(**self.SPEC), lat2)
        npt.assert_allclose(lebesgue_norm(u, 2), 0.5, rtol=1e-12)

    def test_spectral_support_in_band(self, lat2):
        u = realize_datum(DatumSpec(**self.SPEC), lat2)
        coeff = to_spectral(u)
        kmag = np.sqrt(lat2.half(lat2.ksq))
        outside = (kmag < 1.0) | (kmag > 3.0)
        assert np.abs(coeff[:, outside]).max() < 1e-15

    def test_mean_free(self, lat2):
        u = realize_datum(DatumSpec(**self.SPEC), lat2)
        assert np.abs(u.data.mean(axis=(1, 2))).max() < 1e-15

    def test_divergence_free_projection(self, lat2):
        u = realize_datum(DatumSpec(**self.SPEC, divergence_free=True), lat2)
        assert divergence_defect(u) < 1e-12
        npt.assert_allclose(lebesgue_norm(u, 2), 0.5, rtol=1e-12)

    def test_divergence_free_realization_builds_three_fields(self, lat2, field_inits):
        """The samples of the band, their projection and the scaled datum:
        the coefficients in between stay arrays."""
        realize_datum(DatumSpec(**self.SPEC, divergence_free=True), lat2)
        assert field_inits == [VectorField] * 3

    def test_lattice_holds_no_full_grid_after_a_draw(self):
        """The band is drawn on the full grid, whose |k|^2 is built for the
        draw and not kept on the lattice."""
        lat = make_lattice(3, 16, 2.0 * np.pi)
        realize_datum(DatumSpec(**self.SPEC, divergence_free=True), lat)
        assert "ksq" not in vars(lat)
        assert lat.ksq is not lat.ksq

    def test_empty_band_rejected(self, lat2):
        spec = DatumSpec(kind="random_band", seed=1, k_min=0.1, k_max=0.2)
        with pytest.raises(ConfigError, match="no resolved modes"):
            realize_datum(spec, lat2)

    @staticmethod
    def spectral_route(spec, lat):
        """The band drawn on the full grid and made Hermitian, then
        to_physical of its half, leray_project when divergence_free, and
        the scaling to L2 norm amplitude."""
        rng = np.random.default_rng(spec.seed)
        shape = (lat.d,) + lat.spatial_shape
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ksq = lat.ksq
        band = (np.sqrt(ksq) >= spec.k_min) & (np.sqrt(ksq) <= spec.k_max) & (ksq > 0)
        for axis in range(lat.d):  # drop the unpaired Nyquist rows
            band[(slice(None),) * axis + (lat.n // 2,)] = False
        raw *= band
        flipped = raw
        for axis in range(1, lat.d + 1):
            flipped = np.roll(np.flip(flipped, axis=axis), 1, axis=axis)
        field = to_physical(lat, lat.half(0.5 * (raw + np.conj(flipped))))
        if spec.divergence_free:
            field = leray_project(field)
        return field.data * (spec.amplitude / lebesgue_norm(field, 2))

    @pytest.mark.parametrize("divergence_free", [False, True], ids=["plain", "divergence-free"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_builder_table_keeps_the_bits_of_the_spectral_route(self, d, divergence_free):
        """random_band goes through realize_datum's one builder table, as
        every kind does, and its samples keep the bits of the route through
        to_physical, leray_project and the L2 scaling."""
        lat = make_lattice(d, 16, 2.0 * np.pi)
        spec = DatumSpec(**self.SPEC, divergence_free=divergence_free)
        expected = self.spectral_route(spec, lat)
        assert np.array_equal(realize_datum(spec, lat).data, expected)


class TestSerialization:
    def test_round_trip_physical(self, lat2, rng):
        u = VectorField(lat2, rng.standard_normal((2, 16, 16)), PHYSICAL)
        blob = field_to_bytes(u)
        assert _HEADER.unpack_from(blob)[4] == 0
        v = field_from_bytes(blob)
        assert type(v) is VectorField
        assert v.lattice == lat2
        assert v.data.dtype == np.float64
        npt.assert_array_equal(v.data, u.data)

    def test_spectral_flag_refused(self):
        """A blob with representation flag 1 and a complex128 payload, the
        layout that once held Fourier coefficients, is refused by name."""
        n = 8
        blob = _HEADER.pack(2, n, 2.0 * np.pi, 2, 1) + np.zeros(2 * n**2, dtype="<c16").tobytes()
        with pytest.raises(DataError, match="representation flag 1"):
            field_from_bytes(blob)

    def test_file_round_trip(self, tmp_path, lat2, rng):
        u = VectorField(lat2, rng.standard_normal((2, 16, 16)), PHYSICAL)
        path = tmp_path / "u.field"
        save_field(u, path)
        v = load_field(path)
        assert type(v) is VectorField
        npt.assert_array_equal(v.data, u.data)

    def test_truncated_blob_rejected(self, lat2, rng):
        blob = field_to_bytes(VectorField(lat2, rng.standard_normal((2, 16, 16)), PHYSICAL))
        with pytest.raises(DataError, match="header"):
            field_from_bytes(blob[:8])
        with pytest.raises(DataError, match="payload"):
            field_from_bytes(blob[:-16])

    @pytest.mark.parametrize("d, ncomp", [(2, 1), (2, 4), (3, 1), (3, 9)],
                             ids=["2d-scalar", "2d-tensor", "3d-scalar", "3d-tensor"])
    def test_component_count_other_than_d_rejected(self, d, ncomp):
        """A header of 1 or d^2 components, with a payload of that many
        samples, is refused: every saved field is a vector field."""
        n = 8
        header = _HEADER.pack(d, n, 2.0 * np.pi, ncomp, 0)
        blob = header + np.zeros(ncomp * n**d, dtype="<f8").tobytes()
        message = f"component count {ncomp} does not match dimension {d}"
        with pytest.raises(DataError, match=message):
            field_from_bytes(blob)
