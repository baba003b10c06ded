"""Fourier multipliers and the one P div kernel.

The projected divergence gets a hand-derived single-mode oracle: for input
T_00 = cos(k.x) with k = (1, 2) on the 2 pi box, the exact output of
|k|^s exp(-t |k|^2) P (i k . ) at s = 1/2, t = 0.3 is

    (-0.8, 0.4) * 5**0.25 * exp(-1.5) * sin(x + 2 y),

worked out by projecting the tensor coefficient (i/2 in component 0 at
mode +k) through the Leray matrix at k and doubling against the conjugate
mode. Everything else checks operator identities and closed forms.
"""

import warnings

import numpy as np
import numpy.testing as npt
import pytest

from mildns import (
    ConfigError,
    DatumSpec,
    NumericalError,
    VectorField,
    WindowError,
    divergence_defect,
    fractional_laplacian,
    heat_flow,
    kernel_profile,
    lebesgue_norm,
    leray_project,
    make_lattice,
    realize_datum,
    to_physical,
)
from mildns.lattice import PHYSICAL
from mildns.multipliers import (
    _divergence_spectral,
    _fractional_multiplier,
    _project_div_spectral,
)


def random_vector(lattice, seed):
    rng = np.random.default_rng(seed)
    return VectorField(
        lattice, rng.standard_normal((lattice.d,) + lattice.spatial_shape), PHYSICAL
    )


class TestHeatFlow:
    def test_time_validation(self, lat2, rng, row0_field):
        f = row0_field(lat2, rng.standard_normal((16, 16)))
        with pytest.raises(ConfigError, match="heat flow time"):
            heat_flow(f, -0.1)
        with pytest.raises(ConfigError, match="heat flow time"):
            heat_flow(f, np.nan)

    def test_zero_time_is_identity(self, lat2, rng, row0_field):
        f = row0_field(lat2, rng.standard_normal((16, 16)))
        npt.assert_array_equal(heat_flow(f, 0.0).data, f.data)

    def test_single_mode_decay_rate(self, lat2):
        # mode (1, 2) decays like exp(-5 t)
        u0 = realize_datum(DatumSpec(kind="single_mode", mode=(1, 2)), lat2)
        t = 0.37
        flowed = heat_flow(u0, t)
        npt.assert_allclose(flowed.data, np.exp(-5.0 * t) * u0.data, atol=1e-14)

    def test_semigroup_property(self, lat2, rng):
        f = random_vector(lat2, 5)
        once = heat_flow(f, 0.7)
        twice = heat_flow(heat_flow(f, 0.3), 0.4)
        npt.assert_allclose(once.data, twice.data, atol=1e-13)

    def test_preserves_mean(self, lat2, rng, row0_field):
        f = row0_field(lat2, 3.0 + rng.standard_normal((16, 16)))
        npt.assert_allclose(heat_flow(f, 10.0).data[0].mean(), f.data[0].mean(), rtol=1e-12)


class TestFractionalLaplacian:
    def test_order_must_be_finite(self, lat2, rng, row0_field):
        f = row0_field(lat2, rng.standard_normal((16, 16)))
        with pytest.raises(ConfigError, match="fractional order"):
            fractional_laplacian(f, np.inf)

    def test_zero_order_is_identity(self, lat2, rng, row0_field):
        f = row0_field(lat2, rng.standard_normal((16, 16)))
        npt.assert_array_equal(fractional_laplacian(f, 0.0).data, f.data)

    @pytest.mark.parametrize("s", [-0.5, 0.5, 1.0, 2.0])
    def test_single_mode_symbol(self, lat2, s):
        """|k|^s scales the mode (1, 2) by 5^(s/2) exactly."""
        u0 = realize_datum(DatumSpec(kind="single_mode", mode=(1, 2)), lat2)
        out = fractional_laplacian(u0, s)
        npt.assert_allclose(out.data, 5.0 ** (s / 2.0) * u0.data, atol=1e-13)

    def test_annihilates_constants(self, lat2, row0_field):
        f = row0_field(lat2, np.full((16, 16), 4.0))
        assert np.abs(fractional_laplacian(f, 1.0).data).max() < 1e-13

    def test_composition_adds_orders(self, lat2, divfree_datum):
        u = divfree_datum(lat2, seed=3)
        ab = fractional_laplacian(fractional_laplacian(u, 0.3), 0.9)
        direct = fractional_laplacian(u, 1.2)
        npt.assert_allclose(ab.data, direct.data, atol=1e-12)


class TestLeray:
    def test_output_divergence_free(self, lat2):
        for seed in range(5):
            u = random_vector(lat2, seed)
            assert divergence_defect(leray_project(u)) < 1e-12

    def test_idempotent(self, lat2):
        for seed in range(5):
            u = random_vector(lat2, seed)
            once = leray_project(u)
            twice = leray_project(once)
            scale = np.abs(once.data).max()
            assert np.abs(twice.data - once.data).max() < 1e-13 * scale

    def test_fixes_divergence_free_fields(self, lat2):
        u = realize_datum(DatumSpec(kind="taylor_green"), lat2)
        projected = leray_project(u)
        npt.assert_allclose(projected.data, u.data, atol=1e-14)

    def test_gradient_fields_annihilated(self, lat2):
        # grad of cos(x + 2y) is purely curl-free
        x, y = lat2.meshgrid()
        phase = x + 2 * y
        grad = np.stack([-np.sin(phase), -2.0 * np.sin(phase)])
        u = VectorField(lat2, grad, PHYSICAL)
        assert np.abs(leray_project(u).data).max() < 1e-13

    def test_mean_passes_through(self, lat2):
        data = np.zeros((2, 16, 16))
        data[0] = 1.5
        u = VectorField(lat2, data, PHYSICAL)
        npt.assert_allclose(leray_project(u).data, data, atol=1e-14)


def physical_div(lat, coeff, project=False):
    """div T (or P div T), as physical samples, from the coefficients of a
    tensor T."""
    w = _project_div_spectral(coeff, lat) if project else _divergence_spectral(coeff, lat)
    return lat.inverse(w)


class TestDivergence:
    def test_hand_oracle(self, lat2):
        """T_00 = sin(x), T_01 = sin(y) gives (div T)_0 = cos(x) + cos(y)."""
        x, y = lat2.meshgrid()
        data = np.zeros((2, 2, 16, 16))
        data[0, 0] = np.sin(np.broadcast_to(x, (16, 16)))
        data[0, 1] = np.sin(np.broadcast_to(y, (16, 16)))
        out = physical_div(lat2, lat2.forward(data))
        npt.assert_allclose(out[0], np.cos(x) + np.cos(y), atol=1e-13)
        npt.assert_allclose(out[1], 0.0, atol=1e-14)

    @pytest.mark.parametrize("d, n", [(2, 16), (3, 8)], ids=["2d", "3d"])
    def test_kernel_on_the_half_spectrum_is_the_half_of_the_kernel(self, d, n):
        """The P div kernel is elementwise and reads k through its prefix, so
        on the half spectrum (the Duhamel term's layout) it gives the half
        of its full-spectrum result, bit for bit."""
        lat = make_lattice(d, n, 2.0 * np.pi)
        rng = np.random.default_rng(5)
        T = lat.forward(rng.standard_normal((d, d) + lat.spatial_shape))
        npt.assert_array_equal(_project_div_spectral(lat.half(T), lat),
                               lat.half(_project_div_spectral(T, lat)))

    def test_defect_zero_field(self, lat2):
        u = VectorField(lat2, np.zeros((2, 16, 16)), PHYSICAL)
        assert divergence_defect(u) == 0.0

    def test_defect_flags_gradients(self, lat2):
        x, y = lat2.meshgrid()
        phase = x + 2 * y
        u = VectorField(lat2, np.stack([-np.sin(phase), -2.0 * np.sin(phase)]), PHYSICAL)
        assert divergence_defect(u) > 1.0


class TestComposite:
    """|k|^s exp(-t |k|^2) times the P div kernel, the symbol kernel_profile
    inverts."""

    @staticmethod
    def composite(lat, coeff, s, t):
        mult = _fractional_multiplier(lat, s) * np.exp(-lat.ksq * t)
        w = _project_div_spectral(coeff, lat) * mult
        return to_physical(lat, w)

    def test_validation(self):
        """kernel_profile, the composite's one caller, refuses the boundary
        s = -1 (kernel not integrable) and t = 0."""
        with pytest.raises(ConfigError, match="s > -1"):
            kernel_profile(-1.0, 2, radii=[1.0], resolution=128)
        with pytest.raises(ConfigError, match="t > 0"):
            kernel_profile(0.0, 2, radii=[1.0], resolution=128, t=0.0)

    def test_single_mode_oracle(self):
        lat = make_lattice(2, 16, 2.0 * np.pi)
        x, y = lat.meshgrid()
        phase = x + 2 * y
        data = np.zeros((2, 2, 16, 16))
        data[0, 0] = np.cos(phase)
        out = self.composite(lat, lat.forward(data), s=0.5, t=0.3)
        m = 5.0**0.25 * np.exp(-1.5)
        npt.assert_allclose(out.data[0], -0.8 * m * np.sin(phase), atol=1e-14)
        npt.assert_allclose(out.data[1], 0.4 * m * np.sin(phase), atol=1e-14)

    def test_matches_composition_of_parts(self, lat2, rng):
        T = lat2.forward(rng.standard_normal((2, 2, 16, 16)))
        s, t = 0.4, 0.2
        fused = self.composite(lat2, T, s, t).data
        div = VectorField(lat2, physical_div(lat2, T), PHYSICAL)
        composed = fractional_laplacian(heat_flow(leray_project(div), t), s).data
        assert np.abs(fused - composed).max() < 1e-12 * np.abs(fused).max()

    def test_output_divergence_free(self, lat2, rng):
        T = lat2.forward(rng.standard_normal((2, 2, 16, 16)))
        assert divergence_defect(self.composite(lat2, T, 0.0, 0.05)) < 1e-12
        projected = VectorField(lat2, physical_div(lat2, T, project=True), PHYSICAL)
        assert divergence_defect(projected) < 1e-12


class TestKernelProfile:
    def test_radius_window_guard(self):
        with pytest.raises(WindowError, match="box_len/4"):
            kernel_profile(0.0, 2, radii=[5.0], resolution=128, box_len=16.0)

    def test_resolution_guard(self):
        with pytest.raises(ConfigError, match="too coarse"):
            kernel_profile(0.0, 2, radii=[1.0], resolution=16, box_len=16.0, t=0.01)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError, match="s > -1"):
            kernel_profile(-1.5, 2, radii=[1.0], resolution=128)
        with pytest.raises(ConfigError, match="t > 0"):
            kernel_profile(0.0, 2, radii=[1.0], resolution=128, t=0.0)
        with pytest.raises(ConfigError, match="positive"):
            kernel_profile(0.0, 2, radii=[-1.0, 1.0], resolution=128)

    def test_overflowed_symbol_is_refused(self):
        """|k|^s overflows and meets exp(-t |k|^2) = 0: refused by s, with
        no warning, not profiled as NaN."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"s = 1e\+300"):
                kernel_profile(1e300, 2, radii=[1.0], resolution=128)

    def test_tail_slope_tracks_algebraic_decay(self):
        """s = 0 in d = 2 decays like r^-3 once r clears the heat width."""
        radii = np.geomspace(0.5, 16.0, 30)
        prof = kernel_profile(
            0.0, 2, radii=radii, resolution=512, box_len=64.0, tail_window=(4.0, 16.0)
        )
        assert np.all(np.isfinite(prof.bound_ratio))
        assert abs(prof.tail_slope - (-3.0)) < 0.05
        assert prof.tail_residual < 0.05
