"""Fourier multipliers and the one P div kernel.

The projected divergence gets a hand-derived single-mode oracle: for input
T_00 = cos(k.x) with k = (1, 2) on the 2 pi box, the exact output of
|k|^s exp(-t |k|^2) P (i k . ) at s = 1/2, t = 0.3 is

    (-0.8, 0.4) * 5**0.25 * exp(-1.5) * sin(x + 2 y),

worked out by projecting the tensor coefficient (i/2 in component 0 at
mode +k) through the Leray matrix at k and doubling against the conjugate
mode. Everything else checks operator identities and closed forms.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import mildns
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
from mildns import norms
from mildns.lattice import PHYSICAL, batches
from mildns.multipliers import (
    _divergence,
    _divergence_defects,
    _divergence_spectral,
    _fractional_multiplier,
    _loglog_fit,
    _project_div_spectral,
)

# kernel_profile's tail window, for the tests that do not vary it
WINDOWS = dict(tail_window=(0.5, 4.0))


def box(resolution: int, box_len: float = 16.0):
    """The 2-D lattice kernel_profile profiles on; the 16 box has the
    validity window t <= 2.56."""
    return make_lattice(2, resolution, box_len)


def callers(name: str) -> set:
    """'module.function' for each function of the package that calls a name
    or an attribute name, the function the call sits in most closely."""
    found = set()
    for path in sorted(Path(mildns.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and name in (getattr(func, "id", None),
                                                       getattr(func, "attr", None)):
                while not isinstance(node, ast.FunctionDef):
                    node = parents[node]
                found.add(f"{path.stem}.{node.name}")
    return found


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

    @pytest.mark.parametrize("d, n", [(2, 16), (2, 64), (3, 8), (3, 16)])
    def test_is_the_one_node_heat_trajectory(self, d, n, rng, row0_field, monkeypatch):
        """heat_flow runs the heat path of every solve: it calls
        heat_trajectory once and returns its one node bit for bit, for a
        field with every component live and one with dead components."""
        lat = make_lattice(d, n, 2.0 * np.pi)
        calls = []
        flow = norms.heat_trajectory

        def counted(u0, times):
            calls.append(list(times))
            return flow(u0, times)

        monkeypatch.setattr(norms, "heat_trajectory", counted)
        for f in (random_vector(lat, 6), row0_field(lat, rng.standard_normal(lat.spatial_shape))):
            for t in (1e-300, 1e-3, 0.37, 1e3):
                calls.clear()
                flowed = heat_flow(f, t)
                assert calls == [[t]]
                npt.assert_array_equal(flowed.data, flow(f, [t]).data[0])

    def test_one_heat_path(self):
        """The heat kernel is built where a datum is flowed (the full-grid and
        the coarse flows of norms) and in the kernel's symbol; heat_flow runs
        heat_trajectory, and fluctuation_analysis flows no datum."""
        assert callers("heat") == {"norms._full_flows", "norms._coarse_flow",
                                   "multipliers.kernel_profile"}
        flows = callers("heat_trajectory")
        assert "multipliers.heat_flow" in flows
        assert "picard.fluctuation_analysis" not in flows


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
        out = physical_div(lat2, lat2.rforward(data))
        npt.assert_allclose(out[0], np.cos(x) + np.cos(y), atol=1e-13)
        npt.assert_allclose(out[1], 0.0, atol=1e-14)

    def test_defect_zero_field(self, lat2):
        u = VectorField(lat2, np.zeros((2, 16, 16)), PHYSICAL)
        assert divergence_defect(u) == 0.0

    def test_defect_flags_gradients(self, lat2):
        x, y = lat2.meshgrid()
        phase = x + 2 * y
        u = VectorField(lat2, np.stack([-np.sin(phase), -2.0 * np.sin(phase)]), PHYSICAL)
        assert divergence_defect(u) > 1.0

    @pytest.mark.parametrize("d, n, nodes", [(2, 128, 32), (3, 16, 40)])
    def test_batched_defects_are_the_per_node_formula(self, d, n, nodes):
        """_divergence_defects over a trajectory of several batches (16 at
        d = 2, 8 at d = 3) gives each node, a zero node among them, the bits
        of the one-node formula max |div u| / max |u|."""
        lat = make_lattice(d, n, 2.0 * np.pi)
        samples = np.random.default_rng(5).standard_normal((nodes, d) + lat.spatial_shape)
        samples[nodes // 2] = 0.0

        def one_node(u):
            div_phys = lat.inverse(_divergence(lat.rforward(u), lat))
            scale = float(np.max(np.abs(u)))
            return 0.0 if scale == 0.0 else float(np.max(np.abs(div_phys)) / scale)

        assert len(batches(nodes, samples[0].nbytes)) > 1
        got = _divergence_defects(samples, lat)
        assert np.array_equal(got, [one_node(u) for u in samples])
        assert got[nodes // 2] == 0.0

    def test_no_per_node_measure_loop(self):
        """No loop or comprehension of the package calls a per-node measure:
        a batch of nodes goes to _divergence_defects or norms._node_norms
        in one call."""
        measures = {"sobolev_norm", "divergence_defect", "_divergence_defects"}
        loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        found = []
        for path in sorted(Path(mildns.__file__).parent.glob("*.py")):
            for loop in ast.walk(ast.parse(path.read_text())):
                if isinstance(loop, loops):
                    found += [f"{path.stem}:{node.lineno}" for node in ast.walk(loop)
                              if isinstance(node, ast.Call) and measures & {
                                  getattr(node.func, "id", None), getattr(node.func, "attr", None)}]
        assert found == []


class TestComposite:
    """|k|^s exp(-t |k|^2) times the P div kernel, the symbol kernel_profile
    inverts."""

    @staticmethod
    def composite(lat, coeff, s, t):
        mult = _fractional_multiplier(lat, s) * np.exp(-lat.half(lat.ksq) * t)
        w = _project_div_spectral(coeff, lat) * mult
        return to_physical(lat, w)

    def test_validation(self):
        """kernel_profile, the composite's one caller, refuses the boundary
        s = -1 (kernel not integrable) and t = 0."""
        with pytest.raises(ConfigError, match="s > -1"):
            kernel_profile(-1.0, box(128), radii=[1.0], **WINDOWS)
        with pytest.raises(ConfigError, match="t > 0"):
            kernel_profile(0.0, box(128), radii=[1.0], t=0.0, **WINDOWS)

    def test_single_mode_oracle(self):
        lat = make_lattice(2, 16, 2.0 * np.pi)
        x, y = lat.meshgrid()
        phase = x + 2 * y
        data = np.zeros((2, 2, 16, 16))
        data[0, 0] = np.cos(phase)
        out = self.composite(lat, lat.rforward(data), s=0.5, t=0.3)
        m = 5.0**0.25 * np.exp(-1.5)
        npt.assert_allclose(out.data[0], -0.8 * m * np.sin(phase), atol=1e-14)
        npt.assert_allclose(out.data[1], 0.4 * m * np.sin(phase), atol=1e-14)

    def test_matches_composition_of_parts(self, lat2, rng):
        T = lat2.rforward(rng.standard_normal((2, 2, 16, 16)))
        s, t = 0.4, 0.2
        fused = self.composite(lat2, T, s, t).data
        div = VectorField(lat2, physical_div(lat2, T), PHYSICAL)
        composed = fractional_laplacian(heat_flow(leray_project(div), t), s).data
        assert np.abs(fused - composed).max() < 1e-12 * np.abs(fused).max()

    def test_output_divergence_free(self, lat2, rng):
        T = lat2.rforward(rng.standard_normal((2, 2, 16, 16)))
        assert divergence_defect(self.composite(lat2, T, 0.0, 0.05)) < 1e-12
        projected = VectorField(lat2, physical_div(lat2, T, project=True), PHYSICAL)
        assert divergence_defect(projected) < 1e-12


class TestKernelProfile:
    def test_radius_window_guard(self):
        with pytest.raises(WindowError, match="box_len/4"):
            kernel_profile(0.0, box(128), radii=[5.0], **WINDOWS)

    def test_resolution_guard(self):
        with pytest.raises(ConfigError, match="too coarse"):
            kernel_profile(0.0, box(16), radii=[1.0], t=0.01, **WINDOWS)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError, match="s > -1"):
            kernel_profile(-1.5, box(128), radii=[1.0], **WINDOWS)
        with pytest.raises(ConfigError, match="t > 0"):
            kernel_profile(0.0, box(128), radii=[1.0], t=0.0, **WINDOWS)
        with pytest.raises(ConfigError, match="positive"):
            kernel_profile(0.0, box(128), radii=[-1.0, 1.0], **WINDOWS)

    def test_overflowed_symbol_is_refused(self):
        """|k|^s overflows and meets exp(-t |k|^2) = 0: refused by s, with
        no warning, not profiled as NaN."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"s = 1e\+300"):
                kernel_profile(1e300, box(128), radii=[1.0], **WINDOWS)

    def test_time_past_the_validity_window_is_refused(self):
        """t runs up to box_len^2 / 100 (2.56 on the 16 box) and no further."""
        kernel_profile(0.0, box(128), radii=[1.0], t=2.56, **WINDOWS)
        with pytest.raises(WindowError) as info:
            kernel_profile(0.0, box(128), radii=[1.0], t=np.nextafter(2.56, np.inf),
                           **WINDOWS)
        assert str(info.value) == ("t 2.5600000000000005 exceeds the lattice validity window "
                                   "L^2/100 = 2.5600000000000001")

    def test_tail_slope_tracks_algebraic_decay(self):
        """s = 0 in d = 2 decays like r^-3 once r clears the heat width."""
        radii = np.geomspace(0.5, 16.0, 30)
        prof = kernel_profile(0.0, box(512, 64.0), radii=radii, tail_window=(4.0, 16.0))
        assert np.all(np.isfinite(prof.bound_ratio))
        assert abs(prof.tail_slope - (-3.0)) < 0.05
        assert prof.tail_residual < 0.05

    def test_tail_fit_is_the_loglog_fit_of_its_tail_points(self):
        radii = np.geomspace(0.5, 16.0, 30)
        prof = kernel_profile(0.0, box(512, 64.0), radii=radii,
                              tail_window=(16.0 / 5.0, 16.0))
        tail = (radii >= 16.0 / 5.0) & (prof.values > 0)
        slope, residual = _loglog_fit(radii[tail], prof.values[tail])
        assert (prof.tail_slope, prof.tail_residual) == (slope, residual)

    def test_tail_fit_needs_two_radii(self):
        prof = kernel_profile(0.0, box(512, 64.0), radii=[1.0, 16.0],
                              tail_window=(16.0 / 5.0, 16.0))
        assert np.isnan(prof.tail_slope) and np.isnan(prof.tail_residual)
