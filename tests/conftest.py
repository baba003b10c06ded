"""Shared fixtures.

Calibration is the only expensive setup (about a second on the default
d = 2 corpus), so it runs once per session and is shared by every test
that needs thresholds.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mildns import (
    DatumSpec,
    Field,
    VectorField,
    build_exponent_book,
    calibrate_thresholds,
    load_calibration,
    make_lattice,
    realize_datum,
)
from mildns.lattice import PHYSICAL


@pytest.fixture(scope="session")
def calibration_file(tmp_path_factory):
    """Calibration for the critical d = 2 book, persisted once per session
    so lab and CLI tests can point experiments at it instead of paying for
    an in-run corpus measurement."""
    path = tmp_path_factory.mktemp("calibration") / "d2-default.json"
    calibrate_thresholds(build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=4.0), path=str(path))
    return str(path)


@pytest.fixture(scope="session")
def book2(calibration_file):
    """Critical d = 2 book (p = 2, s = 0, q_tilde = 4), thresholds loaded
    from the session calibration file."""
    book = build_exponent_book(d=2, p=2.0, s=0.0, q_tilde=4.0)
    return load_calibration(book, calibration_file)


@pytest.fixture
def lat2():
    return make_lattice(2, 16, 2.0 * np.pi)


@pytest.fixture
def lat3():
    return make_lattice(3, 8, 2.0 * np.pi)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def divfree_datum():
    """Factory for random divergence-free, mean-free data."""

    def _make(lattice, seed, amplitude=1.0, k_max=3.0):
        spec = DatumSpec(
            kind="random_band",
            seed=seed,
            k_min=1.0,
            k_max=k_max,
            amplitude=amplitude,
            divergence_free=True,
        )
        return realize_datum(spec, lattice)

    return _make


@pytest.fixture
def row0_field():
    """Factory for a physical vector field whose component 0 holds the
    given (n,)*d samples and whose other components are zero. A zero
    component adds exactly 0.0 to the l2 aggregate of a norm, so the
    field's norms are those of the samples."""

    def _make(lattice, samples):
        data = np.zeros((lattice.d,) + lattice.spatial_shape)
        data[0] = samples
        return VectorField(lattice, data, PHYSICAL)

    return _make


@pytest.fixture
def field_inits(monkeypatch):
    """The type of every Field constructed during the test, in order; clear
    it before the call whose constructions are counted."""
    inits = []
    original = Field.__init__

    def counting(self, *args, **kwargs):
        inits.append(type(self))
        original(self, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", counting)
    return inits


@pytest.fixture
def fresh_thread():
    """Run a callable in a new thread, whose held-buffer store
    (lattice.held) starts empty: its result, or its exception raised."""

    def run(work):
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(work).result(timeout=600)

    return run
