"""In-memory span recorder and the wrappers that feed it.

Spans are recorded from outside the package: `install` replaces each
traced public function of mildns with a wrapper at every module that binds
it (``from .lattice import to_physical`` copies the binding into `norms`,
`duhamel` and `multipliers`, so patching `lattice` alone would miss those
calls). Methods are patched on their class. FFT entry points of
`numpy.fft` and `scipy.fft` are wrapped as counters, not spans, so their
time stays in the self time of the span that called them.

A span records its name, its parent span, its start and its end. Self time
(duration minus the time covered by child spans) and per-name counts are
accumulated as spans close; the raw spans stay in memory until `dump`.
Recording happens only while the recorder is active, so inputs and checks
made between operations do not pollute the per-operation figures.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every traced function; the span name is
# "<module>.<attribute>". Methods are given as (module, "Class.method").
SPAN_TARGETS = (
    ("lattice", "to_spectral"),
    ("lattice", "to_physical"),
    ("lattice", "realize_datum"),
    ("multipliers", "heat_flow"),
    ("multipliers", "leray_project"),
    ("multipliers", "divergence_defect"),
    ("norms", "Trajectory.value_at"),
    ("norms", "heat_trajectory"),
    ("norms", "kato_norm"),
    ("norms", "n_norm"),
    ("norms", "sobolev_norm"),
    ("norms", "besov_norm_heat"),
    ("norms", "lebesgue_norm"),
    ("duhamel", "volterra_nodes"),
    ("duhamel", "bilinear_B"),
    ("duhamel", "bilinear_trajectory"),
    ("duhamel", "bilinear_estimate_report"),
    ("picard", "smallness_lhs"),
    ("picard", "calibrate_thresholds"),
    ("picard", "abstract_fixed_point"),
    ("picard", "solve_mild"),
)

# Transform entry points counted as lattice.fft_calls / lattice.fft_points.
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

ITERATION = "picard.iteration"


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


class Recorder:
    """Span stack, per-name self time and counts, and the raw span log."""

    def __init__(self):
        self.active = False
        self.names: list = []
        self._ids: dict = {}
        self.self_time: dict = {}
        self.calls: dict = {}
        self.counters = {"fft_calls": 0, "fft_points": 0, "field_inits": 0}
        self._stack: list = []  # [name_id, span_id, start, child_time]
        self._next_id = 0
        # raw log, one entry per closed span; ids number spans in opening order
        self.log_id = array("q")
        self.log_name = array("i")
        self.log_parent = array("q")
        self.log_start = array("d")
        self.log_end = array("d")
        self.origin = time.perf_counter()

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_time[name] = 0.0
            self.calls[name] = 0
        return idx

    def enter(self, name: str) -> None:
        self._stack.append([self._name_id(name), self._next_id, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        name_id, span_id, start, child = self._stack.pop()
        duration = end - start
        name = self.names[name_id]
        self.self_time[name] += duration - child
        self.calls[name] += 1
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][1]
        self.log_id.append(span_id)
        self.log_name.append(name_id)
        self.log_parent.append(parent)
        self.log_start.append(start - self.origin)
        self.log_end.append(end - self.origin)

    @property
    def depth(self) -> int:
        return len(self._stack)

    def dump(self) -> dict:
        """The raw span log as columns; start and end are seconds since
        the recorder was made, parent is -1 for a root span."""
        return {
            "names": list(self.names),
            "id": self.log_id.tolist(),
            "name": self.log_name.tolist(),
            "parent": self.log_parent.tolist(),
            "start": self.log_start.tolist(),
            "end": self.log_end.tolist(),
        }


def _span_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit()

    wrapper.__wrapped_original__ = fn
    return wrapper


def _fixed_point_wrapper(rec: Recorder, name: str, fn):
    """Span for abstract_fixed_point plus one picard.iteration span per
    Picard step. A step starts when the bilinear map is called and ends
    when the next step starts or the solver returns, so the iteration span
    also covers the trajectory arithmetic and the norms of that step."""

    @functools.wraps(fn)
    def wrapper(y, bilinear_map, *args, **kwargs):
        if not rec.active:
            return fn(y, bilinear_map, *args, **kwargs)
        rec.enter(name)
        depth = rec.depth

        def step(a, b):
            if rec.depth > depth:  # close the previous step
                rec.exit()
            rec.enter(ITERATION)
            return bilinear_map(a, b)

        try:
            return fn(y, step, *args, **kwargs)
        finally:
            while rec.depth > depth:
                rec.exit()
            rec.exit()

    wrapper.__wrapped_original__ = fn
    return wrapper


def _counting_init(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if rec.active:
            rec.counters["field_inits"] += 1
        return fn(self, *args, **kwargs)

    wrapper.__wrapped_original__ = fn
    return wrapper


def _counting_fft(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(a, *args, **kwargs):
        if rec.active:
            rec.counters["fft_calls"] += 1
            rec.counters["fft_points"] += int(np.size(a))
        return fn(a, *args, **kwargs)

    wrapper.__wrapped_original__ = fn
    return wrapper


class Installation:
    """Handle on the replaced bindings, so they can be put back."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list = []

    def replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mildns" or name.startswith("mildns."))]


def _replace_everywhere(inst: Installation, modules, original, wrapper) -> int:
    hits = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                inst.replace(module, attr, wrapper)
                hits += 1
    return hits


def install() -> Installation:
    """Wrap every traced function at every binding and return the handle.

    The mildns modules must already be imported.
    """
    import importlib

    import scipy.fft

    rec = Recorder()
    inst = Installation(rec)
    modules = _package_modules()
    for module_name, attr in SPAN_TARGETS:
        module = importlib.import_module(f"mildns.{module_name}")
        name = _span_name(module_name, attr)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            inst.replace(cls, method, _span_wrapper(rec, name, cls.__dict__[method]))
            continue
        original = getattr(module, attr)
        make = _fixed_point_wrapper if attr == "abstract_fixed_point" else _span_wrapper
        if _replace_everywhere(inst, modules, original, make(rec, name, original)) == 0:
            raise RuntimeError(f"no binding of mildns.{module_name}.{attr} found")

    field_cls = importlib.import_module("mildns.lattice").Field
    inst.replace(field_cls, "__init__", _counting_init(rec, field_cls.__dict__["__init__"]))

    fft_modules = [np.fft, scipy.fft] + modules
    for namespace in (np.fft, scipy.fft):
        for fname in FFT_NAMES:
            original = getattr(namespace, fname)
            _replace_everywhere(inst, fft_modules, original, _counting_fft(rec, original))
    return inst
