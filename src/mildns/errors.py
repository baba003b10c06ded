"""Exception types shared across the package, and the one route by which
a config refusal names its keys: _keyed writes "config key 'a': ...",
"config keys 'a' and 'b': ..." or "config keys 'a', 'b' and 'c': ...";
require raises such a ConfigError unless a condition holds, and naming
re-raises a ConfigError or DataError of a block under the config keys
that fed the failing call.

The CLI maps these onto process exit codes: configuration problems exit
with 2, numerical failures (divergence guard, non-convergence, non-finite
data) with 3, and I/O trouble with 4.
"""
from contextlib import contextmanager


class MildNSError(Exception):
    """Base class for all package errors."""


class ConfigError(MildNSError, ValueError):
    """Invalid parameters: exponent constraints, bad lattice sizes, bad configs."""


class SmallnessError(ConfigError):
    """Datum fails the smallness condition and no override was requested."""


class MeshError(ConfigError):
    """A time mesh is too coarse or a requested time is off the mesh."""


class WindowError(ConfigError):
    """A requested time or radius leaves the lattice validity window."""


class DataError(MildNSError, ValueError):
    """Field data is malformed: wrong shape, wrong dtype, or non-finite."""


class NumericalError(MildNSError, RuntimeError):
    """Base class for runtime numerical failures; trace is the partial
    Picard record of a failed fixed-point run, None otherwise."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class DivergenceError(NumericalError):
    """Picard iterate crossed the divergence guard threshold."""


class NonConvergenceError(NumericalError):
    """Iteration budget exhausted without meeting the stopping rule."""


class CalibrationError(ConfigError):
    """An operation needs calibrated constants that are not available."""


def _keyed(names, message: str) -> str:
    """message under the config keys names: "config keys 'a' and 'b': ..."."""
    quoted = [repr(name) for name in names]
    keys = (f"key {quoted[0]}" if len(quoted) == 1
            else f"keys {', '.join(quoted[:-1])} and {quoted[-1]}")
    return f"config {keys}: {message}"


def require(ok: bool, names, message: str) -> None:
    """Raise ConfigError(_keyed(names, message)) unless ok."""
    if not ok:
        raise ConfigError(_keyed(names, message))


@contextmanager
def naming(*names: str):
    """Re-raise a ConfigError or DataError of the block, of the same class,
    under the config keys that fed it (_keyed)."""
    try:
        yield
    except (ConfigError, DataError) as exc:
        raise type(exc)(_keyed(names, str(exc))) from exc
