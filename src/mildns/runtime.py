"""Runtime helpers: version, deterministic formatting, hashing."""
from __future__ import annotations

import hashlib
import json

VERSION = "0.1.0"


def fmt_float(x) -> str:
    """Render a float with 17 significant digits (round-trip exact, stable)."""
    return "%.17g" % float(x)


def canonical_json(obj) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
