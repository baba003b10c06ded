"""Runtime helpers: version, deterministic formatting, hashing, atomic writes."""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

VERSION = "0.1.0"


def fmt_float(x) -> str:
    """Render a float with 17 significant digits (round-trip exact, stable)."""
    return "%.17g" % float(x)


def canonical_json(obj) -> str:
    """Deterministic JSON rendering: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def stage_file(path, data) -> Path:
    """Write data (str or bytes) to a temporary file beside path and return
    the temporary path; os.replace(temp, path) then publishes it in one
    step. A failed write removes the temporary file and leaves path as it
    was."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return temp


def write_atomic(path, data) -> None:
    """Replace path with data so a reader sees the old file or the new one,
    never a partial write."""
    os.replace(stage_file(path, data), path)
