"""Write the outputs of every experiment, or compare two such output sets.

    python3 tools/outputs.py run DIR [--src SRC]
    python3 tools/outputs.py diff A B
    python3 tools/outputs.py lines A B

`run` writes, under DIR, the CSV and manifest of each of the 13
experiments at default config (`mildns <id> --out DIR`), the saved smoke
solution under DIR/smoke (`mildns solve --set n=16 --set mesh_nodes=8
--set quad_nodes=8 --set save_fields=true --out DIR/smoke`), the default
calibration file DIR/calibration.json (`mildns calibrate --out DIR`), and
timings.json with the wall time of each. Every default config is d = 2, so
two more jobs reach the d = 3 code: DIR/d3/calibration.json calibrates the
book (d, p, s, q_tilde) = (3, 3, 0, 6) on a corpus of n = 16
(D3_CALIBRATION), and DIR/d3/smoke is the smoke solve of that book on a
divergence-free random-band datum scaled to half its threshold, reading
that calibration. The jobs run in DIR, so the calibration path the d = 3
solve echoes in its manifest is the same for every DIR. SRC is the `src`
directory whose mildns package is run; it defaults to the one beside this
script, so the outputs of another checkout are written with `--src
other/src`.

`diff` labels each output file found under A or B (timings.json aside):

* identical -- the bytes are equal;
* round-off -- the files parse to the same structure: column names, row
  counts, keys, list lengths, strings (hashes among them), integers and
  booleans all match exactly, and every float pair (a, b) has
  |a - b| <= 1e-12 * max(|a|, |b|) or |a - b| <= 1e-15; three rules below
  widen this;
* changed -- anything else, a file on one side only among them.

Three rules compare a value through what it stands for:

* Calibration digests. A digest is a hash of the calibration constants, so
  a one-ulp move of c_hat changes every byte of it. A string pair (a, b)
  passes when a is the `digest` of a calibration.json under A, b that of
  the file at the same path under B, the two calibration files have
  identical `corpus` sections and the rest of them, `digest` aside, is
  round-off by the rules here.
* Relative quantities: columns or keys named `*divergence_defect`,
  `*divergence_defects`, `*rel_err` or `*rel_change` (the last key of a
  JSON path, so `max_divergence_defect` is one). Each is a defect, an error
  or the maximum of such, measured relative to the size of
  its inputs, |x - y| / |y| or max |div u| / max |u|, so a round-off move
  of 1e-12 relative in x and y moves it by about 1e-12 absolute, whatever
  its own size; a defect that is itself round-off of an exact zero (about
  1e-14) can move by a large share of itself. So these pass when
  |a - b| <= 1e-12 absolute.
* The Picard trace: the `diffs`, `ratios` and `residual` of the top-level
  `trace` section of a JSON file, beside the `norms` of the iterates.
  diffs[k] is the norm of x_{k+1} - x_k, a difference of iterates of norm
  norms[k], so its round-off is about eps * norms[k] whatever its own
  size, and it passes when |a - b| <= 1e-12 * norms[k]; the residual is
  the last diff. ratios[k] = diffs[k+1] / diffs[k] propagates both errors
  to first order (Higham, Accuracy and Stability of Numerical Algorithms,
  2nd ed., ch. 3), so it passes when |a - b| <= 1e-12 * r *
  (norms[k+1] / diffs[k+1] + norms[k] / diffs[k]). Each tolerance is the
  larger of the two sides'; a trace without norms widens nothing.

For each file that is not identical it prints the worst cell of every
column that moved. Of the cells that pass only through the absolute floor
it prints one line per file: the worst of them, by |a - b|, and their
count (a saved field moved at round-off can have thousands, all of them
about 1e-16). It lists every cell that passes only through the
relative-quantity rule, the trace rule or the digest rule. Last it prints
each job's wall time on both sides, read from the two timings.json files,
and their ratio B/A; the times take no part in the labels. The exit
status is 1 when some file is changed.

CSV cells and JSON values are typed from their text: `true`/`false` are
booleans, an integer literal is an integer (compared exactly when both
cells are integers, since a float column prints an integral value as one),
and any other number is a float. Saved fields (`*.field`) must have equal
headers; their samples are compared as floats. The tolerances are the
rtol of the frozen calibration constants and the floor under the
Taylor-Green residual, which is 2.3e-17 absolute.

`lines` counts the lines of the Python files under two source directories
(two copies of src/mildns, say) by kind and prints each kind's total under
A and B and the change B - A. A docstring line lies inside the docstring of
a module, class or function; a comment line holds only a comment; a code
line is any other line that is not blank. Deleting docstrings or comments
moves only their own rows, so the code row alone measures a simplification.
Below the totals it prints one code row for each file whose code-line count
differs, a file on one side only counting 0 on the other.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import csv
import fnmatch
import io
import json
import math
import os
import re
import struct
import sys
import time
import tokenize
from collections import Counter
from pathlib import Path

import numpy as np

RTOL = 1e-12
ATOL = 1e-15

IDENTICAL, ROUND_OFF, CHANGED = "identical", "round-off", "changed"
RELATIVE_QUANTITIES = ("*divergence_defect", "*divergence_defects", "*rel_err", "*rel_change")
CALIBRATION = "calibration.json"
RULES = {  # each widening rule, and the heading of the cells that pass only through it
    "floor": f"cells within only the absolute floor {ATOL:g}, the worst of each file:",
    "relative": f"relative quantities within only {RTOL:g} absolute:",
    "digest": "digests that pass only as their side's calibration digest:",
    "trace": f"Picard trace cells within only {RTOL:g} of their iterates' round-off:",
}
SMOKE_ARGS = ["--set", "n=16", "--set", "mesh_nodes=8", "--set", "quad_nodes=8",
              "--set", "save_fields=true"]
D3_CALIBRATION = {"d": 3, "p": 3.0, "s": 0.0, "q_tilde": 6.0, "corpus": {"n": 16}}
D3_SMOKE_ARGS = ["--set", "d=3", "--set", "p=3.0", "--set", "q_tilde=6.0",
                 "--set", 'datum={"kind": "random_band", "seed": 5, "k_min": 1, "k_max": 4, '
                          '"divergence_free": true}',
                 "--set", "scale_to_delta_fraction=0.5",
                 "--set", "calibration_path=d3/calibration.json"]
_INTEGER = re.compile(r"[+-]?\d+\Z")
TRACE = "trace"  # the top-level JSON section of a Picard trace
_FIELD_HEADER = struct.Struct("<iidii")  # mildns.lattice's saved-field header


# ---------------------------------------------------------------------------
# run


def run(out_dir: Path, src: Path) -> dict:
    """Write every experiment, the smoke solutions and the calibrations, each
    job run in out_dir; return the timings."""
    sys.path.insert(0, str(src.resolve()))
    from mildns.cli import main
    from mildns.lab import EXPERIMENTS

    out_dir = out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    d3_config = out_dir / "d3-calibrate.config"
    jobs = [(exp_id, [exp_id, "--out", str(out_dir)]) for exp_id in sorted(EXPERIMENTS)]
    jobs.append(("smoke", ["solve", *SMOKE_ARGS, "--out", str(out_dir / "smoke")]))
    jobs.append(("calibration", ["calibrate", "--out", str(out_dir)]))
    jobs.append(("calibration_d3", ["calibrate", "--config", str(d3_config),
                                    "--out", str(out_dir / "d3")]))
    jobs.append(("smoke_d3", ["solve", *SMOKE_ARGS, *D3_SMOKE_ARGS,
                              "--out", str(out_dir / "d3" / "smoke")]))
    d3_config.write_text(json.dumps(D3_CALIBRATION))
    timings = {}
    cwd = os.getcwd()
    try:
        os.chdir(out_dir)
        for name, argv in jobs:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            timings[name] = time.perf_counter() - start
            if code != 0:
                raise SystemExit(f"{' '.join(argv)} exited {code}")
            print(f"{name:<18} {timings[name]:8.2f} s")
    finally:
        os.chdir(cwd)
        d3_config.unlink()
    (out_dir / "timings.json").write_text(json.dumps(timings, indent=1, sort_keys=True) + "\n")
    return timings


# ---------------------------------------------------------------------------
# diff


class Mismatch(Exception):
    """A difference that no tolerance forgives."""


def is_relative_quantity(column: str) -> bool:
    """True for a CSV column or JSON path whose last key names a relative
    defect or error (RELATIVE_QUANTITIES)."""
    key = column.replace("[]", "").rsplit(".", 1)[-1]
    return any(fnmatch.fnmatchcase(key, pattern) for pattern in RELATIVE_QUANTITIES)


def trace_tolerances(trace) -> dict:
    """The trace rule's absolute tolerance of each diffs, ratios and
    residual cell of one Picard trace section, by its JSON path; {} for a
    section without norms and diffs."""
    try:
        norms = [float(x) for x in trace["norms"]]
        diffs = [float(x) for x in trace["diffs"]]
    except (KeyError, TypeError, ValueError):
        return {}
    out = {}
    for k, diff in enumerate(diffs[: len(norms)]):
        out[f"{TRACE}.diffs[{k}]"] = RTOL * norms[k]
        if k + 1 < min(len(diffs), len(norms)) and diff > 0 and diffs[k + 1] > 0:
            ratio = diffs[k + 1] / diff
            out[f"{TRACE}.ratios[{k}]"] = RTOL * ratio * (norms[k + 1] / diffs[k + 1]
                                                          + norms[k] / diff)
    if diffs:
        out[f"{TRACE}.residual"] = out.get(f"{TRACE}.diffs[{len(diffs) - 1}]", 0.0)
    return out


class FileDiff:
    """Per-column worst float difference of one file pair, and the cells
    that pass only through the absolute floor, the relative-quantity rule,
    the trace rule or the digest rule. digests holds the pairs (digest of
    A, digest of B) of the calibration files that the digest rule accepts,
    and traced the trace rule's tolerance of each cell it covers."""

    def __init__(self, digests=frozenset()):
        self.digests = digests
        self.traced = {}  # JSON path -> tolerance of the trace rule
        self.worst = {}  # column -> (relative, absolute, where, a, b)
        self.passed_only = {rule: [] for rule in RULES}  # rule -> [(where, a, b)]

    def floats(self, column: str, where: str, a: float, b: float) -> None:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return
        gap = abs(a - b)
        scale = max(abs(a), abs(b))
        rel = gap / scale if scale > 0 else math.inf
        if not gap <= RTOL * scale:
            if gap <= ATOL:
                self.passed_only["floor"].append((where, a, b))
            elif gap <= RTOL and is_relative_quantity(column):
                self.passed_only["relative"].append((where, a, b))
            elif gap <= self.traced.get(where, 0.0):
                self.passed_only["trace"].append((where, a, b))
            else:
                raise Mismatch(f"{where}: {a!r} vs {b!r} (relative {rel:.3g})")
        if column not in self.worst or rel > self.worst[column][0]:
            self.worst[column] = (rel, gap, where, a, b)

    def cells(self, column: str, where: str, a: str, b: str) -> None:
        """Compare two cells given as text."""
        if a == b:
            return
        if _INTEGER.match(a) and _INTEGER.match(b):
            raise Mismatch(f"{where}: integer {a} vs {b}")
        try:
            x, y = float(a), float(b)
        except ValueError:
            raise Mismatch(f"{where}: {a!r} vs {b!r}") from None
        self.floats(column, where, x, y)

    def values(self, column: str, where: str, a, b) -> None:
        """Compare two parsed JSON values, recursively."""
        if isinstance(a, dict) and isinstance(b, dict):
            if sorted(a) != sorted(b):
                raise Mismatch(f"{where}: keys {sorted(a)} vs {sorted(b)}")
            for key in a:
                self.values(_join(column, key), _join(where, key), a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                raise Mismatch(f"{where}: {len(a)} vs {len(b)} items")
            for i, (x, y) in enumerate(zip(a, b)):
                self.values(f"{column}[]", f"{where}[{i}]", x, y)
        elif _is_float_pair(a, b):
            self.floats(column, where, float(a), float(b))
        elif isinstance(a, str) and a != b and (a, b) in self.digests:
            self.passed_only["digest"].append((where, a, b))
        elif type(a) is not type(b) or a != b:
            raise Mismatch(f"{where}: {a!r} vs {b!r}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _is_float_pair(a, b) -> bool:
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    return number(a) and number(b) and (isinstance(a, float) or isinstance(b, float))


def _diff_csv(a: bytes, b: bytes, out: FileDiff) -> None:
    rows_a = list(csv.reader(a.decode().splitlines()))
    rows_b = list(csv.reader(b.decode().splitlines()))
    if rows_a[:1] != rows_b[:1]:
        raise Mismatch(f"columns {rows_a[:1]} vs {rows_b[:1]}")
    if len(rows_a) != len(rows_b):
        raise Mismatch(f"{len(rows_a) - 1} vs {len(rows_b) - 1} rows")
    columns = rows_a[0]
    for r, (row_a, row_b) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(row_a) != len(columns) or len(row_b) != len(columns):
            raise Mismatch(f"row {r}: width {len(row_a)} vs {len(row_b)}")
        for column, x, y in zip(columns, row_a, row_b):
            out.cells(column, f"row {r} {column}", x, y)


def _diff_json(a: bytes, b: bytes, out: FileDiff) -> None:
    a, b = json.loads(a), json.loads(b)
    if isinstance(a, dict) and isinstance(b, dict):
        scales = trace_tolerances(a.get(TRACE)), trace_tolerances(b.get(TRACE))
        out.traced = {where: max(scales[0].get(where, 0.0), scales[1].get(where, 0.0))
                      for where in scales[0].keys() | scales[1].keys()}
    out.values("", "", a, b)


def _diff_field(a: bytes, b: bytes, out: FileDiff) -> None:
    size = _FIELD_HEADER.size
    if a[:size] != b[:size] or len(a) != len(b):
        raise Mismatch("field headers or sizes differ")
    xs = np.frombuffer(a, dtype="<f8", offset=size)
    ys = np.frombuffer(b, dtype="<f8", offset=size)
    for i in np.flatnonzero(xs != ys):
        out.floats("samples", f"sample {i}", float(xs[i]), float(ys[i]))


_PARSERS = {".csv": _diff_csv, ".json": _diff_json, ".field": _diff_field}


def output_files(root: Path) -> set:
    return {
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file() and p.suffix in _PARSERS and p.name != "timings.json"
    }


def calibration_digests(root_a: Path, root_b: Path) -> set:
    """The pairs (digest of A, digest of B) of the calibration files found
    at one path under both roots whose corpus sections are identical and
    whose rest, digest aside, is round-off; no other digest pair passes."""
    pairs = set()
    for name in sorted(root_a.rglob(CALIBRATION)):
        files = (name, root_b / name.relative_to(root_a))
        if not files[1].is_file():
            continue
        try:
            cal_a, cal_b = (json.loads(path.read_text()) for path in files)
            digests = cal_a.pop("digest"), cal_b.pop("digest")
            if cal_a.get("corpus") != cal_b.get("corpus"):
                continue
            FileDiff().values("", "", cal_a, cal_b)
        except (Mismatch, ValueError, KeyError, AttributeError):
            continue
        pairs.add(digests)
    return pairs


def diff_file(a: Path, b: Path, digests=frozenset()):
    """(label, FileDiff or None, reason) for one file pair; digests as in
    FileDiff."""
    if not a.is_file() or not b.is_file():
        return CHANGED, None, "present on one side only"
    blob_a, blob_b = a.read_bytes(), b.read_bytes()
    if blob_a == blob_b:
        return IDENTICAL, None, ""
    out = FileDiff(digests)
    try:
        _PARSERS[a.suffix](blob_a, blob_b, out)
    except (Mismatch, ValueError) as exc:
        return CHANGED, out, str(exc)
    return ROUND_OFF, out, ""


def diff(root_a: Path, root_b: Path) -> tuple:
    """Compare two output directories; return (report text, counts)."""
    lines = []
    only = {rule: [] for rule in RULES}
    digests = calibration_digests(root_a, root_b)
    counts = {IDENTICAL: 0, ROUND_OFF: 0, CHANGED: 0}
    for name in sorted(output_files(root_a) | output_files(root_b)):
        label, result, reason = diff_file(root_a / name, root_b / name, digests)
        counts[label] += 1
        lines.append(f"{label:<10} {name}" + (f"  ({reason})" if reason else ""))
        if result is None:
            continue
        for column, (rel, gap, where, x, y) in sorted(result.worst.items()):
            lines.append(f"    {column:<36} worst relative {rel:.2g}, "
                         f"absolute {gap:.2g} at {where}: {x!r} vs {y!r}")
        for rule, cells in result.passed_only.items():
            if rule == "floor" and cells:
                where, x, y = max(cells, key=lambda cell: abs(cell[1] - cell[2]))
                only[rule].append(f"    {name} {where}: {x!r} vs {y!r}, worst |a - b| "
                                  f"{abs(x - y):.2g} of {len(cells)} cells")
            else:
                only[rule].extend(f"    {name} {where}: {x!r} vs {y!r}"
                                  for where, x, y in cells)
    lines.append(f"{counts[IDENTICAL]} identical, {counts[ROUND_OFF]} round-off, "
                 f"{counts[CHANGED]} changed")
    for rule, cells in only.items():
        if cells:
            lines.append(RULES[rule])
            lines.extend(cells)
    lines.extend(timing_lines(root_a, root_b))
    return "\n".join(lines), counts


def timing_lines(root_a: Path, root_b: Path) -> list:
    """Each job's wall time under A and B (timings.json) and the ratio B/A;
    a job timed on one side only shows '-' for the other and the ratio."""
    a, b = (json.loads((root / "timings.json").read_text())
            if (root / "timings.json").is_file() else {} for root in (root_a, root_b))
    names = sorted(set(a) | set(b))
    if not names:
        return []

    def cell(x) -> str:
        return f"{'-':>9}" if x is None else f"{x:9.2f}"

    lines = [f"{'wall time (s)':<22}{'A':>9}{'B':>9}{'B/A':>9}"]
    for name in names:
        x, y = a.get(name), b.get(name)
        ratio = y / x if x and y is not None else None
        lines.append(f"    {name:<18}{cell(x)}{cell(y)}{cell(ratio)}")
    return lines


# ---------------------------------------------------------------------------
# lines


LINE_KINDS = ("code", "docstring", "comment")


def line_kinds(source: str) -> Counter:
    """The code, docstring and comment lines of one Python source, counted
    as the module docstring says; blank lines outside a docstring count as
    none of them."""
    kinds = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT and not tok.line[:tok.start[1]].strip():
            kinds[tok.start[0]] = "comment"
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            kinds.update(dict.fromkeys(range(doc.lineno, doc.end_lineno + 1), "docstring"))
    for row, text in enumerate(source.splitlines(), start=1):
        if text.strip() and row not in kinds:
            kinds[row] = "code"
    return Counter(kinds.values())


def count_lines(root: Path) -> dict:
    """line_kinds of each Python file under root, keyed by its path
    relative to root."""
    return {path.relative_to(root).as_posix(): line_kinds(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def lines_report(root_a: Path, root_b: Path) -> str:
    """Each kind's line count under A and under B, and B - A; then the code
    lines of each file whose count changed, 0 on a side without the file."""
    a, b = count_lines(root_a), count_lines(root_b)
    total_a, total_b = sum(a.values(), Counter()), sum(b.values(), Counter())
    rows = [f"{'lines':<14}{'A':>8}{'B':>8}{'B - A':>8}"]
    rows += [f"    {kind:<10}{total_a[kind]:8d}{total_b[kind]:8d}"
             f"{total_b[kind] - total_a[kind]:+8d}" for kind in LINE_KINDS]
    code = {name: (a.get(name, Counter())["code"], b.get(name, Counter())["code"])
            for name in sorted(set(a) | set(b))}
    moved = {name: pair for name, pair in code.items() if pair[0] != pair[1]}
    if moved:
        width = max(10, *(len(name) for name in moved))
        rows.append(f"{'code by file':<{width + 4}}{'A':>8}{'B':>8}{'B - A':>8}")
        rows += [f"    {name:<{width}}{x:8d}{y:8d}{y - x:+8d}" for name, (x, y) in moved.items()]
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="write every experiment's outputs and their times")
    run_p.add_argument("dir", type=Path)
    run_p.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                       help="the src directory whose mildns package is run")
    diff_p = sub.add_parser("diff", help="label each file of two output sets")
    diff_p.add_argument("a", type=Path)
    diff_p.add_argument("b", type=Path)
    lines_p = sub.add_parser("lines", help="count the code, docstring and comment lines "
                                           "of two source directories")
    lines_p.add_argument("a", type=Path)
    lines_p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.dir, args.src)
        return 0
    if args.command == "lines":
        print(lines_report(args.a, args.b))
        return 0
    report, counts = diff(args.a, args.b)
    print(report)
    return 1 if counts[CHANGED] else 0


if __name__ == "__main__":
    sys.exit(main())
