"""The output comparator (tools/outputs.py) on small synthetic output sets:
one ulp reads as round-off; a 1e-9 relative move, a flipped boolean or a
dropped row reads as changed; a move that passes only through the absolute
floor (the worst of each file), the relative-quantity rule, the Picard
trace rule or the digest rule is listed."""
import contextlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
_SPEC = importlib.util.spec_from_file_location("outputs", _PATH)
outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(outputs)

CSV = "name,iterations,ratio,ok\nalpha,9,0.25,true\nbeta,12,0.75,false\n"
MANIFEST = {
    "summary": {"max_ratio": 0.75, "converged": True, "residual": 2.3e-17},
    "provenance": {"config_sha256": "ab12"},
    "trace": {"diffs": [0.1, 0.01, 0.001]},
}


def write_set(root: Path, csv_text=CSV, manifest=MANIFEST) -> Path:
    root.mkdir()
    (root / "exp.csv").write_text(csv_text)
    (root / "exp.json").write_text(json.dumps(manifest, sort_keys=True))
    return root


@pytest.fixture
def base(tmp_path):
    return write_set(tmp_path / "a")


def labels(a, b):
    report, counts = outputs.diff(a, b)
    found = {line.split()[1]: line.split()[0] for line in report.splitlines()
             if line.split()[0] in counts}
    return found, report


def test_same_files_are_identical(base, tmp_path):
    found, report = labels(base, write_set(tmp_path / "b"))
    assert found == {"exp.csv": "identical", "exp.json": "identical"}
    assert "2 identical, 0 round-off, 0 changed" in report


def test_one_ulp_is_round_off(base, tmp_path):
    nudged = np.nextafter(0.25, 1.0)
    other = write_set(tmp_path / "b", CSV.replace("0.25", repr(float(nudged))),
                      {**MANIFEST, "summary": {**MANIFEST["summary"],
                                               "max_ratio": float(np.nextafter(0.75, 0.0))}})
    found, report = labels(base, other)
    assert found == {"exp.csv": "round-off", "exp.json": "round-off"}
    assert "ratio" in report and "summary.max_ratio" in report
    assert "absolute floor" not in report


@pytest.mark.parametrize(
    "csv_text",
    [
        CSV.replace("0.75", repr(0.75 * (1 + 1e-9))),  # 1e-9 relative
        CSV.replace("true", "false"),  # flipped boolean
        CSV.replace(",12,", ",13,"),  # integer
        CSV.replace("beta", "gamma"),  # string
        "\n".join(CSV.splitlines()[:-1]) + "\n",  # dropped row
        CSV.replace("ratio", "rate"),  # column name
    ],
    ids=["1e-9", "boolean", "integer", "string", "dropped-row", "column"],
)
def test_csv_changes(base, tmp_path, csv_text):
    found, _ = labels(base, write_set(tmp_path / "b", csv_text))
    assert found["exp.csv"] == "changed"


@pytest.mark.parametrize(
    "manifest",
    [
        {**MANIFEST, "provenance": {"config_sha256": "ab13"}},
        {**MANIFEST, "summary": {**MANIFEST["summary"], "converged": False}},
        {**MANIFEST, "trace": {"diffs": [0.1, 0.01]}},
        {**MANIFEST, "trace": {"diffs": [0.1, 0.01, 0.001 * (1 + 1e-9)]}},
    ],
    ids=["hash", "boolean", "dropped-item", "1e-9"],
)
def test_json_changes(base, tmp_path, manifest):
    found, _ = labels(base, write_set(tmp_path / "b", manifest=manifest))
    assert found["exp.json"] == "changed"


def test_sub_floor_move_is_listed(base, tmp_path):
    moved = {**MANIFEST, "summary": {**MANIFEST["summary"], "residual": 2.3e-17 + 2e-22}}
    found, report = labels(base, write_set(tmp_path / "b", manifest=moved))
    assert found["exp.json"] == "round-off"
    floor = report.split("absolute floor")[1]
    assert "exp.json summary.residual" in floor


def test_floor_cells_collapse_to_one_line_per_file(tmp_path):
    """Saved fields moved at round-off of their zeros: each file's floor-only
    cells read as one line, the worst |a - b| and the count."""
    header = outputs._FIELD_HEADER.pack(2, 4, 1.0, 1, 0)
    zeros = np.zeros(16)
    moved = zeros.copy()
    moved[[2, 5, 11]] = [1e-17, -2.2e-16, 4e-17]
    for root, samples in ((tmp_path / "a", zeros), (tmp_path / "b", moved)):
        root.mkdir()
        for name in ("node_0.field", "node_1.field"):
            (root / name).write_bytes(header + samples.astype("<f8").tobytes())
    found, report = labels(tmp_path / "a", tmp_path / "b")
    assert found == {"node_0.field": "round-off", "node_1.field": "round-off"}
    floor = report.split("absolute floor")[1].splitlines()[1:]
    assert floor == [f"    {name} sample 5: 0.0 vs -2.2e-16, worst |a - b| 2.2e-16 of 3 cells"
                     for name in ("node_0.field", "node_1.field")]


def test_file_on_one_side_is_changed(base, tmp_path):
    other = write_set(tmp_path / "b")
    (other / "extra.csv").write_text(CSV)
    found, _ = labels(base, other)
    assert found["extra.csv"] == "changed"
    assert outputs.main(["diff", str(base), str(other)]) == 1
    assert outputs.main(["diff", str(base), str(base)]) == 0


def test_wall_times_are_listed_without_changing_the_verdict(base, tmp_path):
    other = write_set(tmp_path / "b")
    (base / "timings.json").write_text(json.dumps({"exp": 2.0, "smoke": 1.0}))
    (other / "timings.json").write_text(json.dumps({"exp": 1.0, "extra": 3.0}))
    found, report = labels(base, other)
    assert found == {"exp.csv": "identical", "exp.json": "identical"}
    times = report.split("wall time (s)")[1].splitlines()[1:]
    assert [line.split() for line in times] == [
        ["exp", "2.00", "1.00", "0.50"], ["extra", "-", "3.00", "-"],
        ["smoke", "1.00", "-", "-"]]
    assert outputs.main(["diff", str(base), str(other)]) == 0


CALIBRATION = {"book": "d2-p2-s0-qt4", "c_hat": 0.10112210300082865, "delta": 2.4722,
               "corpus": {"seed": 11, "pairs": 20}, "digest": "5bd0"}


def with_calibration(root: Path, calibration: dict, manifest_digest: str) -> Path:
    """An output set whose manifest carries manifest_digest, beside a
    calibration file."""
    manifest = {**MANIFEST, "provenance": {**MANIFEST["provenance"],
                                           "calibration_digest": manifest_digest}}
    write_set(root, manifest=manifest)
    (root / "calibration.json").write_text(json.dumps(calibration, sort_keys=True))
    return root


@pytest.mark.parametrize("c_hat, manifest_digest, corpus_seed, label, calibration_label", [
    (0.10112210300082868, "5c79", 11, "round-off", "round-off"),  # moved at round-off
    (0.10112210300082868, "5c7a", 11, "changed", "round-off"),  # not B's digest
    (0.10112210300082865 * (1 + 1e-9), "5c79", 11, "changed", "changed"),  # moved 1e-9
    (0.10112210300082868, "5c79", 12, "changed", "changed"),  # another corpus
], ids=["round-off", "foreign-digest", "1e-9", "corpus"])
def test_digests_compare_through_their_constants(tmp_path, c_hat, manifest_digest,
                                                 corpus_seed, label, calibration_label):
    base = with_calibration(tmp_path / "a", CALIBRATION, "5bd0")
    moved = {**CALIBRATION, "c_hat": c_hat, "digest": "5c79",
             "corpus": {**CALIBRATION["corpus"], "seed": corpus_seed}}
    found, report = labels(base, with_calibration(tmp_path / "b", moved, manifest_digest))
    assert found["exp.json"] == label
    assert found["calibration.json"] == calibration_label
    if label == "round-off":
        listed = report.split("calibration digest:")[1].split("wall time")[0]
        assert "exp.json provenance.calibration_digest: '5bd0' vs '5c79'" in listed
        assert "calibration.json digest" in listed


def test_a_nested_calibration_digest_passes_beside_its_own_file(tmp_path):
    """A d = 3 set keeps its calibration in a subdirectory: its digests pass
    through that file, and not through the top-level one."""
    base = with_calibration(tmp_path / "a", CALIBRATION, "5bd0")
    other = with_calibration(tmp_path / "b", CALIBRATION, "5bd0")
    nested = {**CALIBRATION, "book": "d3-p3-s0-qt6", "digest": "7e01"}
    for root, c_hat, digest in ((base, CALIBRATION["c_hat"], "7e01"),
                                (other, 0.10112210300082868, "7e02")):
        (root / "d3").mkdir()
        (root / "d3" / "calibration.json").write_text(
            json.dumps({**nested, "c_hat": c_hat, "digest": digest}))
        (root / "d3" / "solve.json").write_text(json.dumps({"digest": digest}))
    found, _ = labels(base, other)
    assert found["d3/solve.json"] == "round-off"
    assert found["d3/calibration.json"] == "round-off"


def test_digest_without_calibration_files_is_changed(tmp_path):
    base = with_calibration(tmp_path / "a", CALIBRATION, "5bd0")
    other = with_calibration(tmp_path / "b", {**CALIBRATION, "digest": "5c79"}, "5c79")
    (other / "calibration.json").unlink()
    found, _ = labels(base, other)
    assert found["exp.json"] == "changed"


DEFECTS = "t,divergence_defect,residual\n0.5,1.23e-14,1.23e-14\n"


@pytest.mark.parametrize("csv_text, label", [
    (DEFECTS.replace(",1.23e-14,", ",1.44e-14,"), "round-off"),  # round-off of a zero
    (DEFECTS.replace(",1.23e-14,", ",1.00123e-11,"), "changed"),  # 1e-11 absolute
    (DEFECTS.replace(",1.23e-14\n", ",1.44e-14\n"), "changed"),  # unlisted column
], ids=["defect", "1e-11", "unlisted"])
def test_relative_quantities_compare_on_the_absolute_scale(tmp_path, csv_text, label):
    base = write_set(tmp_path / "a", DEFECTS)
    found, report = labels(base, write_set(tmp_path / "b", csv_text))
    assert found["exp.csv"] == label
    if label == "round-off":
        listed = report.split("absolute:")[1]
        assert "exp.csv row 1 divergence_defect: 1.23e-14 vs 1.44e-14" in listed


def test_relative_quantity_is_the_last_json_key(tmp_path):
    summary = {**MANIFEST["summary"], "s=0.slope_rel_err": 3e-4, "max_rel_change": 0.002}
    moved = {**summary, "s=0.slope_rel_err": 3e-4 + 1.3e-15,
             "max_rel_change": 0.002 + 5e-13}
    base = write_set(tmp_path / "a", manifest={**MANIFEST, "summary": summary})
    found, report = labels(base, write_set(tmp_path / "b",
                                           manifest={**MANIFEST, "summary": moved}))
    assert found["exp.json"] == "round-off"
    listed = report.split("absolute:")[1]
    assert "summary.s=0.slope_rel_err" in listed and "summary.max_rel_change" in listed
    assert outputs.is_relative_quantity("trace.divergence_defects[]")
    assert outputs.is_relative_quantity("summary.max_divergence_defect")
    assert not outputs.is_relative_quantity("summary.rel_err_bound")


# Two Picard iterations of the d = 3 smoke solve (its iterations 11-13):
# ratios[0] = diffs[1] / diffs[0], as PicardTrace records it.
TRACE = {"norms": [7.71892345677986, 7.718923457222174],
         "diffs": [4.403686065885363e-05, 1.3385360946277876e-05],
         "ratios": [0.3039581102297497], "residual": 1.3385360946277876e-05}


def moved_trace(**cells):
    trace = {key: list(value) if isinstance(value, list) else value
             for key, value in TRACE.items()}
    for key, (index, value) in cells.items():
        if index is None:
            trace[key] = value
        else:
            trace[key][index] = value
    return {**MANIFEST, "trace": trace}


@pytest.mark.parametrize("cells, label", [
    # a ratio that moved 2.85e-12 relative between two round-off runs of B
    (dict(ratios=(0, 0.3039581102288849)), "round-off"),
    (dict(ratios=(0, 0.3039581102297497 * (1 + 1e-6))), "changed"),
    (dict(diffs=(1, TRACE["diffs"][1] + 2e-12 * TRACE["norms"][1])), "changed"),
    (dict(diffs=(1, TRACE["diffs"][1] + 0.5e-12 * TRACE["norms"][1]),
          residual=(None, TRACE["residual"] + 0.5e-12 * TRACE["norms"][1])), "round-off"),
], ids=["round-off-ratio", "ratio-1e-6", "diff-2-rtol-norm", "diff-half-rtol-norm"])
def test_picard_trace_compares_on_the_scale_of_its_iterates(tmp_path, cells, label):
    """A difference passes within RTOL of its iterate's norm and a ratio
    within the first-order propagation of both differences' tolerances
    (about 2.3e-7 here); the cells that pass only so are listed."""
    base = write_set(tmp_path / "a", manifest={**MANIFEST, "trace": TRACE})
    found, report = labels(base, write_set(tmp_path / "b", manifest=moved_trace(**cells)))
    assert found["exp.json"] == label
    if label == "round-off":
        listed = report.split(outputs.RULES["trace"])[1].splitlines()[1:]
        assert [line.split(":")[0].split()[-1] for line in listed] == sorted(
            f"trace.{key}" + ("" if index is None else f"[{index}]")
            for key, (index, _) in cells.items())


def test_trace_rule_needs_the_norms():
    assert outputs.trace_tolerances({"diffs": [0.1, 0.01]}) == {}
    assert outputs.trace_tolerances(None) == {}
    scales = outputs.trace_tolerances(TRACE)
    assert sorted(scales) == ["trace.diffs[0]", "trace.diffs[1]", "trace.ratios[0]",
                              "trace.residual"]
    assert scales["trace.residual"] == scales["trace.diffs[1]"] == 1e-12 * TRACE["norms"][1]
    assert 2.2e-7 < scales["trace.ratios[0]"] < 2.4e-7


MODULE = '''"""Module docstring,
two lines."""
import math

# a comment line


def area(r):
    """One-line docstring."""
    return math.pi * r * r  # an inline comment leaves this a code line


class Shape:
    """A class docstring

    with a blank line inside."""

    sides = "# not a comment"
'''


def test_line_kinds_count_code_docstrings_and_comments_apart():
    assert outputs.line_kinds(MODULE) == {"code": 5, "docstring": 6, "comment": 1}


def test_lines_report_separates_the_kinds(tmp_path, capsys):
    for name, source in (("a", MODULE), ("b", MODULE.replace('    """One-line docstring."""\n', "")
                                         .replace("# a comment line\n", ""))):
        (tmp_path / name / "pkg").mkdir(parents=True)
        (tmp_path / name / "pkg" / "m.py").write_text(source)
        (tmp_path / name / "n.py").write_text("x = 1\n")
    assert outputs.main(["lines", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "    code             6       6      +0",
        "    docstring        6       5      -1",
        "    comment          1       0      -1",
    ]


def test_lines_report_lists_the_code_of_each_changed_file(tmp_path, capsys):
    """A code row per file whose code count moved, by its path under the
    root; a file on one side only counts 0 on the other, and a file whose
    code count is the same on both sides gets no row."""
    for name in ("a", "b"):
        (tmp_path / name / "pkg").mkdir(parents=True)
        (tmp_path / name / "pkg" / "m.py").write_text(MODULE)
    (tmp_path / "a" / "n.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "b" / "n.py").write_text("x = 1\n")
    (tmp_path / "b" / "pkg" / "new_module.py").write_text('"""Doc."""\nz = 3\n')
    assert outputs.main(["lines", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "    code             7       7      +0",
        "    docstring        6       7      +1",
        "    comment          1       1      +0",
        "code by file                A       B   B - A",
        "    n.py                    2       1      -1",
        "    pkg/new_module.py       0       1      +1",
    ]


def test_run_restores_the_working_directory_without_contextlib_chdir(tmp_path, monkeypatch):
    """run needs no contextlib.chdir (Python 3.11): it runs each job in the
    output directory and restores the old one. The program is stubbed, so
    only the four fixed jobs run."""
    import mildns.cli
    import mildns.lab

    monkeypatch.delattr(contextlib, "chdir", raising=False)
    monkeypatch.setattr(mildns.cli, "main", lambda argv: 0)
    monkeypatch.setattr(mildns.lab, "EXPERIMENTS", {})
    monkeypatch.setattr(sys, "path", list(sys.path))
    cwd = os.getcwd()
    out = tmp_path / "out"
    outputs.run(out, _PATH.parents[1] / "src")
    assert os.getcwd() == cwd
    timings = json.loads((out / "timings.json").read_text())
    assert sorted(timings) == ["calibration", "calibration_d3", "smoke", "smoke_d3"]
    assert sorted(p.name for p in out.iterdir()) == ["timings.json"]
