"""The output comparator (tools/outputs.py) on small synthetic output sets:
one ulp reads as round-off; a 1e-9 relative move, a flipped boolean or a
dropped row reads as changed; a move that passes only through the absolute
floor is listed."""
import importlib.util
import json
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
