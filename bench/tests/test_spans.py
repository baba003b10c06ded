"""The span recorder sees every binding of a traced function, its self
times add up, and uninstalling puts the package back as it was."""
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import spans
import workloads
from mildns import duhamel, lattice, multipliers, norms


def test_traced_solve(book):
    original = lattice.to_physical
    lat = lattice.make_lattice(2, workloads.N, workloads.BOX)
    u0 = workloads.small_datum(lat, book, 3)
    inst = spans.install()
    try:
        for module in (lattice, multipliers, norms, duhamel):
            assert module.to_physical.__wrapped_original__ is original
        rec = inst.recorder
        rec.active = True
        solution = workloads.solve(u0, book)
        rec.active = False
        log = rec.dump()
    finally:
        inst.uninstall()
    assert lattice.to_physical is original and norms.to_physical is original

    iterations = solution.trace.iterations
    assert rec.calls["picard.iteration"] == iterations
    assert rec.calls["duhamel.bilinear_B"] == iterations * workloads.MESH
    assert rec.calls["norms.value_at"] == iterations * workloads.MESH * workloads.QUAD * 2
    assert rec.counters["fft_calls"] > 0 and rec.counters["fft_points"] > 0
    assert rec.counters["field_inits"] > 0

    # one root span (solve_mild); the self times add up to its duration
    parent = np.array(log["parent"])
    roots = np.flatnonzero(parent == -1)
    assert [log["names"][log["name"][i]] for i in roots] == ["picard.solve_mild"]
    root = roots[0]
    duration = log["end"][root] - log["start"][root]
    assert abs(sum(rec.self_time.values()) - duration) <= 1e-9 * max(1.0, duration)
    # every parent is a span that opened before its child and encloses it
    index = {span_id: i for i, span_id in enumerate(log["id"])}
    for i in np.flatnonzero(parent >= 0)[:2000]:
        p = index[log["parent"][i]]
        assert log["start"][p] <= log["start"][i] <= log["end"][i] <= log["end"][p]


def test_no_result_without_sources(tmp_path):
    """Beside BENCHMARK.json and the benchmark alone, run.py exits non-zero
    and prints no result."""
    shutil.copytree(Path(spans.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "picard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
