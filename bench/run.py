"""Benchmark of mildns: per-operation times of Picard solves, threshold
calibration and large-grid norms, or, with --trace 1, per-layer figures.

    python3 bench/run.py --workload picard --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
src/. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A fuller record (every operation
time, the set-up repetitions, the outputs checked) goes to
bench/out/<workload>-seed<seed>-trace<trace>.json, and a traced run also
writes its raw spans to the matching .spans.npz file.
"""
import time

_START = time.perf_counter()  # before the imports that set-up time covers

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3

# per-layer metric -> (what to read from the recorder, span or counter name)
PER_LAYER = {
    "duhamel.bilinear_B_s": ("self", "duhamel.bilinear_B"),
    "duhamel.bilinear_B_calls": ("calls", "duhamel.bilinear_B"),
    "duhamel.bilinear_trajectory_s": ("self", "duhamel.bilinear_trajectory"),
    "duhamel.volterra_nodes_s": ("self", "duhamel.volterra_nodes"),
    "duhamel.bilinear_estimate_report_s": ("self", "duhamel.bilinear_estimate_report"),
    "picard.iterations": ("calls", "picard.iteration"),
    "picard.iteration_s": ("self", "picard.iteration"),
    "picard.abstract_fixed_point_s": ("self", "picard.abstract_fixed_point"),
    "picard.solve_mild_s": ("self", "picard.solve_mild"),
    "picard.smallness_lhs_s": ("self", "picard.smallness_lhs"),
    "picard.calibrate_thresholds_s": ("self", "picard.calibrate_thresholds"),
    "norms.value_at_s": ("self", "norms.value_at"),
    "norms.value_at_calls": ("calls", "norms.value_at"),
    "norms.heat_trajectory_s": ("self", "norms.heat_trajectory"),
    "norms.kato_norm_s": ("self", "norms.kato_norm"),
    "norms.n_norm_s": ("self", "norms.n_norm"),
    "norms.sobolev_norm_s": ("self", "norms.sobolev_norm"),
    "norms.besov_norm_heat_s": ("self", "norms.besov_norm_heat"),
    "norms.lebesgue_norm_s": ("self", "norms.lebesgue_norm"),
    "norms.lebesgue_norm_calls": ("calls", "norms.lebesgue_norm"),
    "lattice.to_spectral_s": ("self", "lattice.to_spectral"),
    "lattice.to_physical_s": ("self", "lattice.to_physical"),
    "lattice.fft_calls": ("counter", "fft_calls"),
    "lattice.fft_points": ("counter", "fft_points"),
    "lattice.field_inits": ("counter", "field_inits"),
    "lattice.realize_datum_s": ("self", "lattice.realize_datum"),
    "multipliers.heat_flow_s": ("self", "multipliers.heat_flow"),
    "multipliers.leray_project_s": ("self", "multipliers.leray_project"),
    "multipliers.divergence_defect_s": ("self", "multipliers.divergence_defect"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("picard", "calibrate", "spectral"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def per_layer(recorder, operations: int) -> dict:
    metrics = {}
    for metric, (kind, key) in PER_LAYER.items():
        if kind == "self":
            value = recorder.self_time.get(key, 0.0)
        elif kind == "calls":
            value = recorder.calls.get(key, 0)
        else:
            value = recorder.counters[key]
        metrics[metric] = {"value": value / operations,
                           "unit": "s" if metric.endswith("_s") else "count"}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mildns" / "__init__.py").is_file():
        print(f"mildns sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Stay on one CPU, so each operation and the reference kernel timed
    # around it run on the same core: cores of a shared host differ in
    # speed, and the speed ratio between them depends on the kind of work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import checks
    import workloads
    from mildns.errors import MildNSError
    from reference import Reference

    import_s = time.perf_counter() - _START
    reference = Reference(workloads.WORKLOADS[args.workload].field_shape)
    setup_refs = [reference.time()]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_refs.append(reference.time())

    recorder = None
    if args.trace:
        import spans

        recorder = spans.install().recorder

    ref_times = setup_refs[-1:]
    op_times, ratios, outputs, failures = [], [], [], []
    attempted = failed = 0
    loop_start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - loop_start < args.seconds:
        checked = []
        for _ in range(workload.round_size):
            inp = workload.input(attempted)
            attempted += 1
            if recorder is not None:
                recorder.active = True
            t0 = time.perf_counter()
            try:
                out = workload.run(inp)
            except MildNSError as exc:
                failed += 1
                failures.append(f"operation {attempted - 1}: {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if recorder is not None:
                    recorder.active = False
                ref_times.append(reference.time())
            op_times.append(elapsed)
            ratios.append(elapsed / (0.5 * (ref_times[-2] + ref_times[-1])))
            try:
                outputs.append(workload.check(inp, out))
                checked.append((inp, out))
            except checks.CheckFailed as exc:
                failed += 1
                failures.append(f"operation {attempted - 1}: {exc}")
        if len(checked) == workload.round_size:
            try:
                workload.check_round(checked)
            except checks.CheckFailed as exc:
                failed += len(checked)
                failures.append(f"round ending at operation {attempted - 1}: {exc}")
    loop_s = time.perf_counter() - loop_start

    correct, run_facts = True, {}
    try:
        run_facts = workload.check_run()
    except checks.CheckFailed as exc:
        correct = False
        failures.append(f"run check: {exc}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    if not op_times:
        print("no operation completed", file=sys.stderr)
        return 1
    # Both times are quoted at the reference kernel's nominal speed: each is
    # divided by the kernel's time measured around it (see reference.py).
    setup_unscaled = import_s + statistics.median(setup_times)
    setup_s = setup_unscaled * reference.nominal_s / statistics.mean(setup_refs)
    op_s = statistics.median(ratios) * reference.nominal_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is None:
        metrics = {
            "op_s": {"value": op_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        metrics = per_layer(recorder, attempted)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures, "op_times": op_times, "ref_times": ref_times, "op_s": op_s,
        "op_s_unscaled": statistics.median(op_times), "loop_s": loop_s,
        "import_s": import_s, "setup_times": setup_times, "setup_refs": setup_refs,
        "setup_s": setup_s, "setup_s_unscaled": setup_unscaled,
        "peak_rss_mb": peak_rss_mb, "outputs": outputs, "run_checks": run_facts,
        "metrics": metrics,
    }
    if recorder is not None:
        record["self_time"] = recorder.self_time
        record["calls"] = recorder.calls
        record["counters"] = recorder.counters
        import numpy as np

        log = recorder.dump()
        np.savez_compressed(OUT / f"{stem}.spans.npz", names=np.array(log.pop("names")),
                            **{key: np.asarray(col) for key, col in log.items()})
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
