"""Summaries of bench/out/*.json run records, printed as markdown tables.

    python3 bench/report.py sets A=1-10 B=11-20
        median and quartiles of every end-to-end metric per workload for
        each named set of seeds, the spread (q3 - q1) / median, and the
        shift of each later set's median against the first set's.
    python3 bench/report.py noise 1-10
        for the untraced runs of the given seeds, the spread across runs,
        (q3 - q1) / median and max / min, of candidate op_s statistics: the
        min, 10%, 25% and 50% quantile of the raw operation times and of the
        operation times divided by the reference kernel's time.
    python3 bench/report.py trace 1-3
        for the traced runs of the given seeds, each layer's self time as a
        share of the traced operation time, the share the layers cover, and
        the tracing overhead against the untraced runs of the same seeds.
"""
import json
import statistics
import sys
from pathlib import Path

import numpy as np

OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("picard", "calibrate", "spectral")
END_TO_END = ("op_s", "setup_s", "peak_rss_mb")


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(workload: str, seed_list, trace: int) -> list:
    records = []
    for seed in seed_list:
        path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
        if path.exists():
            records.append(json.loads(path.read_text()))
    return records


def quartiles(values) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report_sets(specs) -> None:
    named = [(name, seeds(spec)) for name, _, spec in (s.partition("=") for s in specs)]
    print("| workload | metric | set | runs | median | q1 | q3 | spread | shift |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in WORKLOADS:
        for metric in END_TO_END:
            first = None
            for name, seed_list in named:
                records = load(workload, seed_list, 0)
                if len(records) < 2:
                    continue
                values = [r["metrics"][metric]["value"] for r in records]
                q1, med, q3 = quartiles(values)
                first = med if first is None else first
                bad = sum(r["failed"] for r in records), all(r["correct"] for r in records)
                shift = f"{med / first - 1:+.2%}"
                print(f"| {workload} | {metric} | {name} | {len(records)} | {med:.4g} | "
                      f"{q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.2%} | {shift} |"
                      + ("" if bad == (0, True) else f" failed {bad[0]}, correct {bad[1]}"))


def report_noise(spec: str) -> None:
    """Spread across runs of candidate op_s statistics: quantiles of the
    raw operation times, and of the operation times divided by the
    reference kernel's time around each operation."""
    stats = {"min": 0.0, "p10": 0.10, "p25": 0.25, "p50": 0.50}
    print("| workload | runs | ops/run | times | " + " | ".join(stats) + " |")
    print("|---|---|---|---|" + "---|" * len(stats))
    for workload in WORKLOADS:
        records = [r for r in load(workload, seeds(spec), 0) if not r["failed"]]
        if len(records) < 4:
            continue
        raw = [np.array(r["op_times"]) for r in records]
        ref = [np.array(r["ref_times"]) for r in records]
        ratio = [t / (0.5 * (f[:-1] + f[1:])) for t, f in zip(raw, ref)]
        ops = statistics.median(len(t) for t in raw)
        for label, series in (("raw", raw), ("/ reference", ratio)):
            cells = []
            for q in stats.values():
                values = [float(np.quantile(t, q)) for t in series]
                q1, med, q3 = quartiles(values)
                cells.append(f"{(q3 - q1) / med:.1%} ({max(values) / min(values):.2f}x)")
            print(f"| {workload} | {len(records)} | {ops:g} | {label} | " + " | ".join(cells) + " |")


def report_trace(spec: str) -> None:
    for workload in WORKLOADS:
        traced = load(workload, seeds(spec), 1)
        if not traced:
            continue
        plain = load(workload, seeds(spec), 0)
        op_time = sum(sum(r["op_times"]) for r in traced)
        self_time = {}
        for r in traced:
            for name, value in r["self_time"].items():
                self_time[name] = self_time.get(name, 0.0) + value
        covered = sum(self_time.values()) / op_time
        traced_op = statistics.median(r["op_s"] for r in traced)
        line = f"{workload}: layer self times cover {covered:.1%} of the traced operation time"
        if plain:
            untraced_op = statistics.median(r["op_s"] for r in plain)
            line += (f"; traced op_s {traced_op:.4g} s vs untraced {untraced_op:.4g} s "
                     f"(overhead {traced_op / untraced_op - 1:+.1%}, {len(traced)} and "
                     f"{len(plain)} runs)")
        print(line)
        top = sorted(self_time.items(), key=lambda kv: -kv[1])
        print("  " + ", ".join(f"{name} {value / op_time:.1%}" for name, value in top
                               if value / op_time >= 0.005))


def main(argv) -> int:
    if len(argv) < 2 or argv[0] not in ("sets", "noise", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    command, args = argv[0], argv[1:]
    if command == "sets":
        report_sets(args)
    elif command == "noise":
        report_noise(args[0])
    else:
        report_trace(args[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
