"""Is the benchmark steady enough to judge a change by?  Measure it.

    python3 benchmarks/e2e/repeat.py [--runs 10] [--sets 2] [--seed 100] [--trace 1] [--workload W]

Does what the driver does: for every workload, ``--runs`` runs each with
another seed make one *set*; ``--sets`` sets are taken back to back on the
same code.  Per metric and workload it prints each set's median, quartiles
and spread (inter-quartile distance as a share of the median,
``statistics.quantiles(values, n=4)``) and how far the last set's median is
worse than the first's.  End-to-end metrics of the workloads in
``BENCHMARK.json`` are judged against their bounds.  A metric that cannot
meet its bound must not stay a bounded one: it is demoted to the per-layer
table, or its workload is taken off the driver's list (``run.UNLISTED``),
with the spread seen recorded in the README — the bound is never widened.
With ``--trace 1`` the per-layer metrics are repeated instead; they have no
bounds.  The exit code is non-zero if a bounded metric is outside its bound
or an operation of a listed workload failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import UNLISTED, load_spec, run_child, with_units

#: Spreads under this share of the bound leave room for a worse day.
COMFORT = 1 / 3


def spread_of(runs: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and their distance over the median."""
    middle = statistics.median(runs)
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return middle, q1, q3, (q3 - q1) / middle if middle else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=100, help="first seed; each run adds one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--out", type=Path, help="write every run's values as JSON")
    args = parser.parse_args()

    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    listed = [item["name"] for item in spec["workloads"]]
    workloads = args.workload or listed + list(UNLISTED)
    values: dict[str, dict[str, list[list[float]]]] = {
        w: {m["name"]: [[] for _ in range(args.sets)] for m in declared} for w in workloads
    }
    failed = dict.fromkeys(workloads, 0)
    attempted = dict.fromkeys(workloads, 0)
    for index in range(args.sets):
        for run in range(args.runs):
            for workload in workloads:
                seed = args.seed + index * args.runs + run
                result = run_child(
                    workload, seed, float(spec["run_seconds"]), args.trace, False, None
                )
                failed[workload] += result["failed"]
                attempted[workload] += result["attempted"]
                for name, entry in with_units(result, declared).items():
                    values[workload][name][index].append(entry["value"])
                print(f"set {index} run {run} {workload} seed {seed} done", file=sys.stderr)

    outside = 0
    print(
        f"{'workload':14s} {'metric':34s} set {'median':>11s} {'q1':>11s} {'q3':>11s} "
        f"{'spread':>7s} {'bound':>6s}  verdict"
    )
    for workload in workloads:
        for metric in declared:
            name = metric["name"]
            # Only the driver's workloads are held to the end-to-end bounds.
            bound = metric.get("bound") if workload in listed else None
            sets = values[workload][name]
            if not any(value for runs in sets for value in runs):
                continue  # a layer this workload bypasses: 0 on every run
            medians = []
            for index, runs in enumerate(sets):
                middle, q1, q3, spread = spread_of(runs)
                medians.append(middle)
                if bound is None:
                    verdict = "not bounded"
                elif name == "setup_s":
                    verdict = "spread not bounded"
                elif spread > bound:
                    verdict, outside = "OUTSIDE", outside + 1
                else:
                    verdict = "ok" if spread <= bound * COMFORT else "ok (over a third of bound)"
                print(
                    f"{workload:14s} {name:34s} {index:3d} {middle:11.4f} {q1:11.4f} "
                    f"{q3:11.4f} {spread:7.4f} {bound or 0:6.2f}  {verdict}"
                )
            if bound is None or not medians[0]:
                continue
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (medians[-1] - medians[0]) / medians[0]
            verdict = "ok" if worse <= bound else "OUTSIDE"
            outside += verdict == "OUTSIDE"
            print(
                f"{workload:14s} {name:34s} last set's median worse than first's by "
                f"{worse:+.4f} (bound {bound:.2f})  {verdict}"
            )
    for workload in workloads:
        note = "" if workload in listed else f"  (not in BENCHMARK.json: {UNLISTED[workload]})"
        print(
            f"{workload:14s} failed operations over all runs: "
            f"{failed[workload]}/{attempted[workload]}{note}"
        )
    if args.out:
        args.out.write_text(json.dumps(values) + "\n")
    return 1 if outside or any(failed[workload] for workload in listed if workload in failed) else 0


if __name__ == "__main__":
    raise SystemExit(main())
