"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts this file once per workload, so every workload gets a
fresh interpreter (cold caches, its own ``ru_maxrss``).  Needs ``repro`` on
``PYTHONPATH``; ``run.py`` sets it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import gen
import layers
from harness import FalsePass, GcTimer, Window, calibration_score
from trace import Tracer
from workloads import WORKLOADS, Workload

WARMUP_S = 2.0
SMOKE_WARMUP_S = 0.5


def timed_window(workload: Workload, seconds: float) -> tuple[Window, float, float]:
    """One window plus the wall and process-CPU seconds it took."""
    wall, cpu = time.perf_counter(), time.process_time()
    window = workload.run_window(seconds)
    return window, time.perf_counter() - wall, time.process_time() - cpu


def run(args: argparse.Namespace, work_dir: Path) -> dict:
    gen.check_golden()
    workload = WORKLOADS[args.workload](args.seed, work_dir, args.smoke)
    calib_score = calibration_score() if args.trace else 0.0

    workload.setup()
    # From the parent's spawn to ready: interpreter start, imports, fixture
    # build, deployment, connections, anchor sync.  The fixed-length warm-up
    # that follows is constant by construction and left out.
    setup_s = time.monotonic() - args.spawned_at
    workload.run_window(SMOKE_WARMUP_S if args.smoke else WARMUP_S)

    if args.trace:
        ping_rtt_us = workload.ping_rtt_us()
        reference = workload.run_window(args.seconds / 2)
        before = workload.counters()
        tracer = Tracer()
        with GcTimer() as gc_timer:
            tracer.install()
            traced = Window()
            try:
                traced, wall_s, cpu_s = timed_window(workload, args.seconds / 2)
            finally:
                trace = tracer.uninstall(traced.generator_cpu_s)
        after = workload.counters()
        proof_bytes = workload.proof_bytes_per_verify()
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.raw_spans()))
    else:
        window = workload.run_window(args.seconds)
    workload.finish()

    if args.trace:
        metrics = layers.per_layer(
            workload,
            reference,
            traced,
            trace,
            before,
            after,
            traced_wall_s=wall_s,
            traced_process_cpu_s=cpu_s,
            gc_s=gc_timer.seconds,
            ping_rtt_us=ping_rtt_us,
            calib_score=calib_score,
            proof_bytes=proof_bytes,
        )
        detail = {
            "spans": trace.spans,
            "journals_traced": traced.ops,
            "journals_reference": reference.ops,
            "requests_reference": len(reference.latencies_s),
            "span_calls": {name: item.calls for name, item in sorted(trace.totals.items())},
        }
    else:
        metrics = layers.end_to_end(workload, window, setup_s)
        detail = {
            "requests": len(window.latencies_s),
            "journals": window.ops,
            "slices": len(window.slices),
            "whole_window_tput": round(window.tput, 3),
        }
    tally = workload.tally
    return {
        "workload": workload.name,
        "op": workload.op,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "causes": dict(tally.causes),
        "retried": dict(tally.retried),
        "metrics": metrics,
        "detail": detail,
        "facts": workload.facts,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--work-root", type=Path, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument(
        "--spawned-at", type=float, required=True, help="parent's time.monotonic() at spawn"
    )
    args = parser.parse_args()

    args.work_root.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work_root))
    try:
        result = run(args, work_dir)
    except FalsePass as exc:
        print(f"FALSE PASS, run aborted: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
