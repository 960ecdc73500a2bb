"""End-to-end benchmark of the ledger: one command, every metric by name.

    python3 benchmarks/e2e/run.py                      # every workload, untraced
    python3 benchmarks/e2e/run.py --trace 1            # ... plus the per-layer table
    python3 benchmarks/e2e/run.py --workload verify_tcp --seed 7 --seconds 10 --trace 0

Each workload runs in a fresh child process (``child.py``) with ``src/`` on
its ``PYTHONPATH``.  With ``--workload`` the last line of standard output is
the driver's result object: ``correct``, ``attempted``, ``failed`` and the
metrics ``BENCHMARK.json`` lists for that mode (end-to-end with
``--trace 0``, per-layer with ``--trace 1``).  Without it every workload is
run, the ones in ``BENCHMARK.json`` and the ones in :data:`UNLISTED`, and a
summary is printed.  The exit code is 0 only if every operation of every
workload run succeeded: it is 3 if a negative control verified truthy, and
non-zero if an operation failed, a child died, or the printed names differ
from ``BENCHMARK.json``.  The benchmark claims nothing: it only measures.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from harness import calibration_score, host_info

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 2.0

#: Workloads every default run, ``repeat.py`` and the self-check include but
#: the driver does not: its contract admits only workloads on which no
#: operation fails and whose numbers stay inside their bounds between runs.
UNLISTED = {
    "lineage_tcp": "op_p50_ms (ms per clue verify) spreads 0.5-1.6 between seeds: the clue mix",
    "mixed_tcp": "loses acknowledged appends at seed (FileStream offset race): red until fixed",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool, spans) -> dict:
    """Run one workload in a fresh interpreter; its last stdout line is the result."""
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
        "--work-root",
        str(HERE / ".work"),
        "--spawned-at",
        repr(time.monotonic()),
    ]
    if smoke:
        command.append("--smoke")
    if spans:
        command += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise SystemExit(f"{workload}: no result within {CHILD_TIMEOUT_S}s, child killed")
    if child.returncode != 0:
        print(f"{workload}: child exited with code {child.returncode}", file=sys.stderr)
        raise SystemExit(child.returncode)
    return json.loads(stdout.strip().splitlines()[-1])


def with_units(result: dict, declared: list[dict]) -> dict:
    """Attach units; refuse a metric set that is not exactly the declared one."""
    names = [item["name"] for item in declared]
    if set(result["metrics"]) != set(names):
        missing = sorted(set(names) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(names))
        raise SystemExit(
            f"metric names differ from BENCHMARK.json: missing {missing}, undeclared {extra}"
        )
    return {
        item["name"]: {"value": result["metrics"][item["name"]], "unit": item["unit"]}
        for item in declared
    }


def show(result: dict, metrics: dict, trace: int) -> None:
    verdict = "ok" if result["correct"] else "INCORRECT"
    print(
        f"== {result['workload']} ({'per-layer, traced' if trace else 'end-to-end, untraced'}) "
        f"{verdict}: failed {result['failed']}/{result['attempted']}"
    )
    if result["workload"] in UNLISTED:
        print(f"   not in BENCHMARK.json: {UNLISTED[result['workload']]}")
    print(f"   request = {result['op']}")
    counts = {key: value for key, value in result["detail"].items() if key != "span_calls"}
    print(f"   samples: {' '.join(f'{key}={value}' for key, value in counts.items())}")
    for cause, count in sorted(result["causes"].items()):
        print(f"   failed  {count:6d}  {cause}")
    for cause, count in sorted(result["retried"].items()):
        print(f"   retried {count:6d}  {cause}")
    for name, entry in metrics.items():
        if trace and entry["value"] == 0:
            continue  # a bypassed layer; the JSON line still carries the 0
        print(f"   {name:38s} {entry['value']:14.4f} {entry['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload and end with the driver's JSON line")
    parser.add_argument("--seed", type=int, default=0, help="seeds the input generator only")
    parser.add_argument("--seconds", type=float, help="timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="2 s windows, small fixtures")
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    parser.add_argument("--record", action="store_true", help="append the summary to history.jsonl")
    parser.add_argument("--spans", type=Path, help="with --workload --trace 1: dump raw spans")
    args = parser.parse_args()

    spec = load_spec()
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else float(spec["run_seconds"]))
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}

    if args.workload:
        result = run_child(args.workload, args.seed, seconds, args.trace, args.smoke, args.spans)
        metrics = with_units(result, declared[args.trace])
        show(result, metrics, args.trace)
        line = {key: result[key] for key in ("correct", "attempted", "failed")}
        print(json.dumps({**line, "metrics": metrics}))
        return 0 if result["correct"] else 1

    summary: dict = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke, "workloads": {}}
    incorrect = []
    for name in [item["name"] for item in spec["workloads"]] + list(UNLISTED):
        entry = summary["workloads"][name] = {}
        for trace in (0, 1) if args.trace else (0,):
            result = run_child(name, args.seed, seconds, trace, args.smoke, None)
            metrics = with_units(result, declared[trace])
            show(result, metrics, trace)
            if not result["correct"]:
                incorrect.append(name)
            entry["per_layer" if trace else "end_to_end"] = {
                **{key: result[key] for key in ("correct", "attempted", "failed", "causes")},
                "retried": result["retried"],
                "metrics": metrics,
                "detail": result["detail"],
                "facts": result["facts"],
            }
    summary["host"] = {**host_info(ROOT), "calib_score": calibration_score()}
    summary["incorrect"] = sorted(set(incorrect))
    summary["claim"] = None
    text = json.dumps(summary)
    if args.out:
        args.out.write_text(text + "\n")
    if args.record:
        with open(HERE / "history.jsonl", "a") as history:
            history.write(text + "\n")
    tail = {key: summary[key] for key in ("host", "incorrect", "claim")}
    print(json.dumps(tail))
    return 1 if incorrect else 0


if __name__ == "__main__":
    raise SystemExit(main())
