"""Crash-recovery benchmark: open-scan, replay, and torn-tail rollback.

Standalone script; prints a JSON report (and writes it to ``--out`` when
given) plus a one-line summary on stderr::

    PYTHONPATH=src python benchmarks/bench_crash_recovery.py [--quick] [--out FILE]

Three sections:

* ``open_scan`` — cold-open cost of a populated ``FileStream``: every
  record's header and payload CRC32C is verified and the offset index is
  rebuilt, so this is the integrity-checking read bandwidth of the log
  (records/sec and MB/s).
* ``recover`` — ``Ledger.recover`` replay rate on top of that scan:
  journals/sec to rebuild fam, CM-Tree, and the clue index from the raw
  journal stream, plus per-journal verification cost.
* ``torn_tail`` — time to open a stream whose final record was cut mid-
  payload (the crash case): the scan must classify the tear, truncate it,
  and leave a clean file.  Reported alongside the clean-open time so the
  rollback overhead is visible.

Recovery is a cold path that no workload of the end-to-end benchmark
(``BENCHMARK.json``) runs, so nothing here is gated: CI's crash-safety job
uploads the ``--quick`` report as an artifact for trend-watching.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import ClientRequest, Ledger, LedgerConfig  # noqa: E402
from repro.core.members import MemberRegistry  # noqa: E402
from repro.crypto import KeyPair, Role  # noqa: E402
from repro.storage.stream import FileStream  # noqa: E402
from repro.timeauth import SimClock  # noqa: E402

URI = "ledger://bench-crash-recovery"
CONFIG = LedgerConfig(uri=URI, fractal_height=10, block_size=64)
LSP = KeyPair.generate(seed="bench:lsp")
CLIENTS = ("alice", "bob", "carol")
CLUES = ("buyer:77", "seller:12", "commodity:9")
KEYS = {name: KeyPair.generate(seed=f"bench:{name}") for name in CLIENTS}


def _registry() -> MemberRegistry:
    registry = MemberRegistry()
    for name, keypair in KEYS.items():
        registry.register(name, Role.USER, keypair.public)
    return registry


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _populate(directory: str, journals: int) -> Path:
    """Build a durable file-backed ledger with `journals` batched appends."""
    path = Path(directory) / "journal.log"
    stream = FileStream(path, durable=True)
    ledger = Ledger(
        CONFIG,
        clock=SimClock(),
        registry=_registry(),
        lsp_keypair=LSP,
        journal_stream=stream,
    )
    requests = []
    for i in range(journals):
        client = CLIENTS[i % len(CLIENTS)]
        requests.append(
            ClientRequest.build(
                URI,
                client,
                payload=f"tx-{i}".encode() * 4,
                clues=CLUES,
                nonce=i.to_bytes(8, "big"),
                client_timestamp=1.0,
            ).signed_by(KEYS[client])
        )
    for start in range(0, journals, 64):
        ledger.append_batch(requests[start : start + 64])
    stream.close()
    return path


def bench_open_scan(path: Path) -> dict:
    file_bytes = os.path.getsize(path)
    with FileStream(path) as stream:
        records = len(stream)  # appended journals + the genesis record

    def open_close():
        FileStream(path).close()

    elapsed = _best_of(open_close)
    return {
        "records": records,
        "file_bytes": file_bytes,
        "open_ms": elapsed * 1e3,
        "records_per_sec": records / elapsed,
        "scan_mb_per_sec": file_bytes / elapsed / 1e6,
    }


def bench_recover(path: Path, journals: int) -> dict:
    def recover():
        stream = FileStream(path)
        try:
            Ledger.recover(CONFIG, stream, _registry(), LSP, clock=SimClock())
        finally:
            stream.close()

    elapsed = _best_of(recover)

    def verify_all():
        stream = FileStream(path)
        try:
            ledger = Ledger.recover(CONFIG, stream, _registry(), LSP, clock=SimClock())
            for jsn in range(ledger.size):
                if not ledger.verify_journal(ledger.get_journal(jsn)):
                    raise RuntimeError(f"journal {jsn} failed verification")
        finally:
            stream.close()

    verify_elapsed = _best_of(verify_all, repeats=1)
    return {
        "journals": journals,
        "recover_ms": elapsed * 1e3,
        "journals_per_sec": journals / elapsed,
        "recover_and_verify_ms": verify_elapsed * 1e3,
        "verify_us_per_journal": (verify_elapsed - elapsed) / journals * 1e6,
    }


def bench_torn_tail(path: Path, clean_open_ms: float) -> dict:
    intact = path.read_bytes()
    timings = []
    try:
        for cut in (3, 9, 30):  # mid-payload tears of varying depth
            path.write_bytes(intact[:-cut])
            start = time.perf_counter()
            stream = FileStream(path)
            elapsed = time.perf_counter() - start
            report = stream.open_report
            stream.close()
            if report.clean or report.truncated_bytes == 0:
                raise RuntimeError("torn tail was not detected")  # bench is lying
            timings.append(elapsed)
    finally:
        path.write_bytes(intact)
    rollback_ms = min(timings) * 1e3
    return {
        "tears_exercised": len(timings),
        "rollback_open_ms": rollback_ms,
        "clean_open_ms": clean_open_ms,
        "rollback_overhead_ms": rollback_ms - clean_open_ms,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smoke-test scale (CI-friendly)"
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="also write the JSON report here"
    )
    args = parser.parse_args(argv)

    journals = 64 if args.quick else 512
    with tempfile.TemporaryDirectory() as tmp:
        path = _populate(tmp, journals)
        open_report = bench_open_scan(path)
        recover_report = bench_recover(path, journals)
        torn_report = bench_torn_tail(path, open_report["open_ms"])

    report = {
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "quick": args.quick,
        },
        "open_scan": open_report,
        "recover": recover_report,
        "torn_tail": torn_report,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    json.dump(report, sys.stdout, indent=2)
    print()
    print(
        f"\nopen scan {open_report['scan_mb_per_sec']:.1f} MB/s, "
        f"recover {recover_report['journals_per_sec']:.0f} journals/s, "
        f"torn-tail rollback +{torn_report['rollback_overhead_ms']:.2f} ms",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
