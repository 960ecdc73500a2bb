"""Measurement plumbing shared by the workloads: tallies, windows, host facts."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import threading
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

#: An op that fails this many attempts in a row is a failed op; retries sit
#: inside the op's latency.
MAX_ATTEMPTS = 3


class FalsePass(Exception):
    """A negative control verified truthy — the run is worthless, abort it."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 for an empty one)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class Tally:
    """What one generator thread attempted and what went wrong."""

    attempted: int = 0
    failed: int = 0
    attempts: int = 0
    #: Why ops failed, and why single attempts of (possibly rescued) ops did.
    causes: Counter = field(default_factory=Counter)
    retried: Counter = field(default_factory=Counter)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.attempts += other.attempts
        self.causes.update(other.causes)
        self.retried.update(other.retried)

    def fail(self, cause: str) -> None:
        self.failed += 1
        self.causes[cause] += 1


#: A window is cut into slices this long; see :func:`better_quartile`.
SLICE_S = 1.0


@dataclass
class Slice:
    """One stretch of a window: what completed in it and what it cost."""

    seconds: float
    #: Journals covered; a request that ran across slices is shared out by overlap.
    journals: float = 0.0
    #: Latencies of the requests that finished in this slice.
    latencies_s: list[float] = field(default_factory=list)
    cpu_s: float = 0.0


@dataclass
class Window:
    """One timed stretch of a workload's traffic."""

    elapsed_s: float = 0.0
    #: Journals taken through a verified request inside the window: the unit
    #: throughput, CPU per op and every ``*_us_per_op`` are counted in.  An
    #: append or a TX verify covers one journal, a clue verify its whole
    #: lineage, an auditor round the whole ledger.
    ops: int = 0
    #: Seconds per completed request (the workload's docstring says from when).
    latencies_s: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    #: The same window in consecutive slices; the end-to-end figures are
    #: quartiles over these, the layer table uses the window whole.
    slices: list[Slice] = field(default_factory=list)
    #: CPU seconds of the generator threads, which live and die inside the
    #: window and so escape the tracer's per-thread clock reads.
    generator_cpu_s: float = 0.0
    #: Attempts minus ops, over ops that retry (verify paths only).
    retries: int = 0
    retry_ops: int = 0
    #: Named secondary samples (stage times, lateness, second request type).
    samples: dict[str, list[float]] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def tput(self) -> float:
        return self.ops / self.elapsed_s if self.elapsed_s > 0 else 0.0


#: One completed request: (finished at, latency, journals covered), seconds of perf_counter.
Request = tuple[float, float, int]


class CpuMarks:
    """Reads the clock and the process CPU once per slice, on a thread of its own."""

    def __enter__(self) -> "CpuMarks":
        self.marks = [(time.perf_counter(), process_cpu_s())]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="e2e-marks")
        self._thread.start()
        return self

    def _run(self) -> None:
        due = self.marks[0][0]
        while True:
            due += SLICE_S
            if self._stop.wait(max(0.0, due - time.perf_counter())):
                return
            self.marks.append((time.perf_counter(), process_cpu_s()))

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()


def cut(marks: list[tuple[float, float]], requests: list[Request]) -> list[Slice]:
    """Slices between consecutive marks; what ran past the last mark is left out."""
    edges = [at for at, _cpu in marks]
    slices = [
        Slice(seconds=end[0] - start[0], cpu_s=end[1] - start[1])
        for start, end in zip(marks, marks[1:])
    ]
    for finished, latency, journals in requests:
        last = bisect_right(edges, finished) - 1
        if last < len(slices):
            slices[last].latencies_s.append(latency)
        first = max(0, bisect_right(edges, finished - latency) - 1)
        for index in range(first, min(last, len(slices) - 1) + 1):
            overlap = min(finished, edges[index + 1]) - max(finished - latency, edges[index])
            slices[index].journals += journals * overlap / latency if latency > 0 else journals
    return slices


def window_of(
    marks: list[tuple[float, float]], requests: list[Request], generator_cpu_s: float
) -> Window:
    """The window between the first mark and now, whole and in slices."""
    return Window(
        elapsed_s=time.perf_counter() - marks[0][0],
        ops=sum(journals for _finished, _latency, journals in requests),
        latencies_s=[latency for _finished, latency, _journals in requests],
        cpu_s=process_cpu_s() - marks[0][1],
        slices=cut(marks, requests),
        generator_cpu_s=generator_cpu_s,
    )


def better_quartile(values: list[float], better: str) -> float:
    """The quartile on the good side of a sample of slices (0 for an empty one).

    A slice in which the host was busy elsewhere reads slow, never fast, so a
    window's whole-length average moves with the host while the better
    quartile of its slices holds still (README, steadiness).
    """
    ordered = sorted(values, reverse=better == "lower")
    return ordered[min(len(ordered) - 1, int(0.75 * len(ordered)))] if ordered else 0.0


def process_cpu_s() -> float:
    """CPU seconds of this process and of every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class GcTimer:
    """Wall seconds the collector ran, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started = 0.0

    def _callback(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started

    def __enter__(self) -> "GcTimer":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self._callback)


def calibration_score(seconds: float = 0.15) -> float:
    """Thousand rounds per second of a fixed pure-Python + hashing + big-int loop.

    The loop has the interpreter-heavy instruction mix of the ledger's hot
    paths (dict and list traffic, small objects, bytes joins, SHA-256, 256-bit
    modular arithmetic) and touches nothing of the program, so it measures
    how fast *this host* is running Python right now.
    """
    modulus = (1 << 256) - 189
    value = 0x1234567
    block = b"\x5a" * 64
    table: dict[int, tuple[int, bytes]] = {}
    rounds = 0
    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        for _ in range(200):
            block = hashlib.sha256(block + block).digest() * 2
            value = (value * value + 3) % modulus
            key = value & 0x3FF
            table[key] = (value, block[:8])
            parts = [table.get((key + step) & 0x3FF, (0, b""))[1] for step in range(4)]
            value ^= len(b"".join(parts))
        rounds += 200
    return rounds / (time.perf_counter() - started) / 1000.0


def host_info(root: os.PathLike | str) -> dict:
    """The host block written into every output."""
    head = os.path.join(root, ".git", "HEAD")
    commit = "unknown"
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                commit = handle.read().strip()
        else:
            commit = ref
    except OSError:
        pass  # an exported checkout has no .git; the numbers still stand
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }
