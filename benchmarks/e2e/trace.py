"""Per-layer tracing taken from outside the program.

The benchmark may not edit ``src/``, so spans are recorded by wrapping each
layer's entry points from here (:data:`BOUNDARIES`): a span is name, thread,
start, end, parent, thread-CPU and the work units the call carried.  Spans
stay in per-thread lists until :meth:`Tracer.uninstall`; nothing is written
or aggregated while the workload runs.

* A layer's **self** time is its span minus the spans it directly encloses
  on the same thread.  All ``*_us_per_op`` figures are self **CPU**
  (``time.thread_time``), which other threads holding the GIL cannot
  inflate.
* ``async def`` boundaries are driven step by step, so only the slices in
  which the coroutine actually runs are charged, not the awaits between.
* What no span covers is still accounted: each thread's CPU clock is read
  at install and uninstall (``pthread_getcpuclockid``), the generator
  threads, which start and end in between, hand in their own, and the
  residual per thread group (client loop, server loop and pool, writer loop,
  generator) is reported beside the coverage figure, so a gap names its
  thread.

The wrappers are installed only for the traced window and removed after it;
an untraced run never executes a line of this file.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

_perf = time.perf_counter
_cpu = time.thread_time


def _one(_args: tuple, _result: Any) -> float:
    return 1.0


def _len_arg(index: int) -> Callable[[tuple, Any], float]:
    return lambda args, _result: float(len(args[index]))


def _len_result(_args: tuple, result: Any) -> float:
    return float(len(result))


def _bytes_of_records(args: tuple, _result: Any) -> float:
    return float(sum(len(record) for record in args[1]))


def _path_nodes(args: tuple, _result: Any) -> float:
    proof = args[0]
    return float(len(proof.path) + len(proof.peaks_left) + len(proof.peaks_right))


def _queue_waits(args: tuple, started: float) -> list[float]:
    """Seconds each request of a commit batch sat queued before the commit began."""
    return [started - pending.enqueued_at for pending in args[1]]


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point: ``module:attr`` recorded under ``span``.

    ``units`` turns a call's ``(args, result)`` into the amount of work it
    carried (signatures, bytes, journals); it defaults to one per call.
    Calls nested inside a span of the same name on the same thread are not
    recorded again, so a public method that delegates to another wrapped
    method of its layer counts once.
    """

    module: str
    attr: str
    span: str
    units: Callable[[tuple, Any], float] = _one
    #: Optional ``(args, span start) -> samples`` kept per span name.
    observe: Callable[[tuple, float], list[float]] | None = None


def _b(module: str, attr: str, span: str, units: Callable = _one, observe=None) -> Boundary:
    return Boundary(f"repro.{module}", attr, span, units, observe)


#: The wrapped boundaries, one block per package under ``src/repro/``.
BOUNDARIES: tuple[Boundary, ...] = (
    # crypto: units = signatures
    _b("crypto.ecdsa", "sign_digest", "crypto.sign"),
    _b("crypto.ecdsa", "sign_digests", "crypto.sign", _len_arg(1)),
    _b("crypto.ecdsa", "verify_digest", "crypto.verify"),
    _b("crypto.ecdsa", "verify_digests", "crypto.verify", _len_arg(0)),
    # encoding: top-level calls only (nested ones fold into the outer span); units = bytes
    _b("encoding", "encode", "encoding.encode", _len_result),
    _b("encoding", "decode", "encoding.decode", _len_arg(0)),
    # net: units = frame bytes / calls
    _b("net.protocol", "encode_frame", "net.frame_out", _len_result),
    _b("net.protocol", "decode_message", "net.frame_in", _len_arg(0)),
    _b("net.protocol", "FrameDecoder.feed", "net.frame_in", _len_arg(1)),
    _b("net.protocol", "read_frame", "net.read_frame"),
    _b("net.server", "LedgerServer._dispatch", "net.server.dispatch"),
    _b("net.client", "AsyncRemoteLedger._call", "net.client.rpc"),
    _b("net.client", "AsyncRemoteLedger.append", "net.client.rpc"),
    _b("net.client", "AsyncRemoteLedger.append_batch", "net.client.rpc"),
    _b("net.client", "_ReceiptChecker._drain", "net.client.check_receipts"),
    *(
        _b("net.client", f"RemoteLedgerClient.{method}", "net.client.call")
        for method in (
            "submit",
            "append",
            "append_batch",
            "get_journal",
            "list_tx",
            "get_proof",
            "get_proofs",
            "prove_clue",
            "sync_anchors",
            "verify_journal",
            "verify_clue",
            "ping",
            "get_sth",
            "stats",
            "export",
        )
    ),
    # service: units = requests
    _b("service.group_commit", "LedgerService.submit", "service.submit"),
    _b("service.group_commit", "LedgerService.submit_many", "service.submit", _len_arg(1)),
    _b("service.group_commit", "LedgerService._next_batch", "service.wait_batch"),
    _b(
        "service.group_commit",
        "LedgerService._commit",
        "service.commit",
        _len_arg(1),
        observe=_queue_waits,
    ),
    # core
    _b("core.ledger", "Ledger.admit", "core.admit"),
    _b("core.ledger", "Ledger._admit_batch", "core.admit", _len_arg(1)),
    _b("core.ledger", "Ledger.append", "core.append"),
    _b("core.ledger", "Ledger.append_batch", "core.append", _len_arg(1)),
    _b("core.ledger", "Ledger._commit_batch", "core.commit", _len_arg(1)),
    _b("core.ledger", "Ledger._commit", "core.commit"),
    _b("core.ledger", "Ledger.get_journal", "core.get_journal"),
    _b("core.ledger", "Ledger.list_tx", "core.get_journal"),
    _b("core.ledger", "Ledger.get_proof", "core.get_proof"),
    _b("core.ledger", "Ledger.get_proofs", "core.get_proof", _len_arg(1)),
    _b("core.ledger", "Ledger.prove_clue", "core.get_proof"),
    _b("core.ledger", "Ledger.export_view", "core.export_view"),
    _b("core.ledger", "Ledger.checkpoint", "core.checkpoint"),
    _b("core.ledger", "Ledger.open", "core.open"),
    # merkle: units = leaves / proofs / path nodes
    _b("merkle.fam", "FamAccumulator.append", "merkle.fam_append"),
    _b("merkle.fam", "FamAccumulator.append_many", "merkle.fam_append", _len_arg(1)),
    _b("merkle.fam", "FamAccumulator.get_proof", "merkle.proof_gen"),
    _b("merkle.fam", "FamAccumulator.get_proofs", "merkle.proof_gen", _len_arg(1)),
    _b("merkle.cmtree", "CMTree.prove_clue", "merkle.proof_gen"),
    _b("merkle.cmtree", "CMTree.add", "merkle.cmtree_update"),
    _b("merkle.cmtree", "CMTree.add_many", "merkle.cmtree_update", _len_arg(2)),
    _b("merkle.fam", "FamAccumulator.fold_full", "merkle.proof_fold"),
    _b("merkle.proofs", "MembershipProof.computed_root", "merkle.proof_fold", _path_nodes),
    _b("merkle.consistency", "ConsistencyProof.verify", "merkle.proof_fold"),
    _b("merkle.cmtree", "ClueProof.verify", "merkle.proof_fold", _len_arg(1)),
    # storage: units = payload bytes / fsyncs / reads
    _b("storage.stream", "FileStream.append_many", "storage.stream_write", _bytes_of_records),
    _b("storage.stream", "FileStream._flush", "storage.fsync"),
    _b("storage.stream", "FileStream.read", "storage.stream_read"),
    _b("storage.pagestore", "PagedNodeStore.get", "storage.page_get"),
    _b("storage.pagestore", "PagedNodeStore.flush", "storage.page_flush"),
    # timeauth / transparency (both entered through the ledger)
    _b("core.ledger", "Ledger.anchor_time", "timeauth.anchor"),
    _b("core.ledger", "Ledger.get_sth", "transparency.sth"),
    # audit / export: units = journals
    _b("audit.engine", "dasein_audit", "audit.run"),
    _b("export.bundle", "export_bundle", "export.build"),
    _b("export.bundle", "ExportBundle.to_bytes", "export.encode", _len_result),
    _b("export.bundle", "ExportBundle.from_bytes", "export.decode", _len_arg(1)),
    _b("export.verifier", "verify_bundle", "export.verify"),
)

#: Thread-name prefix -> the group its uncovered CPU is reported under.
THREAD_GROUPS = (
    ("ledger-client", "client_loop"),
    ("ledger-server", "server_loop"),
    ("ledger-net", "server_pool"),
    ("ledger-service", "writer_loop"),
    ("e2e-gen", "generator"),
    ("MainThread", "generator"),
)


def thread_group(name: str) -> str:
    for prefix, group in THREAD_GROUPS:
        if name.startswith(prefix):
            return group
    return "other"


class _ThreadState:
    __slots__ = ("name", "stack", "spans", "active", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: list[list] = []  # frames: [span, child_wall, child_cpu]
        self.spans: list[tuple] = []
        self.active: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)


@dataclass
class Totals:
    """What one span name added up to over the traced window."""

    calls: int = 0
    units: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    self_cpu_s: float = 0.0
    by_group: dict[str, float] = field(default_factory=lambda: defaultdict(float))


@dataclass
class TraceResult:
    totals: dict[str, Totals]
    #: thread group -> (cpu seconds of its threads, cpu seconds under root spans)
    groups: dict[str, tuple[float, float]]
    samples: dict[str, list[float]]
    spans: int

    def self_cpu(self, *prefixes: str, group: str | None = None) -> float:
        """Self CPU seconds of every span whose name starts with a prefix."""
        total = 0.0
        for name, item in self.totals.items():
            if name.startswith(prefixes):
                total += item.self_cpu_s if group is None else item.by_group.get(group, 0.0)
        return total

    def get(self, name: str) -> Totals:
        return self.totals.get(name, Totals())

    def residual_cpu(self, *groups: str) -> float:
        """CPU the threads of these groups spent outside every span."""
        return sum(
            max(0.0, self.groups[g][0] - self.groups[g][1]) for g in groups if g in self.groups
        )


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []
        self._thread_cpu_start: dict[int, float] = {}

    # ------------------------------------------------------------ recording

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(threading.current_thread().name)
            with self._states_lock:
                self._states.append(state)
        return state

    def _finish(self, state: _ThreadState, frame: list, t0, t1, wall, cpu, units) -> None:
        stack = state.stack
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += wall
            stack[-1][2] += cpu
        self_wall, self_cpu = wall - frame[1], cpu - frame[2]
        state.spans.append(
            (frame[0], state.name, parent, t0, t1, wall, cpu, self_wall, self_cpu, units)
        )

    def _wrap_sync(self, boundary: Boundary, fn: Callable) -> Callable:
        span, units, observe = boundary.span, boundary.units, boundary.observe

        def wrapper(*args, **kwargs):
            state = self._state()
            if state.active[span]:
                return fn(*args, **kwargs)
            state.active[span] += 1
            frame = [span, 0.0, 0.0]
            state.stack.append(frame)
            amount = 0.0
            t0 = _perf()
            c0 = _cpu()
            try:
                result = fn(*args, **kwargs)
                try:
                    amount = units(args, result)
                except (IndexError, TypeError):
                    amount = 1.0  # called with keywords: count the call, not its size
                return result
            finally:
                c1 = _cpu()
                t1 = _perf()
                state.stack.pop()
                state.active[span] -= 1
                self._finish(state, frame, t0, t1, t1 - t0, c1 - c0, amount)
                if observe is not None:
                    state.samples[span].extend(observe(args, t0))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _wrap_async(self, span: str, fn: Callable) -> Callable:
        tracer = self

        class Stepper:
            """Drives the wrapped coroutine, charging only its running slices."""

            def __init__(self, coro) -> None:
                self.coro = coro

            def __await__(self):
                coro = self.coro
                frame = [span, 0.0, 0.0]
                busy_wall = busy_cpu = 0.0
                first = last = None
                value: Any = None
                error: BaseException | None = None
                while True:
                    state = tracer._state()
                    state.stack.append(frame)
                    t0 = _perf()
                    c0 = _cpu()
                    first = t0 if first is None else first
                    finished = True
                    try:
                        if error is not None:
                            yielded = coro.throw(error)
                        else:
                            yielded = coro.send(value)
                        finished = False
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        c1 = _cpu()
                        last = _perf()
                        busy_wall += last - t0
                        busy_cpu += c1 - c0
                        state.stack.pop()
                        if finished:
                            tracer._finish(state, frame, first, last, busy_wall, busy_cpu, 1.0)
                    try:
                        value, error = (yield yielded), None
                    except GeneratorExit:
                        coro.close()
                        raise
                    except BaseException as exc:
                        value, error = None, exc

        async def wrapper(*args, **kwargs):
            return await Stepper(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    # ----------------------------------------------------------- patching

    def _patch_function(self, original, wrapped) -> None:
        """Rebind every module global that is this function.

        ``from x import f`` copies the reference, so patching ``x.f`` alone
        would miss every importer — the program's and the benchmark's own.
        """
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is None:
                continue
            for key in [k for k, v in namespace.items() if v is original]:
                namespace[key] = wrapped
                self._undo.append(lambda ns=namespace, k=key: ns.__setitem__(k, original))

    def install(self, boundaries: tuple[Boundary, ...] = BOUNDARIES) -> None:
        for boundary in boundaries:
            module = importlib.import_module(boundary.module)
            owner_name, _, attr = boundary.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            original = raw.__func__ if kind else raw
            if inspect.iscoroutinefunction(original):
                wrapped = self._wrap_async(boundary.span, original)
            else:
                wrapped = self._wrap_sync(boundary, original)
            if owner_name:
                setattr(owner, attr, kind(wrapped) if kind else wrapped)
                self._undo.append(lambda o=owner, a=attr, r=raw: setattr(o, a, r))
            else:
                self._patch_function(original, wrapped)
        self._thread_cpu_start = _thread_cpu_clocks()

    def uninstall(self, generator_cpu_s: float = 0.0) -> TraceResult:
        """Remove the wrappers and add the spans up.

        ``generator_cpu_s`` is the CPU of threads that lived only inside the
        traced window, which the two clock reads cannot see.
        """
        thread_cpu_end = _thread_cpu_clocks()
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
        names = {t.ident: t.name for t in threading.enumerate()}
        group_cpu: dict[str, float] = defaultdict(float)
        group_cpu["generator"] = generator_cpu_s
        for ident, end in thread_cpu_end.items():
            group = thread_group(names.get(ident, ""))
            group_cpu[group] += end - self._thread_cpu_start.get(ident, 0.0)
        totals: dict[str, Totals] = defaultdict(Totals)
        group_covered: dict[str, float] = defaultdict(float)
        samples: dict[str, list[float]] = defaultdict(list)
        count = 0
        with self._states_lock:
            states = list(self._states)
        for state in states:
            group = thread_group(state.name)
            for name, values in state.samples.items():
                samples[name].extend(values)
            for span in state.spans:
                name, _thread, parent, _t0, _t1, wall, cpu, _self_wall, self_cpu, units = span
                item = totals[name]
                item.calls += 1
                item.units += units
                item.wall_s += wall
                item.cpu_s += cpu
                item.self_cpu_s += self_cpu
                item.by_group[group] += self_cpu
                if parent is None:
                    group_covered[group] += cpu
                count += 1
        groups = {g: (group_cpu[g], group_covered[g]) for g in set(group_cpu) | set(group_covered)}
        return TraceResult(dict(totals), groups, dict(samples), count)

    def raw_spans(self) -> list[tuple]:
        """Every recorded span (name, thread, parent, start, end, wall, cpu, self wall,
        self cpu, units) — for ``--spans FILE``."""
        with self._states_lock:
            return [span for state in self._states for span in state.spans]


def _thread_cpu_clocks() -> dict[int, float]:
    """CPU seconds consumed so far by every live thread, by thread ident."""
    clocks: dict[int, float] = {}
    getcpuclockid = getattr(time, "pthread_getcpuclockid", None)
    if getcpuclockid is None:
        return clocks
    for thread in threading.enumerate():
        if thread.ident is None:
            continue
        try:
            clocks[thread.ident] = time.clock_gettime(getcpuclockid(thread.ident))
        except OSError:
            continue  # the thread ended between enumerate() and the read
    return clocks
