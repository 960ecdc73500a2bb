"""Group commit: coalesce concurrent appends into batched ledger commits.

The :class:`~repro.core.ledger.Ledger` kernel is deliberately single-
threaded — every structure it owns (stream, fam, CM-Tree, receipts) mutates
under the assumption of one writer.  :class:`LedgerService` is the
concurrency layer on top: clients on any thread :meth:`~LedgerService.submit`
signed requests into a bounded admission queue, and one writer thread drains
whatever is waiting — up to ``max_batch`` requests, lingering up to
``max_wait_ms`` for stragglers — into a single
:meth:`~repro.core.ledger.Ledger.append_batch` call.  Batching is what buys
throughput (GlassDB's group commit, DESIGN.md §8's amortisation table): one
stream write/fsync, grouped CM-Tree flushes, and one shared-inversion
signing pass per cycle instead of per request.

Request lifecycle::

    submit() ──▶ [bounded queue] ──▶ writer loop ──▶ append_batch ──▶ future
                  (backpressure)      (coalesce)       (1 fsync)      (per caller)

Failure isolation: ``append_batch`` is atomic — one bad signature rejects
the whole batch with the ledger untouched.  The writer turns that into
per-request outcomes by re-admitting each request individually
(:meth:`~repro.core.ledger.Ledger.admit`), failing only the offenders'
futures, and committing the survivors as one batch again — a poisoned
request never takes its batchmates down with it.

Shutdown: :meth:`LedgerService.close` rejects new submissions, finishes
(or, with ``drain=False``, fails) everything queued, and joins the writer —
no request is ever left with an unresolved future.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass

from .. import obs
from ..core.errors import LedgerError, UsageError
from ..core.journal import ClientRequest
from ..core.ledger import Ledger
from ..core.receipt import Receipt

__all__ = [
    "LedgerService",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceOverloadedError",
    "ServiceTimeout",
]


class ServiceClosedError(LedgerError):
    """The service is shut down (or shutting down) and accepts no work."""


class ServiceOverloadedError(LedgerError):
    """The admission queue stayed full for the whole submission timeout."""


class ServiceTimeout(LedgerError):
    """A wait on the service (result or shutdown) exceeded its deadline.

    For :meth:`LedgerService.append` this means the *wait* timed out, not
    the request: it is still queued and may well commit later — use the
    future from :meth:`LedgerService.submit` to pick the outcome up.
    """


@dataclass(frozen=True)
class ServiceConfig:
    """Coalescing and admission knobs for a :class:`LedgerService`.

    * ``max_batch`` — most requests one group commit may carry;
    * ``max_wait_ms`` — how long the writer lingers for stragglers once it
      holds at least one request (0 commits whatever is instantly there);
    * ``max_queue`` — bound of the admission queue; when full, ``submit``
      blocks (backpressure) up to ``submit_timeout_s``;
    * ``submit_timeout_s`` — default block-on-full budget for ``submit``
      (``None`` blocks indefinitely).
    """

    max_batch: int = 128
    max_wait_ms: float = 2.0
    max_queue: int = 1024
    submit_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise UsageError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue < 1:
            raise UsageError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_wait_ms < 0:
            raise UsageError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")


class _Pending:
    """One queued request: the caller's future plus its enqueue time."""

    __slots__ = ("request", "future", "enqueued_at")

    def __init__(self, request: ClientRequest) -> None:
        self.request = request
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()


class LedgerService:
    """Thread-safe group-commit front end over one :class:`Ledger`.

    All public methods may be called from any thread.  The wrapped ledger
    itself is mutated only by the service's writer thread; once a service
    owns a ledger, do not call ``append``/``append_batch`` on it directly
    (reads — proofs, queries, verification — remain fine).

    Usable as a context manager: ``with LedgerService(ledger) as svc: ...``
    drains and closes on exit.

    ``name`` labels this instance's metrics: a named service emits
    ``service.queue.depth{name=<name>}`` (and likewise for every other
    ``service.*`` family) so N concurrent services — e.g. one writer loop
    per ledger shard — never clobber each other's gauges and histograms in
    the process-wide registry.  An unnamed service keeps the bare family
    names for backward compatibility.
    """

    def __init__(
        self,
        ledger: Ledger,
        config: ServiceConfig | None = None,
        *,
        name: str | None = None,
    ) -> None:
        self.ledger = ledger
        self.config = config or ServiceConfig()
        self.name = name
        label = "" if name is None else f"{{name={name}}}"
        self._metric = {
            base: f"service.{base}{label}"
            for base in (
                "queue.depth",
                "overloaded",
                "batch.wait_us",
                "batch.size",
                "commit",
                "batch.salvage",
                "rejected",
                "append.wait_timeout",
            )
        }
        self._queue: deque[_Pending] = deque()
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        self._has_room = threading.Condition(self._lock)
        self._closed = False
        # Lifetime stats (under self._lock; exposed via stats()).
        self._submitted = 0
        self._committed = 0
        self._rejected = 0
        self._batches = 0
        self._salvaged_batches = 0
        self._writer = threading.Thread(
            target=self._writer_loop,
            name=f"ledger-service:{ledger.config.uri}"
            + (f"#{name}" if name is not None else ""),
            daemon=True,
        )
        self._writer.start()

    # ------------------------------------------------------------ admission

    def submit(self, request: ClientRequest, *, timeout: float | None | object = ...) -> Future:
        """Queue one signed request; returns the future of its receipt.

        Blocks while the admission queue is full (backpressure), up to
        ``timeout`` seconds (default: the config's ``submit_timeout_s``).
        The future resolves to the :class:`Receipt` once the request's group
        commit lands, or raises the request's own rejection.

        Raises:
            UsageError: ``request`` is not a :class:`ClientRequest`.
            ServiceClosedError: the service is shut down.
            ServiceOverloadedError: the queue stayed full past the timeout.
        """
        return self.submit_many([request], timeout=timeout)[0]

    def submit_many(
        self,
        requests: list[ClientRequest],
        *,
        timeout: float | None | object = ...,
    ) -> list[Future]:
        """Admit a whole batch under one lock acquisition, all-or-nothing:
        the one admission loop (:meth:`submit` is a batch of one).

        Semantics match admitting each request in order (same backpressure
        wait, same typed rejections), but a pipelined batch — the network
        server's ``append_batch`` — pays the admission lock and the writer
        wake-up once instead of once per request.  Nothing is
        admitted unless everything is: a timeout or a batch larger than the
        admission queue raises :class:`ServiceOverloadedError` with zero
        requests queued, so the caller may safely retry the whole batch.
        """
        for request in requests:
            if not isinstance(request, ClientRequest):
                raise UsageError(
                    f"submit_many() takes signed ClientRequests, "
                    f"got {type(request).__name__}"
                )
        if len(requests) > self.config.max_queue:
            raise ServiceOverloadedError(
                f"batch of {len(requests)} exceeds the admission queue "
                f"({self.config.max_queue}); split it"
            )
        if timeout is ...:
            timeout = self.config.submit_timeout_s
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._lock:
            while True:
                if self._closed:
                    raise ServiceClosedError("service is closed; no new appends")
                if len(self._queue) + len(requests) <= self.config.max_queue:
                    break
                if deadline is None:
                    self._has_room.wait()
                else:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0 or not self._has_room.wait(remaining):
                        obs.inc(self._metric["overloaded"])
                        raise ServiceOverloadedError(
                            f"no room for a batch of {len(requests)} "
                            f"(queue limit {self.config.max_queue}) within {timeout}s"
                        )
            pendings = [_Pending(request) for request in requests]
            self._queue.extend(pendings)
            self._submitted += len(pendings)
            obs.set_gauge(self._metric["queue.depth"], len(self._queue))
            self._has_work.notify()
        return [pending.future for pending in pendings]

    def append(self, request: ClientRequest, *, timeout: float | None = None) -> Receipt:
        """Submit and wait: the blocking single-call form of :meth:`submit`.

        Raises:
            ServiceTimeout: the receipt did not arrive within ``timeout``
                seconds — the request itself stays queued and may still
                commit (the timeout abandons the wait, not the work).
            ServiceClosedError / ServiceOverloadedError: from admission.
            AuthenticationError: the ledger rejected this request.
        """
        future = self.submit(request)
        try:
            return future.result(timeout)
        except _FutureTimeout:
            obs.inc(self._metric["append.wait_timeout"])
            raise ServiceTimeout(f"no receipt within {timeout}s (request may still commit)") from None

    # ---------------------------------------------------------- writer loop

    def _writer_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._commit(batch)

    def _next_batch(self) -> list[_Pending] | None:
        """Drain one coalesced batch; None when closed and fully drained."""
        config = self.config
        with self._lock:
            while not self._queue:
                if self._closed:
                    return None
                self._has_work.wait()
            batch = [self._queue.popleft()]
            # Coalescing window: linger for stragglers up to max_wait_ms,
            # but never once the batch is full or the service is closing.
            deadline = (
                time.perf_counter() + config.max_wait_ms / 1000.0
                if config.max_wait_ms > 0
                else None
            )
            while len(batch) < config.max_batch:
                if self._queue:
                    batch.append(self._queue.popleft())
                    continue
                if deadline is None or self._closed:
                    break
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._has_work.wait(remaining)
            obs.set_gauge(self._metric["queue.depth"], len(self._queue))
            self._has_room.notify(len(batch))
        return batch

    def _commit(self, batch: list[_Pending]) -> None:
        if obs.is_enabled():
            now = time.perf_counter()
            for pending in batch:
                obs.observe(self._metric["batch.wait_us"], (now - pending.enqueued_at) * 1e6)
            obs.observe(self._metric["batch.size"], len(batch))
        try:
            with obs.span(self._metric["commit"]) as span:
                span.add("journals", len(batch))
                receipts = self.ledger.append_batch([p.request for p in batch])
        except LedgerError:
            self._commit_salvage(batch)
            return
        except BaseException as exc:  # the writer thread must never die
            self._resolve(batch, [], exc)
            return
        self._resolve(batch, receipts, None)

    def _commit_salvage(self, batch: list[_Pending]) -> None:
        """Atomic batch rejected: fail the offenders, commit the rest.

        ``append_batch`` admission is all-or-nothing, so one bad request
        poisons its whole cycle.  Re-admit each request individually to pin
        the offenders (their futures get their own AuthenticationError) and
        re-run the survivors as one batch — still amortised, minus the bad
        apples.
        """
        obs.inc(self._metric["batch.salvage"])
        with self._lock:
            self._salvaged_batches += 1
        survivors: list[_Pending] = []
        for pending in batch:
            try:
                self.ledger.admit(pending.request)
            except LedgerError as exc:
                obs.inc(self._metric["rejected"])
                with self._lock:
                    self._rejected += 1
                pending.future.set_exception(exc)
            else:
                survivors.append(pending)
        if not survivors:
            return
        try:
            with obs.span(self._metric["commit"]) as span:
                span.add("journals", len(survivors))
                receipts = self.ledger.append_batch([p.request for p in survivors])
        except BaseException as exc:
            # Individually admissible yet rejected as a batch: a commit-phase
            # failure (e.g. IntegrityError). Nothing more to salvage.
            self._resolve(survivors, [], exc)
            return
        self._resolve(survivors, receipts, None)

    def _resolve(
        self,
        batch: list[_Pending],
        receipts: list[Receipt],
        error: BaseException | None,
    ) -> None:
        if error is not None:
            for pending in batch:
                pending.future.set_exception(error)
            with self._lock:
                self._rejected += len(batch)
            return
        for pending, receipt in zip(batch, receipts):
            pending.future.set_result(receipt)
        with self._lock:
            self._committed += len(batch)
            self._batches += 1

    # ------------------------------------------------------------- shutdown

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work and shut the writer down.

        ``drain=True`` (default) commits everything already queued before
        the writer exits; ``drain=False`` fails every queued future with
        :class:`ServiceClosedError` immediately.  Either way no future is
        left unresolved.  Idempotent.

        Raises:
            ServiceTimeout: the writer did not finish within ``timeout``
                seconds (the service stays closed; queued work continues).
        """
        with self._lock:
            self._closed = True
            if not drain:
                while self._queue:
                    pending = self._queue.popleft()
                    pending.future.set_exception(
                        ServiceClosedError("service closed before this request committed")
                    )
            obs.set_gauge(self._metric["queue.depth"], len(self._queue))
            self._has_work.notify_all()
            self._has_room.notify_all()
        self._writer.join(timeout)
        if self._writer.is_alive():
            raise ServiceTimeout(f"writer still draining after {timeout}s")

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def services(self) -> list["LedgerService"]:
        """A solo ledger's per-shard services: this one (a list of one)."""
        return [self]

    def __enter__(self) -> "LedgerService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Lifetime admission/commit counters (cheap; always available)."""
        with self._lock:
            queued = len(self._queue)
            return {
                "submitted": self._submitted,
                "committed": self._committed,
                "rejected": self._rejected,
                "batches": self._batches,
                "salvaged_batches": self._salvaged_batches,
                "queued": queued,
                "mean_batch_size": self._committed / self._batches if self._batches else 0.0,
            }

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<LedgerService {self.ledger.config.uri} {state} {self.stats()!r}>"
