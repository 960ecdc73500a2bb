"""The benchmark's workloads: what traffic each one drives and how it is checked.

Every workload runs in its own child process with at most two generator
threads and two TCP connections (the host has two cores); servers run as
threads of the same process.  All ledgers share one shape (epoch = 256
journals, 32 per block, durable ``FileStream`` with real fsync, group
commit of at most 64 requests / 2 ms), 256-byte payloads and two zipf(1.1)
clues per journal from a 512-clue universe.  Client-side signing sits
inside the timed loop: users pay it.

Each class states its *request* (what the client issues and waits for) and
how many journals one covers.  ``op_p50_ms`` is the latency of a request;
``op_tput``, ``cpu_ms_per_op`` and the layer table count journals, so
workloads whose requests cover one journal and workloads whose requests
cover a thousand read in the same unit.
"""

from __future__ import annotations

import hashlib
import itertools
import re
import shutil
import threading
import time
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import Callable

import fixture
import gen
from harness import (
    MAX_ATTEMPTS,
    CpuMarks,
    FalsePass,
    Request,
    Slice,
    Tally,
    Window,
    percentile,
    process_cpu_s,
    window_of,
)
from repro.api import LedgerSession
from repro.audit import dasein_audit
from repro.core import Journal, Ledger
from repro.core.errors import LedgerError
from repro.core.ledger import JOURNAL_FILE, NODES_DIR
from repro.export.bundle import BundleError, ExportBundle
from repro.export.verifier import verify_bundle
from repro.net import RemoteLedgerClient, ServerThread
from repro.net.client import RemoteLedgerSession
from repro.service import ServiceConfig
from repro.shard import ShardedLedger
from repro.shard.serving import ShardedServerThread
from repro.shard.sharded import shard_of_key
from repro.storage.stream import StreamError
from repro.timeauth import SimClock

SERVICE = ServiceConfig(max_batch=64, max_wait_ms=2.0)
INFLIGHT = 16
STH_EVERY = 256
RESULT_TIMEOUT_S = 60.0


def run_threads(targets: list[Callable[[], None]], requests: list[list[Request]]) -> Window:
    """Run one generator thread per target; re-raise the first error.

    Returns the window the threads filled: the requests each completed, whole
    and in slices, and the CPU the threads used, read on each as it ends.
    """
    errors: list[BaseException] = []
    cpu_s: list[float] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:  # a generator thread must not die silently
            errors.append(exc)
        finally:
            cpu_s.append(time.thread_time())

    threads = [
        threading.Thread(target=guarded, args=(target,), name=f"e2e-gen-{index}")
        for index, target in enumerate(targets)
    ]
    with CpuMarks() as clock:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return window_of(clock.marks, [item for done in requests for item in done], sum(cpu_s))


def cause_of(exc: BaseException) -> str:
    """A failure label that groups: type plus message, paths and numbers masked."""
    message = re.sub(r"[0-9]+", "#", re.sub(r"/\S+", "<path>", str(exc)))
    return f"{type(exc).__name__}: {message[:70]}"


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class Workload:
    name = ""
    #: What one request is, from when it is timed, and the journals it covers.
    op = ""
    #: Request type, for the per-type figures: append, verify, clue or round.
    request = ""

    def __init__(self, seed: int, work_dir: Path, smoke: bool) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke
        self.ids = fixture.identities()
        self.tally = Tally()
        self.stored_bytes = 0
        self.user_bytes = 0
        #: Facts measured outside the windows (checkpoint time, build time).
        self.facts: dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_window(self, seconds: float) -> Window:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Program-side counters whose deltas over a window feed the layer table."""
        return {}

    def measure_storage(self, data_dir: Path) -> None:
        """Bytes on disk, whole and by kind (journal streams, node pages)."""
        sizes = {item: item.stat().st_size for item in data_dir.rglob("*") if item.is_file()}
        self.stored_bytes = sum(sizes.values())
        self.facts["stream_bytes"] = float(
            sum(size for item, size in sizes.items() if item.name == JOURNAL_FILE)
        )
        self.facts["page_bytes"] = float(
            sum(size for item, size in sizes.items() if item.parent.name == NODES_DIR)
        )

    def proof_bytes_per_verify(self) -> float:
        """Exact-count proof size; 0 on workloads that fetch no fam proofs."""
        return 0.0

    def ping_rtt_us(self) -> float:
        return 0.0

    @staticmethod
    def attempt(tally: Tally, once: Callable[[], str | None]) -> bool:
        """One request of up to MAX_ATTEMPTS tries; ``once`` returns None or a cause."""
        tally.attempted += 1
        cause: str | None = None
        for _ in range(MAX_ATTEMPTS):
            tally.attempts += 1
            try:
                cause = once()
            except (LedgerError, StreamError, OSError, ValueError, TimeoutError) as exc:
                cause = cause_of(exc)
            if cause is None:
                return True
            tally.retried[cause] += 1
        tally.fail(cause)
        return False


def _ping_rtt_us(client: RemoteLedgerClient) -> float:
    samples = []
    for _ in range(200):
        started = time.perf_counter()
        client.ping()
        samples.append(time.perf_counter() - started)
    return percentile(samples, 0.5) * 1e6


def _service_counters(prefix: str, stats: dict) -> dict[str, float]:
    return {f"{prefix}.{key}": float(stats[key]) for key in ("committed", "batches")}


class Submitted:
    """One append in flight: what was sent, since when it is timed, when it landed."""

    __slots__ = ("future", "since", "request", "digest", "landed")

    def __init__(self, client: RemoteLedgerClient, request, since: float, payload: bytes) -> None:
        self.since = since
        self.request = request
        self.digest = sha256(payload)
        self.landed: list[float] = []
        # The future completes on the client's loop thread once the receipt
        # passed the LSP-signature check; the callback only stamps that moment.
        self.future = client.submit(request)
        self.future.add_done_callback(lambda _f: self.landed.append(time.perf_counter()))

    def settle(self, tally: Tally, acked: list[tuple[int, bytes]], done: list[Request]) -> None:
        """Wait for the receipt and tally the outcome on the waiting thread.

        A waiter can be released before the future's callbacks have run; it
        then stamps the landing itself, so no outcome is left behind in a
        callback that fires after the window has been added up.
        """
        try:
            error = self.future.exception(timeout=RESULT_TIMEOUT_S)
        except TimeoutError:
            tally.fail("no receipt within timeout")
            return
        landed = self.landed[0] if self.landed else time.perf_counter()
        if error is not None:
            tally.fail(cause_of(error))
        elif self.future.result().request_hash != self.request.request_hash():
            tally.fail("receipt echoes another request")
        else:
            acked.append((self.future.result().jsn, self.digest))
            done.append((landed, landed - self.since, 1))


class WriteSharded(Workload):
    """Closed loop, saturating: the full write path with ``shard`` in it.

    Two-shard ``ShardedServerThread`` (memory node store); two client
    threads, each a ``RemoteLedgerClient`` pinned to one shard with clues
    drawn from that shard's partition, each keeping 16 ``submit()`` futures
    in flight.  One request = one append (one journal), timed from sign-start
    to its receipt having passed the client's LSP-signature and request-echo
    check.  After the run the deployment is closed and reopened from disk and
    every acknowledged append is read back.
    """

    name = "write_sharded"
    op = "append (1 journal): sign-start to receipt checked"
    request = "append"
    SHARDS = 2

    def setup(self) -> None:
        self.data_dir = self.work_dir / "sharded"
        self.ledger = ShardedLedger(
            fixture.ledger_config(self.data_dir, shards=self.SHARDS),
            registry=self.ids.registry,
            lsp_keypair=self.ids.lsp,
        )
        self.server = ShardedServerThread(self.ledger, service_config=SERVICE)
        self.clients = [
            RemoteLedgerClient(
                host,
                port,
                member_id=fixture.USER_ID,
                keypair=self.ids.user,
                expected_lsp_key=self.ids.lsp.public,
            )
            for host, port in self.server.addresses
        ]
        self.bodies = [
            gen.request_bodies(
                self.seed, f"write:{shard}", gen.shard_partition(shard, self.SHARDS, shard_of_key)
            )
            for shard in range(self.SHARDS)
        ]
        self.nonces = [itertools.count(shard << 40) for shard in range(self.SHARDS)]
        #: Per shard: (jsn, sha256(payload)) of every acknowledged append.
        self.acked: list[list[tuple[int, bytes]]] = [[] for _ in range(self.SHARDS)]

    def _writer(self, shard: int, stop_at: float, done: list[Request], tally: Tally) -> None:
        client = self.clients[shard]
        bodies, nonces, acked = self.bodies[shard], self.nonces[shard], self.acked[shard]
        inflight: deque[Submitted] = deque()
        while time.perf_counter() < stop_at:
            payload, clues = next(bodies)
            started = time.perf_counter()
            request = fixture.sign_request(self.ids, payload, clues, next(nonces), time.time())
            inflight.append(Submitted(client, request, started, payload))
            tally.attempted += 1
            if len(inflight) >= INFLIGHT:
                inflight.popleft().settle(tally, acked, done)
        while inflight:
            inflight.popleft().settle(tally, acked, done)

    def run_window(self, seconds: float) -> Window:
        done: list[list[Request]] = [[] for _ in range(self.SHARDS)]
        tallies = [Tally() for _ in range(self.SHARDS)]
        stop_at = time.perf_counter() + seconds
        window = run_threads(
            [
                lambda s=shard: self._writer(s, stop_at, done[s], tallies[s])
                for shard in range(self.SHARDS)
            ],
            done,
        )
        for tally in tallies:
            self.tally.merge(tally)
        return window

    def counters(self) -> dict[str, float]:
        counters: dict[str, float] = {}
        for index, service in enumerate(self.server.service.services):
            counters.update(_service_counters(f"service{index}", service.stats()))
        return counters

    def ping_rtt_us(self) -> float:
        return _ping_rtt_us(self.clients[0])

    def finish(self) -> None:
        for client in self.clients:
            client.close()
        self.server.close()
        started = time.perf_counter()
        self.ledger.close()  # checkpoints every shard
        self.facts["checkpoint_s"] = time.perf_counter() - started
        self.measure_storage(self.data_dir)
        reopened = ShardedLedger.open(
            str(self.data_dir), self.ids.registry, self.ids.lsp, clock=SimClock()
        )
        for shard, acked in zip(reopened.shards, self.acked):
            _read_back(self.tally, shard, acked)
        reopened.close(checkpoint=False)
        self.user_bytes = sum(len(acked) for acked in self.acked) * gen.PAYLOAD_BYTES


def _read_back(tally: Tally, ledger: Ledger, acked: list[tuple[int, bytes]]) -> None:
    """The restart check: every acknowledged append must come back byte-identical."""
    for jsn, digest in acked:
        try:
            intact = sha256(ledger.get_journal(jsn).payload) == digest
        except (LedgerError, StreamError):
            intact = False
        if not intact:
            tally.fail("acknowledged append lost or altered after restart")


def restart_check(tally: Tally, fx: fixture.Fixture, acked: list[tuple[int, bytes]]) -> None:
    """Reopen the fixture's ledger from disk and read every acknowledged append back.

    If ``Ledger.open`` raises, a forced full replay gets one chance; if that
    raises too, nothing the server acknowledged can be read and every
    acknowledged append counts as lost.
    """
    try:
        reopened = fixture.reopen(fx)
    except (LedgerError, StreamError) as exc:
        tally.retried[f"reopen raised {cause_of(exc)}"] += 1
        try:
            reopened = fixture.reopen(fx, force_rebuild=True)
        except (LedgerError, StreamError) as again:
            for _ in acked:
                tally.fail(f"reopen and forced rebuild raised {cause_of(again)}")
            return
    _read_back(tally, reopened, acked)
    reopened.close(checkpoint=False)


class FixtureServed(Workload):
    """Shared set-up of the workloads served over TCP from the prebuilt fixture.

    Every generator thread has its own ``RemoteLedgerSession`` and runs
    requests back to back.  One request in 64, and the first of every thread
    in every window, is a negative control: tampered input that must come
    back falsy, or the run aborts.
    """

    JOURNALS = 4096
    SMOKE_JOURNALS = 512
    CACHE_PAGES = 8
    THREADS = 2

    def setup(self) -> None:
        journals = self.SMOKE_JOURNALS if self.smoke else self.JOURNALS
        self.fx = fixture.build(
            self.work_dir / "fixture", self.ids, journals, cache_pages=self.CACHE_PAGES
        )
        self.facts["fixture_build_s"] = self.fx.build_s
        self.facts.update(self.fx.facts)
        self.measure_storage(self.fx.data_dir)
        self.user_bytes = self.fx.user_bytes
        self.ledger = fixture.reopen(self.fx)
        self.server = ServerThread(self.ledger, service_config=SERVICE)
        host, port = self.server.address
        self.sessions = [
            RemoteLedgerSession(
                host,
                port,
                client_id=fixture.USER_ID,
                keypair=self.ids.user,
                expected_lsp_key=self.ids.lsp.public,
            )
            for _ in range(self.THREADS)
        ]
        for session in self.sessions:
            session.sync_anchors()
        self.negatives = [
            gen.negative_controls(self.seed, f"{self.name}-negative:{index}")
            for index in range(self.THREADS)
        ]

    def fetch(self, session: RemoteLedgerSession, jsn: int, digest: bytes):
        """``get_journal`` plus the oracle: it must be *that* journal, intact."""
        journal = session.client.get_journal(jsn)
        if journal.jsn != jsn or sha256(journal.payload) != digest:
            return None
        return journal

    def verify_tx(self, session, jsn: int, digest: bytes, negative: bool, tally: Tally) -> bool:
        """The TX-verify request: ``get_journal`` + ``verify(TX, level=CLIENT)``."""

        def once() -> str | None:
            journal = self.fetch(session, jsn, digest)
            if journal is None:
                return "get_journal returned another journal"
            if negative:
                journal = replace(journal, payload=gen.flip_bit(journal.payload, jsn))
            verdict = session.verify("tx", txdata=[journal], level="client")
            if negative:
                if verdict.ok:
                    raise FalsePass(f"tampered journal {jsn} verified truthy")
                return None
            return None if verdict.ok else "honest journal verified falsy"

        return self.attempt(tally, once)

    def verifier(self, index: int, stop_at: float, done: list[Request], tally: Tally) -> None:
        """Closed loop of one thread: requests back to back until ``stop_at``."""
        session, negatives = self.sessions[index], self.negatives[index]
        negative = True
        while time.perf_counter() < stop_at:
            negative = next(negatives) or negative
            started = time.perf_counter()
            journals = self.one_request(index, session, negative, tally)
            if journals:
                finished = time.perf_counter()
                done.append((finished, finished - started, journals))
                negative = False

    def one_request(self, index: int, session, negative: bool, tally: Tally) -> int:
        """Issue one request; return the journals it covered, 0 if it did not complete."""
        raise NotImplementedError

    def run_window(self, seconds: float) -> Window:
        done: list[list[Request]] = [[] for _ in range(self.THREADS)]
        tallies = [Tally() for _ in range(self.THREADS)]
        stop_at = time.perf_counter() + seconds
        window = run_threads(
            [
                lambda i=index: self.verifier(i, stop_at, done[i], tallies[i])
                for index in range(self.THREADS)
            ],
            done,
        )
        for tally in tallies:
            window.retries += tally.attempts - tally.attempted
            window.retry_ops += tally.attempted
            self.tally.merge(tally)
        return window

    def counters(self) -> dict[str, float]:
        stats = self.ledger.node_store_stats()
        counters = {
            f"pages.{key}": float(stats.get(key, 0))
            for key in ("cache_hits", "cache_misses", "page_loads", "bytes_written")
        }
        counters.update(_service_counters("service0", self.server.server.service.stats()))
        return counters

    def ping_rtt_us(self) -> float:
        return _ping_rtt_us(self.sessions[0].client)

    def finish(self) -> None:
        for session in self.sessions:
            session.close()
        self.server.close()
        self.ledger.close(checkpoint=False)


class VerifyTcp(FixtureServed):
    """Closed loop, read-only: existence proofs of single journals.

    Unsharded server over the 4096-journal fixture; two threads.  One
    request = pick a recency-biased jsn, ``get_journal``, then
    ``verify(TX, level=CLIENT)`` (anchor sync plus the anchored fam proof
    folded locally), timed across both calls and any retry; it covers one
    journal.  fam proofs are served from memory, so the node page cache is
    *not* on this path (the layer table reads 0 page gets); ``lineage_tcp``
    is the workload that reads pages.
    """

    name = "verify_tcp"
    op = "TX verify (1 journal): get_journal + verify(TX, CLIENT), retries included"
    request = "verify"

    def setup(self) -> None:
        super().setup()
        mean_age = len(self.fx.user_jsns) / 8
        self.picks = [
            gen.recency_picks(self.seed, f"verify:{index}", mean_age)
            for index in range(self.THREADS)
        ]
        self.requests = [0] * self.THREADS

    def one_request(self, index: int, session, negative: bool, tally: Tally) -> int:
        jsns = self.fx.user_jsns
        jsn = jsns[max(0, len(jsns) - 1 - next(self.picks[index]))]
        self.requests[index] += 1
        if self.requests[index] % STH_EVERY == 0:
            session.get_sth()  # signature-checked client side
        return int(self.verify_tx(session, jsn, self.fx.payload_digest[jsn], negative, tally))

    def proof_bytes_per_verify(self) -> float:
        """Mean encoded size of the anchored proof over the first 2000 seeded requests."""
        picks = gen.recency_picks(self.seed, "verify:0", len(self.fx.user_jsns) / 8)
        jsns = self.fx.user_jsns
        sizes = [
            len(self.ledger.get_proof(jsns[max(0, len(jsns) - 1 - age)], anchored=True).to_bytes())
            for age in itertools.islice(picks, 2000)
        ]
        return sum(sizes) / len(sizes)


class LineageTcp(FixtureServed):
    """Closed loop, read-only: N-lineage proofs of whole clues.

    Same server and fixture as ``verify_tcp`` (``node_store="paged"``,
    ``cache_pages=8`` against 129 pages on disk).  One request = draw a zipf
    clue and verify its lineage the way ``verify_clue`` does — ``list_tx``,
    one ``get_journal`` per entry, ``prove_clue``, local fold — with the
    oracle checking the listing and every journal on the way; it covers as
    many journals as the lineage is long (1 to ~1400).  A negative control
    tampers one journal of the lineage.

    One thread, not two: two concurrent readers trip the ``FileStream``
    offset race (README, findings) about once in 300 ``get_journal`` calls,
    which a lineage of hundreds of journals rarely survives three times.
    """

    name = "lineage_tcp"
    op = "clue verify (whole lineage): list_tx + get_journal per entry + prove_clue + fold"
    request = "clue"
    THREADS = 1

    def setup(self) -> None:
        super().setup()
        # Clues the fixture never used have no lineage to verify.
        self.clues = [
            filter(self.fx.lineage.__contains__, gen.zipf_clues(self.seed, f"lineage:{index}"))
            for index in range(self.THREADS)
        ]

    def one_request(self, index: int, session, negative: bool, tally: Tally) -> int:
        clue = next(self.clues[index])
        expected = self.fx.lineage[clue]

        def once() -> str | None:
            if session.client.list_tx(clue) != expected:
                return "list_tx returned another lineage"
            journals = []
            for jsn in expected:
                journal = self.fetch(session, jsn, self.fx.payload_digest[jsn])
                if journal is None:
                    return "get_journal returned another journal"
                journals.append(journal)
            if negative:
                victim = len(journals) // 2
                journals[victim] = replace(
                    journals[victim], payload=gen.flip_bit(journals[victim].payload, victim)
                )
            verdict = session.verify("clue", key=clue, txdata=journals, level="client")
            if negative:
                if verdict.ok:
                    raise FalsePass(f"tampered lineage of {clue} verified truthy")
                return None
            return None if verdict.ok else "honest lineage verified falsy"

        return len(expected) if self.attempt(tally, once) else 0


class MixedTcp(FixtureServed):
    """Writes beside reads.

    Unsharded server over the fixture (``cache_pages=256``, fits).  Thread 1
    is an **open-loop** writer on a seeded Poisson schedule at 150 appends/s,
    signing in the loop and never waiting; one request = one append (one
    journal), timed from its *due* time to its receipt having been checked.
    Thread 2 is a closed-loop verifier over journals the writer has been
    acknowledged for (recency-biased), the same TX-verify request as
    ``verify_tcp``, negative controls included.  Afterwards the server is
    closed and :func:`restart_check` reads every acknowledged append back.
    """

    name = "mixed_tcp"
    op = "append (1 journal): due time to receipt checked, beside a verifying reader"
    request = "append"
    CACHE_PAGES = 256
    THREADS = 1
    RATE = 150.0

    def setup(self) -> None:
        super().setup()
        host, port = self.server.address
        self.writer = RemoteLedgerClient(
            host,
            port,
            member_id=fixture.USER_ID,
            keypair=self.ids.user,
            expected_lsp_key=self.ids.lsp.public,
        )
        self.bodies = gen.request_bodies(self.seed, "mixed-write")
        self.schedule = gen.poisson_offsets(self.seed, "mixed-due", self.RATE)
        self.picks = gen.recency_picks(self.seed, "mixed-read", 64)
        self.nonces = itertools.count(1 << 40)
        self.acked: list[tuple[int, bytes]] = []
        self.last_offset = 0.0

    def _write(self, stop_at: float, done: list[Request], lag: list[float], tally: Tally) -> None:
        inflight: deque[Submitted] = deque()
        origin = time.perf_counter() - self.last_offset
        while True:
            self.last_offset = next(self.schedule)
            due = origin + self.last_offset
            if due > stop_at:
                break
            # Collect what has landed, so the reader has acknowledged journals
            # to pick from; never wait here, the schedule does not.
            while inflight and inflight[0].future.done():
                inflight.popleft().settle(tally, self.acked, done)
            now = time.perf_counter()
            if due > now:
                time.sleep(due - now)
            lag.append(max(0.0, time.perf_counter() - due))
            payload, clues = next(self.bodies)
            request = fixture.sign_request(self.ids, payload, clues, next(self.nonces), time.time())
            inflight.append(Submitted(self.writer, request, due, payload))
            tally.attempted += 1
        while inflight:
            inflight.popleft().settle(tally, self.acked, done)

    def one_request(self, index: int, session, negative: bool, tally: Tally) -> int:
        if not self.acked:
            time.sleep(0.005)  # nothing acknowledged yet: the first moments of the warm-up
            return 0
        jsn, digest = self.acked[max(0, len(self.acked) - 1 - next(self.picks))]
        return int(self.verify_tx(session, jsn, digest, negative, tally))

    def run_window(self, seconds: float) -> Window:
        appends: list[Request] = []
        verifies: list[Request] = []
        lag: list[float] = []
        write_tally, read_tally = Tally(), Tally()
        stop_at = time.perf_counter() + seconds
        window = run_threads(
            [
                lambda: self._write(stop_at, appends, lag, write_tally),
                lambda: self.verifier(0, stop_at, verifies, read_tally),
            ],
            [appends],
        )
        window.retries = read_tally.attempts - read_tally.attempted
        window.retry_ops = read_tally.attempted
        window.samples = {"verify_s": [latency for _, latency, _ in verifies], "lag_s": lag}
        self.tally.merge(write_tally)
        self.tally.merge(read_tally)
        return window

    def finish(self) -> None:
        self.writer.close()
        super().finish()
        self.measure_storage(self.fx.data_dir)
        self.user_bytes = self.fx.user_bytes + len(self.acked) * gen.PAYLOAD_BYTES
        self.facts["restart_checked"] = float(len(self.acked))
        restart_check(self.tally, self.fx, self.acked)


class AuditOffline(Workload):
    """In-process auditor path: no sockets, one thread plus the audit pool.

    Over a 1024-journal fixture whose snapshot covers the first 512, rounds
    of: ``Ledger.open`` (snapshot restore + 512-journal suffix replay);
    ``session.audit(workers=2)``; ``export()`` -> bytes -> file -> bytes ->
    decode -> standalone ``verify_bundle``.  One request = one round, which
    covers every journal of the ledger.  Each round also decodes a
    bit-flipped copy of the bundle, which must be refused.
    """

    name = "audit_offline"
    op = "auditor round (all 1024 journals): reopen + audit + bundle round trip"
    request = "round"
    JOURNALS, CHECKPOINT_AT = 1024, 512
    SMOKE_JOURNALS, SMOKE_CHECKPOINT_AT = 256, 128

    def setup(self) -> None:
        journals, checkpoint_at = (
            (self.SMOKE_JOURNALS, self.SMOKE_CHECKPOINT_AT)
            if self.smoke
            else (self.JOURNALS, self.CHECKPOINT_AT)
        )
        self.fx = fixture.build(
            self.work_dir / "fixture", self.ids, journals, checkpoint_at=checkpoint_at
        )
        self.facts["fixture_build_s"] = self.fx.build_s
        self.facts.update(self.fx.facts)
        self.measure_storage(self.fx.data_dir)
        self.user_bytes = self.fx.user_bytes
        self.rounds = 0

    def _round(self, window: Window) -> None:
        self.rounds += 1
        copy = self.work_dir / f"round-{self.rounds}"
        shutil.copytree(self.fx.data_dir, copy)
        tally = self.tally
        cpu = process_cpu_s()
        stamps = [time.perf_counter()]
        ledger = fixture.reopen(self.fx, copy)
        stamps.append(time.perf_counter())
        try:
            session = LedgerSession(ledger, client_id=fixture.USER_ID, keypair=self.ids.user)
            tally.attempted += 1
            report = session.audit(tsa_keys=self.fx.tsa_keys, workers=2)
            stamps.append(time.perf_counter())
            if not report.passed:
                tally.fail("audit of an honest ledger failed")
            tally.attempted += 1
            path = copy / "bundle.ldb"
            bundle = session.export()
            path.write_bytes(bundle.to_bytes())
            blob = path.read_bytes()
            verdict = verify_bundle(ExportBundle.from_bytes(blob), tsa_keys=self.fx.tsa_keys)
            stamps.append(time.perf_counter())
            if not verdict.ok:
                tally.fail("honest bundle failed standalone verification")
            try:
                tampered = ExportBundle.from_bytes(gen.flip_bit(blob, len(blob) // 2))
            except BundleError:
                pass  # refused at the container: the expected outcome
            else:
                if verify_bundle(tampered, tsa_keys=self.fx.tsa_keys).ok:
                    raise FalsePass("bit-flipped bundle verified truthy")
            journals = ledger.size
        finally:
            ledger.close(checkpoint=False)
            shutil.rmtree(copy)
        reopen_s, audit_s, bundle_s = (b - a for a, b in zip(stamps, stamps[1:]))
        round_s = stamps[-1] - stamps[0]
        window.samples.setdefault("reopen_s", []).append(reopen_s)
        window.samples.setdefault("audit_s", []).append(audit_s)
        window.samples.setdefault("bundle_s", []).append(bundle_s)
        window.counts["bundle_bytes"] = float(len(blob))
        window.counts["journals"] = float(journals)
        window.ops += journals
        window.elapsed_s += round_s
        window.latencies_s.append(round_s)
        # One slice per round: the audit pool's CPU is only known once its
        # processes are reaped, which a clock ticking through the round would miss.
        window.slices.append(Slice(round_s, journals, [round_s], process_cpu_s() - cpu))

    def run_window(self, seconds: float) -> Window:
        window = Window()
        cpu = process_cpu_s()
        stop_at = time.perf_counter() + seconds
        self._round(window)
        while time.perf_counter() < stop_at:
            self._round(window)
        window.cpu_s = process_cpu_s() - cpu
        return window

    def finish(self) -> None:
        """The audit path's negative control: one tampered journal must fail the audit."""
        ledger = fixture.reopen(self.fx)
        try:
            view = ledger.export_view()
        finally:
            ledger.close(checkpoint=False)
        victim = len(view.entries) // 2
        entry = view.entries[victim]
        payload_at = entry.data.index(Journal.from_bytes(entry.data).payload)
        view.entries[victim] = replace(entry, data=gen.flip_bit(entry.data, payload_at))
        if dasein_audit(view, tsa_keys=self.fx.tsa_keys).passed:
            raise FalsePass("audit passed over a tampered journal")


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (WriteSharded, VerifyTcp, LineageTcp, AuditOffline, MixedTcp)
}
