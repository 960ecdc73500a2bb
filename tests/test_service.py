"""LedgerService: concurrent group commit, backpressure, shutdown, salvage.

The load-bearing test is :func:`test_concurrent_equivalence`: a ledger built
by N threads racing through the service must be *byte-identical* (same fam
root, same state root, same receipt bytes per jsn) to a single-threaded
ledger fed the same requests in the order the service happened to commit
them — group commit is a scheduling optimisation, never a semantic one.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.core import ClientRequest, Ledger, LedgerConfig
from repro.core.errors import AuthenticationError
from repro.crypto import KeyPair, Role
from repro.service import (
    LedgerService,
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadedError,
    ServiceTimeout,
)

URI = "ledger://service-test"
CLIENTS = ("alice", "bob", "carol", "dan")


def make_ledger(block_size: int = 8) -> tuple[Ledger, dict[str, KeyPair]]:
    ledger = Ledger(LedgerConfig(uri=URI, fractal_height=4, block_size=block_size))
    keys = {}
    for name in CLIENTS:
        keypair = KeyPair.generate(seed=f"svc:{name}")
        keys[name] = keypair
        ledger.registry.register(name, Role.USER, keypair.public)
    return ledger, keys


def make_request(
    keys: dict[str, KeyPair], client: str, tag: str, clues: tuple[str, ...] = ()
) -> ClientRequest:
    return ClientRequest.build(
        URI,
        client,
        f"{client}:{tag}".encode(),
        clues=clues,
        nonce=abs(hash((client, tag))).to_bytes(8, "big")[:8],
        client_timestamp=0.0,
    ).signed_by(keys[client])


class SlowLedger(Ledger):
    """A ledger whose commits take a configurable beat — backlog on demand."""

    commit_delay = 0.05

    def append_batch(self, requests):
        time.sleep(self.commit_delay)
        return super().append_batch(requests)


def make_slow_ledger(delay: float) -> tuple[SlowLedger, dict[str, KeyPair]]:
    ledger = SlowLedger(LedgerConfig(uri=URI, fractal_height=4, block_size=8))
    ledger.commit_delay = delay
    keys = {}
    for name in CLIENTS:
        keypair = KeyPair.generate(seed=f"svc:{name}")
        keys[name] = keypair
        ledger.registry.register(name, Role.USER, keypair.public)
    return ledger, keys


# ------------------------------------------------------------- equivalence


def test_concurrent_equivalence():
    """N threads × M appends through the service == the sequential ledger.

    Same requests replayed single-threaded in the service's commit order
    must reproduce the fam root, the CM-Tree state root, every block, and
    every receipt byte-for-byte (ECDSA here is RFC 6979 deterministic).
    """
    n_threads, per_thread = 6, 20
    service_ledger, keys = make_ledger(block_size=8)
    service = LedgerService(service_ledger, ServiceConfig(max_batch=16, max_wait_ms=5.0))
    thread_requests = {
        t: [
            make_request(
                keys,
                CLIENTS[t % len(CLIENTS)],
                f"t{t}-i{i}",
                clues=(f"lane-{t % 3}",) if i % 2 == 0 else (),
            )
            for i in range(per_thread)
        ]
        for t in range(n_threads)
    }
    receipts: dict[int, list] = {t: [] for t in range(n_threads)}
    errors: list[BaseException] = []

    def worker(t: int) -> None:
        try:
            for request in thread_requests[t]:
                receipts[t].append(service.append(request, timeout=30.0))
        except BaseException as exc:  # surfaced below; threads must not die silently
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    service.close()
    assert not errors, errors
    assert service_ledger.size == 1 + n_threads * per_thread

    # Replay sequentially in the order the service committed.
    by_jsn = {}
    for t in range(n_threads):
        for request, receipt in zip(thread_requests[t], receipts[t]):
            by_jsn[receipt.jsn] = request
    assert sorted(by_jsn) == list(range(1, service_ledger.size))

    sequential, _ = make_ledger(block_size=8)
    for jsn in sorted(by_jsn):
        sequential.append(by_jsn[jsn])

    assert sequential.current_root() == service_ledger.current_root()
    assert sequential.state_root() == service_ledger.state_root()
    assert [b.hash() for b in sequential.blocks] == [b.hash() for b in service_ledger.blocks]
    lsp_key = service_ledger.registry.certificate("__lsp__").public_key
    for t in range(n_threads):
        for receipt in receipts[t]:
            assert receipt.verify(lsp_key)
            twin = sequential.receipt_for(receipt.jsn)
            # The statement is the sequential one's; the batch path and
            # signature are the batch the service committed it in.
            assert twin is not None and twin.signing_payload() == receipt.signing_payload()
            assert twin.verify(lsp_key)
    stats = service.stats()
    assert stats["committed"] == n_threads * per_thread
    assert stats["batches"] <= stats["committed"]  # some coalescing happened


def test_single_caller_matches_direct_append():
    ledger, keys = make_ledger()
    baseline, _ = make_ledger()
    requests = [make_request(keys, "alice", f"i{i}", clues=("c",)) for i in range(10)]
    with LedgerService(ledger, ServiceConfig(max_wait_ms=0.0)) as service:
        for request in requests:
            service.append(request)
    for request in requests:
        baseline.append(request)
    assert ledger.current_root() == baseline.current_root()


# --------------------------------------------------------------- shutdown


def test_close_drains_queued_work():
    ledger, keys = make_slow_ledger(delay=0.02)
    service = LedgerService(ledger, ServiceConfig(max_batch=8, max_wait_ms=1.0))
    futures = [service.submit(make_request(keys, "bob", f"drain-{i}")) for i in range(30)]
    service.close(drain=True)  # everything queued still commits
    jsns = sorted(future.result(timeout=5.0).jsn for future in futures)
    assert jsns == list(range(1, 31))
    with pytest.raises(ServiceClosedError):
        service.submit(make_request(keys, "bob", "late"))
    service.close()  # idempotent


def test_close_without_drain_fails_queued_futures():
    ledger, keys = make_slow_ledger(delay=0.1)
    service = LedgerService(ledger, ServiceConfig(max_batch=4, max_wait_ms=0.0))
    futures = [service.submit(make_request(keys, "carol", f"cut-{i}")) for i in range(12)]
    time.sleep(0.02)  # let the writer pick up a first batch
    service.close(drain=False)
    outcomes = {"receipt": 0, "closed": 0}
    for future in futures:
        try:
            future.result(timeout=5.0)
            outcomes["receipt"] += 1
        except ServiceClosedError:
            outcomes["closed"] += 1
    assert outcomes["receipt"] + outcomes["closed"] == 12
    assert outcomes["closed"] > 0  # the backlog was cut loose...
    assert outcomes["receipt"] == ledger.size - 1  # ...and nothing was lost


def test_close_join_timeout_raises_service_timeout():
    ledger, keys = make_slow_ledger(delay=0.3)
    service = LedgerService(ledger, ServiceConfig(max_wait_ms=0.0))
    future = service.submit(make_request(keys, "dan", "slow"))
    time.sleep(0.02)  # writer is now inside the slow commit
    with pytest.raises(ServiceTimeout):
        service.close(timeout=0.01)
    assert future.result(timeout=5.0).jsn == 1  # work still completes
    service.close()


# ------------------------------------------------- timeouts / backpressure


def test_append_wait_timeout_leaves_request_in_flight():
    ledger, keys = make_slow_ledger(delay=0.2)
    service = LedgerService(ledger, ServiceConfig(max_wait_ms=0.0))
    request = make_request(keys, "alice", "patient")
    with pytest.raises(ServiceTimeout):
        service.append(request, timeout=0.01)
    service.close(drain=True)  # the timed-out request still commits
    assert ledger.size == 2
    assert ledger.get_journal(1).payload == b"alice:patient"


def test_backpressure_overflow():
    ledger, keys = make_slow_ledger(delay=0.3)
    service = LedgerService(ledger, ServiceConfig(max_batch=1, max_wait_ms=0.0, max_queue=1))
    service.submit(make_request(keys, "alice", "first"))  # writer grabs this
    time.sleep(0.05)
    service.submit(make_request(keys, "alice", "second"))  # fills the queue
    with pytest.raises(ServiceOverloadedError):
        service.submit(make_request(keys, "alice", "third"), timeout=0.01)
    service.close(drain=True)
    assert ledger.size == 3  # first and second landed, third never entered


def test_backpressure_unblocks_when_room_frees():
    ledger, keys = make_slow_ledger(delay=0.05)
    service = LedgerService(ledger, ServiceConfig(max_batch=1, max_wait_ms=0.0, max_queue=2))
    futures = [
        service.submit(make_request(keys, "bob", f"bp-{i}"), timeout=10.0)
        for i in range(8)  # far more than max_queue: submits block then proceed
    ]
    for future in futures:
        future.result(timeout=10.0)
    service.close()
    assert ledger.size == 9


def test_submit_many_matches_per_request_submits():
    ledger, keys = make_ledger()
    service = LedgerService(ledger)
    requests = [make_request(keys, "alice", f"many-{i}") for i in range(10)]
    futures = service.submit_many(requests)
    receipts = [future.result(timeout=10.0) for future in futures]
    service.close()
    assert [r.request_hash for r in receipts] == [r.request_hash() for r in requests]
    assert [r.jsn for r in receipts] == sorted(r.jsn for r in receipts)


def test_submit_many_is_all_or_nothing_on_overflow():
    """An overloaded batch admits nothing, so retrying cannot double-append."""
    ledger, keys = make_slow_ledger(delay=0.3)
    service = LedgerService(ledger, ServiceConfig(max_batch=1, max_wait_ms=0.0, max_queue=2))
    service.submit(make_request(keys, "alice", "head"))  # writer grabs this
    time.sleep(0.05)
    service.submit(make_request(keys, "alice", "fills"))  # queue now 1/2
    batch = [make_request(keys, "bob", f"b-{i}") for i in range(2)]
    with pytest.raises(ServiceOverloadedError):
        service.submit_many(batch, timeout=0.01)  # needs 2 slots, only 1 free
    with pytest.raises(ServiceOverloadedError):
        # A batch that can never fit fails immediately, nothing queued.
        service.submit_many(
            [make_request(keys, "bob", f"huge-{i}") for i in range(3)], timeout=0
        )
    futures = service.submit_many(batch, timeout=10.0)  # retry is safe: blocks, lands
    for future in futures:
        future.result(timeout=10.0)
    service.close(drain=True)
    assert ledger.size == 5  # genesis + head + fills + the batch of 2, no dupes


# ----------------------------------------------------------- batch salvage


def test_bad_request_is_isolated_not_poisonous():
    """One forged signature fails its own future; batchmates still commit."""
    ledger, keys = make_ledger()
    imposter = KeyPair.generate(seed="svc:imposter")
    bad = ClientRequest.build(
        URI, "alice", b"forged", nonce=b"\0" * 8, client_timestamp=0.0
    ).signed_by(imposter)
    service = LedgerService(ledger, ServiceConfig(max_batch=8, max_wait_ms=100.0))
    futures = [
        service.submit(make_request(keys, "alice", "good-0")),
        service.submit(bad),
        service.submit(make_request(keys, "bob", "good-1")),
        service.submit(make_request(keys, "carol", "good-2")),
    ]
    service.close(drain=True)
    with pytest.raises(AuthenticationError):
        futures[1].result(timeout=5.0)
    good_jsns = sorted(futures[i].result(timeout=5.0).jsn for i in (0, 2, 3))
    assert good_jsns == [1, 2, 3]
    assert ledger.size == 4  # genesis + the three good ones
    stats = service.stats()
    assert stats["rejected"] == 1
    assert stats["salvaged_batches"] >= 1
    payloads = {ledger.get_journal(jsn).payload for jsn in good_jsns}
    assert b"forged" not in payloads


def test_all_bad_batch_rejects_everything():
    ledger, _keys = make_ledger()
    imposter = KeyPair.generate(seed="svc:imposter")
    service = LedgerService(ledger, ServiceConfig(max_batch=4, max_wait_ms=100.0))
    futures = [
        service.submit(
            ClientRequest.build(
                URI, "alice", b"x%d" % i, nonce=b"\0" * 8, client_timestamp=0.0
            ).signed_by(imposter)
        )
        for i in range(3)
    ]
    service.close(drain=True)
    for future in futures:
        with pytest.raises(AuthenticationError):
            future.result(timeout=5.0)
    assert ledger.size == 1  # only genesis


# ------------------------------------------------------------------- misc


def test_submit_rejects_non_request():
    from repro.core.errors import UsageError

    ledger, _keys = make_ledger()
    with LedgerService(ledger) as service:
        with pytest.raises(UsageError):
            service.submit(b"raw bytes are not a ClientRequest")


def test_config_validation():
    from repro.core.errors import UsageError

    with pytest.raises(UsageError):
        ServiceConfig(max_batch=0)
    with pytest.raises(UsageError):
        ServiceConfig(max_queue=0)
    with pytest.raises(UsageError):
        ServiceConfig(max_wait_ms=-1.0)


def test_observability_wiring():
    """Queue gauge, batch histograms, and commit spans land in the registry."""
    ledger, keys = make_ledger()
    obs.enable()
    obs.reset()
    try:
        with LedgerService(ledger, ServiceConfig(max_batch=8, max_wait_ms=5.0)) as svc:
            futures = [svc.submit(make_request(keys, "alice", f"obs-{i}")) for i in range(12)]
            for future in futures:
                future.result(timeout=10.0)
        snap = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
    assert snap["histograms"]["service.batch.size"]["count"] >= 1
    assert snap["histograms"]["service.batch.wait_us"]["count"] == 12
    assert snap["counters"]["service.commit.calls"] >= 1
    assert snap["counters"]["service.commit.journals"] == 12
    assert "service.queue.depth" in snap["gauges"]
