"""The ledger keeps the receipts it issued as packed rows.

``receipt_for(jsn)`` rebuilds a receipt from its row, the ledger's uri and
the hash of the block it names: the bytes must be exactly those the commit
handed out, through batches, seals, epoch rolls, time anchors, mutations,
shards and reopens, and a jsn without a receipt answers ``None``.  The rows
hold no reference back to their ledger, so a dropped ledger is freed by
reference counting alone.
"""

import gc
import sys
import threading
import weakref
from dataclasses import replace

import pytest
from conftest import LEDGER_URI, Deployment

from repro.core import ClientRequest, Ledger, LedgerConfig, OccultMode
from repro.core.members import MemberRegistry
from repro.core.receipt import Receipt, ReceiptRows
from repro.crypto import KeyPair, Role
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import EMPTY_DIGEST
from repro.shard import new_deployment
from repro.storage.stream import MemoryStream
from repro.timeauth import SimClock


def record(issued, receipts):
    for receipt in receipts:
        issued[receipt.jsn] = receipt.to_bytes()


def assert_rows_match(ledger, issued):
    for jsn, blob in issued.items():
        assert ledger.receipt_for(jsn).to_bytes() == blob, jsn
    assert ledger.receipt_for(ledger.size) is None
    assert ledger.receipt_for(-1) is None


def batch(deployment, start, count, clues=("ROW-A", "ROW-B")):
    requests = []
    for index in range(start, start + count):
        client = "alice" if index % 2 else "bob"
        requests.append(deployment.request(client, b"row-%05d" % index, clues[: index % 3]))
        deployment.clock.advance(0.125)
    return deployment.ledger.append_batch(requests)


def test_every_issued_receipt_comes_back_byte_for_byte():
    deployment = Deployment(fractal_height=3, block_size=4)
    ledger = deployment.ledger
    issued = {}
    record(issued, [ledger.latest_receipt])  # genesis
    start = 0
    for count in (1, 3, 5, 2, 9, 16):
        record(issued, batch(deployment, start, count))
        start += count
        if count % 2:
            ledger.commit_block()  # a seal between batches
        assert ledger.anchor_time() == ledger.latest_receipt.jsn
        record(issued, [ledger.latest_receipt])
        assert len(issued) == ledger.size
    assert ledger.head.epoch >= 3  # several epoch rolls
    deployment.clock.advance(2.0)
    ledger.collect_time_evidence()
    occult = ledger.prepare_occult(5, OccultMode.SYNC, reason="rows")
    approvals = deployment.sign_approval(("dba", "regulator"), occult.approval_digest())
    record(issued, [ledger.execute_occult(occult, approvals)])
    record(issued, batch(deployment, start, 4))
    point = ledger.blocks[2].end_jsn
    pseudo, purge = ledger.prepare_purge(point)
    signers = list(ledger.purge_required_signers(point))
    approvals = deployment.sign_approval(signers, purge.approval_digest())
    record(issued, [ledger.execute_purge(pseudo, purge, approvals)])
    record(issued, batch(deployment, start + 4, 3))
    assert len(issued) == ledger.size
    assert_rows_match(ledger, issued)
    assert ledger.receipt_for(ledger.size - 1) == ledger.latest_receipt


def test_a_two_shard_deployment_reads_each_shards_rows():
    clock = SimClock()
    registry = MemberRegistry()
    user = KeyPair.generate(seed="rows:user")
    registry.register("user", Role.USER, user.public)
    sharded = new_deployment(
        LedgerConfig(uri="ledger://rows", shards=2, fractal_height=3, block_size=4),
        clock=clock, registry=registry,
    )
    requests = [
        ClientRequest.build(
            "ledger://rows", "user", b"sharded-%03d" % index, clues=("K%d" % (index % 5),),
            nonce=index.to_bytes(4, "big"), client_timestamp=clock.now(),
        ).signed_by(user)
        for index in range(40)
    ]
    for start in range(0, 40, 8):
        group = requests[start : start + 8]
        for request, receipt in zip(group, sharded.append_batch(group)):
            shard_index = sharded.shard_of_request(request)
            gsn = sharded.global_jsn(shard_index, receipt.jsn)
            assert sharded.receipt_for(gsn).to_bytes() == receipt.to_bytes()
        clock.advance(1.0)
    for shard in sharded.shards:
        assert shard.receipt_for(shard.size - 1) == shard.latest_receipt


def build_persistent(tmp_path):
    registry = MemberRegistry()
    lsp = KeyPair.generate(seed="rows:lsp")
    user = KeyPair.generate(seed="rows:user")
    registry.register("user", Role.USER, user.public)
    clock = SimClock()
    config = LedgerConfig(
        uri="ledger://rows-reopen", fractal_height=3, block_size=4,
        data_dir=str(tmp_path / "ledger"),
    )
    ledger = Ledger(config, clock=clock, registry=registry, lsp_keypair=lsp)
    return ledger, registry, lsp, user, clock


def appended(ledger, user, clock, start, count):
    requests = [
        ClientRequest.build(
            ledger.config.uri, "user", b"reopen-%03d" % index, clues=("R",),
            nonce=index.to_bytes(4, "big"), client_timestamp=clock.now(),
        ).signed_by(user)
        for index in range(start, start + count)
    ]
    clock.advance(0.5)
    return ledger.append_batch(requests)


@pytest.mark.parametrize("reopen", ["open", "open by replay", "recover"])
def test_the_reissued_receipt_is_a_row_too(tmp_path, reopen):
    ledger, registry, lsp, user, clock = build_persistent(tmp_path)
    appended(ledger, user, clock, 0, 13)
    last = ledger.size - 1
    if reopen == "recover":
        stream = MemoryStream()
        stream.append_many([ledger._stream.read(jsn) for jsn in range(ledger.size)])
        ledger.close(checkpoint=False)
        config = replace(ledger.config, data_dir=None)
        reopened = Ledger.recover(config, stream, registry, lsp, clock=clock)
    else:
        ledger.close(checkpoint=reopen == "open")
        reopened = Ledger.open(ledger.config.data_dir, registry, lsp, clock=clock)
    reissued = reopened.latest_receipt
    assert reissued.jsn == last and reissued.request_hash == EMPTY_DIGEST
    assert reopened.receipt_for(last).to_bytes() == reissued.to_bytes()
    # As before the rows: a reopened ledger has no receipt for older jsns.
    assert reopened.receipt_for(last - 1) is None
    issued = {last: reissued.to_bytes()}
    record(issued, appended(reopened, user, clock, 13, 6))
    assert_rows_match(reopened, issued)
    reopened.close(checkpoint=False)


def test_readers_beside_a_writer_read_whole_rows():
    """Three readers, more threads than cores, each read the head's receipt
    from the rows while the writer keeps growing them: the row for a head's
    last jsn is always there and always that head's receipt."""
    deployment = Deployment(fractal_height=3, block_size=4)
    ledger = deployment.ledger
    stop = threading.Event()
    mismatches: list[int] = []

    def read() -> None:
        while not stop.is_set():
            head = ledger.head
            row = ledger.receipt_for(head.size - 1)
            if row is None or row.to_bytes() != head.receipt.to_bytes():
                mismatches.append(head.size)

    readers = [threading.Thread(target=read) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for reader in readers:
            reader.start()
        for start in range(0, 96, 6):
            batch(deployment, start, 6)
    finally:
        stop.set()
        for reader in readers:
            reader.join(30.0)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert not mismatches, mismatches[:5]
    assert ledger.size == 97


def test_a_dropped_ledger_is_freed_without_the_cycle_collector():
    deployment = Deployment()
    deployment.populate(count=6)
    assert deployment.ledger.receipt_for(3) is not None
    ledger = weakref.ref(deployment.ledger)
    gc.disable()
    try:
        del deployment
        assert ledger() is None
    finally:
        gc.enable()


def test_a_row_is_the_receipts_own_fields():
    lsp = KeyPair.generate(seed="rows:lsp")
    receipt = Receipt(
        ledger_uri=LEDGER_URI, jsn=7, request_hash=b"q" * 32, tx_hash=b"t" * 32,
        block_hash=EMPTY_DIGEST, block_height=-1, ledger_root=b"r" * 32, timestamp=1.5,
    ).signed_by(lsp)
    rows = ReceiptRows(LEDGER_URI)
    rows.add_batch([receipt])
    assert len(rows) == 1 and rows.get(7, []).to_bytes() == receipt.to_bytes()
    assert rows.get(6, []) is None and rows.get(8, []) is None
    for gap in (7, 9):
        with pytest.raises(ValueError, match="does not follow"):
            rows.add_batch([replace(receipt, jsn=gap).signed_by(lsp)])
    following = replace(receipt, jsn=8).signed_by(lsp)
    for unfit in (
        replace(following, lsp_signature=None),
        replace(following, tx_hash=b"short"),
        replace(following, lsp_signature=Signature(1, 2, None)),
        replace(following, lsp_signature=Signature(1 << 256, 2, 3)),
    ):
        with pytest.raises(ValueError, match="does not fit"):
            rows.add_batch([unfit])
    pair = Receipt.sign_batch([replace(receipt, jsn=8), replace(receipt, jsn=9)], lsp)
    for torn in ([pair[0]], [pair[0], replace(pair[1], jsn=10)], [following, pair[1]]):
        with pytest.raises(ValueError, match="not one batch"):
            rows.add_batch(torn)
    assert len(rows) == 1
    rows.add_batch(pair)
    assert [rows.get(jsn, []) for jsn in (8, 9)] == pair
    assert rows.get(7, []).to_bytes() == receipt.to_bytes()
