"""Batch-split invariance: how requests are cut into batches changes nothing.

Two ledgers with the same config, members, clock, and LSP key process the
same requests split differently — one per ``append`` (a batch of one) vs.
larger ``append_batch`` calls whose boundaries fall before, on and across
block seals and fam epoch rolls.  Every observable artifact must match
byte-for-byte: stored journal bytes, fam root, CM-Tree state root, the full
block list, and each receipt's statement (its batch path and LSP signature
are its batch's, and must verify).  Both sides run the one commit path, so
this is an invariance, not a reference; the bytes themselves are pinned by
``tests/test_commit_golden.py``.
"""

import pytest

from repro.core import ClientRequest, Ledger, LedgerConfig
from repro.core.errors import AuthenticationError
from repro.core.journal import JournalType
from repro.crypto import KeyPair, Role

URI = "ledger://batch-equivalence"

CLIENTS = ("alice", "bob", "carol")


def _make_ledger(block_size=4, fractal_height=3):
    ledger = Ledger(
        LedgerConfig(uri=URI, fractal_height=fractal_height, block_size=block_size)
    )
    keys = {}
    for name in CLIENTS:
        keypair = KeyPair.generate(seed=f"batch:{name}")
        keys[name] = keypair
        ledger.registry.register(name, Role.USER, keypair.public)
    return ledger, keys


def _requests(keys, count, clue_pool=("buyer:1", "seller:2", "commodity:9")):
    out = []
    for i in range(count):
        client = CLIENTS[i % len(CLIENTS)]
        clues = tuple(clue_pool[: 1 + i % len(clue_pool)])
        out.append(
            ClientRequest.build(
                URI,
                client,
                payload=f"tx-{i}".encode(),
                clues=clues,
                nonce=i.to_bytes(8, "big"),
                client_timestamp=1.0,
            ).signed_by(keys[client])
        )
    return out


def _assert_equivalent(seq_ledger, batch_ledger, seq_receipts, batch_receipts):
    assert seq_ledger.size == batch_ledger.size
    assert seq_ledger.current_root() == batch_ledger.current_root()
    assert seq_ledger.state_root() == batch_ledger.state_root()
    # Stored journal bytes, jsn by jsn.
    for jsn in range(seq_ledger.size):
        assert seq_ledger._stream.read(jsn) == batch_ledger._stream.read(jsn)
    # Block lists seal at identical boundaries with identical headers.
    assert [b.hash() for b in seq_ledger.blocks] == [
        b.hash() for b in batch_ledger.blocks
    ]
    # Receipt statements are byte-identical; each receipt's batch path and
    # signature are its own batch's, and every one verifies under the LSP key.
    assert len(seq_receipts) == len(batch_receipts)
    for a, b in zip(seq_receipts, batch_receipts):
        assert a.signing_payload() == b.signing_payload()
        assert a.verify(seq_ledger.lsp_public_key) and b.verify(batch_ledger.lsp_public_key)
    assert seq_ledger.lsp_public_key == batch_ledger.lsp_public_key
    # Clue index agrees for every clue either side knows.
    for clue in ("buyer:1", "seller:2", "commodity:9"):
        assert seq_ledger.list_tx(clue) == batch_ledger.list_tx(clue)
        assert seq_ledger.clue_entry_count(clue) == batch_ledger.clue_entry_count(clue)


@pytest.mark.parametrize("batch_sizes", [[1], [3], [5, 8, 7], [1, 3, 5, 8, 7]])
def test_batch_equals_sequential(batch_sizes):
    total = sum(batch_sizes)
    seq_ledger, keys = _make_ledger(block_size=4)
    batch_ledger, _ = _make_ledger(block_size=4)
    requests = _requests(keys, total)

    seq_receipts = [seq_ledger.append(r) for r in requests]
    batch_receipts = []
    cursor = 0
    for size in batch_sizes:
        batch_receipts.extend(batch_ledger.append_batch(requests[cursor : cursor + size]))
        cursor += size

    _assert_equivalent(seq_ledger, batch_ledger, seq_receipts, batch_receipts)


def test_batch_spanning_multiple_block_seals():
    # block_size=4, genesis occupies jsn 0 — a batch of 11 crosses two seals
    # mid-batch and leaves a partial block pending.
    seq_ledger, keys = _make_ledger(block_size=4)
    batch_ledger, _ = _make_ledger(block_size=4)
    requests = _requests(keys, 11)
    seq_receipts = [seq_ledger.append(r) for r in requests]
    batch_receipts = batch_ledger.append_batch(requests)
    assert len(batch_ledger.blocks) == 3  # jsn 0..3, 4..7, 8..11
    _assert_equivalent(seq_ledger, batch_ledger, seq_receipts, batch_receipts)


def test_batch_spanning_fam_epoch_rollover():
    # fractal_height=2 -> epoch capacity 4; 12 journals roll several epochs.
    seq_ledger, keys = _make_ledger(block_size=4, fractal_height=2)
    batch_ledger, _ = _make_ledger(block_size=4, fractal_height=2)
    requests = _requests(keys, 12)
    seq_receipts = [seq_ledger.append(r) for r in requests]
    batch_receipts = batch_ledger.append_batch(requests)
    assert batch_ledger._fam.num_epochs == seq_ledger._fam.num_epochs > 1
    _assert_equivalent(seq_ledger, batch_ledger, seq_receipts, batch_receipts)


def test_empty_batch_is_a_noop():
    ledger, _ = _make_ledger()
    root = ledger.current_root()
    assert ledger.append_batch([]) == []
    assert ledger.current_root() == root


def test_batch_rejects_atomically_on_bad_signature():
    ledger, keys = _make_ledger()
    requests = _requests(keys, 6)
    # Corrupt the middle request: signed by the wrong key.
    bad = ClientRequest.build(
        URI,
        "bob",
        payload=b"forged",
        nonce=b"\x00" * 8,
        client_timestamp=1.0,
    ).signed_by(keys["alice"])
    requests[3] = bad
    size_before = ledger.size
    root_before = ledger.current_root()
    state_before = ledger.state_root()
    with pytest.raises(AuthenticationError):
        ledger.append_batch(requests)
    assert ledger.size == size_before
    assert ledger.current_root() == root_before
    assert ledger.state_root() == state_before
    assert len(ledger._stream) == size_before


def test_batch_rejects_unknown_member_atomically():
    ledger, keys = _make_ledger()
    stranger = KeyPair.generate(seed="batch:stranger")
    requests = _requests(keys, 2)
    requests.append(
        ClientRequest.build(
            URI, "mallory", payload=b"x", nonce=b"\x01" * 8, client_timestamp=1.0
        ).signed_by(stranger)
    )
    size_before = ledger.size
    with pytest.raises(AuthenticationError):
        ledger.append_batch(requests)
    assert ledger.size == size_before


def test_batch_rejects_wrong_uri_and_system_journal_types():
    ledger, keys = _make_ledger()
    wrong_uri = ClientRequest.build(
        "ledger://other", "alice", payload=b"x", nonce=b"\x02" * 8, client_timestamp=1.0
    ).signed_by(keys["alice"])
    with pytest.raises(AuthenticationError):
        ledger.append_batch([wrong_uri])
    time_journal = ClientRequest.build(
        URI,
        "alice",
        payload=b"x",
        nonce=b"\x03" * 8,
        client_timestamp=1.0,
        journal_type=JournalType.TIME,
    ).signed_by(keys["alice"])
    with pytest.raises(AuthenticationError):
        ledger.append_batch([time_journal])


def test_batch_rejects_unsigned_request():
    ledger, keys = _make_ledger()
    unsigned = ClientRequest.build(
        URI, "alice", payload=b"x", nonce=b"\x04" * 8, client_timestamp=1.0
    )
    with pytest.raises(AuthenticationError):
        ledger.append_batch([unsigned])


def test_batched_journals_verify_like_sequential_ones():
    ledger, keys = _make_ledger()
    receipts = ledger.append_batch(_requests(keys, 8))
    for receipt in receipts:
        journal = ledger.get_journal(receipt.jsn)
        assert ledger.verify_journal(journal)
        assert receipt.verify(ledger.registry.certificate("__lsp__").public_key)


def test_client_sdk_append_batch():
    from repro.api import LedgerSession

    ledger, keys = _make_ledger()
    client = LedgerSession(ledger, client_id="alice", keypair=keys["alice"])
    receipts = client.append_batch([(b"a", ("c1",)), (b"b", ("c1", "c2")), (b"c", ())])
    assert [r.jsn for r in receipts] == [1, 2, 3]
    assert all(client.receipt_for(r.jsn) is not None for r in receipts)
    assert ledger.get_journal(2).clues == ("c1", "c2")
    # Nonces keep advancing for later singleton appends.
    follow_up = client.append(b"d")
    assert follow_up.jsn == 4


def test_client_sdk_append_batch_unwinds_nonce_on_rejection():
    from repro.api import LedgerSession

    ledger, keys = _make_ledger()
    wrong_key = KeyPair.generate(seed="batch:imposter")
    client = LedgerSession(ledger, client_id="alice", keypair=wrong_key)
    size = ledger.size
    with pytest.raises(AuthenticationError):
        client.append_batch([(b"a", ())])
    # Nothing was admitted, so the in-process nonce source (the ledger size)
    # has not moved.
    assert ledger.size == size and client.port.stamps(1)[0][0] == size


def test_session_append_batch():
    from repro import api

    with api.scoped_ledger(
        URI, config=LedgerConfig(uri=URI, fractal_height=3, block_size=4)
    ) as session:
        keypair = KeyPair.generate(seed="batch:facade")
        session.ledger.registry.register("dave", Role.USER, keypair.public)
        receipts = session.append_batch(
            [(b"p1", "clue-x"), (b"p2", None), (b"p3", "clue-x")],
            client_id="dave",
            keypair=keypair,
        )
        assert [r.jsn for r in receipts] == [1, 2, 3]
        assert session.ledger.list_tx("clue-x") == [1, 3]
