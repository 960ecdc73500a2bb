"""One LSP signature per group commit: negative controls and a differential.

A receipt is its statement, a :class:`~repro.merkle.proofs.MembershipProof`
to its batch's root and the batch's signature.  Every way of presenting a
genuine statement under evidence that does not commit to it — another
batch's path or signature, a receipt moved between batches, a path one step
short, a leaf hash standing where an interior node belongs — must be FALSE
at every entry point that checks pi_s: the client's ``accept_receipts``,
``Receipt.verify``, the kernel's ``who`` (alone and through a session's
Dasein check), the audit's Π3 step,
``verify_bundle`` and rebuild.  And the client's batched acceptance, which
checks each distinct batch statement once, must agree with
``Receipt.verify`` receipt by receipt on honest and tampered sets alike.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import LEDGER_URI, Deployment

from repro import obs
from repro.api import LedgerSession
from repro.audit import dasein_audit
from repro.core.receipt import Receipt, ReceiptBatch
from repro.crypto.hashing import leaf_hash
from repro.encoding import EncodingError
from repro.export.bundle import BundleError, ExportBundle, export_bundle
from repro.export.rebuild import rebuild_from_bundle
from repro.export.verifier import verify_bundle
from repro.merkle.proofs import PathStep
from repro.session import accept_receipts
from repro.verify import who

GOLDEN = Path(__file__).parent / "data" / "golden"
BATCH = 8


@pytest.fixture(scope="module")
def world():
    """Two full batches of eight after a populated prefix: the latest
    receipt is leaf 7 of the last batch (a three-step path), and the batch
    before it is "another batch" of the same shape."""
    deployment = Deployment()
    deployment.populate(count=6, anchor_every=3)
    ledger = deployment.ledger
    batches, requests = [], {}
    for round_ in range(2):
        group = [
            deployment.request("alice" if i % 2 else "bob", b"batch-%d-%02d" % (round_, i))
            for i in range(BATCH)
        ]
        receipts = ledger.append_batch(group)
        batches.append(receipts)
        requests.update({receipt.jsn: request for receipt, request in zip(receipts, group)})
        deployment.clock.advance(0.5)
    view = ledger.export_view()
    target = ledger.latest_receipt
    assert target == batches[1][-1] and len(target.proof.path) == 3
    return SimpleNamespace(
        deployment=deployment,
        ledger=ledger,
        key=ledger.lsp_public_key,
        view=view,
        bundle=export_bundle(ledger),
        batches=batches,
        requests=requests,
        target=target,
        journal=ledger.get_journal(target.jsn),
    )


CONTROLS = [
    "another batch's path",
    "another batch's whole evidence",
    "another batch's signature",
    "wrong first_jsn",
    "first_jsn and leaf_index moved together",
    "wrong size",
    "size and tree_size moved together",
    "wrong leaf_index",
    "path one step short",
    "leaf hash as an interior node",
    "no path",
    "unsigned",
]


def moved_proof(receipt, **changes):
    return dataclasses.replace(receipt, proof=dataclasses.replace(receipt.proof, **changes))


def controls(w) -> dict[str, Receipt]:
    """The latest receipt under evidence that does not commit to it."""
    target, other, own = w.target, w.batches[0][-1], w.batches[1]
    path = list(target.proof.path)
    return {
        "another batch's path": dataclasses.replace(target, proof=other.proof),
        "another batch's whole evidence": dataclasses.replace(
            target,
            first_jsn=other.first_jsn,
            batch_size=other.batch_size,
            proof=other.proof,
            lsp_signature=other.lsp_signature,
        ),
        "another batch's signature": dataclasses.replace(
            target, lsp_signature=other.lsp_signature
        ),
        "wrong first_jsn": dataclasses.replace(target, first_jsn=target.first_jsn + 1),
        "first_jsn and leaf_index moved together": moved_proof(
            dataclasses.replace(target, first_jsn=target.first_jsn + 1),
            leaf_index=target.proof.leaf_index - 1,
        ),
        "wrong size": dataclasses.replace(target, batch_size=BATCH + 1),
        "size and tree_size moved together": moved_proof(
            dataclasses.replace(target, batch_size=BATCH + 1), tree_size=BATCH + 1
        ),
        "wrong leaf_index": moved_proof(target, leaf_index=target.proof.leaf_index - 1),
        "path one step short": moved_proof(target, path=path[:-1]),
        "leaf hash as an interior node": moved_proof(
            target,
            path=[path[0], PathStep(leaf_hash(own[5].signing_payload()), True), path[2]],
        ),
        "no path": dataclasses.replace(target, proof=None),
        "unsigned": dataclasses.replace(target, lsp_signature=None),
    }


def test_an_honest_batch_receipt_passes_every_entry_point(world):
    w = world
    assert all(r.verify(w.key) for batch in w.batches for r in batch)
    assert accept_receipts(w.key, LEDGER_URI, [(w.requests[w.target.jsn], w.target)]) == [None]
    assert who(w.journal, w.target, w.view.certificates, w.view.ca_public_key,
               w.view.lsp_member_id)
    assert LedgerSession(w.ledger).verify_dasein(w.target.jsn, w.target).who
    assert dasein_audit(w.view, tsa_keys=w.deployment.tsa_keys).passed
    assert verify_bundle(w.bundle).ok
    assert rebuild_from_bundle(w.bundle)[1].ok


@pytest.mark.parametrize("name", CONTROLS)
def test_a_receipt_its_evidence_does_not_commit_to_is_false_everywhere(world, name):
    w = world
    forged = controls(w)[name]
    assert forged.signing_payload() == w.target.signing_payload()  # a genuine statement
    assert not forged.verify(w.key)
    assert Receipt.from_bytes(forged.to_bytes()) == forged
    [fault] = accept_receipts(w.key, LEDGER_URI, [(w.requests[w.target.jsn], forged)])
    assert fault is not None and "LSP signature" in str(fault)
    assert not who(w.journal, forged, w.view.certificates, w.view.ca_public_key,
                   w.view.lsp_member_id)
    assert LedgerSession(w.ledger).verify_dasein(w.target.jsn, forged).who is False
    audit = dasein_audit(
        dataclasses.replace(w.view, latest_receipt=forged), tsa_keys=w.deployment.tsa_keys
    )
    assert not audit.passed and [step.name for step in audit.failures()] == ["receipt"]
    section = dataclasses.replace(w.bundle.shards[0], latest_receipt=forged.to_bytes())
    bundle = dataclasses.replace(w.bundle, shards=(section,))
    assert not verify_bundle(bundle).ok
    pinned = verify_bundle(bundle, pinned_roots={0: w.ledger.current_root()})
    assert (pinned.what, pinned.who) == (True, False)
    _ledger, report = rebuild_from_bundle(bundle)
    assert not report.ok and [(d.check, d.jsn) for d in report.divergences] == [
        ("receipt", forged.jsn)
    ]


def test_every_control_is_listed(world):
    assert sorted(controls(world)) == sorted(CONTROLS)


@pytest.mark.parametrize("seed", range(6))
def test_batched_acceptance_equals_receipt_verify(world, seed):
    """Honest receipts from both batches and the genesis prefix, mixed with
    forgeries that share their statements, in a random order: one call's
    verdict per receipt is ``Receipt.verify``'s, and each distinct batch
    statement is checked once."""
    w = world
    rng = random.Random(seed)
    honest = [r for batch in w.batches for r in batch]
    forged = rng.sample(list(controls(w).values()), k=rng.randint(0, 6))
    receipts = honest + forged + rng.sample(honest, k=3)
    rng.shuffle(receipts)
    pairs = [(w.requests[receipt.jsn], receipt) for receipt in receipts]
    with obs.scoped() as registry:
        faults = accept_receipts(w.key, LEDGER_URI, pairs)
        counters = registry.snapshot()["counters"]
    assert [fault is None for fault in faults] == [r.verify(w.key) for r in receipts]
    statements = {
        (s.signing_payload(), s.lsp_signature)
        for s in (r.signed_statement() for r in receipts)
        if s is not None and s.lsp_signature is not None
    }
    assert counters["receipt.accept.items"] == len(receipts)
    assert counters["receipt.accept.statements"] == len(statements) < len(receipts)


def test_one_signature_per_group_commit(world):
    w = world
    for batch in w.batches:
        statements = {r.signed_statement() for r in batch}
        assert len(statements) == 1
        [statement] = statements
        assert isinstance(statement, ReceiptBatch)
        assert (statement.first_jsn, statement.size) == (batch[0].jsn, BATCH)
        assert statement.verify(w.key)
    fresh = Deployment()
    with obs.scoped() as registry:
        fresh.ledger.append_batch([fresh.request("alice", b"counted-%02d" % i) for i in range(5)])
        counters = registry.snapshot()["counters"]
    assert (counters["receipt.batches.signed"], counters["receipt.issued"]) == (1, 5)


def test_a_batch_of_one_has_an_empty_path(world):
    w = world
    genesis = w.ledger.receipt_for(0)
    assert genesis.batch_size == 1 and genesis.proof.path == []
    assert genesis.proof.peaks_left == genesis.proof.peaks_right == []
    assert genesis.verify(w.key)


def test_the_rows_hand_back_the_receipts_the_commit_issued(world):
    w = world
    for batch in w.batches:
        for receipt in batch:
            assert w.ledger.receipt_for(receipt.jsn).to_bytes() == receipt.to_bytes()


def test_sign_batch_refuses_what_is_not_one_group_commit(world):
    w = world
    lsp = w.deployment.lsp_key()
    first, second = w.batches[1][0], w.batches[1][1]
    with pytest.raises(ValueError, match="consecutive jsns of one ledger"):
        Receipt.sign_batch([second, first], lsp)
    with pytest.raises(ValueError, match="consecutive jsns of one ledger"):
        Receipt.sign_batch([first, dataclasses.replace(second, ledger_uri="ledger://x")], lsp)


def test_a_parent_format_receipt_is_refused_typed():
    blob = bytes.fromhex((GOLDEN / "refused.record.receipt.v1.hex").read_text())
    with pytest.raises(EncodingError):
        Receipt.from_bytes(blob)


def test_the_parent_format_bundle_is_refused_typed():
    blob = bytes.fromhex((GOLDEN / "refused.bundle.ldbbndl1.hex").read_text())
    assert blob.startswith(b"LDBBNDL1")
    with pytest.raises(BundleError, match="LDBBNDL2"):
        ExportBundle.from_bytes(blob)
