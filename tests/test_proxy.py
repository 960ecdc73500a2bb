"""Ledger proxy + shared storage: the Figure-1 payload/digest split (``examples/frontend``)."""

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.core.errors import AuthenticationError, LedgerError

# The proxy is a demo front end kept beside its example, not a repro module.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
from frontend.proxy import LedgerProxy, PayloadRef
from frontend.shared import BlobIntegrityError, SharedStorage


@pytest.fixture()
def proxy(deployment):
    return LedgerProxy(deployment.ledger, inline_threshold=64)


class TestSharedStorage:
    def test_content_addressing(self):
        storage = SharedStorage()
        digest = storage.put(b"blob contents")
        assert storage.get(digest) == b"blob contents"
        assert digest in storage

    def test_deduplication_and_refcounts(self):
        storage = SharedStorage()
        a = storage.put(b"same")
        b = storage.put(b"same")
        assert a == b and len(storage) == 1
        assert not storage.release(a)  # one ref left
        assert storage.release(a)  # now erased
        assert a not in storage

    def test_missing_blob(self):
        with pytest.raises(KeyError):
            SharedStorage().get(b"\x00" * 32)

    def test_corruption_detected(self):
        storage = SharedStorage()
        digest = storage.put(b"blob")
        storage._blobs[digest] = b"tampered on disk"
        with pytest.raises(BlobIntegrityError):
            storage.get(digest)

    def test_release_unknown_is_noop(self):
        assert not SharedStorage().release(b"\x01" * 32)


class TestPayloadRef:
    def test_round_trip(self):
        ref = PayloadRef(digest=b"\x07" * 32, size=1234)
        assert PayloadRef.from_bytes(ref.to_bytes()) == ref
        assert PayloadRef.is_ref(ref.to_bytes())

    def test_arbitrary_bytes_are_not_refs(self):
        assert not PayloadRef.is_ref(b"just some payload")
        assert not PayloadRef.is_ref(b"")


class TestProxySubmission:
    def test_small_payload_goes_inline(self, deployment, proxy):
        receipt = proxy.append("alice", deployment.keys["alice"], b"small")
        journal = deployment.ledger.get_journal(receipt.jsn)
        assert journal.payload == b"small"
        assert len(proxy.storage) == 0

    def test_large_payload_split(self, deployment, proxy):
        blob = b"X" * 1000
        receipt = proxy.append("alice", deployment.keys["alice"], blob, clues=("BIG",))
        journal = deployment.ledger.get_journal(receipt.jsn)
        assert PayloadRef.is_ref(journal.payload)  # ledger holds the ref
        assert len(journal.payload) < 100  # fixed-size commitment
        assert len(proxy.storage) == 1
        resolved = proxy.get_journal(receipt.jsn)
        assert resolved.payload == blob
        assert resolved.ref is not None

    def test_tampered_upload_rejected(self, deployment, proxy):
        blob = b"Y" * 500
        request, upload = proxy.build_request("alice", blob)
        signed = request.signed_by(deployment.keys["alice"])
        with pytest.raises(AuthenticationError, match="tampered"):
            proxy.submit(signed, b"Z" * 500)
        assert len(proxy.storage) == 0  # nothing admitted

    def test_missing_upload_rejected(self, deployment, proxy):
        request, _upload = proxy.build_request("alice", b"W" * 500)
        signed = request.signed_by(deployment.keys["alice"])
        with pytest.raises(LedgerError, match="raw payload"):
            proxy.submit(signed)

    def test_inline_with_upload_rejected(self, deployment, proxy):
        request, upload = proxy.build_request("alice", b"tiny")
        assert upload is None
        signed = request.signed_by(deployment.keys["alice"])
        with pytest.raises(LedgerError):
            proxy.submit(signed, b"unexpected upload")

    def test_signature_covers_the_reference(self, deployment, proxy):
        # Swapping the referenced digest after signing must fail pi_c checks.
        blob = b"Q" * 500
        request, upload = proxy.build_request("alice", blob)
        signed = request.signed_by(deployment.keys["alice"])
        other_ref = PayloadRef(digest=b"\x09" * 32, size=500)
        forged = dataclasses.replace(signed, payload=other_ref.to_bytes())
        with pytest.raises(AuthenticationError):
            proxy.submit(forged, blob)

    def test_referenced_journal_verifies_on_ledger(self, deployment, proxy):
        blob = b"R" * 700
        receipt = proxy.append("alice", deployment.keys["alice"], blob)
        journal = deployment.ledger.get_journal(receipt.jsn)
        assert deployment.ledger.verify_journal(journal)
        # End-to-end integrity: resolved payload hashes to the committed ref.
        resolved = proxy.get_journal(receipt.jsn)
        from repro.crypto.hashing import sha256

        assert sha256(resolved.payload) == resolved.ref.digest

    def test_release_after_occult(self, deployment, proxy):
        from repro.core import OccultMode

        blob = b"S" * 900
        receipt = proxy.append("alice", deployment.keys["alice"], blob)
        journal = deployment.ledger.get_journal(receipt.jsn)
        deployment.ledger.commit_block()
        record = deployment.ledger.prepare_occult(receipt.jsn, OccultMode.SYNC, "privacy")
        approvals = deployment.sign_approval(["dba", "regulator"], record.approval_digest())
        deployment.ledger.execute_occult(record, approvals)
        assert proxy.release_payload(journal.payload)  # blob gone too
        assert len(proxy.storage) == 0
