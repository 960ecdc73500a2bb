"""The in-process verifying session (a distrusting member's agent) and the
v2 session API surface."""

import dataclasses

import pytest

import repro.api as api
from repro.api import VerifyLevel, VerifyTarget
from repro.core.errors import LedgerError, VerificationFailure
from repro.verify import AnchorTracker


@pytest.fixture()
def client(deployment):
    """Alice's session over the in-process port."""
    return api.LedgerSession(deployment.ledger, client_id="alice", keypair=deployment.keys["alice"])


def sealed_epochs(ledger):
    return ledger.head.epoch


class TestLedgerClient:
    def test_anchor_state_is_the_shared_trackers(self, deployment, client):
        """The session keeps no anchor logic of its own: its store and state
        are the kernel tracker's, fed by the ledger's fam_extension read."""
        assert isinstance(client.tracker, AnchorTracker)
        assert client.anchors is client.tracker.anchors
        assert client.state is client.tracker.state
        client.append(b"tracked")
        client.sync_anchors()
        assert client.state.live_root == deployment.ledger.current_root()

    def test_append_stores_validated_receipt(self, deployment, client):
        receipt = client.append(b"hello", clues=("C",))
        assert client.receipt_for(receipt.jsn) is receipt
        journal = deployment.ledger.get_journal(receipt.jsn)
        assert journal.payload == b"hello"

    def test_sync_anchors_and_verify(self, deployment, client):
        receipts = [client.append(b"doc-%d" % i) for i in range(30)]
        added = client.sync_anchors()
        assert added == sealed_epochs(deployment.ledger) == len(client.anchors)
        for receipt in receipts:
            journal = deployment.ledger.get_journal(receipt.jsn)
            assert client.verify_journal(journal)

    def test_incremental_sync_is_cheap(self, deployment, client):
        for i in range(20):
            client.append(b"a-%d" % i)
        first = client.sync_anchors()
        for i in range(20):
            client.append(b"b-%d" % i)
        second = client.sync_anchors()
        assert first + second == sealed_epochs(deployment.ledger)
        assert client.sync_anchors() == 0  # already current

    def test_verify_fails_for_tampered_journal(self, deployment, client):
        receipt = client.append(b"original")
        client.sync_anchors()
        journal = deployment.ledger.get_journal(receipt.jsn)
        forged = dataclasses.replace(journal, payload=b"tampered")
        assert not client.verify_journal(forged)

    def test_client_dasein_verification(self, deployment, client):
        receipt = client.append(b"payload")
        deployment.clock.advance(0.2)
        deployment.ledger.anchor_time()
        deployment.clock.advance(2.0)
        deployment.ledger.collect_time_evidence()
        client.sync_anchors()
        result = client.verify_dasein(receipt.jsn, tsa_keys=deployment.tsa_keys)
        assert result.ok and (result.what, result.when, result.who) == (True, True, True)

    def test_verify_clue(self, deployment, client):
        for i in range(6):
            client.append(b"item-%d" % i, clues=("LINE",))
        assert client.verify_clue("LINE")
        assert not client.verify_clue("GHOST")

    def test_live_rewrite_detected(self, deployment, client):
        """A server that rewrites the live epoch after the client verified it
        must be caught by the consistency check on the next sync."""
        client.append(b"first")
        client.sync_anchors()
        # Simulate a malicious in-place rewrite of the live epoch.
        fam = deployment.ledger._fam
        live = fam._epochs[-1]
        from repro.crypto.hashing import leaf_hash

        live._levels[0][-1] = leaf_hash(b"rewritten")
        # Invalidate cached parents so the forged tree is self-consistent.
        if len(live._levels) > 1:
            rebuilt = type(live)()
            for digest in live._levels[0]:
                rebuilt.append_leaf(digest)
            fam._epochs[-1] = rebuilt
        client.append(b"second")  # grows the (forged) epoch
        with pytest.raises(VerificationFailure):
            client.sync_anchors()


class TestSessionSurface:
    """The v2 session surface keeps the paper-API contract intact."""

    @pytest.fixture(autouse=True)
    def registry_hygiene(self):
        yield
        api.drop_ledger("ledger://facade", missing_ok=True)

    def test_create_and_duplicate(self):
        ledger = api.create("ledger://facade")
        assert api.get_ledger("ledger://facade") is ledger
        with pytest.raises(LedgerError):
            api.create("ledger://facade")

    def test_unknown_ledger(self):
        with pytest.raises(LedgerError):
            api.get_ledger("ledger://nope")

    def test_append_list_verify_flow(self):
        from repro.crypto import KeyPair, Role

        ledger = api.create("ledger://facade")
        user = KeyPair.generate(seed="facade-user")
        ledger.registry.register("u", Role.USER, user.public)
        session = api.connect("ledger://facade", client_id="u", keypair=user)
        for i in range(4):
            session.append(b"item-%d" % i, clue="DCI001")
        journals = session.list_tx("DCI001")
        assert len(journals) == 4
        assert session.verify(
            VerifyTarget.CLUE, key="DCI001", txdata=journals, level=VerifyLevel.SERVER
        )
        assert session.verify(
            VerifyTarget.CLUE, key="DCI001", txdata=journals, level=VerifyLevel.CLIENT
        )
        assert session.verify(
            VerifyTarget.TX, txdata=[journals[0]], level=VerifyLevel.CLIENT
        )

    def test_clue_verify_rejects_omission(self):
        from repro.crypto import KeyPair, Role

        ledger = api.create("ledger://facade")
        user = KeyPair.generate(seed="facade-user")
        ledger.registry.register("u", Role.USER, user.public)
        session = api.connect("ledger://facade", client_id="u", keypair=user)
        for i in range(4):
            session.append(b"item-%d" % i, clue="D")
        journals = session.list_tx("D")
        assert not session.verify(
            VerifyTarget.CLUE, key="D", txdata=journals[:-1], level=VerifyLevel.SERVER
        )

    def test_argument_validation(self):
        api.create("ledger://facade")
        session = api.connect("ledger://facade")
        with pytest.raises(LedgerError):
            session.append(b"x")  # no keypair bound, none passed
        with pytest.raises(LedgerError):
            session.verify(VerifyTarget.TX, txdata=[])
        with pytest.raises(LedgerError):
            session.verify(VerifyTarget.CLUE, key=None, txdata=None)


class TestOccultByClue:
    def test_stages_every_live_entry(self, populated):
        deployment, _receipts = populated
        count = len(deployment.ledger.list_tx("CLUE-A"))
        records = deployment.ledger.prepare_occult_by_clue("CLUE-A", reason="order")
        assert len(records) == count
        # Execute them all; the clue count survives, payloads do not.
        for record in records:
            approvals = deployment.sign_approval(
                ["dba", "regulator"], record.approval_digest()
            )
            deployment.ledger.execute_occult(record, approvals)
        deployment.ledger.reorganize()
        assert deployment.ledger.clue_entry_count("CLUE-A") == count
        from repro.core import JournalOccultedError

        for jsn in deployment.ledger.list_tx("CLUE-A"):
            with pytest.raises(JournalOccultedError):
                deployment.ledger.get_journal(jsn)

    def test_skips_already_occulted(self, populated):
        deployment, _receipts = populated
        first = deployment.ledger.prepare_occult_by_clue("CLUE-A")[0]
        approvals = deployment.sign_approval(["dba", "regulator"], first.approval_digest())
        deployment.ledger.execute_occult(first, approvals)
        remaining = deployment.ledger.prepare_occult_by_clue("CLUE-A")
        assert all(r.target_jsn != first.target_jsn for r in remaining)

    def test_audit_passes_after_occult_by_clue(self, populated):
        deployment, _receipts = populated
        from repro.core import dasein_audit

        for record in deployment.ledger.prepare_occult_by_clue("CLUE-A"):
            approvals = deployment.sign_approval(
                ["dba", "regulator"], record.approval_digest()
            )
            deployment.ledger.execute_occult(record, approvals)
        deployment.ledger.reorganize()
        report = dasein_audit(
            deployment.ledger.export_view(), tsa_keys=deployment.tsa_keys
        )
        assert report.passed
