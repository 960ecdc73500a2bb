"""repro.api v2: session handles, structured verify, registry symmetry."""

from __future__ import annotations

import dataclasses

import pytest

import repro.api as api
from repro.core import VerifyResult
from repro.core.errors import LedgerError, UsageError
from repro.crypto import KeyPair, Role
from repro.service import LedgerService, ServiceConfig

URI = "ledger://api-v2"


@pytest.fixture()
def session():
    with api.scoped_ledger(URI) as session:
        keypair = KeyPair.generate(seed="v2:alice")
        session.ledger.registry.register("alice", Role.USER, keypair.public)
        session.client_id = "alice"
        session.keypair = keypair
        yield session


# ------------------------------------------------------------- registry


class TestRegistry:
    def test_create_connect_drop(self):
        ledger = api.create(URI)
        try:
            assert api.get_ledger(URI) is ledger
            assert api.connect(URI).ledger is ledger
            assert URI in api.list_ledgers()
        finally:
            api.drop_ledger(URI)
        assert URI not in api.list_ledgers()

    def test_symmetric_strictness(self):
        """create-on-duplicate and drop-on-unknown now fail alike."""
        api.create(URI)
        try:
            with pytest.raises(UsageError):
                api.create(URI)
        finally:
            api.drop_ledger(URI)
        with pytest.raises(UsageError):
            api.drop_ledger(URI)  # already gone: symmetric with create
        api.drop_ledger(URI, missing_ok=True)  # escape hatch is explicit

    def test_exist_ok_returns_existing(self):
        ledger = api.create(URI)
        try:
            assert api.create(URI, exist_ok=True) is ledger
            with pytest.raises(UsageError):
                # exist_ok must not silently ignore a conflicting config
                api.create(URI, exist_ok=True, config=object())
        finally:
            api.drop_ledger(URI)

    def test_connect_unknown_lgid(self):
        with pytest.raises(UsageError):
            api.connect("ledger://never-created")

    def test_scoped_ledger_cleans_up_after_exception(self):
        with pytest.raises(RuntimeError):
            with api.scoped_ledger(URI):
                assert URI in api.list_ledgers()
                raise RuntimeError("boom")
        assert URI not in api.list_ledgers()
        with api.scoped_ledger(URI):  # the lgid is reusable immediately
            pass

    def test_usage_error_is_ledger_error_and_value_error(self):
        with pytest.raises(LedgerError):
            api.get_ledger("ledger://nope")
        with pytest.raises(ValueError):
            api.get_ledger("ledger://nope")


# -------------------------------------------------------------- sessions


class TestLedgerSession:
    def test_bound_identity_append(self, session):
        receipt = session.append(b"hello", clue="C")
        assert receipt.jsn == 1
        journal = session.ledger.get_journal(1)
        assert journal.client_id == "alice" and journal.clues == ("C",)

    def test_append_argument_contract(self, session):
        with pytest.raises(UsageError):
            session.append()  # neither payload nor request
        with pytest.raises(UsageError):
            session.append(b"x", clue="a", clues=("b",))  # both clue forms
        request = session._sign([(b"ok", ())], None, None)[0]
        with pytest.raises(UsageError):
            session.append(b"x", request=request)  # payload and request

    def test_append_without_identity(self):
        with api.scoped_ledger(URI) as anonymous:
            with pytest.raises(UsageError):
                anonymous.append(b"unsigned")

    def test_append_batch_items(self, session):
        receipts = session.append_batch([(b"a", "k"), (b"b", None), (b"c", "k")])
        assert [r.jsn for r in receipts] == [1, 2, 3]
        assert [j.payload for j in session.list_tx("k")] == [b"a", b"c"]
        with pytest.raises(UsageError):
            session.append_batch()  # neither items nor requests
        with pytest.raises(UsageError):
            session.append_batch([(b"d", None)], requests=[])  # both

    def test_append_batch_of_bare_payloads_is_a_usage_error(self, session):
        size = session.ledger.size
        for items in ([b"x0", b"x1"], [b"abc"], [(b"a", "k", "extra")]):
            with pytest.raises(UsageError, match=r"\(payload, clue\) pairs"):
                session.append_batch(items)
        assert session.ledger.size == size

    def test_get_proof_and_verify_roundtrip(self, session):
        receipt = session.append(b"doc")
        journal = session.ledger.get_journal(receipt.jsn)
        proof = session.get_proof(receipt.jsn, anchored=False)
        result = session.verify("tx", txdata=[journal], rho=proof, level="client")
        assert result
        assert result.proof is proof

    def test_get_proofs_matches_single_calls(self, session):
        receipts = [session.append(b"doc-%d" % i) for i in range(7)]
        jsns = [r.jsn for r in receipts]
        for anchored in (False, True):
            bulk = session.get_proofs(jsns, anchored=anchored)
            singles = [session.get_proof(jsn, anchored=anchored) for jsn in jsns]
            assert [p.to_bytes() for p in bulk] == [p.to_bytes() for p in singles]
        assert session.get_proofs([]) == []

    def test_session_owned_service_lifecycle(self):
        with api.scoped_ledger(URI, service=True) as session:
            keypair = KeyPair.generate(seed="v2:svc")
            session.ledger.registry.register("s", Role.USER, keypair.public)
            assert isinstance(session.service, LedgerService)
            receipt = session.append(b"via-service", client_id="s", keypair=keypair)
            assert receipt.jsn == 1
            owned = session.service
        assert owned.closed  # scoped exit drained and closed the owned service

    def test_session_with_service_config(self):
        with api.scoped_ledger(URI, service=ServiceConfig(max_batch=4)) as session:
            assert session.service.config.max_batch == 4

    def test_shared_service_not_closed_by_session(self):
        ledger = api.create(URI)
        try:
            shared = LedgerService(ledger)
            with api.connect(URI, service=shared):
                pass
            assert not shared.closed  # caller owns it
            shared.close()
        finally:
            api.drop_ledger(URI)

    def test_service_batch_append_coalesces(self):
        with api.scoped_ledger(URI, service=True) as session:
            keypair = KeyPair.generate(seed="v2:bulk")
            session.ledger.registry.register("bulk", Role.USER, keypair.public)
            receipts = session.append_batch(
                [(b"p%d" % i, None) for i in range(10)],
                client_id="bulk",
                keypair=keypair,
                timeout=30.0,
            )
            assert sorted(r.jsn for r in receipts) == list(range(1, 11))

    def test_bad_service_argument(self):
        with api.scoped_ledger(URI) as session:
            with pytest.raises(UsageError):
                api.LedgerSession(session.ledger, service="not-a-service")


# ------------------------------------------------------- structured verify


class TestVerifyResult:
    def test_tx_result_fields(self, session):
        receipt = session.append(b"payload", clue="C")
        journal = session.ledger.get_journal(receipt.jsn)
        result = session.verify("tx", txdata=[journal])
        assert isinstance(result, VerifyResult)
        assert result and result.ok and bool(result) is True
        assert result.target == "tx" and result.level == "server"
        assert result.what is True and result.when is None and result.who is None
        assert result.proof is not None
        assert result.trusted_root == session.ledger.current_root()
        assert result.jsn == receipt.jsn

    def test_failed_verify_is_falsy_not_raising(self, session):
        receipt = session.append(b"original")
        journal = session.ledger.get_journal(receipt.jsn)
        forged = dataclasses.replace(journal, payload=b"tampered")
        result = session.verify("tx", txdata=[forged])
        assert not result and result.ok is False
        assert result.what is False

    def test_clue_result_both_levels(self, session):
        for i in range(5):
            session.append(b"item-%d" % i, clue="LINE")
        journals = session.list_tx("LINE")
        server = session.verify("clue", key="LINE", txdata=journals)
        client = session.verify("clue", key="LINE", txdata=journals, level="client")
        assert server and client
        assert client.proof is not None and client.trusted_root is not None
        # Omission (completeness violation) must fail on both levels.
        assert not session.verify("clue", key="LINE", txdata=journals[:-1])

    def test_verify_argument_contract(self, session):
        with pytest.raises(UsageError):
            session.verify("tx", txdata=[])
        with pytest.raises(UsageError):
            session.verify("clue", key=None, txdata=None)
        with pytest.raises(UsageError):
            session.verify("existence")  # not a target
        with pytest.raises(UsageError):
            session.verify("tx", txdata=[object()], level="maybe")

    def test_verify_dasein_flows_through_result(self, deployment):
        deployment.populate(count=6, anchor_every=3)
        deployment.ledger.collect_time_evidence()
        session = api.LedgerSession(deployment.ledger)
        jsn = deployment.ledger.list_tx("CLUE-A")[0]
        result = session.verify_dasein(jsn, tsa_keys=deployment.tsa_keys)
        assert isinstance(result, VerifyResult)
        assert result.target == "dasein" and result.level == "client"
        assert result.ok and result.what and result.when and result.who
        assert result.when_bound is not None
        assert result.trusted_root is not None and result.proof is not None

    def test_verify_dasein_reports_failing_factor(self, deployment):
        # No time anchor at all: `when` has no credible ceiling -> not ok,
        # while what/who still hold. The per-factor surface shows exactly that.
        deployment.append("alice", b"untimed")
        session = api.LedgerSession(deployment.ledger)
        result = session.verify_dasein(1, tsa_keys=deployment.tsa_keys)
        assert not result
        assert result.what is True and result.who is True and result.when is False

    def test_from_dasein_truthiness(self):
        from repro.artifacts import DaseinReport

        complete = DaseinReport(jsn=3, what=True, when_valid=True, when_bound=None, who=True)
        partial = DaseinReport(jsn=3, what=True, when_valid=False, when_bound=None, who=True)
        assert VerifyResult.from_dasein(complete)
        assert not VerifyResult.from_dasein(partial)
