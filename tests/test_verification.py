"""Client-side Dasein verification: what / when / who, honest and adversarial."""

import dataclasses

import pytest

from repro.core import DaseinVerifier
from repro.verify import parse_time_journal


@pytest.fixture()
def verifier_setup(populated):
    deployment, receipts = populated
    view = deployment.ledger.export_view()
    verifier = DaseinVerifier(view, tsa_keys=deployment.tsa_keys)
    return deployment, receipts, view, verifier


class TestWhat:
    def test_honest_journal_verifies(self, verifier_setup):
        deployment, receipts, _view, verifier = verifier_setup
        journal = verifier.journal_at(receipts[2].jsn)
        proof = deployment.ledger.get_proof(journal.jsn, anchored=False)
        assert verifier.verify_what(journal, proof)

    def test_tampered_journal_fails(self, verifier_setup):
        deployment, receipts, _view, verifier = verifier_setup
        journal = verifier.journal_at(receipts[2].jsn)
        proof = deployment.ledger.get_proof(journal.jsn, anchored=False)
        forged = dataclasses.replace(journal, payload=b"foopar")
        assert not verifier.verify_what(forged, proof)

    def test_trusted_root_is_receipt_root_by_default(self, verifier_setup):
        deployment, _receipts, view, verifier = verifier_setup
        assert verifier.trusted_root == view.latest_receipt.ledger_root

    def test_view_without_receipt_needs_explicit_root(self, verifier_setup):
        deployment, _receipts, view, _verifier = verifier_setup
        stripped = dataclasses.replace(view, latest_receipt=None)
        with pytest.raises(ValueError):
            DaseinVerifier(stripped)
        explicit = DaseinVerifier(stripped, trusted_root=deployment.ledger.current_root())
        journal = explicit.journal_at(2)
        proof = deployment.ledger.get_proof(2, anchored=False)
        assert explicit.verify_what(journal, proof)


class TestWhen:
    def test_bracketed_journal_has_bound(self, verifier_setup):
        deployment, _receipts, _view, verifier = verifier_setup
        # Journal 2 precedes the first time anchor.
        bound, valid = verifier.verify_when(2)
        assert valid and bound is not None
        assert bound.upper < float("inf")

    def test_bound_is_consistent_with_commit_time(self, verifier_setup):
        deployment, _receipts, _view, verifier = verifier_setup
        journal = verifier.journal_at(3)
        bound, valid = verifier.verify_when(3)
        assert valid
        assert bound.contains(journal.timestamp)

    def test_journal_after_last_anchor_has_no_ceiling(self, verifier_setup):
        deployment, _receipts, _view, _verifier = verifier_setup
        # Append beyond the last time journal, then re-export.
        deployment.append("alice", b"late")
        view = deployment.ledger.export_view()
        verifier = DaseinVerifier(view, tsa_keys=deployment.tsa_keys)
        bound, valid = verifier.verify_when(deployment.ledger.size - 1)
        assert not valid and bound is None

    def test_unknown_tsa_key_invalidates_when(self, verifier_setup):
        deployment, _receipts, view, _verifier = verifier_setup
        verifier = DaseinVerifier(view, tsa_keys={})  # auditor knows no TSA
        _bound, valid = verifier.verify_when(2)
        assert not valid

    def test_forged_evidence_invalidates_when(self, verifier_setup):
        deployment, _receipts, view, _verifier = verifier_setup
        # Swap the evidence of the first time journal with a mismatched one.
        time_jsns = sorted(view.time_evidence)
        first, second = time_jsns[0], time_jsns[1]
        forged_evidence = dict(view.time_evidence)
        forged_evidence[first] = forged_evidence[second]
        forged_view = dataclasses.replace(view, time_evidence=forged_evidence)
        verifier = DaseinVerifier(forged_view, tsa_keys=deployment.tsa_keys)
        _bound, valid = verifier.verify_when(2)
        assert not valid

    def test_lower_bound_from_preceding_anchor(self, verifier_setup):
        deployment, _receipts, view, verifier = verifier_setup
        time_jsns = deployment.ledger.time_journals
        assert len(time_jsns) >= 2
        target = time_jsns[0] + 1  # a journal right after the first anchor
        bound, valid = verifier.verify_when(target)
        assert valid and bound.lower > float("-inf")

    def test_tampered_lower_evidence_weakens_floor_but_stays_valid(self, verifier_setup):
        # Bad *lower* evidence is soundly skipped: the floor falls back (to
        # -inf here, no earlier anchor exists) while the intact ceiling keeps
        # the bound valid — a weaker bracket is still a true statement.
        deployment, _receipts, view, honest = verifier_setup
        time_jsns = sorted(view.time_evidence)
        first, second = time_jsns[0], time_jsns[1]
        target = first + 1  # bracketed: `first` below, `second` above
        honest_bound, honest_valid = honest.verify_when(target)
        assert honest_valid and honest_bound.lower > float("-inf")
        forged_evidence = dict(view.time_evidence)
        forged_evidence[first] = forged_evidence[second]  # digest mismatch
        forged_view = dataclasses.replace(view, time_evidence=forged_evidence)
        verifier = DaseinVerifier(forged_view, tsa_keys=deployment.tsa_keys)
        bound, valid = verifier.verify_when(target)
        assert valid
        assert bound.lower == float("-inf")
        assert bound.upper == honest_bound.upper  # ceiling untouched

    def test_missing_lower_evidence_weakens_floor_but_stays_valid(self, verifier_setup):
        deployment, _receipts, view, honest = verifier_setup
        time_jsns = sorted(view.time_evidence)
        first, second = time_jsns[0], time_jsns[1]
        target = first + 1
        honest_bound, _ = honest.verify_when(target)
        stripped_evidence = dict(view.time_evidence)
        del stripped_evidence[first]
        stripped_view = dataclasses.replace(view, time_evidence=stripped_evidence)
        verifier = DaseinVerifier(stripped_view, tsa_keys=deployment.tsa_keys)
        bound, valid = verifier.verify_when(target)
        assert valid
        assert bound == dataclasses.replace(
            honest_bound, lower=float("-inf")
        )

    def test_no_ceiling_returns_exactly_none_false(self, verifier_setup):
        # Past the last anchor there is no credible ceiling: the result is
        # exactly (None, False) even though valid *lower* anchors abound —
        # verify_when never fabricates a one-sided TimeBound.
        deployment, _receipts, _view, _verifier = verifier_setup
        deployment.append("alice", b"tail-1")
        deployment.append("bob", b"tail-2")
        view = deployment.ledger.export_view()
        verifier = DaseinVerifier(view, tsa_keys=deployment.tsa_keys)
        assert len(view.time_evidence) >= 2  # plenty of valid lower anchors
        for jsn in (deployment.ledger.size - 2, deployment.ledger.size - 1):
            bound, valid = verifier.verify_when(jsn)
            assert bound is None
            assert valid is False


class TestWho:
    def test_honest_signature_verifies(self, verifier_setup):
        _deployment, receipts, _view, verifier = verifier_setup
        journal = verifier.journal_at(receipts[0].jsn)
        assert verifier.verify_who(journal)

    def test_with_receipt_checks_lsp_signature(self, verifier_setup):
        _deployment, receipts, _view, verifier = verifier_setup
        journal = verifier.journal_at(receipts[0].jsn)
        assert verifier.verify_who(journal, receipts[0])

    def test_forged_receipt_fails(self, verifier_setup):
        _deployment, receipts, _view, verifier = verifier_setup
        journal = verifier.journal_at(receipts[0].jsn)
        forged = dataclasses.replace(receipts[0], jsn=receipts[0].jsn, timestamp=999.0)
        assert not verifier.verify_who(journal, forged)

    def test_receipt_tx_hash_mismatch_fails(self, verifier_setup):
        # LSP cannot present a valid receipt for a *different* journal body.
        _deployment, receipts, _view, verifier = verifier_setup
        journal = verifier.journal_at(receipts[0].jsn)
        tampered_journal = dataclasses.replace(journal, payload=b"swapped")
        assert not verifier.verify_who(tampered_journal, receipts[0])

    def test_receipt_for_other_journal_fails(self, verifier_setup):
        # Regression: a perfectly genuine LSP receipt — valid signature,
        # honest content — for a *different* jsn proves nothing about this
        # journal and must not yield who=True.
        _deployment, receipts, _view, verifier = verifier_setup
        journal = verifier.journal_at(receipts[0].jsn)
        other = receipts[1]
        assert other.jsn != journal.jsn
        assert not verifier.verify_who(journal, other)

    def test_receipt_with_relabelled_jsn_fails(self, verifier_setup):
        # Relabelling another journal's receipt to the target jsn breaks the
        # LSP signature; forging the tx_hash too trips the cross-check.
        _deployment, receipts, _view, verifier = verifier_setup
        journal = verifier.journal_at(receipts[0].jsn)
        relabelled = dataclasses.replace(receipts[1], jsn=journal.jsn)
        assert not verifier.verify_who(journal, relabelled)

    def test_unknown_member_fails(self, verifier_setup):
        _deployment, receipts, view, verifier = verifier_setup
        journal = verifier.journal_at(receipts[0].jsn)
        impostor = dataclasses.replace(journal, client_id="nobody")
        assert not verifier.verify_who(impostor)

    def test_signature_by_other_member_fails(self, verifier_setup):
        deployment, receipts, _view, verifier = verifier_setup
        journal = verifier.journal_at(receipts[0].jsn)  # signed by alice
        as_bob = dataclasses.replace(journal, client_id="bob")
        assert not verifier.verify_who(as_bob)


class TestDaseinReport:
    def test_complete_report(self, verifier_setup):
        deployment, receipts, _view, verifier = verifier_setup
        jsn = receipts[2].jsn
        proof = deployment.ledger.get_proof(jsn, anchored=False)
        report = verifier.verify_dasein(jsn, proof, receipts[2])
        assert report.what and report.when_valid and report.who
        assert report.dasein_complete

    def test_occulted_journal_report(self, populated):
        # A mutated journal can still prove *what* (used-to-exist via the
        # retained hash) but its *who* is gone with the payload.
        deployment, _receipts = populated
        from repro.core import OccultMode

        record = deployment.ledger.prepare_occult(3, OccultMode.SYNC, reason="r")
        approvals = deployment.sign_approval(["dba", "regulator"], record.approval_digest())
        deployment.ledger.execute_occult(record, approvals)
        view = deployment.ledger.export_view()
        verifier = DaseinVerifier(view, tsa_keys=deployment.tsa_keys)
        proof = deployment.ledger.get_proof(3, anchored=False)
        report = verifier.verify_dasein(3, proof)
        assert report.what  # used-to-exist verification
        assert not report.who  # signature went with the payload
        assert report.when_valid

    def test_report_incomplete_without_when(self, verifier_setup):
        deployment, receipts, _view, _verifier = verifier_setup
        deployment.append("alice", b"tail")
        view = deployment.ledger.export_view()
        verifier = DaseinVerifier(view, tsa_keys=deployment.tsa_keys)
        jsn = deployment.ledger.size - 1
        proof = deployment.ledger.get_proof(jsn, anchored=False)
        report = verifier.verify_dasein(jsn, proof)
        assert report.what and report.who
        assert not report.when_valid
        assert not report.dasein_complete


class TestParseTimeJournal:
    def test_parse_round_trip(self, populated):
        deployment, _receipts = populated
        time_jsn = deployment.ledger.time_journals[0]
        journal = deployment.ledger.get_journal(time_jsn)
        info = parse_time_journal(journal)
        assert info["mode"] == "tledger"
        assert info["as_of_jsn"] == time_jsn
        assert len(info["anchored_root"]) == 32

    def test_rejects_non_time_journal(self, populated):
        deployment, receipts = populated
        journal = deployment.ledger.get_journal(receipts[0].jsn)
        with pytest.raises(ValueError):
            parse_time_journal(journal)
