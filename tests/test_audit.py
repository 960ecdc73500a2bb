"""§V Dasein-complete audit: honest ledgers pass; every threat model fails."""

import dataclasses

import pytest

from repro.core import OccultMode, dasein_audit
from repro.core.journal import Journal, JournalType
from repro.crypto import KeyPair
from repro.encoding import encode
from repro.export import export_bundle, verify_bundle


def audit(deployment, view=None, **kwargs):
    view = view if view is not None else deployment.ledger.export_view()
    return dasein_audit(view, tsa_keys=deployment.tsa_keys, **kwargs)


class TestHonestLedger:
    def test_audit_passes(self, populated):
        deployment, _receipts = populated
        report = audit(deployment)
        assert report.passed
        assert report.journals_replayed == deployment.ledger.size
        assert report.blocks_verified == len(deployment.ledger.blocks)
        assert report.time_journals_verified == len(deployment.ledger.time_journals)

    def test_audit_passes_after_occult(self, populated):
        deployment, _receipts = populated
        record = deployment.ledger.prepare_occult(4, OccultMode.SYNC, reason="gdpr")
        approvals = deployment.sign_approval(["dba", "regulator"], record.approval_digest())
        deployment.ledger.execute_occult(record, approvals)
        assert audit(deployment).passed

    def test_audit_passes_after_purge(self, populated):
        deployment, _receipts = populated
        pseudo, record = deployment.ledger.prepare_purge(8)
        signers = list(deployment.ledger.purge_required_signers(8))
        approvals = deployment.sign_approval(signers, record.approval_digest())
        deployment.ledger.execute_purge(pseudo, record, approvals)
        report = audit(deployment)
        assert report.passed
        # Only the unpurged suffix is replayed (Protocol 1).
        assert report.journals_replayed == deployment.ledger.size - 8

    def test_audit_passes_after_purge_and_occult(self, populated):
        deployment, _receipts = populated
        record = deployment.ledger.prepare_occult(10, OccultMode.SYNC, reason="x")
        approvals = deployment.sign_approval(["dba", "regulator"], record.approval_digest())
        deployment.ledger.execute_occult(record, approvals)
        pseudo, precord = deployment.ledger.prepare_purge(8)
        signers = list(deployment.ledger.purge_required_signers(8))
        papprovals = deployment.sign_approval(signers, precord.approval_digest())
        deployment.ledger.execute_purge(pseudo, precord, papprovals)
        assert audit(deployment).passed

    def test_temporal_range_predicate(self, populated):
        deployment, _receipts = populated
        report = audit(deployment, temporal_range=(0.0, 2.0))
        assert report.passed
        assert report.time_journals_verified < len(deployment.ledger.time_journals)


class TestMalformedTimePayload:
    """An LSP-committed time journal whose payload is not a time record is a
    *when* failure at its jsn, never a crash of the auditor.  In a bundle it
    is a malformed anchor (evidence present and wrong), which a T-Ledger
    anchor whose evidence cannot travel in a bundle is not."""

    @pytest.mark.parametrize(
        "payload", [encode({"mode": "tsa"}), b"\xff\xff"], ids=["missing-fields", "undecodable"]
    )
    @pytest.mark.parametrize("with_tsa_keys", [True, False], ids=["tsa-keys", "no-tsa-keys"])
    def test_audit_fails_at_the_time_journal(self, populated, payload, with_tsa_keys):
        deployment, _receipts = populated
        ledger = deployment.ledger
        # The bad anchor must ceil a journal to bound (or fail to bound) one.
        deployment.append("bob", b"before the bad anchor")
        jsn = ledger._append_system(JournalType.TIME, payload).jsn
        deployment.append("alice", b"after the bad anchor")
        ledger.anchor_time()
        deployment.clock.advance(2.0)
        ledger.collect_time_evidence()
        tsa_keys = deployment.tsa_keys if with_tsa_keys else {}
        report = dasein_audit(ledger.export_view(), tsa_keys=tsa_keys)
        assert report.passed is False
        [finding] = report.findings
        assert (finding.factor, finding.check, finding.jsn) == ("when", "time-anchor", jsn)
        assert f"time journal {jsn}: malformed payload" in str(finding)
        bundle = verify_bundle(export_bundle(ledger), tsa_keys=deployment.tsa_keys)
        assert not bundle and bundle.when is False
        malformed = [f for f in bundle.findings if f.factor == "when" and f.jsn == jsn]
        assert [(f.check, f.absent) for f in malformed] == [("time-evidence", False)]
        assert all(f.absent for f in bundle.findings if f.jsn != jsn)

    def test_honest_tledger_bundle_reads_its_evidence_absent(self, populated):
        deployment, _receipts = populated
        bundle = verify_bundle(export_bundle(deployment.ledger), tsa_keys=deployment.tsa_keys)
        assert (bundle.what, bundle.when, bundle.who) == (True, False, True)
        assert bundle.findings and bundle.verify()
        assert {f.jsn for f in bundle.findings} == set(deployment.ledger.time_journals)
        assert all(
            (f.factor, f.check, f.absent) == ("when", "time-evidence", True)
            for f in bundle.findings
        )


class TestThreatA:
    """Tampering with incoming data is blocked at append; an LSP writing a
    *different* journal than the client signed is caught by the audit's
    per-journal signature check."""

    def test_journal_with_forged_issuer_signature_fails(self, populated):
        deployment, receipts = populated
        view = deployment.ledger.export_view()
        target = receipts[0].jsn
        entry = view.entry(target)
        journal = Journal.from_bytes(entry.data)
        mallory = KeyPair.generate(seed="mallory")
        forged_journal = dataclasses.replace(
            journal, client_signature=mallory.sign(journal.request_hash)
        )
        data = forged_journal.to_bytes()
        view.entries[target - view.genesis_start] = dataclasses.replace(
            entry, data=data, retained_hash=forged_journal.tx_hash()
        )
        report = audit(deployment, view=view)
        assert not report.passed
        assert [(f.factor, f.check, f.jsn) for f in report.findings] == [
            ("who", "signature", target)
        ]
        assert "signature" in report.failures()[0].detail


class TestThreatB:
    """Server-side tampering of existing journals / timestamps."""

    def _tamper_entry(self, view, jsn, **journal_changes):
        entry = view.entry(jsn)
        journal = Journal.from_bytes(entry.data)
        tampered = dataclasses.replace(journal, **journal_changes)
        view.entries[jsn - view.genesis_start] = dataclasses.replace(
            entry, data=tampered.to_bytes()
        )

    def test_payload_tamper_detected(self, populated):
        deployment, receipts = populated
        view = deployment.ledger.export_view()
        self._tamper_entry(view, receipts[1].jsn, payload=b"rewritten history")
        report = audit(deployment, view=view)
        assert not report.passed
        [finding] = report.findings
        assert (finding.factor, finding.check, finding.jsn) == ("what", "slice", receipts[1].jsn)
        assert "digest mismatch" in report.failures()[0].detail == str(finding)

    def test_consistent_tamper_breaks_block_roots(self, populated):
        # Even if the LSP rewrites the retained hash to match, replayed fam
        # roots diverge from the committed block headers.
        deployment, receipts = populated
        view = deployment.ledger.export_view()
        jsn = receipts[1].jsn
        entry = view.entry(jsn)
        journal = Journal.from_bytes(entry.data)
        tampered = dataclasses.replace(journal, payload=b"rewritten")
        view.entries[jsn - view.genesis_start] = dataclasses.replace(
            entry, data=tampered.to_bytes(), retained_hash=tampered.tx_hash()
        )
        report = audit(deployment, view=view)
        assert not report.passed
        # Caught at the first block boundary after the rewrite: the block
        # header commits the honest root, the replay folds another.
        [finding] = report.findings
        block = next(block for block in view.blocks if block.end_jsn > jsn)
        assert (finding.factor, finding.check, finding.jsn) == ("what", "replay", block.end_jsn - 1)
        assert str(finding) == report.failures()[0].detail
        assert finding.detail == f"block {block.height}: journal root mismatch"

    def test_journal_deletion_detected(self, populated):
        deployment, _receipts = populated
        view = deployment.ledger.export_view()
        del view.entries[5]
        report = audit(deployment, view=view)
        assert not report.passed

    def test_journal_insertion_detected(self, populated):
        deployment, _receipts = populated
        view = deployment.ledger.export_view()
        view.entries.insert(5, view.entries[5])
        report = audit(deployment, view=view)
        assert not report.passed

    def test_forged_system_timestamp_detected(self, populated):
        # The LSP backdates a time journal: the TSA signature no longer
        # matches the rewritten payload.
        deployment, _receipts = populated
        view = deployment.ledger.export_view()
        time_jsn = deployment.ledger.time_journals[0]
        entry = view.entry(time_jsn)
        journal = Journal.from_bytes(entry.data)
        from repro.encoding import decode, encode

        payload = decode(journal.payload)
        payload["notary_timestamp"] = 0.0001  # claim it happened at epoch start
        self._tamper = None
        tampered = dataclasses.replace(journal, payload=encode(payload))
        view.entries[time_jsn - view.genesis_start] = dataclasses.replace(
            entry, data=tampered.to_bytes(), retained_hash=tampered.tx_hash()
        )
        report = audit(deployment, view=view)
        assert not report.passed

    def test_block_header_tamper_detected(self, populated):
        deployment, _receipts = populated
        view = deployment.ledger.export_view()
        from repro.crypto.hashing import leaf_hash

        view.blocks[1] = dataclasses.replace(view.blocks[1], journal_root=leaf_hash(b"forged"))
        report = audit(deployment, view=view)
        assert not report.passed


class TestThreatC:
    """LSP-client collusion to cheat a third-party auditor."""

    def test_unauthorized_occult_detected(self, populated):
        # LSP hides a journal without the regulator's signature.
        deployment, _receipts = populated
        record = deployment.ledger.prepare_occult(4, OccultMode.SYNC, reason="collude")
        # Forge approvals: DBA signs twice (no regulator).
        approvals = deployment.sign_approval(["dba"], record.approval_digest())
        view = deployment.ledger.export_view()
        # Simulate the collusive server state directly on the view.
        entry = view.entry(4)
        view.entries[4 - view.genesis_start] = dataclasses.replace(
            entry, data=None, occulted=True
        )
        view.occult_approvals.append((99, record, approvals))
        report = audit(deployment, view=view)
        assert not report.passed
        assert any("occult" in s.name for s in report.failures())

    def test_unauthorized_purge_detected(self, populated):
        deployment, _receipts = populated
        pseudo, record = deployment.ledger.prepare_purge(8)
        # Only the colluding client signs — not the DBA, not other owners.
        approvals = deployment.sign_approval(["alice"], record.approval_digest())
        view = deployment.ledger.export_view()
        view.purge_approvals.append((99, record, approvals))
        report = audit(deployment, view=view)
        assert not report.passed
        assert any("purge" in s.name for s in report.failures())

    def test_occult_without_any_record_detected(self, populated):
        deployment, _receipts = populated
        view = deployment.ledger.export_view()
        entry = view.entry(4)
        view.entries[4 - view.genesis_start] = dataclasses.replace(
            entry, data=None, occulted=True
        )
        report = audit(deployment, view=view)
        assert not report.passed
        [finding] = report.findings
        assert (finding.factor, finding.check, finding.jsn, finding.absent) == (
            "mutation", "occult", 4, True
        )
        assert "without an occult record" in report.failures()[0].detail


class TestReceiptStep:
    def test_missing_receipt_fails(self, populated):
        deployment, _receipts = populated
        view = dataclasses.replace(deployment.ledger.export_view(), latest_receipt=None)
        report = audit(deployment, view=view)
        assert not report.passed
        assert report.failures()[0].name == "receipt"

    def test_forged_receipt_fails(self, populated):
        deployment, _receipts = populated
        view = deployment.ledger.export_view()
        forged = dataclasses.replace(view.latest_receipt, ledger_root=b"\x01" * 32)
        view = dataclasses.replace(view, latest_receipt=forged)
        report = audit(deployment, view=view)
        assert not report.passed


class TestEarlyTermination:
    def test_early_terminate_stops_at_first_failure(self, populated):
        deployment, _receipts = populated
        view = deployment.ledger.export_view()
        view.entries[3] = dataclasses.replace(view.entries[3], data=None, occulted=True)
        view = dataclasses.replace(view, latest_receipt=None)  # second failure
        report = audit(deployment, view=view)
        assert len(report.failures()) == 1
