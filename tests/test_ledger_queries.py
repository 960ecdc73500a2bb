"""Operational query API: the journal iterator."""

from repro.core import OccultMode


class TestIterJournals:
    def test_full_iteration(self, populated):
        deployment, _receipts = populated
        journals = list(deployment.ledger.iter_journals())
        assert len(journals) == deployment.ledger.size
        assert [j.jsn for j in journals] == list(range(deployment.ledger.size))

    def test_range_iteration(self, populated):
        deployment, _receipts = populated
        journals = list(deployment.ledger.iter_journals(3, 9))
        assert [j.jsn for j in journals] == [3, 4, 5, 6, 7, 8]

    def test_skips_occulted(self, populated):
        deployment, _receipts = populated
        record = deployment.ledger.prepare_occult(5, OccultMode.SYNC, "q")
        approvals = deployment.sign_approval(["dba", "regulator"], record.approval_digest())
        deployment.ledger.execute_occult(record, approvals)
        jsns = [j.jsn for j in deployment.ledger.iter_journals()]
        assert 5 not in jsns

    def test_starts_at_pseudo_genesis_after_purge(self, populated):
        deployment, _receipts = populated
        pseudo, record = deployment.ledger.prepare_purge(8)
        signers = list(deployment.ledger.purge_required_signers(8))
        approvals = deployment.sign_approval(signers, record.approval_digest())
        deployment.ledger.execute_purge(pseudo, record, approvals)
        journals = list(deployment.ledger.iter_journals())
        assert journals[0].jsn == 8
