"""Table I capability matrix — probe the implemented systems' actual behaviour."""

from paper.baselines.capabilities import TABLE_I, Level, render_table_i


def row(system):
    return next(cap for cap in TABLE_I if cap.system == system)


class TestMatrixShape:
    def test_six_systems(self):
        assert len(TABLE_I) == 6
        assert {cap.system for cap in TABLE_I} == {
            "LedgerDB", "SQL Ledger", "QLDB", "ProvenDB", "Hyperledger", "Factom",
        }

    def test_only_ledgerdb_has_everything(self):
        full = [
            cap.system
            for cap in TABLE_I
            if cap.dasein_complete and cap.verifiable_mutation and cap.verifiable_n_lineage
        ]
        assert full == ["LedgerDB"]

    def test_render_contains_all_rows(self):
        text = render_table_i()
        for cap in TABLE_I:
            assert cap.system in text


class TestLedgerDBClaims:
    """Probe the real implementation against its Table-I row."""

    def test_dasein_complete(self, populated):
        cap = row("LedgerDB")
        assert cap.dasein_complete
        deployment, receipts = populated
        from repro.core import DaseinVerifier

        view = deployment.ledger.export_view()
        verifier = DaseinVerifier(view, tsa_keys=deployment.tsa_keys)
        jsn = receipts[2].jsn
        proof = deployment.ledger.get_proof(jsn, anchored=False)
        report = verifier.verify_dasein(jsn, proof, receipts[2])
        assert report.dasein_complete  # the probe behind the claim

    def test_verifiable_mutation(self, populated):
        assert row("LedgerDB").verifiable_mutation
        deployment, _receipts = populated
        from repro.core import OccultMode, dasein_audit

        record = deployment.ledger.prepare_occult(3, OccultMode.SYNC, reason="probe")
        approvals = deployment.sign_approval(["dba", "regulator"], record.approval_digest())
        deployment.ledger.execute_occult(record, approvals)
        assert dasein_audit(
            deployment.ledger.export_view(), tsa_keys=deployment.tsa_keys
        ).passed

    def test_verifiable_n_lineage(self, populated):
        assert row("LedgerDB").verifiable_n_lineage
        deployment, _receipts = populated
        proof = deployment.ledger.prove_clue("CLUE-A")
        jsns = deployment.ledger.list_tx("CLUE-A")
        digests = {
            i: deployment.ledger.get_journal(j).tx_hash() for i, j in enumerate(jsns)
        }
        assert proof.verify(digests, deployment.ledger.state_root())

    def test_trust_is_tsa_not_lsp(self):
        dependency = row("LedgerDB").trusted_dependency
        assert dependency.startswith("TSA")
        assert "non-LSP" in dependency  # explicitly *not* the LSP


class TestQLDBClaims:
    def test_what_only(self):
        assert row("QLDB").dasein_support == ("what",)
        assert not row("QLDB").dasein_complete

    def test_no_mutation_api(self):
        from paper.baselines.qldb import QLDBSimulator

        qldb = QLDBSimulator()
        assert not hasattr(qldb, "occult") and not hasattr(qldb, "purge")
        assert not row("QLDB").verifiable_mutation

    def test_what_verification_works(self):
        # QLDB does satisfy *what*: the probe.
        from paper.baselines.qldb import QLDBSimulator

        qldb = QLDBSimulator()
        qldb.insert("t", "k", b"v")
        result = qldb.get_revision("t", "k", 0)
        assert result.value[1].tree_size == 1


class TestProvenDBClaims:
    def test_when_is_claimed_but_weak(self):
        # ProvenDB claims what-when; our attack tests show when is weak
        # (infinite amplification) — the matrix row reflects the claim, the
        # timeauth tests document the weakness.
        assert row("ProvenDB").dasein_support == ("what", "when")

    def test_lower_bound_unprovable(self):
        from paper.baselines.provendb import ProvenDBSimulator
        from repro.timeauth import SimClock

        clock = SimClock()
        prov = ProvenDBSimulator(clock, peg_interval=10.0)
        prov.insert("d", b"x")
        clock.advance(650.0)
        prov.tick()
        bound = prov.time_bound_for_root(prov._accumulator.root())
        assert bound.lower == float("-inf")


class TestHyperledgerClaims:
    def test_no_when(self):
        assert "when" not in row("Hyperledger").dasein_support

    def test_low_verify_efficiency_is_measured(self):
        # ~1 s reads vs LedgerDB's ~25 ms: the Low rating is behavioural.
        from paper.baselines.fabric import FabricNetwork

        fabric = FabricNetwork()
        fabric.invoke("k", b"v")
        assert fabric.get_state("k").latency_ms > 50
        assert row("Hyperledger").verify_efficiency is Level.LOW
