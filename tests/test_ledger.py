"""Ledger kernel: append pipeline, blocks, proofs, clue APIs, time anchoring."""

import dataclasses

import pytest

from repro.core import (
    AuthenticationError,
    ClientRequest,
    JournalNotFoundError,
    JournalType,
    Ledger,
    LedgerConfig,
    LSP_MEMBER_ID,
)
from repro.core.errors import LedgerError
from repro.crypto import KeyPair
from repro.merkle.fam import FamAccumulator

from conftest import LEDGER_URI


class TestAppendPipeline:
    def test_genesis_created_at_construction(self, deployment):
        journal = deployment.ledger.get_journal(0)
        assert journal.journal_type is JournalType.GENESIS
        assert journal.client_id == LSP_MEMBER_ID
        assert deployment.ledger.size == 1

    def test_append_assigns_sequential_jsns(self, deployment):
        receipts = [deployment.append("alice", b"p%d" % i) for i in range(5)]
        assert [r.jsn for r in receipts] == [1, 2, 3, 4, 5]

    def test_receipt_fields(self, deployment):
        receipt = deployment.append("alice", b"data")
        journal = deployment.ledger.get_journal(receipt.jsn)
        assert receipt.tx_hash == journal.tx_hash()
        assert receipt.request_hash == journal.request_hash
        assert receipt.ledger_root == deployment.ledger.current_root()
        lsp_cert = deployment.ledger.registry.certificate(LSP_MEMBER_ID)
        assert receipt.verify(lsp_cert.public_key)

    def test_unsigned_request_rejected(self, deployment):
        request = ClientRequest.build(LEDGER_URI, "alice", b"x")
        with pytest.raises(AuthenticationError, match="unsigned"):
            deployment.ledger.append(request)
        assert deployment.ledger.size == 1  # nothing written (threat-A defence)

    def test_bad_signature_rejected(self, deployment):
        mallory = KeyPair.generate(seed="mallory")
        request = ClientRequest.build(LEDGER_URI, "alice", b"x").signed_by(mallory)
        with pytest.raises(AuthenticationError, match="invalid signature"):
            deployment.ledger.append(request)

    def test_tampered_payload_after_signing_rejected(self, deployment):
        request = deployment.request("alice", b"original")
        tampered = dataclasses.replace(request, payload=b"tampered")
        with pytest.raises(AuthenticationError):
            deployment.ledger.append(tampered)

    def test_unknown_member_rejected(self, deployment):
        ghost = KeyPair.generate(seed="ghost")
        request = ClientRequest.build(LEDGER_URI, "ghost", b"x").signed_by(ghost)
        with pytest.raises(AuthenticationError, match="unknown member"):
            deployment.ledger.append(request)

    def test_wrong_ledger_uri_rejected(self, deployment):
        request = ClientRequest.build("ledger://other", "alice", b"x").signed_by(
            deployment.keys["alice"]
        )
        with pytest.raises(AuthenticationError, match="targets"):
            deployment.ledger.append(request)

    def test_clients_cannot_append_system_journals(self, deployment):
        system_types = (
            JournalType.TIME, JournalType.PURGE, JournalType.OCCULT, JournalType.GENESIS
        )
        for journal_type in system_types:
            request = deployment.request("alice", b"x", journal_type=journal_type)
            with pytest.raises(AuthenticationError, match="normal journals"):
                deployment.ledger.append(request)

    def test_constructor_creates_the_configured_ledger(self):
        ledger = Ledger(LedgerConfig(uri="ledger://fresh"))
        assert ledger.config.uri == "ledger://fresh"
        assert ledger.size == 1


class TestBlocks:
    def test_blocks_commit_every_block_size(self, deployment):
        for i in range(8):  # block size 4; genesis occupies one slot
            deployment.append("alice", b"p%d" % i)
        blocks = deployment.ledger.blocks
        assert len(blocks) == 2
        assert blocks[0].start_jsn == 0 and blocks[0].end_jsn == 4
        assert blocks[1].start_jsn == 4 and blocks[1].end_jsn == 8

    def test_block_chain_links(self, populated):
        deployment, _receipts = populated
        blocks = deployment.ledger.blocks
        from repro.crypto.hashing import EMPTY_DIGEST

        assert blocks[0].previous_hash == EMPTY_DIGEST
        for previous, current in zip(blocks, blocks[1:]):
            assert current.previous_hash == previous.hash()
            assert current.start_jsn == previous.end_jsn

    def test_manual_commit_flushes_partial_block(self, deployment):
        deployment.append("alice", b"x")
        block = deployment.ledger.commit_block()
        assert block is not None and block.end_jsn == deployment.ledger.size
        assert deployment.ledger.commit_block() is None  # nothing pending

    def test_block_roots_snapshot_state(self, populated):
        deployment, _receipts = populated
        last = deployment.ledger.blocks[-1]
        assert last.journal_root == deployment.ledger.current_root()
        assert last.state_root == deployment.ledger.state_root()


class TestExistenceProofs:
    def test_get_proof_and_server_verify(self, populated):
        deployment, _receipts = populated
        for jsn in range(deployment.ledger.size):
            journal = deployment.ledger.get_journal(jsn)
            assert deployment.ledger.verify_journal(journal)

    def test_full_chain_proof_verifies_against_receipt_root(self, populated):
        # The LSP-signed ledger_root in the *latest* receipt is the trusted
        # datum an external client verifies full-chain proofs against.
        deployment, receipts = populated
        receipt = deployment.ledger.latest_receipt
        assert receipt.ledger_root == deployment.ledger.current_root()
        journal = deployment.ledger.get_journal(receipts[3].jsn)
        proof = deployment.ledger.get_proof(journal.jsn, anchored=False)
        assert FamAccumulator.verify_full(journal.tx_hash(), proof, receipt.ledger_root)

    def test_forged_journal_fails_server_verify(self, populated):
        deployment, receipts = populated
        journal = deployment.ledger.get_journal(3)
        forged = dataclasses.replace(journal, payload=b"foopar")  # the paper's example
        assert not deployment.ledger.verify_journal(forged)

    def test_missing_journal(self, deployment):
        with pytest.raises(JournalNotFoundError):
            deployment.ledger.get_journal(99)


class TestEpochAnchorCache:
    def _count_epoch_root_calls(self, ledger):
        calls = {"n": 0}
        original = ledger._fam.epoch_root

        def counting(epoch):
            calls["n"] += 1
            return original(epoch)

        ledger._fam.epoch_root = counting
        return calls

    def test_repeated_verifies_do_not_rescan_epochs(self, populated):
        deployment, _receipts = populated
        ledger = deployment.ledger
        ledger.epoch_anchors()  # warm the cache
        calls = self._count_epoch_root_calls(ledger)
        for jsn in range(1, 6):
            journal = ledger.get_journal(jsn)
            proof = ledger.get_proof(jsn)  # anchored: verifies via anchors
            assert ledger.verify_journal(journal, proof)
        assert calls["n"] == 0

    def test_cache_extends_when_an_epoch_closes(self, populated):
        deployment, _receipts = populated
        ledger = deployment.ledger
        before = ledger._fam.num_epochs
        anchors = ledger.epoch_anchors()
        calls = self._count_epoch_root_calls(ledger)
        # Fill out the current epoch so a new one closes (height 3 -> 8/epoch).
        while ledger._fam.num_epochs == before:
            deployment.append("alice", b"fill-%d" % ledger.size)
        refreshed = ledger.epoch_anchors()
        assert refreshed is anchors  # same store, extended in place
        # Only the newly closed epochs were scanned, not all of history.
        assert 0 < calls["n"] == ledger._fam.num_epochs - before

    def test_cached_anchors_match_fresh_scan(self, populated):
        deployment, _receipts = populated
        ledger = deployment.ledger
        cached = ledger.epoch_anchors()
        for epoch in range(ledger._fam.num_epochs - 1):
            assert cached.get(epoch) == ledger._fam.epoch_root(epoch)

    def test_cache_rebuilt_after_recover(self):
        from repro.storage.stream import MemoryStream

        stream = MemoryStream()
        ledger = Ledger(
            LedgerConfig(uri=LEDGER_URI, fractal_height=2, block_size=4),
            journal_stream=stream,
        )
        from repro.crypto import Role

        key = KeyPair.generate(seed="anchor-cache")
        ledger.registry.register("carol", Role.USER, key.public)
        for i in range(9):  # height 2 -> 4 leaves/epoch: two epochs close
            request = ClientRequest.build(
                LEDGER_URI, "carol", b"r%d" % i, nonce=bytes([i])
            ).signed_by(key)
            ledger.append(request)
        expected = {
            epoch: ledger._fam.epoch_root(epoch)
            for epoch in range(ledger._fam.num_epochs - 1)
        }
        recovered = Ledger.recover(
            LedgerConfig(uri=LEDGER_URI, fractal_height=2, block_size=4),
            stream,
            registry=ledger.registry,
            lsp_keypair=ledger._lsp_keypair,
        )
        anchors = recovered.epoch_anchors()
        assert expected  # the scenario really closed epochs
        for epoch, root in expected.items():
            assert anchors.get(epoch) == root
        journal = recovered.get_journal(3)
        assert recovered.verify_journal(journal, recovered.get_proof(3))


class TestClueAPIs:
    def test_list_tx_returns_clue_jsns(self, populated):
        deployment, _receipts = populated
        jsns = deployment.ledger.list_tx("CLUE-A")
        assert jsns, "populate() tags every third journal"
        for jsn in jsns:
            assert "CLUE-A" in deployment.ledger.get_journal(jsn).clues

    def test_clue_verification_round_trip(self, populated):
        deployment, _receipts = populated
        jsns = deployment.ledger.list_tx("CLUE-A")
        journals = [deployment.ledger.get_journal(j) for j in jsns]
        assert deployment.ledger.verify_clue("CLUE-A", journals)
        proof = deployment.ledger.prove_clue("CLUE-A")
        digests = {i: j.tx_hash() for i, j in enumerate(journals)}
        assert proof.verify(digests, deployment.ledger.state_root())

    def test_clue_verification_rejects_omission(self, populated):
        deployment, _receipts = populated
        jsns = deployment.ledger.list_tx("CLUE-A")
        journals = [deployment.ledger.get_journal(j) for j in jsns[:-1]]  # drop one
        assert not deployment.ledger.verify_clue("CLUE-A", journals)

    def test_multi_clue_journal(self, deployment):
        receipt = deployment.append("alice", b"multi", clues=("c1", "c2"))
        assert deployment.ledger.list_tx("c1") == [receipt.jsn]
        assert deployment.ledger.list_tx("c2") == [receipt.jsn]
        assert deployment.ledger.clue_entry_count("c1") == 1


class TestTimeAnchoring:
    def test_anchor_records_time_journal(self, deployment):
        deployment.append("alice", b"x")
        time_jsn = deployment.ledger.anchor_time()
        journal = deployment.ledger.get_journal(time_jsn)
        assert journal.journal_type is JournalType.TIME
        assert deployment.ledger.time_journals == [time_jsn]

    def test_evidence_collected_after_finalization(self, deployment):
        deployment.append("alice", b"x")
        time_jsn = deployment.ledger.anchor_time()
        assert deployment.ledger.time_evidence_for(time_jsn) is None
        deployment.clock.advance(1.5)
        assert deployment.ledger.collect_time_evidence() == 1
        evidence = deployment.ledger.time_evidence_for(time_jsn)
        assert evidence is not None and evidence.verify(deployment.tsa)

    def test_anchor_without_notary_fails(self):
        ledger = Ledger(LedgerConfig(uri="ledger://lonely"))
        with pytest.raises(LedgerError, match="no TSA or T-Ledger"):
            ledger.anchor_time()

    def test_direct_tsa_anchoring(self, deployment):
        ledger = Ledger(LedgerConfig(uri=LEDGER_URI + "2"), clock=deployment.clock)
        ledger.attach_tsa(deployment.tsa)
        time_jsn = ledger.anchor_time()
        token = ledger.time_evidence_for(time_jsn)
        assert token is not None and token.verify(deployment.tsa.public_key)


class TestStorageStats:
    def test_stats_shape(self, populated):
        deployment, _receipts = populated
        stats = deployment.ledger.storage_stats()
        assert stats["journals"] == deployment.ledger.size
        assert stats["fam_nodes"] > 0
        assert stats["blocks"] == len(deployment.ledger.blocks)
        assert stats["occulted"] == 0 and stats["purged_prefix"] == 0
