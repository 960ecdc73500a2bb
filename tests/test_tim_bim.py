"""tim and bim baseline accumulator models."""

import pytest
from hypothesis import given, settings, strategies as st

from paper.merkle.bim import BimLedger, LightClient, merkle_path_padded, merkle_root_padded
from paper.merkle.tim import TimAccumulator
from repro.crypto.hashing import EMPTY_DIGEST, leaf_hash
from repro.merkle.proofs import fold_path


class TestTim:
    def test_append_and_verify(self):
        tim = TimAccumulator()
        payloads = [b"tx-%d" % i for i in range(40)]
        for p in payloads:
            tim.append(p)
        root = tim.root()
        for i, p in enumerate(payloads):
            proof = tim.get_proof(i)
            assert TimAccumulator.verify(leaf_hash(p), proof, root)

    def test_root_published_per_append(self):
        tim = TimAccumulator()
        roots = set()
        for i in range(20):
            tim.append(b"t%d" % i)
            roots.add(tim.root())
        assert len(roots) == 20  # fine-grained per-transaction commitment

    def test_proof_length_grows_with_ledger(self):
        tim = TimAccumulator()
        for i in range(1024):
            tim.append_digest(leaf_hash(i.to_bytes(4, "big")))
        # The same leaf's proof gets longer as the tree grows.
        proof_small = tim.get_proof(0, at_size=16)
        proof_large = tim.get_proof(0, at_size=1024)
        assert len(proof_large.path) > len(proof_small.path)

    def test_historical_root_verification(self):
        tim = TimAccumulator()
        digests = [leaf_hash(b"d%d" % i) for i in range(33)]
        for d in digests:
            tim.append_digest(d)
        proof = tim.get_proof(5, at_size=20)
        assert proof.verify(digests[5], tim.root(at_size=20))
        assert not proof.verify(digests[5], tim.root())

    def test_anchor_cannot_shorten_paths(self):
        # The tim aoa anchor substitutes a trusted root but the Merkle path
        # stays O(log n) — the structural weakness fam removes.
        tim = TimAccumulator()
        digests = [leaf_hash(b"d%d" % i) for i in range(256)]
        for d in digests:
            tim.append_digest(d)
        anchor = tim.make_anchor(at_size=128)
        proof = tim.get_proof(5, at_size=128)
        assert tim.verify_with_anchor(digests[5], proof, anchor)
        assert len(proof.path) >= 7  # still a full path

    def test_anchor_mismatched_size_falls_back(self):
        tim = TimAccumulator()
        digests = [leaf_hash(b"d%d" % i) for i in range(64)]
        for d in digests:
            tim.append_digest(d)
        anchor = tim.make_anchor(at_size=32)
        proof = tim.get_proof(5)  # at current size
        assert tim.verify_with_anchor(digests[5], proof, anchor)


class TestPaddedMerkle:
    def test_empty_root(self):
        assert merkle_root_padded([]) == EMPTY_DIGEST

    def test_single_leaf(self):
        d = leaf_hash(b"x")
        assert merkle_root_padded([d]) == d

    def test_odd_count_duplicates_last(self):
        a, b, c = (leaf_hash(x) for x in (b"a", b"b", b"c"))
        from repro.crypto.hashing import node_hash

        expected = node_hash(node_hash(a, b), node_hash(c, c))
        assert merkle_root_padded([a, b, c]) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=39))
    def test_paths_verify_property(self, n, idx):
        if idx >= n:
            idx = idx % n
        leaves = [leaf_hash(i.to_bytes(2, "big")) for i in range(n)]
        root = merkle_root_padded(leaves)
        path = merkle_path_padded(leaves, idx)
        assert fold_path(leaves[idx], path) == root


class TestBim:
    def test_blocks_commit_at_capacity(self):
        ledger = BimLedger(block_capacity=4)
        for i in range(10):
            ledger.append(b"tx%d" % i)
        assert ledger.height == 2  # two full blocks; 2 txs pending
        assert ledger.size == 8
        ledger.commit_block()
        assert ledger.height == 3 and ledger.size == 10

    def test_header_chain_links(self):
        ledger = BimLedger(block_capacity=2)
        for i in range(6):
            ledger.append(b"tx%d" % i)
        headers = ledger.headers()
        assert headers[0].previous_hash == EMPTY_DIGEST
        for previous, current in zip(headers, headers[1:]):
            assert current.previous_hash == previous.header_hash()

    def test_spv_verification(self):
        ledger = BimLedger(block_capacity=3)
        positions = [ledger.append(b"tx%d" % i, timestamp=float(i)) for i in range(9)]
        client = LightClient()
        client.sync_headers(ledger.headers())
        for i, (height, index) in enumerate(positions):
            proof = ledger.get_proof(height, index)
            assert client.verify(b"tx%d" % i, proof)
            assert not client.verify(b"forged", proof)

    def test_light_client_rejects_broken_chain(self):
        import dataclasses

        ledger = BimLedger(block_capacity=2)
        for i in range(6):
            ledger.append(b"t%d" % i)
        headers = ledger.headers()
        bad = dataclasses.replace(headers[1], previous_hash=leaf_hash(b"forged"))
        client = LightClient()
        with pytest.raises(ValueError):
            client.sync_headers([headers[0], bad])

    def test_light_client_rejects_out_of_order_headers(self):
        ledger = BimLedger(block_capacity=2)
        for i in range(4):
            ledger.append(b"t%d" % i)
        client = LightClient()
        with pytest.raises(ValueError):
            client.sync_headers(ledger.headers()[1:])

    def test_boa_storage_grows_with_blocks(self):
        # The O(n) header cost the paper charges against bim light clients.
        ledger = BimLedger(block_capacity=1)
        for i in range(50):
            ledger.append(b"t%d" % i)
        client = LightClient()
        client.sync_headers(ledger.headers())
        assert client.storage_bytes() == 50 * 80

    def test_unverifiable_proof_for_unknown_block(self):
        ledger = BimLedger(block_capacity=2)
        ledger.append(b"a")
        ledger.append(b"b")
        client = LightClient()  # no headers synced
        proof = ledger.get_proof(0, 0)
        assert not client.verify(b"a", proof)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BimLedger(block_capacity=0)
