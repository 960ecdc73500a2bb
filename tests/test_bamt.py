"""bAMT baseline: batched accumulated Merkle tree."""

import pytest
from hypothesis import given, settings, strategies as st

from paper.merkle.bamt import BamtAccumulator
from repro.crypto.hashing import leaf_hash


class TestBamt:
    def test_append_and_verify_sealed(self):
        bamt = BamtAccumulator(batch_size=4)
        payloads = [b"tx-%d" % i for i in range(16)]  # exactly 4 batches
        for payload in payloads:
            bamt.append(payload)
        root = bamt.root()
        for sequence, payload in enumerate(payloads):
            proof = bamt.get_proof(sequence)
            assert not proof.pending
            assert bamt.verify(leaf_hash(payload), proof, root), sequence

    def test_pending_batch_verification(self):
        bamt = BamtAccumulator(batch_size=8)
        for i in range(10):  # one sealed batch + 2 pending
            bamt.append(b"tx-%d" % i)
        root = bamt.root()
        proof = bamt.get_proof(9)
        assert proof.pending
        assert bamt.verify(leaf_hash(b"tx-9"), proof, root)
        sealed = bamt.get_proof(3)
        assert bamt.verify(leaf_hash(b"tx-3"), sealed, root)

    def test_tamper_fails(self):
        bamt = BamtAccumulator(batch_size=4)
        for i in range(12):
            bamt.append(b"tx-%d" % i)
        proof = bamt.get_proof(5)
        assert not bamt.verify(leaf_hash(b"forged"), proof, bamt.root())

    def test_wrong_root_fails(self):
        bamt = BamtAccumulator(batch_size=4)
        for i in range(12):
            bamt.append(b"tx-%d" % i)
        proof = bamt.get_proof(5)
        assert not bamt.verify(leaf_hash(b"tx-5"), proof, leaf_hash(b"zz"))

    def test_seal_batch_boundary(self):
        bamt = BamtAccumulator(batch_size=100)
        for i in range(5):
            bamt.append(b"tx-%d" % i)
        bamt.seal_batch()
        proof = bamt.get_proof(2)
        assert not proof.pending
        assert bamt.verify(leaf_hash(b"tx-2"), proof, bamt.root())

    def test_proof_depth_grows_with_ledger(self):
        # The structural weakness fam fixes: bAMT paths keep growing.
        small = BamtAccumulator(batch_size=8)
        large = BamtAccumulator(batch_size=8)
        for i in range(16):
            small.append(b"t%d" % i)
        for i in range(1024):
            large.append(b"t%d" % i)
        assert large.get_proof(0).path_nodes > small.get_proof(0).path_nodes

    def test_bounds(self):
        with pytest.raises(ValueError):
            BamtAccumulator(batch_size=0)
        bamt = BamtAccumulator()
        with pytest.raises(IndexError):
            bamt.get_proof(0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=80))
    def test_all_positions_verify_property(self, batch_size, count):
        bamt = BamtAccumulator(batch_size=batch_size)
        digests = [leaf_hash(i.to_bytes(3, "big")) for i in range(count)]
        for digest in digests:
            bamt.append_digest(digest)
        root = bamt.root()
        for sequence in range(0, count, max(count // 8, 1)):
            proof = bamt.get_proof(sequence)
            assert bamt.verify(digests[sequence], proof, root), (batch_size, count, sequence)
