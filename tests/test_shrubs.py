"""Shrubs accumulator: frontier semantics, proofs, batch proofs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import EMPTY_DIGEST, leaf_hash, node_hash
from repro.merkle.proofs import bag_peaks
from repro.merkle.shrubs import FrontierAccumulator, ShrubsAccumulator, peak_positions


def digests(n, tag=b""):
    return [leaf_hash(tag + i.to_bytes(4, "big")) for i in range(n)]


class TestPeakPositions:
    def test_power_of_two_single_peak(self):
        assert peak_positions(8) == [(3, 0)]

    def test_paper_figure_3a_seven_leaves(self):
        # 7 leaves -> subtree roots of sizes 4, 2, 1: the paper's
        # {cell7, cell10, cell11} node-set.
        assert peak_positions(7) == [(2, 0), (1, 2), (0, 6)]

    def test_zero(self):
        assert peak_positions(0) == []

    def test_peak_count_is_popcount(self):
        for n in range(1, 300):
            assert len(peak_positions(n)) == bin(n).count("1")


class TestAppend:
    def test_empty_root_is_sentinel(self):
        assert ShrubsAccumulator().root() == EMPTY_DIGEST

    def test_single_leaf_root_is_leaf(self):
        acc = ShrubsAccumulator()
        d = leaf_hash(b"only")
        acc.append_leaf(d)
        assert acc.root() == d
        assert acc.peaks() == [d]

    def test_two_leaves_root_is_parent(self):
        acc = ShrubsAccumulator()
        a, b = leaf_hash(b"a"), leaf_hash(b"b")
        acc.append_leaf(a)
        acc.append_leaf(b)
        assert acc.root() == node_hash(a, b)

    def test_bagging_order_matches_figure(self):
        # With 3 leaves the commitment is H(parent(l0,l1), l2).
        acc = ShrubsAccumulator()
        ds = digests(3)
        acc.extend(ds)
        assert acc.root() == node_hash(node_hash(ds[0], ds[1]), ds[2])

    def test_rejects_short_digest(self):
        with pytest.raises(ValueError):
            ShrubsAccumulator().append_leaf(b"short")

    def test_node_count_is_2n_minus_popcount(self):
        acc = ShrubsAccumulator()
        for n in range(1, 100):
            acc.append_leaf(leaf_hash(n.to_bytes(2, "big")))
            assert acc.num_nodes() == 2 * n - bin(n).count("1")

    def test_a_reader_that_sees_a_size_sees_its_interior_nodes(self):
        """Proofs and roots are served beside the appending thread without a
        lock: the leaf must be published after the parents it completes."""
        import sys
        import threading

        acc = ShrubsAccumulator()
        done = threading.Event()
        errors = []

        def read():
            while not done.is_set():
                try:
                    size = acc.size
                    if size:
                        acc.root(size)
                        acc.prove(size - 1, at_size=size)
                except Exception as exc:
                    errors.append(repr(exc))
                    return

        reader = threading.Thread(target=read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader.start()
            for index in range(20000):
                acc.append_leaf(leaf_hash(index.to_bytes(4, "big")))
        finally:
            done.set()
            reader.join(30)
            sys.setswitchinterval(interval)
        assert not reader.is_alive() and not errors, errors[:1]

    def test_interior_nodes_computed_exactly_once(self):
        # Amortised O(1): after appending 2^k leaves, exactly 2^(k+1)-1 nodes.
        acc = ShrubsAccumulator()
        acc.extend(digests(16))
        assert acc.num_nodes() == 31


class TestProofs:
    def test_all_leaves_prove_at_all_sizes(self):
        acc = ShrubsAccumulator()
        ds = digests(33)
        acc.extend(ds)
        for size in (1, 2, 3, 5, 8, 16, 31, 32, 33):
            root = acc.root(size)
            for i in range(size):
                proof = acc.prove(i, at_size=size)
                assert proof.verify(ds[i], root)

    def test_proof_rejects_wrong_leaf(self):
        acc = ShrubsAccumulator()
        ds = digests(20)
        acc.extend(ds)
        proof = acc.prove(7)
        assert not proof.verify(leaf_hash(b"forged"), acc.root())

    def test_proof_rejects_wrong_root(self):
        acc = ShrubsAccumulator()
        ds = digests(20)
        acc.extend(ds)
        proof = acc.prove(7)
        assert not proof.verify(ds[7], leaf_hash(b"not the root"))

    def test_proof_against_frontier_node_set(self):
        acc = ShrubsAccumulator()
        ds = digests(11)
        acc.extend(ds)
        proof = acc.prove(9)
        assert proof.verify_against_frontier(ds[9], acc.peaks())
        assert not proof.verify_against_frontier(ds[9], [leaf_hash(b"zz")])

    def test_proof_out_of_range(self):
        acc = ShrubsAccumulator()
        acc.extend(digests(4))
        with pytest.raises(IndexError):
            acc.prove(4)
        with pytest.raises(ValueError):
            acc.prove(0, at_size=9)

    def test_proof_path_length_is_logarithmic(self):
        acc = ShrubsAccumulator()
        acc.extend(digests(1024))
        assert len(acc.prove(0).path) == 10

    def test_serialization_round_trip(self):
        from repro.merkle.proofs import MembershipProof

        acc = ShrubsAccumulator()
        ds = digests(13)
        acc.extend(ds)
        proof = acc.prove(5)
        restored = MembershipProof.from_bytes(proof.to_bytes())
        assert restored.verify(ds[5], acc.root())


class TestBatchProofs:
    def test_full_range_batch(self):
        acc = ShrubsAccumulator()
        ds = digests(10)
        acc.extend(ds)
        batch = acc.prove_batch(list(range(10)))
        assert ShrubsAccumulator.verify_batch(dict(enumerate(ds)), batch, acc.root())

    def test_batch_rejects_missing_leaf(self):
        acc = ShrubsAccumulator()
        ds = digests(10)
        acc.extend(ds)
        batch = acc.prove_batch([2, 3, 4])
        short = {2: ds[2], 3: ds[3]}  # one leaf withheld
        assert not ShrubsAccumulator.verify_batch(short, batch, acc.root())

    def test_batch_rejects_tampered_leaf(self):
        acc = ShrubsAccumulator()
        ds = digests(10)
        acc.extend(ds)
        batch = acc.prove_batch([2, 3, 4])
        bad = {2: ds[2], 3: leaf_hash(b"evil"), 4: ds[4]}
        assert not ShrubsAccumulator.verify_batch(bad, batch, acc.root())

    def test_batch_omits_derivable_nodes(self):
        # Proving both children of a node must not ship that node (the
        # paper's N2 ∩ N3 optimisation, §IV-C).
        acc = ShrubsAccumulator()
        ds = digests(8)
        acc.extend(ds)
        pair = acc.prove_batch([0, 1])
        single = acc.prove_batch([0])
        assert len(pair.nodes) < len(single.nodes) + 1

    def test_paper_example_first_four_of_eight(self):
        # Figure 6: verifying the first 4 of 8 entries needs only one
        # non-derivable proof cell (the right half's subtree root).
        acc = ShrubsAccumulator()
        ds = digests(8)
        acc.extend(ds)
        batch = acc.prove_batch([0, 1, 2, 3])
        assert len(batch.nodes) == 1
        assert (2, 1) in batch.nodes  # root of leaves [4, 8)

    def test_batch_empty_rejected(self):
        acc = ShrubsAccumulator()
        acc.extend(digests(4))
        with pytest.raises(ValueError):
            acc.prove_batch([])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_batch_property(self, data):
        n = data.draw(st.integers(min_value=1, max_value=64))
        acc = ShrubsAccumulator()
        ds = digests(n)
        acc.extend(ds)
        k = data.draw(st.integers(min_value=1, max_value=n))
        indices = sorted(data.draw(st.permutations(range(n)))[:k])
        batch = acc.prove_batch(indices)
        leaf_map = {i: ds[i] for i in indices}
        assert ShrubsAccumulator.verify_batch(leaf_map, batch, acc.root())
        # Tamper one leaf.
        victim = indices[0]
        bad = dict(leaf_map)
        bad[victim] = leaf_hash(b"tampered")
        assert not ShrubsAccumulator.verify_batch(bad, batch, acc.root())


class TestFrontierAccumulator:
    def test_matches_full_accumulator(self):
        full = ShrubsAccumulator()
        frontier = FrontierAccumulator()
        for d in digests(100):
            full.append_leaf(d)
            frontier.append_leaf(d)
            assert full.root() == frontier.root()
            assert full.peaks() == frontier.peaks()

    def test_resume_from_snapshot(self):
        full = ShrubsAccumulator()
        first, second = digests(40), digests(25, tag=b"2nd")
        full.extend(first)
        resumed = FrontierAccumulator(*full.frontier_snapshot())
        for d in second:
            full.append_leaf(d)
            resumed.append_leaf(d)
        assert full.root() == resumed.root()

    def test_snapshot_validation(self):
        with pytest.raises(ValueError):
            FrontierAccumulator(3, [EMPTY_DIGEST])  # 3 needs 2 peaks

    def test_empty_root(self):
        assert FrontierAccumulator().root() == EMPTY_DIGEST


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=200))
def test_incremental_root_equals_from_scratch(n):
    acc = ShrubsAccumulator()
    acc.extend(digests(n))
    assert acc.root() == acc.recompute_root_from_scratch()
    assert acc.root() == bag_peaks(acc.peaks())
