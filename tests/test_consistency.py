"""Consistency proofs: append-only evolution of Shrubs accumulators."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import leaf_hash
from repro.merkle.consistency import ConsistencyProof, prove_consistency
from repro.merkle.shrubs import ShrubsAccumulator


def build(n, tag=b""):
    acc = ShrubsAccumulator()
    for i in range(n):
        acc.append_leaf(leaf_hash(tag + i.to_bytes(4, "big")))
    return acc


class TestHonestProofs:
    def test_basic_consistency(self):
        acc = build(100)
        proof = prove_consistency(acc, 40, 100)
        assert proof.verify(acc.root(40), acc.root(100))

    def test_equal_sizes(self):
        acc = build(10)
        proof = prove_consistency(acc, 10, 10)
        assert proof.verify(acc.root(), acc.root())
        assert proof.complement == {}

    def test_power_of_two_boundaries(self):
        acc = build(64)
        for old, new in ((32, 64), (16, 32), (1, 64), (32, 33)):
            proof = prove_consistency(acc, old, new)
            assert proof.verify(acc.root(old), acc.root(new)), (old, new)

    def test_serialization_round_trip(self):
        acc = build(37)
        proof = prove_consistency(acc, 17, 37)
        restored = ConsistencyProof.from_bytes(proof.to_bytes())
        assert restored.verify(acc.root(17), acc.root(37))

    def test_invalid_ranges_rejected(self):
        acc = build(10)
        with pytest.raises(ValueError):
            prove_consistency(acc, 0, 10)
        with pytest.raises(ValueError):
            prove_consistency(acc, 5, 20)
        with pytest.raises(ValueError):
            prove_consistency(acc, 8, 5)


class TestForgery:
    def test_rewritten_history_detected(self):
        honest = build(60)
        forged = ShrubsAccumulator()
        for i in range(60):
            digest = leaf_hash(b"EVIL" if i == 7 else i.to_bytes(4, "big"))
            forged.append_leaf(digest)
        # A proof from the forged tree cannot link the honest old root to
        # the forged new root.
        proof = prove_consistency(forged, 20, 60)
        assert not proof.verify(honest.root(20), forged.root(60))

    def test_wrong_roots_rejected(self):
        acc = build(50)
        proof = prove_consistency(acc, 20, 50)
        assert not proof.verify(leaf_hash(b"x"), acc.root(50))
        assert not proof.verify(acc.root(20), leaf_hash(b"x"))
        assert not proof.verify(acc.root(21), acc.root(50))

    def test_complement_may_not_cover_old_leaves(self):
        # An adversary shipping a complement tile over trusted history (to
        # substitute it) must be rejected structurally.
        acc = build(40)
        proof = prove_consistency(acc, 20, 40)
        poisoned = dataclasses.replace(
            proof,
            complement={**proof.complement, (0, 3): leaf_hash(b"substituted")},
        )
        assert not poisoned.verify(acc.root(20), acc.root(40))

    def test_truncated_complement_rejected(self):
        acc = build(40)
        proof = prove_consistency(acc, 20, 40)
        if proof.complement:
            first_key = next(iter(proof.complement))
            truncated = dict(proof.complement)
            del truncated[first_key]
            broken = dataclasses.replace(proof, complement=truncated)
            assert not broken.verify(acc.root(20), acc.root(40))

    def test_tampered_old_peak_rejected(self):
        acc = build(40)
        proof = prove_consistency(acc, 20, 40)
        forged = dataclasses.replace(
            proof, old_peaks=[leaf_hash(b"z")] + proof.old_peaks[1:]
        )
        assert not forged.verify(acc.root(20), acc.root(40))


class TestFamIntegration:
    def test_live_epoch_consistency(self):
        from repro.merkle.fam import FamAccumulator

        fam = FamAccumulator(4)
        for i in range(20):
            fam.append(leaf_hash(i.to_bytes(4, "big")))
        old_size = fam.snapshot()[1]
        old_root = fam.current_root()
        for i in range(20, 25):
            fam.append(leaf_hash(i.to_bytes(4, "big")))
        if fam.snapshot()[1] > old_size:  # still the same epoch
            proof = fam.prove_head_consistency(fam.num_epochs - 1, old_size)
            assert proof.verify(old_root, fam.current_root())

    def test_epoch_link_advances_anchors(self):
        """One bundle from the first head derives every sealed epoch root
        through the merged-leaf links and folds to the live root."""
        from repro.merkle.consistency import ConsistencyBundle
        from repro.merkle.fam import FamAccumulator

        fam = FamAccumulator(3)
        for i in range(40):
            fam.append(leaf_hash(i.to_bytes(4, "big")))
        bundle = ConsistencyBundle.build(fam, 0, 1)
        sealed = bundle.fold(fam.head_root(0, 1), fam.current_root(), fam.epoch_capacity)
        assert sealed == [fam.epoch_root(epoch) for epoch in range(fam.num_epochs - 1)]
        assert len(bundle.links) == fam.num_epochs - 2

    def test_epoch_link_rejects_forged_root(self):
        import dataclasses

        from repro.merkle.consistency import ConsistencyBundle
        from repro.merkle.fam import FamAccumulator

        fam = FamAccumulator(3)
        for i in range(40):
            fam.append(leaf_hash(i.to_bytes(4, "big")))
        bundle = ConsistencyBundle.build(fam, 0, 1)
        old_root, capacity = fam.head_root(0, 1), fam.epoch_capacity
        forged_seal = dataclasses.replace(bundle, sealed_root=leaf_hash(b"forged epoch root"))
        assert forged_seal.fold(old_root, fam.current_root(), capacity) is None
        forged_link = dataclasses.replace(
            bundle, links=(fam.prove_head_link(2, capacity),) + bundle.links[1:]
        )
        assert forged_link.fold(old_root, fam.current_root(), capacity) is None
        assert bundle.fold(old_root, leaf_hash(b"forged live root"), capacity) is None

    def test_epoch_link_range_validation(self):
        from repro.merkle.fam import FamAccumulator

        fam = FamAccumulator(3)
        for i in range(20):
            fam.append(leaf_hash(i.to_bytes(4, "big")))
        with pytest.raises(ValueError):
            fam.prove_head_link(0)  # genesis epoch has no merged leaf
        with pytest.raises(ValueError):
            fam.prove_head_link(99)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_consistency_property(data):
    n = data.draw(st.integers(min_value=1, max_value=120))
    acc = build(n)
    old = data.draw(st.integers(min_value=1, max_value=n))
    new = data.draw(st.integers(min_value=old, max_value=n))
    proof = prove_consistency(acc, old, new)
    assert proof.verify(acc.root(old), acc.root(new))
    # Verification against any other old size's root must fail.
    other = data.draw(st.integers(min_value=1, max_value=n))
    if acc.root(other) != acc.root(old):
        assert not proof.verify(acc.root(other), acc.root(new))
