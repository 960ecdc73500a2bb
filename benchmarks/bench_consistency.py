"""Consistency-proof benchmarks: anchor advancement vs full re-verification.

The §III-A1 anchor contract says all data before an anchor must have been
verified.  Naively that is an O(n) replay per advancement; with consistency
and merged-leaf link proofs it is O(log n) / O(delta).  These kernels
quantify that gap — the argument for the client SDK's sync strategy.
"""

import pytest

from repro.crypto.hashing import leaf_hash
from repro.merkle.consistency import ConsistencyBundle, prove_consistency
from repro.merkle.fam import FamAccumulator
from repro.merkle.shrubs import FrontierAccumulator, ShrubsAccumulator

SIZE = 1 << 13


@pytest.fixture(scope="module")
def accumulator():
    acc = ShrubsAccumulator()
    for i in range(SIZE):
        acc.append_leaf(leaf_hash(i.to_bytes(4, "big")))
    return acc


def test_consistency_prove(benchmark, accumulator):
    benchmark(lambda: prove_consistency(accumulator, SIZE // 2, SIZE))


def test_consistency_verify(benchmark, accumulator):
    proof = prove_consistency(accumulator, SIZE // 2, SIZE)
    old_root = accumulator.root(SIZE // 2)
    new_root = accumulator.root(SIZE)
    result = benchmark(lambda: proof.verify(old_root, new_root))
    assert result


def test_naive_full_reverification(benchmark, accumulator):
    """The baseline the proofs replace: replay every leaf digest."""
    leaves = [accumulator.leaf(i) for i in range(SIZE)]
    expected = accumulator.root()

    def replay():
        frontier = FrontierAccumulator()
        for digest in leaves:
            frontier.append_leaf(digest)
        return frontier.root() == expected

    assert benchmark(replay)


def test_fam_epoch_link_advance(benchmark):
    fam = FamAccumulator(6)
    for i in range(1 << 13):
        fam.append(leaf_hash(i.to_bytes(4, "big")))

    def advance_all():
        bundle = ConsistencyBundle.build(fam, 0, 1)
        return bundle.fold(fam.head_root(0, 1), fam.current_root(), fam.epoch_capacity)

    sealed = benchmark(advance_all)
    assert len(sealed) == fam.num_epochs - 1
