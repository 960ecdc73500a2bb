"""ccMPT baseline: counter proofs + m existence proofs (O(m log n))."""

import dataclasses

import pytest

from paper.merkle.ccmpt import ClueCounterMPT
from paper.merkle.tim import TimAccumulator
from repro.crypto.hashing import leaf_hash


@pytest.fixture()
def setup():
    tim = TimAccumulator()
    cc = ClueCounterMPT(tim)
    digests: dict[str, list[bytes]] = {"a": [], "b": []}
    all_digests = {}
    for i in range(30):
        clue = "a" if i % 3 else "b"
        digest = leaf_hash(b"journal-%d" % i)
        jsn = tim.append_digest(digest)
        cc.add(clue, jsn)
        digests[clue].append(digest)
        all_digests[jsn] = digest
    return tim, cc, digests, all_digests


def test_counter_tracks_adds(setup):
    _tim, cc, digests, _all = setup
    assert cc.count("a") == len(digests["a"])
    assert cc.count("b") == len(digests["b"])
    assert cc.count("ghost") == 0


def test_clue_proof_verifies(setup):
    tim, cc, digests, all_digests = setup
    proof = cc.prove_clue("a")
    leaf_digests = [all_digests[jsn] for jsn in proof.jsns]
    assert ClueCounterMPT.verify_clue(proof, leaf_digests, cc.root, tim.root())


def test_proof_size_scales_with_m(setup):
    tim, cc, _digests, _all = setup
    proof_a = cc.prove_clue("a")
    proof_b = cc.prove_clue("b")
    # The m-fold existence proofs are the linear-expansion cost.
    assert len(proof_a.existence_proofs) == cc.count("a")
    assert len(proof_b.existence_proofs) == cc.count("b")


def test_tampered_journal_fails(setup):
    tim, cc, _digests, all_digests = setup
    proof = cc.prove_clue("a")
    leaf_digests = [all_digests[jsn] for jsn in proof.jsns]
    leaf_digests[0] = leaf_hash(b"evil")
    assert not ClueCounterMPT.verify_clue(proof, leaf_digests, cc.root, tim.root())


def test_wrong_counter_fails(setup):
    tim, cc, _digests, all_digests = setup
    proof = cc.prove_clue("a")
    leaf_digests = [all_digests[jsn] for jsn in proof.jsns]
    forged = dataclasses.replace(
        proof,
        counter=proof.counter - 1,
        jsns=proof.jsns[:-1],
        existence_proofs=proof.existence_proofs[:-1],
    )
    assert not ClueCounterMPT.verify_clue(forged, leaf_digests[:-1], cc.root, tim.root())


def test_wrong_ledger_root_fails(setup):
    tim, cc, _digests, all_digests = setup
    proof = cc.prove_clue("a")
    leaf_digests = [all_digests[jsn] for jsn in proof.jsns]
    assert not ClueCounterMPT.verify_clue(proof, leaf_digests, cc.root, leaf_hash(b"x"))


def test_wrong_mpt_root_fails(setup):
    tim, cc, _digests, all_digests = setup
    proof = cc.prove_clue("a")
    leaf_digests = [all_digests[jsn] for jsn in proof.jsns]
    assert not ClueCounterMPT.verify_clue(proof, leaf_digests, leaf_hash(b"y"), tim.root())


def test_unknown_clue_raises(setup):
    _tim, cc, _digests, _all = setup
    with pytest.raises(KeyError):
        cc.prove_clue("ghost")


def test_jsns_in_append_order(setup):
    _tim, cc, _digests, _all = setup
    jsns = cc.jsns("a")
    assert jsns == sorted(jsns)
