"""World-state: the single-layer state accumulator of Figure 2 (``examples/frontend``)."""

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import sha256

# The world-state is a demo front end kept beside its example, not a repro module.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "examples"))
from frontend.worldstate import StateProof, WorldState


class TestBasics:
    def test_put_get(self):
        state = WorldState()
        state.put(b"balance:alice", b"100", jsn=1)
        assert state.get(b"balance:alice") == b"100"
        assert b"balance:alice" in state

    def test_missing_key(self):
        state = WorldState()
        with pytest.raises(KeyError):
            state.get(b"ghost")
        assert state.entry(b"ghost") is None
        assert state.version(b"ghost") == -1

    def test_versions_increment(self):
        state = WorldState()
        for i in range(5):
            state.put(b"k", b"v%d" % i, jsn=i)
        assert state.version(b"k") == 4
        entry = state.entry(b"k")
        assert entry.version == 4 and entry.jsn == 4
        assert entry.value_digest == sha256(b"v4")

    def test_root_changes_per_write(self):
        state = WorldState()
        roots = set()
        for i in range(10):
            roots.add(state.put(b"k%d" % (i % 3), b"v%d" % i, jsn=i))
        assert len(roots) == 10

    def test_root_reflects_only_current_state(self):
        a, b = WorldState(), WorldState()
        a.put(b"k", b"old", jsn=0)
        a.put(b"k", b"new", jsn=1)
        b.put(b"k", b"other", jsn=0)
        b.put(b"k", b"new", jsn=1)
        assert a.root == b.root  # same version/jsn/value => same commitment


class TestProofs:
    def test_membership_proof(self):
        state = WorldState()
        for i in range(20):
            state.put(b"key-%02d" % i, b"val-%02d" % i, jsn=i)
        proof = state.prove(b"key-07")
        assert proof.entry is not None and proof.entry.jsn == 7
        assert proof.verify(state.root)
        assert proof.verify(state.root, value=b"val-07")
        assert not proof.verify(state.root, value=b"wrong value")

    def test_non_membership_proof(self):
        state = WorldState()
        state.put(b"exists", b"v", jsn=0)
        proof = state.prove(b"missing")
        assert proof.entry is None
        assert proof.verify(state.root)

    def test_proof_rejects_wrong_root(self):
        state = WorldState()
        state.put(b"k", b"v", jsn=0)
        proof = state.prove(b"k")
        other = WorldState()
        other.put(b"k", b"different", jsn=0)
        assert not proof.verify(other.root)

    def test_forged_entry_rejected(self):
        state = WorldState()
        state.put(b"k", b"v", jsn=3)
        proof = state.prove(b"k")
        inflated = dataclasses.replace(proof.entry, jsn=99)
        forged = StateProof(entry=inflated, mpt_proof=proof.mpt_proof)
        assert not forged.verify(state.root)

    def test_historical_roots_stay_provable(self):
        state = WorldState()
        state.put(b"k", b"v1", jsn=1)
        old_root = state.root
        state.put(b"k", b"v2", jsn=2)
        old_proof = state.prove(b"k", root=old_root)
        assert old_proof.entry.value_digest == sha256(b"v1")
        assert old_proof.verify(old_root)
        assert not old_proof.verify(state.root)
        historical = state.historical_entry(b"k", old_root)
        assert historical.jsn == 1


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(
        st.binary(min_size=1, max_size=6), st.binary(max_size=12), min_size=1, max_size=25
    )
)
def test_matches_dict_model(contents):
    state = WorldState()
    for jsn, (key, value) in enumerate(sorted(contents.items())):
        state.put(key, value, jsn=jsn)
    for key, value in contents.items():
        assert state.get(key) == value
        proof = state.prove(key)
        assert proof.verify(state.root, value=value)
