"""Merkle Patricia Trie: dict equivalence, proofs, persistence, history."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import EMPTY_DIGEST
from repro.merkle.mpt import MPT, key_to_nibbles, nibbles_to_key
from repro.storage.kv import KeyNotFoundError, MemoryKVStore
from repro.storage.pagestore import PagedNodeStore


class TestNibbles:
    def test_round_trip(self):
        for key in (b"", b"\x00", b"\xff\x01\xa5", bytes(range(16))):
            assert nibbles_to_key(key_to_nibbles(key)) == key

    def test_nibble_values(self):
        assert list(key_to_nibbles(b"\xab")) == [0xA, 0xB]
        every_byte = bytes(range(256))
        assert key_to_nibbles(every_byte) == bytes(n for b in every_byte for n in (b >> 4, b & 15))

    def test_odd_nibbles_rejected(self):
        with pytest.raises(ValueError):
            nibbles_to_key(b"\x01")


class TestBasics:
    def test_empty_root(self):
        assert MPT().root == EMPTY_DIGEST

    def test_put_get_single(self):
        trie = MPT()
        trie.put(b"key", b"value")
        assert trie.get(b"key") == b"value"

    def test_update_changes_root(self):
        trie = MPT()
        r1 = trie.put(b"key", b"v1")
        r2 = trie.put(b"key", b"v2")
        assert r1 != r2
        assert trie.get(b"key") == b"v2"

    def test_get_missing_raises(self):
        trie = MPT()
        trie.put(b"a", b"1")
        with pytest.raises(KeyNotFoundError):
            trie.get(b"b")
        assert trie.get_default(b"b") is None
        assert trie.get_default(b"b", b"dflt") == b"dflt"

    def test_contains(self):
        trie = MPT()
        trie.put(b"a", b"1")
        assert b"a" in trie and b"b" not in trie

    def test_prefix_keys(self):
        # One key a prefix of another exercises branch-with-value nodes.
        trie = MPT()
        trie.put(b"ab", b"short")
        trie.put(b"abcd", b"long")
        assert trie.get(b"ab") == b"short"
        assert trie.get(b"abcd") == b"long"
        trie.delete(b"ab")
        assert trie.get(b"abcd") == b"long"
        assert b"ab" not in trie

    def test_root_is_insertion_order_independent(self):
        import itertools

        pairs = [(b"abc", b"1"), (b"abd", b"2"), (b"xyz", b"3"), (b"ab", b"4")]
        roots = set()
        for perm in itertools.permutations(pairs):
            trie = MPT()
            for key, value in perm:
                trie.put(key, value)
            roots.add(trie.root)
        assert len(roots) == 1

    def test_delete_restores_previous_root(self):
        trie = MPT()
        trie.put(b"aaa", b"1")
        trie.put(b"aab", b"2")
        root_two = trie.root
        trie.put(b"zzz", b"3")
        trie.delete(b"zzz")
        assert trie.root == root_two

    def test_delete_missing_raises(self):
        trie = MPT()
        trie.put(b"a", b"1")
        with pytest.raises(KeyNotFoundError):
            trie.delete(b"b")

    def test_delete_to_empty(self):
        trie = MPT()
        trie.put(b"a", b"1")
        trie.delete(b"a")
        assert trie.root == EMPTY_DIGEST


class TestHistoricalRoots:
    def test_old_roots_stay_queryable(self):
        trie = MPT()
        roots = {}
        for i in range(20):
            trie.put(b"k%02d" % i, b"v%02d" % i)
            roots[i] = trie.root
        # Every historical version still answers for exactly its contents.
        assert trie.get_at(roots[5], b"k05") == b"v05"
        assert trie.get_at(roots[5], b"k06") is None
        assert trie.get_at(roots[19], b"k06") == b"v06"

    def test_functional_put_preserves_source(self):
        trie = MPT()
        trie.put(b"a", b"1")
        old_root = trie.root
        new_root = trie.put_at(old_root, b"b", b"2")
        assert trie.get_at(old_root, b"b") is None
        assert trie.get_at(new_root, b"b") == b"2"
        assert trie.get_at(new_root, b"a") == b"1"


class TestProofs:
    def test_membership_proof(self):
        trie = MPT()
        for i in range(50):
            trie.put(b"key-%02d" % i, b"val-%02d" % i)
        for i in (0, 7, 49):
            proof = trie.prove(b"key-%02d" % i)
            assert proof.value == b"val-%02d" % i
            assert proof.verify(trie.root)

    def test_non_membership_proof(self):
        trie = MPT()
        for i in range(20):
            trie.put(b"key-%02d" % i, b"v")
        proof = trie.prove(b"missing-key")
        assert proof.value is None
        assert proof.verify(trie.root)

    def test_proof_rejects_wrong_root(self):
        trie = MPT()
        trie.put(b"a", b"1")
        proof = trie.prove(b"a")
        other = MPT()
        other.put(b"a", b"2")
        assert not proof.verify(other.root)

    def test_proof_rejects_value_substitution(self):
        import dataclasses

        trie = MPT()
        trie.put(b"a", b"real")
        trie.put(b"b", b"other")
        proof = trie.prove(b"a")
        forged = dataclasses.replace(proof, value=b"fake")
        assert not forged.verify(trie.root)

    def test_proof_rejects_truncated_path(self):
        import dataclasses

        trie = MPT()
        for i in range(30):
            trie.put(b"k%02d" % i, b"v")
        proof = trie.prove(b"k07")
        if len(proof.nodes) > 1:
            truncated = dataclasses.replace(proof, nodes=proof.nodes[:-1])
            assert not truncated.verify(trie.root)

    def test_proof_at_historical_root(self):
        trie = MPT()
        trie.put(b"a", b"1")
        old_root = trie.root
        trie.put(b"b", b"2")
        proof = trie.prove(b"a", root=old_root)
        assert proof.verify(old_root)

    def test_empty_trie_non_membership(self):
        trie = MPT()
        proof = trie.prove(b"anything")
        assert proof.value is None and proof.verify(EMPTY_DIGEST)


class TestAgainstDict:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.binary(min_size=1, max_size=6), st.binary(max_size=8)),
            max_size=60,
        ),
        st.binary(min_size=1, max_size=6),
    )
    def test_model_equivalence(self, operations, probe):
        trie = MPT()
        model: dict[bytes, bytes] = {}
        for key, value in operations:
            trie.put(key, value)
            model[key] = value
        assert sorted(trie.items()) == sorted(model.items())
        assert trie.get_default(probe) == model.get(probe)
        proof = trie.prove(probe)
        assert proof.value == model.get(probe)
        assert proof.verify(trie.root)

    @settings(max_examples=30, deadline=None)
    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=5), st.binary(max_size=6), min_size=1, max_size=40
        ),
        st.data(),
    )
    def test_delete_equivalence(self, contents, data):
        trie = MPT()
        for key, value in contents.items():
            trie.put(key, value)
        keys = sorted(contents)
        to_delete = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
        for key in to_delete:
            trie.delete(key)
            del contents[key]
            assert sorted(trie.items()) == sorted(contents.items())


class _RecordingStore(MemoryKVStore):
    """A memory store that logs every node key written to it."""

    def __init__(self):
        super().__init__()
        self.written: list[bytes] = []

    def put(self, key: bytes, value: bytes) -> None:
        self.written.append(key)
        super().put(key, value)


# Few byte values, so keys share nibble prefixes: variable-length keys, keys
# that are prefixes of others, and extension splits at every depth.
_KEYS = st.lists(st.sampled_from([0x00, 0x01, 0x0F, 0x10, 0x1F, 0xF0]), max_size=3).map(bytes)
_VALUES = st.binary(max_size=4)


def _trie(contents: dict[bytes, bytes]) -> MPT:
    trie = MPT(_RecordingStore())
    for key, value in contents.items():
        trie.put(key, value)
    return trie


class TestPutMany:
    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(_KEYS, _VALUES, max_size=16), st.data())
    def test_a_batch_is_its_sequential_puts(self, existing, data):
        keys = st.one_of(_KEYS, st.sampled_from(sorted(existing))) if existing else _KEYS
        batch = data.draw(st.lists(st.tuples(keys, _VALUES), min_size=1, max_size=10))
        trie = _trie(existing)
        old_root, old_nodes = trie.root, trie.reachable()
        sequential = _trie(existing)
        for key, value in batch:
            sequential.put(key, value)
        trie._store.written.clear()

        assert trie.put_many(batch) == sequential.root == trie.root
        model = {**existing, **dict(batch)}
        assert MPT().put_many(model.items()) == trie.root  # canonical: one build
        for key, value in model.items():
            assert trie.get(key) == value
        assert trie.items() == sorted(model.items())
        for key, value in existing.items():
            assert trie.get_at(old_root, key) == value
        # Only nodes the new root references were written, and all of its new ones.
        written, live = set(trie._store.written), trie.reachable()
        assert written <= live
        assert live - old_nodes <= written

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(_KEYS, _VALUES, max_size=16), _KEYS, _VALUES)
    def test_a_batch_of_one_stores_what_put_stores(self, existing, key, value):
        single, batched = _trie(existing), _trie(existing)
        single._store.written.clear()
        batched._store.written.clear()
        single.put(key, value)
        batched.put_many([(key, value)])
        assert batched._store.written == single._store.written
        # The new path from the root to the key, plus a split's remnant.
        path = single.prove(key).nodes
        assert len(path) <= len(single._store.written) <= len(path) + 1

    def test_an_empty_batch_writes_nothing(self):
        trie = _trie({b"\x01": b"a"})
        root = trie.root
        trie._store.written.clear()
        assert trie.put_many([]) == root
        assert trie._store.written == []

    def test_a_repeated_key_keeps_its_last_value(self):
        trie = MPT()
        trie.put_many([(b"k", b"1"), (b"j", b"2"), (b"k", b"3")])
        assert trie.items() == [(b"j", b"2"), (b"k", b"3")]


class TestStores:
    def test_works_over_cached_store(self, tmp_path):
        # The paged store with a two-page LRU cache: flushed nodes are read
        # back through page loads and evictions.
        store = PagedNodeStore(tmp_path, cache_pages=2, page_bytes=512)
        trie = MPT(store=store)
        for i in range(100):
            trie.put(b"key-%03d" % i, b"v%03d" % i)
            if i % 10 == 9:
                store.flush()
        for i in range(100):
            assert trie.get(b"key-%03d" % i) == b"v%03d" % i
        assert trie.prove(b"key-050").verify(trie.root)
