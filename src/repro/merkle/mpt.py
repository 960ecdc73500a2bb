"""Merkle Patricia Trie (MPT) with 16-way branching and content-addressed nodes.

CM-Tree1 "holds 16 branches" per non-leaf node, keeps hot top layers in a
memory cache and cold bottom layers on persistent storage (§IV-B2).  This
module implements that substrate as a *persistent* (copy-path-on-write) MPT:

* nodes are content-addressed — a node's id is the SHA-256 of its canonical
  serialization, so the 32-byte root digest commits the entire key-value map;
* updates write new nodes along the touched path only and return a new root;
  an older root stays queryable for as long as its store keeps the nodes it
  reaches (the "historical and current status" CM-Tree1 records per block
  version) — a persistent store keeps them all, a live ledger's memory store
  only the versions a read can still ask for (DESIGN §13);
* Merkle path proofs (`prove` / `verify_proof`) support both membership and
  non-membership.

Keys are arbitrary byte strings (CM-Tree1 uses 32-byte SHA-3 scattered clue
keys); internally they travel as nibble (4-bit) sequences.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .. import obs
from ..crypto.hashing import EMPTY_DIGEST, Digest, sha256
from ..encoding import EncodingError, bytes_head, encode, list_head, read_bytes
from ..storage.kv import KeyNotFoundError, KVStore, MemoryKVStore

__all__ = ["MPT", "MPTProof", "key_to_nibbles", "nibbles_to_key"]


#: Lower-case hex digit -> its value: ``key.hex()`` spells a key's nibbles.
_HEX_NIBBLES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def key_to_nibbles(key: bytes) -> bytes:
    """Split a byte key into its 4-bit nibble sequence (one nibble per byte)."""
    return key.hex().encode().translate(_HEX_NIBBLES)


def nibbles_to_key(nibbles: bytes) -> bytes:
    """Inverse of :func:`key_to_nibbles` (requires even length)."""
    if len(nibbles) & 1:
        raise ValueError("nibble sequence has odd length")
    out = bytearray()
    for i in range(0, len(nibbles), 2):
        out.append((nibbles[i] << 4) | nibbles[i + 1])
    return bytes(out)


def _common_prefix_len(a: bytes, b: bytes) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


# Node model (decoded form):
#   ("leaf", suffix_nibbles: bytes, value: bytes)
#   ("ext",  shared_nibbles: bytes, child: Digest)
#   ("branch", children: list[Digest | None] * 16, value: bytes | None)

_LEAF, _EXT, _BRANCH = "L", "E", "B"

# The wire form is ``encode`` of ``[tag, path, value]`` (leaf), ``[tag, path,
# child]`` (ext) or ``[tag, 16 children, value, has_value]`` (branch, b"" for
# an absent child or value); these are its constant prefixes.
_LEAF_HEAD = list_head(3) + encode(_LEAF)
_EXT_HEAD = list_head(3) + encode(_EXT)
_BRANCH_HEAD = list_head(4) + encode(_BRANCH) + list_head(16)
_NO_CHILD = bytes_head(0)
_DIGEST_HEAD = bytes_head(32)
_HAS_VALUE = encode(True)
_NO_VALUE = bytes_head(0) + encode(False)


def _serialize(node: tuple) -> bytes:
    kind = node[0]
    if kind == "branch":
        parts = [_BRANCH_HEAD]
        for child in node[1]:
            if child is None:
                parts.append(_NO_CHILD)
            else:
                parts += (_DIGEST_HEAD if len(child) == 32 else bytes_head(len(child)), child)
        value = node[2]
        if value is None:
            parts.append(_NO_VALUE)
        else:
            parts += (bytes_head(len(value)), value, _HAS_VALUE)
        return b"".join(parts)
    if kind == "leaf":
        head = _LEAF_HEAD
    elif kind == "ext":
        head = _EXT_HEAD
    else:
        raise ValueError(f"unknown node kind: {kind}")
    path, last = node[1], node[2]
    return b"".join((head, bytes_head(len(path)), path, bytes_head(len(last)), last))


def _deserialize(data: bytes) -> tuple:
    """The node ``_serialize`` wrote as ``data``; EncodingError for any other bytes."""
    data = bytes(data)
    node = None
    try:
        if data.startswith(_BRANCH_HEAD):
            node = _read_branch(data)
        elif data.startswith(_LEAF_HEAD):
            node = _read_pair("leaf", data, len(_LEAF_HEAD))
        elif data.startswith(_EXT_HEAD):
            node = _read_pair("ext", data, len(_EXT_HEAD))
    except IndexError:
        pass
    if node is None:
        raise EncodingError("malformed MPT node")
    return node


def _read_pair(kind: str, data: bytes, pos: int) -> tuple | None:
    got = read_bytes(data, pos)
    if got is None:
        return None
    path, pos = got
    got = read_bytes(data, pos)
    if got is None or got[1] != len(data):
        return None
    return (kind, path, got[0])


def _read_branch(data: bytes) -> tuple | None:
    pos = len(_BRANCH_HEAD)
    children: list[Digest | None] = []
    for _ in range(16):
        if data.startswith(_DIGEST_HEAD, pos):
            end = pos + 35
            if end > len(data):
                return None
            children.append(data[pos + 3 : end])
            pos = end
        elif data.startswith(_NO_CHILD, pos):
            children.append(None)
            pos += 2
        else:
            got = read_bytes(data, pos)
            if got is None:
                return None
            child, pos = got
            children.append(child)
    if data.endswith(_NO_VALUE) and pos + 3 == len(data):
        return ("branch", children, None)
    got = read_bytes(data, pos)
    if got is None or got[1] + 1 != len(data) or not data.endswith(_HAS_VALUE):
        return None
    return ("branch", children, got[0])


@dataclass(frozen=True)
class MPTProof:
    """Merkle path proof: the serialized nodes from the root toward ``key``.

    For membership the path reaches the key's value; for non-membership it
    ends at the node proving divergence.  ``verify`` recomputes every node
    hash top-down, so a forged path cannot verify.
    """

    key: bytes
    value: bytes | None  # None asserts non-membership
    nodes: list[bytes]

    def verify(self, root: Digest) -> bool:
        """Check this proof against a trusted root digest.  Never raises."""
        try:
            return self._verify(root)
        except (EncodingError, ValueError, TypeError, IndexError, KeyError):
            # Malformed proof nodes from an untrusted prover decode to
            # garbage in bounded ways; genuine bugs should still surface.
            return False

    def _verify(self, root: Digest) -> bool:
        remaining = key_to_nibbles(self.key)
        if root == EMPTY_DIGEST:
            return self.value is None and not self.nodes
        expected = root
        index = 0
        while True:
            if index >= len(self.nodes):
                return False
            data = self.nodes[index]
            if sha256(data) != expected:
                return False
            node = _deserialize(data)
            index += 1
            kind = node[0]
            if kind == "leaf":
                if node[1] == remaining:
                    return self.value == node[2] and index == len(self.nodes)
                return self.value is None and index == len(self.nodes)
            if kind == "ext":
                if remaining[: len(node[1])] == node[1]:
                    remaining = remaining[len(node[1]) :]
                    expected = node[2]
                    continue
                return self.value is None and index == len(self.nodes)
            # branch
            if not remaining:
                return self.value == node[2] and index == len(self.nodes)
            child = node[1][remaining[0]]
            if child is None:
                return self.value is None and index == len(self.nodes)
            remaining = remaining[1:]
            expected = child


class MPT:
    """Persistent Merkle Patricia Trie over a pluggable node store.

    ``node_cache`` bounds a decode memo keyed by node identity (the content
    digest): nodes are immutable once written, so a decoded tuple can be
    reused without invalidation for as long as the store holds its node (an
    owner that drops nodes calls :meth:`forget_unstored` after).  On a paged
    disk store this skips both the page read *and* the deserialization for
    hot upper-trie nodes — the paper's "top layers cache in memory" (§IV-B2)
    at the node level.
    Set ``node_cache=0`` to disable (every load hits the store).
    """

    def __init__(
        self,
        store: KVStore | None = None,
        root: Digest = EMPTY_DIGEST,
        node_cache: int = 4096,
    ) -> None:
        self._store = store if store is not None else MemoryKVStore()
        self.root = root
        self._node_cache: OrderedDict[Digest, tuple] = OrderedDict()
        self._node_cache_limit = node_cache

    # -------------------------------------------------------------- node I/O

    def _load(self, digest: Digest) -> tuple:
        cache = self._node_cache
        node = cache.get(digest)
        if node is not None:
            cache.move_to_end(digest)
            obs.inc("mpt.node_cache.hit")
            return node
        node = _deserialize(self._store.get(digest))
        obs.inc("mpt.node_cache.miss")
        self._memo(digest, node)
        return node

    def _save(self, node: tuple) -> Digest:
        data = _serialize(node)
        digest = sha256(data)
        self._store.put(digest, data)
        self._memo(digest, node)
        return digest

    def forget_unstored(self) -> None:
        """Drop the memo of every node the store no longer holds (after a
        sweep), so no read is served from a retired node."""
        store, cache = self._store, self._node_cache
        # Readers beside the writer move and evict entries meanwhile: walk an
        # (atomic) copy of the keys and drop each entry only if still there.
        for digest in [digest for digest in list(cache) if digest not in store]:
            cache.pop(digest, None)

    def _memo(self, digest: Digest, node: tuple) -> None:
        # Cached tuples are shared: every mutator copies children lists
        # before modifying them, so a memoized node is never written to.
        if self._node_cache_limit <= 0:
            return
        cache = self._node_cache
        cache[digest] = node
        cache.move_to_end(digest)
        while len(cache) > self._node_cache_limit:
            cache.popitem(last=False)

    # ------------------------------------------------------------------- get

    def get(self, key: bytes) -> bytes:
        """Value for ``key`` at the current root; raises KeyNotFoundError."""
        value = self.get_at(self.root, key)
        if value is None:
            raise KeyNotFoundError(key)
        return value

    def get_default(self, key: bytes, default: bytes | None = None) -> bytes | None:
        value = self.get_at(self.root, key)
        return default if value is None else value

    def get_at(self, root: Digest, key: bytes) -> bytes | None:
        """Value for ``key`` at a historical ``root`` (None if absent)."""
        remaining = key_to_nibbles(key)
        digest = root
        while True:
            if digest == EMPTY_DIGEST or digest is None:
                return None
            node = self._load(digest)
            kind = node[0]
            if kind == "leaf":
                return node[2] if node[1] == remaining else None
            if kind == "ext":
                if remaining[: len(node[1])] != node[1]:
                    return None
                remaining = remaining[len(node[1]) :]
                digest = node[2]
                continue
            if not remaining:
                return node[2]
            digest = node[1][remaining[0]]
            remaining = remaining[1:]

    def __contains__(self, key: bytes) -> bool:
        return self.get_at(self.root, key) is not None

    # ------------------------------------------------------------------- put

    def put(self, key: bytes, value: bytes) -> Digest:
        """Insert/update ``key``; advances and returns the new root."""
        return self.put_many(((key, value),))

    def put_many(self, items) -> Digest:
        """Insert/update every ``(key, value)`` of ``items`` as one write;
        advances and returns the new root.

        The one write path: each new node is serialized, hashed and stored
        once, so the store gains only nodes the new root references, never
        the intermediate versions key-by-key puts would leave.  The root is
        the one sequential :meth:`put` calls reach (the trie is canonical);
        a repeated key keeps its last value.
        """
        self.root = self._apply(self.root, items)
        return self.root

    def put_at(self, root: Digest, key: bytes, value: bytes) -> Digest:
        """Functional insert against an arbitrary root (old root stays valid)."""
        return self._apply(root, ((key, value),))

    def _apply(self, root: Digest, items) -> Digest:
        batch = sorted({key_to_nibbles(key): value for key, value in items}.items())
        if not batch:
            return root
        return self._put_many(None if root == EMPTY_DIGEST else self._load(root), batch)

    def _put_many(self, node: tuple | None, items: list[tuple[bytes, bytes]]) -> Digest:
        """Write ``items`` (sorted, distinct nibble paths relative to ``node``)
        under ``node`` — a stored node, a virtual one no store holds yet, or
        None — and return the digest of the result."""
        if node is None:
            if len(items) == 1:
                return self._save(("leaf",) + items[0])
            depth = _common_prefix_len(items[0][0], items[-1][0])
            return self._fork(depth, [None] * 16, None, items)
        if node[0] == "branch":
            return self._fork(0, list(node[1]), node[2], items)
        kind, path = node[0], node[1]
        if kind == "leaf" and len(items) == 1 and items[0][0] == path:
            return self._save(("leaf", path, items[0][1]))
        # Sorted items: the first and the last leave ``path`` soonest.
        split = min(_common_prefix_len(path, items[0][0]), _common_prefix_len(path, items[-1][0]))
        if kind == "ext" and split == len(path):
            child = self._put_many(self._load(node[2]), [(n[split:], v) for n, v in items])
            return self._save(("ext", path, child))
        # Split the leaf or extension: what remains of it below ``split``
        # becomes one side of a branch there — a virtual node unless it is
        # the extension's stored child itself.
        children: list = [None] * 16
        value = remnant = None
        rest = path[split + 1 :]
        if kind == "ext" and not rest:
            children[path[split]] = node[2]
        elif kind == "ext" or split < len(path):
            remnant = path[split]
            children[remnant] = (kind, rest, node[2])
        else:
            value = node[2]
        return self._fork(split, children, value, items, remnant)

    def _fork(self, depth: int, children: list, value, items, remnant: int | None = None) -> Digest:
        """The branch ``depth`` nibbles into ``items`` over existing
        ``children`` and ``value``, behind an extension of the shared
        ``depth`` nibbles when there are any.  ``children[remnant]`` is a
        virtual node: stored as is unless the items reach into it."""
        groups: dict[int, list[tuple[bytes, bytes]]] = {}
        for nibbles, item_value in items:
            if len(nibbles) == depth:
                value = item_value
            else:
                groups.setdefault(nibbles[depth], []).append((nibbles[depth + 1 :], item_value))
        if remnant is not None and remnant not in groups:
            children[remnant] = self._save(children[remnant])
        for slot, group in groups.items():  # nibble order: the items are sorted
            child = children[slot]
            node = self._load(child) if type(child) is bytes else child
            children[slot] = self._put_many(node, group)
        branch = self._save(("branch", children, value))
        if depth:
            return self._save(("ext", items[0][0][:depth], branch))
        return branch

    # ---------------------------------------------------------------- delete

    def delete(self, key: bytes) -> Digest:
        """Remove ``key``; advances and returns the new root.

        Raises :class:`KeyNotFoundError` if absent.
        """
        new_root = self._delete(
            self.root if self.root != EMPTY_DIGEST else None, key_to_nibbles(key)
        )
        self.root = new_root if new_root is not None else EMPTY_DIGEST
        return self.root

    def _delete(self, digest: Digest | None, nibbles: bytes) -> Digest | None:
        if digest is None:
            raise KeyNotFoundError(
                nibbles_to_key(nibbles) if len(nibbles) % 2 == 0 else bytes(nibbles)
            )
        node = self._load(digest)
        kind = node[0]
        if kind == "leaf":
            if node[1] == nibbles:
                return None
            raise KeyNotFoundError(b"")
        if kind == "ext":
            shared, child = node[1], node[2]
            if nibbles[: len(shared)] != shared:
                raise KeyNotFoundError(b"")
            new_child = self._delete(child, nibbles[len(shared) :])
            if new_child is None:
                return None
            return self._normalize_ext(shared, new_child)
        children = list(node[1])
        branch_value = node[2]
        if not nibbles:
            if branch_value is None:
                raise KeyNotFoundError(b"")
            branch_value = None
        else:
            slot = nibbles[0]
            if children[slot] is None:
                raise KeyNotFoundError(b"")
            children[slot] = self._delete(children[slot], nibbles[1:])
        return self._normalize_branch(children, branch_value)

    def _normalize_ext(self, shared: bytes, child_digest: Digest) -> Digest:
        """Merge an extension with a leaf/ext child to keep the trie canonical."""
        child = self._load(child_digest)
        if child[0] == "leaf":
            return self._save(("leaf", shared + child[1], child[2]))
        if child[0] == "ext":
            return self._save(("ext", shared + child[1], child[2]))
        return self._save(("ext", shared, child_digest))

    def _normalize_branch(
        self, children: list[Digest | None], value: bytes | None
    ) -> Digest | None:
        live = [(i, d) for i, d in enumerate(children) if d is not None]
        if not live and value is None:
            return None
        if not live:
            return self._save(("leaf", b"", value))
        if len(live) == 1 and value is None:
            slot, child_digest = live[0]
            return self._normalize_ext(bytes([slot]), child_digest)
        return self._save(("branch", children, value))

    # --------------------------------------------------------------- proving

    def prove(self, key: bytes, root: Digest | None = None) -> MPTProof:
        """Merkle path proof of membership or non-membership of ``key``."""
        at_root = self.root if root is None else root
        nodes: list[bytes] = []
        remaining = key_to_nibbles(key)
        digest = at_root
        value: bytes | None = None
        while digest is not None and digest != EMPTY_DIGEST:
            data = self._store.get(digest)
            nodes.append(data)
            node = _deserialize(data)
            kind = node[0]
            if kind == "leaf":
                value = node[2] if node[1] == remaining else None
                break
            if kind == "ext":
                if remaining[: len(node[1])] != node[1]:
                    break
                remaining = remaining[len(node[1]) :]
                digest = node[2]
                continue
            if not remaining:
                value = node[2]
                break
            digest = node[1][remaining[0]]
            remaining = remaining[1:]
        return MPTProof(key=key, value=value, nodes=nodes)

    # ------------------------------------------------------------- utilities

    def reachable(self, root: Digest | None = None) -> set[Digest]:
        """Digests of every node reachable from ``root``.

        The live set for store compaction: nodes outside it belong to
        superseded historical trie versions and can be dropped once history
        queries against old roots are no longer needed.
        """
        at_root = self.root if root is None else root
        live: set[Digest] = set()
        if at_root == EMPTY_DIGEST:
            return live
        stack: list[Digest] = [at_root]
        while stack:
            digest = stack.pop()
            if digest in live:
                continue
            live.add(digest)
            node = self._load(digest)
            kind = node[0]
            if kind == "ext":
                stack.append(node[2])
            elif kind == "branch":
                stack.extend(child for child in node[1] if child is not None)
        return live

    def export_nodes(self, root: Digest | None = None) -> list[tuple[Digest, bytes]]:
        """Serialized (digest, bytes) for every node reachable from ``root``.

        Snapshot material for stores that are not themselves persistent —
        an on-disk node store instead persists pages and needs only the root.
        """
        return [
            (digest, self._store.get(digest)) for digest in sorted(self.reachable(root))
        ]

    def import_nodes(self, nodes) -> None:
        """Load ``(digest, bytes)`` pairs (from :meth:`export_nodes`) into the
        backing store; content-addressed, so repeats are harmless."""
        for digest, data in nodes:
            self._store.put(bytes(digest), bytes(data))

    def items(self, root: Digest | None = None) -> list[tuple[bytes, bytes]]:
        """All (key, value) pairs under ``root`` (test oracle; O(n))."""
        at_root = self.root if root is None else root
        out: list[tuple[bytes, bytes]] = []
        if at_root == EMPTY_DIGEST:
            return out
        stack: list[tuple[Digest, bytes]] = [(at_root, b"")]
        while stack:
            digest, prefix = stack.pop()
            node = self._load(digest)
            kind = node[0]
            if kind == "leaf":
                out.append((nibbles_to_key(prefix + node[1]), node[2]))
            elif kind == "ext":
                stack.append((node[2], prefix + node[1]))
            else:
                if node[2] is not None:
                    out.append((nibbles_to_key(prefix), node[2]))
                for slot, child in enumerate(node[1]):
                    if child is not None:
                        stack.append((child, prefix + bytes([slot])))
        return sorted(out)
