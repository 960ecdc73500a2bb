"""CM-Tree — the two-layer clue merged tree for verifiable N-lineage (§IV).

CM-Tree marries an MPT and per-clue Merkle accumulators:

* **CM-Tree1** is an MPT keyed by ``SHA3-256(clue)`` (scattered so user clue
  strings keep the trie balanced).  A clue's value is its CM-Tree2 *root
  proof set* — the (size, frontier) pair of the clue's own accumulator.
* **CM-Tree2** is one Shrubs accumulator per clue holding that clue's journal
  digests in lineage order.

Insertion (§IV-B3) appends to the clue's CM-Tree2 (O(1) amortised, the Shrubs
property that is "the backbone of CM-Tree") and refreshes the clue's value in
CM-Tree1.  Clue-oriented verification (§IV-C) checks the batch proof of the
requested versions against the clue's CM-Tree2 commitment, then the MPT path
from the clue to the trusted CM-Tree1 root — total O(m + log |clues|) versus
ccMPT's O(m·log n).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from .. import obs
from ..crypto.hashing import Digest, clue_key_hash
from ..encoding import BOOL, BYTES, BYTES_LIST, STR, UINT, EncodingError, Record, nested
from ..storage.kv import GenerationalMemoryStore, KVStore
from .mpt import MPT, MPTProof
from .proofs import BatchProof, bag_peaks
from .shrubs import ShrubsAccumulator

__all__ = ["CMTree", "ClueProof", "ClueVerificationError", "encode_clue_value", "decode_clue_value"]


class ClueVerificationError(Exception):
    """Raised by server-side verification when a clue fails to validate."""


_CLUE_VALUE = Record(size=UINT, frontier=BYTES_LIST)


def encode_clue_value(size: int, frontier: list[Digest]) -> bytes:
    """CM-Tree1 leaf value: the clue's CM-Tree2 root proof set (§IV-B2).

    Public because auditors re-derive these values when replaying state-root
    evolution from a pseudo-genesis snapshot.
    """
    return _CLUE_VALUE.encode({"size": size, "frontier": frontier})


def decode_clue_value(value: bytes) -> tuple[int, list[Digest]]:
    obj = _CLUE_VALUE.decode(value)
    return obj["size"], obj["frontier"]


def _encode_clue_value(accumulator: ShrubsAccumulator) -> bytes:
    return encode_clue_value(accumulator.size, accumulator.peaks())


_decode_clue_value = decode_clue_value


@dataclass(frozen=True)
class ClueProof:
    """The full proof set replied to a client verifier (§IV-C step 5).

    * ``batch`` — CM-Tree2 proof cells for the requested versions (the C_a
      set: the minimal non-derivable nodes N = N2 − (N2 ∩ N3), plus flanking
      peaks);
    * ``clue_value`` / ``mpt_proof`` — the C_s set: the clue's committed
      CM-Tree2 root proof set and its CM-Tree1 path.
    """

    clue: str
    version_start: int
    version_end: int  # exclusive
    entry_count: int
    batch: BatchProof
    clue_value: bytes
    mpt_proof: MPTProof

    def verify(self, journal_digests: dict[int, Digest], cm_tree1_root: Digest) -> bool:
        """Client-side verification (§IV-C step 6).  Never raises.

        ``journal_digests`` maps version number -> journal digest for every
        version in ``[version_start, version_end)``.  A proof is true only
        when both layers prove: any missing version, tampered digest, wrong
        count, or broken path fails the whole verification.
        """
        try:
            size, frontier = _decode_clue_value(self.clue_value)
        except EncodingError:
            # Malformed clue value from an untrusted prover; anything else
            # (a bug in our own decoder) should surface, not read as "false".
            return False
        if self.entry_count != size or self.batch.tree_size != size:
            return False
        expected_versions = list(range(self.version_start, self.version_end))
        if sorted(journal_digests) != expected_versions:
            return False
        if list(self.batch.leaf_indices) != expected_versions:
            return False
        if not frontier:
            return False
        # Layer 2: the requested versions against the clue's accumulator.
        cm_tree2_root = bag_peaks(frontier)
        if not ShrubsAccumulator.verify_batch(journal_digests, self.batch, cm_tree2_root):
            return False
        # Layer 1: the clue's value against the trusted CM-Tree1 root.
        if self.mpt_proof.key != clue_key_hash(self.clue):
            return False
        if self.mpt_proof.value != self.clue_value:
            return False
        return self.mpt_proof.verify(cm_tree1_root)

    def to_bytes(self) -> bytes:
        mpt = self.mpt_proof
        return _CLUE_PROOF.encode(
            {
                **vars(self),
                "mpt_key": mpt.key,
                "mpt_value": b"" if mpt.value is None else mpt.value,
                "mpt_has_value": mpt.value is not None,
                "mpt_nodes": mpt.nodes,
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ClueProof":
        fields = _CLUE_PROOF.decode(data)
        key, value, nodes = (fields.pop(name) for name in ("mpt_key", "mpt_value", "mpt_nodes"))
        if not fields.pop("mpt_has_value"):
            if value:
                raise EncodingError("a non-membership clue proof carries a value")
            value = None
        return cls(**fields, mpt_proof=MPTProof(key=key, value=value, nodes=nodes))


_CLUE_PROOF = Record(
    clue=STR,
    version_start=UINT,
    version_end=UINT,
    entry_count=UINT,
    batch=nested(BatchProof),
    clue_value=BYTES,
    mpt_key=BYTES,
    mpt_value=BYTES,
    mpt_has_value=BOOL,
    mpt_nodes=BYTES_LIST,
)


class CMTree:
    """The two-layer clue merged tree.

    Without a ``store`` CM-Tree1's nodes live in a
    :class:`~repro.storage.kv.GenerationalMemoryStore` that each epoch
    :meth:`roll` sweeps down to the versions a read can still ask for
    (:meth:`retains`); a persistent store keeps every version.
    """

    def __init__(self, store: KVStore | None = None) -> None:
        self._swept = GenerationalMemoryStore() if store is None else None
        self._mpt = MPT(store if store is not None else self._swept)
        self._accumulators: dict[bytes, ShrubsAccumulator] = {}
        self._clue_names: dict[bytes, str] = {}
        self._pins: Counter[Digest] = Counter()
        self._start_generation(set())

    @property
    def root(self) -> Digest:
        """CM-Tree1 root — recorded in every block as the verifiable snapshot."""
        return self._mpt.root

    # --------------------------------------------------------------- insert

    def add(self, clue: str, journal_digest: Digest) -> int:
        """CM-Tree insertion (§IV-B3); returns the entry's version number.

        Step 1: locate/create the clue's CM-Tree2 and append at the tail.
        Step 2: recompute the CM-Tree2 root proof set and update the clue's
        value in CM-Tree1, rehashing the MPT path bottom-up.
        """
        return self.add_many((clue,), (journal_digest,))[0]

    def add_many(self, clues: Sequence[str], journal_digests: Sequence[Digest]) -> list[int]:
        """Insert ``journal_digests[i]`` under ``clues[i]`` in order; returns
        their versions.

        Every CM-Tree2 append lands first; CM-Tree1 then takes one
        :meth:`~repro.merkle.mpt.MPT.put_many` of each touched clue's latest
        (size, frontier).  CM-Tree1 only commits that latest value, so the
        root equals one :meth:`add` per update, while every MPT node is
        written once — callers flush where a state root is read (a block
        seal, a published head).
        """
        if len(clues) != len(journal_digests):
            raise ValueError("clues and journal digests differ in length")
        touched: dict[bytes, ShrubsAccumulator] = {}
        versions = []
        for clue, digest in zip(clues, journal_digests):
            key = clue_key_hash(clue)
            accumulator = self._accumulators.get(key)
            if accumulator is None:
                accumulator = ShrubsAccumulator()
                self._accumulators[key] = accumulator
                self._clue_names[key] = clue
            versions.append(accumulator.append_leaf(digest))
            touched[key] = accumulator
        with obs.span("cmtree.flush") as sp:
            sp.add("amortised_entries", len(versions))
            self._mpt.put_many(
                (key, _encode_clue_value(accumulator)) for key, accumulator in touched.items()
            )
        if self._swept is not None:
            self._roots.add(self._mpt.root)
        return versions

    # ------------------------------------------------------------ retention

    def _start_generation(self, previous: set[Digest]) -> None:
        """Open a generation of CM-Tree1 versions at the current root."""
        self._roll_root = self._mpt.root
        self._previous_roots, self._roots = previous, {self._roll_root}

    def retains(self, root: Digest) -> bool:
        """Whether proofs may still be cut at CM-Tree1 ``root``: on the memory
        store, a root of this generation or the one before, or a pinned one."""
        return (
            self._swept is None
            or root in self._roots
            or root in self._previous_roots
            or root in self._pins
        )

    def pin(self, root: Digest) -> None:
        """Keep a retained ``root``'s nodes through every roll until
        :meth:`unpin`."""
        self._pins[root] += 1

    def unpin(self, root: Digest) -> None:
        self._pins[root] -= 1
        if self._pins[root] <= 0:
            del self._pins[root]

    def roll(self) -> None:
        """An epoch roll: sweep the memory store down to the nodes reachable
        from the root at the previous roll and from every pinned root, plus
        every node written since that roll.  A persistent trie shares each
        version's unchanged subtrees with the one before it, so every root of
        the closing generation stays whole.  The trie's decode memo goes with
        the nodes it decoded."""
        if self._swept is None:
            return
        keep: set[Digest] = set()
        for root in {self._roll_root, *self._pins}:
            keep |= self._mpt.reachable(root)
        obs.inc("cmtree.retention.dropped", self._swept.sweep(keep))
        self._mpt.forget_unstored()
        self._start_generation(self._roots)

    # ---------------------------------------------------------------- reads

    def entry_count(self, clue: str) -> int:
        accumulator = self._accumulators.get(clue_key_hash(clue))
        return 0 if accumulator is None else accumulator.size

    def entry_digest(self, clue: str, version: int) -> Digest:
        return self._require(clue).leaf(version)

    def clues(self) -> list[str]:
        return sorted(self._clue_names.values())

    def _require(self, clue: str) -> ShrubsAccumulator:
        accumulator = self._accumulators.get(clue_key_hash(clue))
        if accumulator is None:
            raise KeyError(f"unknown clue: {clue!r}")
        return accumulator

    # --------------------------------------------------------------- proving

    def prove_clue(
        self,
        clue: str,
        version_start: int = 0,
        version_end: int | None = None,
        *,
        root: Digest | None = None,
    ) -> ClueProof:
        """Build the client proof set for versions ``[start, end)`` (§IV-C 1-5).

        Defaults to the entire clue so far — scenario 1 of §IV-C; a narrower
        range implements scenario 2 (version-bounded verification).

        Every part of the proof is cut at one CM-Tree1 root — ``root``, or
        the current one read once — so it folds to exactly that root even
        while a writer keeps appending: the clue's committed value there
        gives the CM-Tree2 size the batch proof is built at (Shrubs nodes
        and MPT nodes are immutable once written).  A caller that must hand
        out the root beside the proof reads it first and passes it in.
        """
        accumulator = self._require(clue)
        key = clue_key_hash(clue)
        at_root = self._mpt.root if root is None else root
        clue_value = self._mpt.get_at(at_root, key)
        if clue_value is None:
            raise KeyError(f"unknown clue: {clue!r}")
        size, _frontier = decode_clue_value(clue_value)
        end = size if version_end is None else version_end
        if not 0 <= version_start < end <= size:
            raise IndexError(
                f"version range [{version_start}, {end}) invalid for clue of "
                f"size {size}"
            )
        # Steps 1-4: destination leaves N1, proof paths N2, derivable set N3,
        # and the shipped difference — all inside prove_batch.
        batch = accumulator.prove_batch(list(range(version_start, end)), at_size=size)
        # Step 5: CM-Tree1 proof nodes across layers, bottom-up.
        mpt_proof = self._mpt.prove(key, at_root)
        return ClueProof(
            clue=clue,
            version_start=version_start,
            version_end=end,
            entry_count=size,
            batch=batch,
            clue_value=clue_value,
            mpt_proof=mpt_proof,
        )

    # ------------------------------------------------------------- verifying

    def verify_clue_server(
        self, clue: str, journal_digests: dict[int, Digest]
    ) -> bool:
        """Server-side verification (§IV-C): steps 1-3 plus a local check.

        The server validates the supplied digests directly against its own
        CM-Tree2, skipping proof-set shipment (steps 4-5).
        """
        try:
            accumulator = self._require(clue)
        except KeyError:
            return False
        for version, digest in journal_digests.items():
            if not 0 <= version < accumulator.size:
                return False
            if accumulator.leaf(version) != digest:
                return False
        return True

    # ------------------------------------------------------------- utilities

    def num_nodes(self) -> int:
        """Stored CM-Tree2 node count across all clues (storage accounting)."""
        return sum(acc.num_nodes() for acc in self._accumulators.values())

    def clue_snapshots(self) -> list[tuple[str, int, tuple[Digest, ...]]]:
        """(clue, size, peaks) per clue — pseudo-genesis resume material."""
        out = []
        for key, accumulator in self._accumulators.items():
            out.append(
                (self._clue_names[key], accumulator.size, tuple(accumulator.peaks()))
            )
        return sorted(out)

    def clue_snapshot_at(self, clue: str, at_size: int) -> tuple[str, int, tuple[Digest, ...]]:
        """Historical (clue, size, peaks) as of the clue's first ``at_size`` entries."""
        accumulator = self._require(clue)
        return (clue, at_size, tuple(accumulator.peaks(at_size=at_size)))

    def export_nodes(self) -> list[tuple[Digest, bytes]]:
        """Live MPT nodes for snapshots of non-persistent node stores."""
        return self._mpt.export_nodes()

    def import_nodes(self, nodes) -> None:
        self._mpt.import_nodes(nodes)

    # ----------------------------------------------------------- checkpoints

    def dump_state(self) -> dict:
        """CM-Tree2 state + CM-Tree1 root for a ledger checkpoint.

        MPT *nodes* are not included — they live in the (persistent) node
        store; the root digest is enough to re-attach to them.
        """
        return {
            "root": self.root,
            "clues": [
                {"name": self._clue_names[key], "levels": accumulator.dump_levels()}
                for key, accumulator in sorted(self._accumulators.items())
            ],
        }

    @classmethod
    def from_state(cls, state: dict, store: KVStore | None = None) -> "CMTree":
        """Rebuild from :meth:`dump_state`, re-attaching the MPT to ``store``
        (which must already hold the nodes reachable from the saved root)."""
        tree = cls(store)
        tree._mpt.root = bytes(state["root"])
        tree._start_generation(set())
        for entry in state["clues"]:
            name = str(entry["name"])
            key = clue_key_hash(name)
            tree._accumulators[key] = ShrubsAccumulator.from_levels(entry["levels"])
            tree._clue_names[key] = name
        return tree
