"""tim — the transaction-intensive accumulator model (baseline).

Diem and QLDB abandon blocks and entangle every transaction into one global
Merkle accumulator: "each transaction becomes an incremental leaf node, which
generates corresponding Merkle root hash as its fine-grained tamper proof"
(§I).  We reproduce that behaviour exactly:

* every append publishes a fresh global root (so append cost grows with the
  bagging cost, O(log n));
* every proof is a full path against the global root, O(log n) nodes, and the
  verification cost keeps growing as the ledger does — the weakness *fam* is
  designed to fix.

``TimAccumulator`` also implements the accumulator-oriented trusted anchor
(*aoa*) of §III-A1: a client that has verified everything up to size *s* may
record the root-at-*s* as an anchor, but unlike *fam* this does not shorten
later proofs, because new leaves keep deepening the same global tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, leaf_hash
from repro.merkle.proofs import MembershipProof
from repro.merkle.shrubs import ShrubsAccumulator

__all__ = ["TimAccumulator", "TrustedAnchor"]


@dataclass(frozen=True)
class TrustedAnchor:
    """A client-side checkpoint: everything before ``size`` has been verified."""

    size: int
    root: Digest


class TimAccumulator:
    """Global single-tree Merkle accumulator (Diem/QLDB style)."""

    def __init__(self) -> None:
        self._tree = ShrubsAccumulator()
        self._latest_root: Digest | None = None

    @property
    def size(self) -> int:
        return self._tree.size

    def __len__(self) -> int:
        return self._tree.size

    def append(self, payload: bytes) -> int:
        """Append a transaction payload; returns its sequence number.

        Publishes (recomputes) the global root immediately, as *tim* systems
        do for fine-grained per-transaction tamper proofs.
        """
        index = self._tree.append_leaf(leaf_hash(payload))
        self._latest_root = self._tree.root()
        return index

    def append_digest(self, digest: Digest) -> int:
        """Append an already-hashed leaf digest (for digest-only workloads)."""
        index = self._tree.append_leaf(digest)
        self._latest_root = self._tree.root()
        return index

    def root(self, at_size: int | None = None) -> Digest:
        if at_size is None and self._latest_root is not None:
            return self._latest_root
        return self._tree.root(at_size)

    def leaf(self, index: int) -> Digest:
        return self._tree.leaf(index)

    def get_proof(self, index: int, at_size: int | None = None) -> MembershipProof:
        """Full-path membership proof against the global root."""
        return self._tree.prove(index, at_size)

    @staticmethod
    def verify(leaf_digest: Digest, proof: MembershipProof, root: Digest) -> bool:
        return proof.verify(leaf_digest, root)

    def make_anchor(self, at_size: int | None = None) -> TrustedAnchor:
        """Record the verified prefix as an *aoa* trusted anchor."""
        size = self._tree.size if at_size is None else at_size
        return TrustedAnchor(size=size, root=self._tree.root(size))

    def verify_with_anchor(
        self, leaf_digest: Digest, proof: MembershipProof, anchor: TrustedAnchor
    ) -> bool:
        """Verify against an anchor when possible.

        If the proof is against exactly the anchored tree size the anchored
        root substitutes for a fresh root fetch; otherwise the verifier must
        fall back to the current root — the anchor cannot shorten the path
        (contrast with fam-aoa).
        """
        if proof.tree_size == anchor.size:
            return proof.verify(leaf_digest, anchor.root)
        return proof.verify(leaf_digest, self.root(proof.tree_size))

    def num_nodes(self) -> int:
        return self._tree.num_nodes()
