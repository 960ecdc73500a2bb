"""bAMT — batched accumulated Merkle tree (the VLDB'20 LedgerDB accumulator).

§III-A1 places the Shrubs tree's "prototypical verification cost ... the
same as in tim (e.g., Diem) and bAMT [7]".  The original LedgerDB paper's
bAMT batches transactions: each batch forms a padded Merkle subtree and the
batch roots feed a growing accumulator.  It sits between *bim* (fixed
batches, but no header chain for light clients) and *tim* (a single global
tree): proofs are an in-batch path plus an accumulator path over the batch
roots, so verification still grows as O(log(n / B)) with ledger size — the
growth *fam* eliminates.

Included as a third comparator for the Figure-8 family of experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, leaf_hash
from repro.merkle.proofs import MembershipProof, PathStep, fold_path
from repro.merkle.shrubs import ShrubsAccumulator
from paper.merkle.bim import merkle_path_padded, merkle_root_padded

__all__ = ["BamtAccumulator", "BamtProof"]


@dataclass(frozen=True)
class BamtProof:
    """In-batch Merkle path + accumulator path for the batch root."""

    sequence: int
    batch_index: int
    in_batch_path: list[PathStep]
    batch_proof: MembershipProof  # batch root within the root accumulator
    pending: bool  # transaction still in the open batch (no batch root yet)

    @property
    def path_nodes(self) -> int:
        return len(self.in_batch_path) + len(self.batch_proof.path)


class BamtAccumulator:
    """Batched accumulated Merkle tree."""

    def __init__(self, batch_size: int = 64) -> None:
        if batch_size < 1:
            raise ValueError("batch size must be >= 1")
        self.batch_size = batch_size
        self._batches: list[list[Digest]] = []  # sealed batches (leaf digests)
        self._open: list[Digest] = []
        self._roots = ShrubsAccumulator()  # accumulator over batch roots

    @property
    def size(self) -> int:
        return sum(len(batch) for batch in self._batches) + len(self._open)

    def __len__(self) -> int:
        return self.size

    def append(self, payload: bytes) -> int:
        return self.append_digest(leaf_hash(payload))

    def append_digest(self, digest: Digest) -> int:
        """Accumulate one transaction digest; seals the batch when full."""
        sequence = self.size
        self._open.append(digest)
        if len(self._open) >= self.batch_size:
            self._seal()
        return sequence

    def _seal(self) -> None:
        self._batches.append(self._open)
        self._roots.append_leaf(merkle_root_padded(self._open))
        self._open = []

    def seal_batch(self) -> None:
        """Force-seal the open batch (commit boundary)."""
        if self._open:
            self._seal()

    def root(self) -> Digest:
        """The commitment: accumulator root over sealed batches, entangled
        with the open batch's running root when one exists."""
        if not self._open:
            return self._roots.root()
        from repro.crypto.hashing import node_hash

        open_root = merkle_root_padded(self._open)
        if self._roots.size == 0:
            return open_root
        return node_hash(self._roots.root(), open_root)

    def get_proof(self, sequence: int) -> BamtProof:
        """Existence proof for the ``sequence``-th transaction."""
        if not 0 <= sequence < self.size:
            raise IndexError(f"sequence {sequence} out of range")
        batch_index, offset = divmod(sequence, self.batch_size)
        if batch_index < len(self._batches):
            batch = self._batches[batch_index]
            return BamtProof(
                sequence=sequence,
                batch_index=batch_index,
                in_batch_path=merkle_path_padded(batch, offset),
                batch_proof=self._roots.prove(batch_index),
                pending=False,
            )
        # Transaction still in the open batch.
        return BamtProof(
            sequence=sequence,
            batch_index=batch_index,
            in_batch_path=merkle_path_padded(self._open, offset),
            batch_proof=MembershipProof(leaf_index=0, tree_size=0, path=[]),
            pending=True,
        )

    def verify(self, digest: Digest, proof: BamtProof, root: Digest) -> bool:
        """Check a proof against the current commitment.  Never raises."""
        try:
            batch_root = fold_path(digest, proof.in_batch_path)
            if proof.pending:
                from repro.crypto.hashing import node_hash

                if self._roots.size == 0:
                    return batch_root == root
                return node_hash(self._roots.root(), batch_root) == root
            sealed_commitment = proof.batch_proof.computed_root(batch_root)
            if not self._open:
                return sealed_commitment == root
            from repro.crypto.hashing import node_hash

            return node_hash(sealed_commitment, merkle_root_padded(self._open)) == root
        except (ValueError, IndexError, TypeError):
            # Out-of-range indices or wrong-shaped paths in an untrusted proof.
            return False

    def num_nodes(self) -> int:
        """Stored structure size: batch leaves + accumulator nodes."""
        stored = sum(len(batch) for batch in self._batches) + len(self._open)
        return stored + self._roots.num_nodes()
