"""Shrubs Merkle accumulator — O(1) amortised append, node-set proofs.

The paper bases *fam* and *CM-Tree2* on the Shrubs tree (§III-A1): an
append-only Merkle accumulator that, instead of padding to a power-of-two
root after every insertion, maintains a *frontier* of completed subtree roots
(a node set).  An interior node is computed exactly once — when its right
subtree completes — which makes insertion O(1) amortised, and the published
commitment before the tree is full is the frontier itself ("node-set proof").

Node addressing is ``(level, index)``: leaves are ``(0, i)``; node ``(l, j)``
is the root of leaves ``[j * 2^l, (j+1) * 2^l)`` and exists once leaf
``(j+1) * 2^l - 1`` has been appended.  This matches the arrival-order cell
numbering of Figure 3(a) — e.g. the frontier after 7 leaves is the roots of
subtrees of sizes 4, 2, 1, exactly the paper's {cell7, cell10, cell11}.

A single commitment digest ("bagged root") is derived from the frontier by a
right-to-left fold, so callers that want one hash (block headers, anchors)
can have it, while node-set verification stays available.
"""

from __future__ import annotations

from ..crypto.hashing import EMPTY_DIGEST, Digest, node_hash
from .proofs import (
    BatchProof,
    MembershipProof,
    PathStep,
    bag_peaks,
    peak_positions,
)

__all__ = ["ShrubsAccumulator", "FrontierAccumulator", "peak_positions"]


class ShrubsAccumulator:
    """Append-only Merkle accumulator with frontier (node-set) commitments."""

    def __init__(self) -> None:
        # _levels[l][j] is the digest of node (l, j), or None once erased
        # by erase_prefix.  Nodes within a level are only ever appended in
        # index order, so flat lists suffice.
        self._levels: list[list[Digest | None]] = [[]]

    # ------------------------------------------------------------------ state

    @property
    def size(self) -> int:
        """Number of leaves appended so far."""
        return len(self._levels[0])

    def __len__(self) -> int:
        return self.size

    def node(self, level: int, index: int) -> Digest:
        """Digest of node ``(level, index)``.

        Raises :class:`IndexError` if never computed, :class:`KeyError` if
        dropped by :meth:`erase_prefix`.
        """
        if level >= len(self._levels) or index >= len(self._levels[level]):
            raise IndexError(f"node ({level}, {index}) does not exist")
        digest = self._levels[level][index]
        if digest is None:
            raise KeyError(f"node ({level}, {index}) was erased")
        return digest

    def leaf(self, index: int) -> Digest:
        """Digest of leaf ``index``."""
        return self.node(0, index)

    # ---------------------------------------------------------------- append

    def append_leaf(self, digest: Digest) -> int:
        """Append a 32-byte leaf digest; returns its leaf index.

        Computes exactly the interior nodes that complete, so the amortised
        cost is O(1) hashes per append.
        """
        if len(digest) != len(EMPTY_DIGEST):
            raise ValueError("leaf digest must be 32 bytes")
        index = len(self._levels[0])
        level, j, node = 0, index, digest
        # While the freshly completed node is a right child, its parent is
        # now computable.
        while j & 1:
            node = node_hash(self._levels[level][j - 1], node)
            if level + 1 >= len(self._levels):
                self._levels.append([])
            self._levels[level + 1].append(node)
            level += 1
            j >>= 1
        # The leaf goes in last: ``size`` is the leaf count, so a reader on
        # another thread that sees the new size sees every interior node that
        # size implies (proofs and roots are served beside the appender).
        self._levels[0].append(digest)
        return index

    def extend(self, digests: list[Digest]) -> None:
        """Append many leaf digests."""
        for digest in digests:
            self.append_leaf(digest)

    # ------------------------------------------------------------ commitment

    def peaks(self, at_size: int | None = None) -> list[Digest]:
        """The frontier (node-set commitment) at ``at_size`` (default: now)."""
        size = self._resolve_size(at_size)
        return [self.node(level, index) for level, index in peak_positions(size)]

    def root(self, at_size: int | None = None) -> Digest:
        """Single bagged commitment digest; ``EMPTY_DIGEST`` when empty."""
        size = self._resolve_size(at_size)
        if size == 0:
            return EMPTY_DIGEST
        return bag_peaks(self.peaks(size))

    def _resolve_size(self, at_size: int | None) -> int:
        if at_size is None:
            return self.size
        if not 0 <= at_size <= self.size:
            raise ValueError(f"at_size {at_size} out of range [0, {self.size}]")
        return at_size

    # --------------------------------------------------------------- proving

    def prove(self, leaf_index: int, at_size: int | None = None) -> MembershipProof:
        """Membership proof for one leaf against the commitment at ``at_size``.

        Historical commitments are supported because interior nodes are
        immutable once written: proving against an earlier, smaller tree just
        stops climbing earlier.
        """
        size = self._resolve_size(at_size)
        if not 0 <= leaf_index < size:
            raise IndexError(f"leaf {leaf_index} not in tree of size {size}")
        path: list[PathStep] = []
        level, j = 0, leaf_index
        # Ascend while the parent node exists at this tree size.
        while ((j >> 1) + 1) << (level + 1) <= size:
            sibling = j ^ 1
            path.append(
                PathStep(self.node(level, sibling), sibling_on_left=bool(j & 1))
            )
            level += 1
            j >>= 1
        peaks = peak_positions(size)
        our_position = peaks.index((level, j))
        return MembershipProof(
            leaf_index=leaf_index,
            tree_size=size,
            path=path,
            peaks_left=[self.node(pl, pi) for pl, pi in peaks[:our_position]],
            peaks_right=[self.node(pl, pi) for pl, pi in peaks[our_position + 1 :]],
        )

    def prove_batch(self, leaf_indices: list[int], at_size: int | None = None) -> BatchProof:
        """Minimal joint proof for a set of leaves (§IV-C steps 2–3).

        Helper nodes that the verifier can derive from the proven leaves
        themselves (the paper's N2 ∩ N3) are omitted; only the set difference
        is shipped.
        """
        size = self._resolve_size(at_size)
        targets = sorted(set(leaf_indices))
        if not targets:
            raise ValueError("need at least one leaf index")
        if targets[0] < 0 or targets[-1] >= size:
            raise IndexError(f"leaf indices out of range for tree of size {size}")
        provided: dict[tuple[int, int], Digest] = {}
        covered_peaks: set[tuple[int, int]] = set()
        current = set(targets)
        level = 0
        while current:
            next_level: set[int] = set()
            for j in current:
                if ((j >> 1) + 1) << (level + 1) <= size:
                    sibling = j ^ 1
                    if sibling not in current:
                        provided[(level, sibling)] = self.node(level, sibling)
                    next_level.add(j >> 1)
                else:
                    covered_peaks.add((level, j))
            current = next_level
            level += 1
        peaks = peak_positions(size)
        peaks_sorted_by_order = peaks  # already left-to-right
        first_covered = min(peaks_sorted_by_order.index(p) for p in covered_peaks)
        last_covered = max(peaks_sorted_by_order.index(p) for p in covered_peaks)
        # Peaks strictly between covered ones must also be shipped: include
        # them in `provided` keyed by position so the verifier can re-bag.
        for position in peaks_sorted_by_order[first_covered : last_covered + 1]:
            if position not in covered_peaks:
                provided[position] = self.node(position[0], position[1])
        return BatchProof(
            leaf_indices=targets,
            tree_size=size,
            nodes=provided,
            peaks_left=[self.node(pl, pi) for pl, pi in peaks[:first_covered]],
            peaks_right=[self.node(pl, pi) for pl, pi in peaks[last_covered + 1 :]],
        )

    # ------------------------------------------------------------- verifying

    @staticmethod
    def verify_batch(
        leaf_digests: dict[int, Digest], proof: BatchProof, expected_root: Digest
    ) -> bool:
        """Verify a :class:`BatchProof` against a trusted commitment.

        ``leaf_digests`` maps each proven leaf index to its digest; the set of
        keys must equal the proof's ``leaf_indices`` (the count check is what
        enforces lineage *completeness* — no record can be omitted).
        """
        if sorted(leaf_digests) != list(proof.leaf_indices):
            return False
        size = proof.tree_size
        if size <= 0 or any(not 0 <= i < size for i in proof.leaf_indices):
            return False
        known: dict[tuple[int, int], Digest] = dict(proof.nodes)
        for index, digest in leaf_digests.items():
            position = (0, index)
            if position in known and known[position] != digest:
                return False
            known[position] = digest
        peaks = peak_positions(size)
        max_level = peaks[0][0]
        for level in range(max_level + 1):
            indices = sorted(j for (l, j) in known if l == level)
            for j in indices:
                parent = (level + 1, j >> 1)
                if ((j >> 1) + 1) << (level + 1) > size or parent in known:
                    continue
                sibling = (level, j ^ 1)
                if sibling not in known:
                    return False
                left = known[(level, j & ~1)]
                right = known[(level, (j & ~1) + 1)]
                known[parent] = node_hash(left, right)
        try:
            middle = [known[position] for position in peaks if position in known]
            # Reconstruct full frontier: left flank + recomputed middle + right flank.
            covered = [position for position in peaks if position in known]
            first = peaks.index(covered[0])
            last = peaks.index(covered[-1])
            if len(covered) != last - first + 1:
                return False
            if len(proof.peaks_left) != first:
                return False
            if len(proof.peaks_right) != len(peaks) - last - 1:
                return False
            frontier = list(proof.peaks_left) + middle + list(proof.peaks_right)
            return bag_peaks(frontier) == expected_root
        except (KeyError, ValueError, IndexError):
            return False

    # ------------------------------------------------------------- utilities

    def num_nodes(self) -> int:
        """Total stored node count (storage-overhead accounting).

        Erased slots (see :meth:`erase_prefix`) do not count.
        """
        return sum(
            sum(1 for node in level if node is not None) for level in self._levels
        )

    def erase_prefix(self, leaf_count: int) -> int:
        """Erase nodes covering leaves ``[0, leaf_count)`` except the spine.

        Implements the paper's fine-grained purge erasure (§III-A2): "the
        nodes to be retained are all latter nodes of the next node of the
        purging node's Merkle path, meaning that all left nodes on this path
        can be erased."  Concretely: every node whose leaf range lies wholly
        before ``leaf_count`` is erased **except** the left-siblings on the
        path climbing from leaf ``leaf_count`` — those are exactly the nodes
        future proofs (for leaves >= leaf_count) still reference.

        Returns the number of nodes erased.  Proofs for erased leaves become
        impossible (that is purge's contract); proofs for every retained
        leaf keep working, and the root is unchanged.
        """
        if not 0 <= leaf_count <= self.size:
            raise ValueError(f"leaf_count {leaf_count} out of range [0, {self.size}]")
        if leaf_count == 0:
            return 0
        # The spine: at each level, the left-sibling (if our path node is a
        # right child) must survive; everything else under the prefix goes.
        keep: set[tuple[int, int]] = set()
        level, j = 0, leaf_count
        while level < len(self._levels):
            if j & 1 and j - 1 < len(self._levels[level]):
                keep.add((level, j - 1))
            j >>= 1
            level += 1
        erased = 0
        for level, nodes in enumerate(self._levels):
            # Nodes fully inside the prefix have index < ceil(leaf_count/2^l)
            # and end <= leaf_count.
            limit = leaf_count >> level
            for index in range(min(limit, len(nodes))):
                if (level, index) in keep or nodes[index] is None:
                    continue
                nodes[index] = None
                erased += 1
        return erased

    def is_erased(self, level: int, index: int) -> bool:
        """True if node ``(level, index)`` was dropped by :meth:`erase_prefix`."""
        return (
            level < len(self._levels)
            and index < len(self._levels[level])
            and self._levels[level][index] is None
        )

    def recompute_root_from_scratch(self) -> Digest:
        """Rebuild the commitment from leaves only (test oracle, O(n))."""
        fresh = ShrubsAccumulator()
        for digest in self._levels[0]:
            if digest is None:
                raise KeyError("cannot recompute: erased leaves present")
            fresh.append_leaf(digest)
        return fresh.root()

    def frontier_snapshot(self) -> tuple[int, list[Digest]]:
        """(size, peaks) — enough state to *resume* accumulation elsewhere."""
        return self.size, self.peaks()

    def dump_levels(self) -> list[list[Digest | None]]:
        """Full node table (``None`` for erased slots) — checkpoint material.

        Unlike :meth:`frontier_snapshot` this preserves *proving* power: an
        accumulator rebuilt by :meth:`from_levels` serves the same membership
        and batch proofs, not just the same roots.
        """
        return [list(level) for level in self._levels]

    @classmethod
    def from_levels(cls, levels: list[list[Digest | None]]) -> "ShrubsAccumulator":
        """Rebuild an accumulator from :meth:`dump_levels` output."""
        fresh = cls()
        restored = [
            [None if digest is None else bytes(digest) for digest in level]
            for level in levels
        ]
        fresh._levels = restored if restored else [[]]
        return fresh


class FrontierAccumulator:
    """Peaks-only Shrubs accumulator: O(#peaks) state, O(1) amortised append.

    Holds just the frontier, so it can neither store leaves nor produce
    membership proofs — but it computes exactly the same roots as
    :class:`ShrubsAccumulator`, and crucially it can be **resumed from a
    snapshot** ``(size, peaks)``.  Auditors use this to replay commitment
    evolution from a pseudo-genesis snapshot after a purge, and light
    verifiers use it to track a growing ledger with constant memory.
    """

    def __init__(self, size: int = 0, peaks: list[Digest] | None = None) -> None:
        peaks = list(peaks or [])
        if len(peaks) != bin(size).count("1"):
            raise ValueError(
                f"size {size} requires {bin(size).count('1')} peaks, got {len(peaks)}"
            )
        self.size = size
        # One peak per set bit of size, highest level first; peak i has level
        # equal to the i-th highest set bit.
        self._peaks: list[tuple[int, Digest]] = [
            (level, digest)
            for (level, _index), digest in zip(peak_positions(size), peaks)
        ]

    def append_leaf(self, digest: Digest) -> int:
        """Append a leaf digest; merges completed subtrees right-to-left."""
        if len(digest) != len(EMPTY_DIGEST):
            raise ValueError("leaf digest must be 32 bytes")
        index = self.size
        level, current = 0, digest
        while self._peaks and self._peaks[-1][0] == level:
            left_level, left = self._peaks.pop()
            current = node_hash(left, current)
            level = left_level + 1
        self._peaks.append((level, current))
        self.size += 1
        return index

    def peaks(self) -> list[Digest]:
        return [digest for _level, digest in self._peaks]

    def root(self) -> Digest:
        if self.size == 0:
            return EMPTY_DIGEST
        return bag_peaks(self.peaks())

    def __len__(self) -> int:
        return self.size
