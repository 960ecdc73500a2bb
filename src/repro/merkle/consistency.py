"""Consistency proofs for Shrubs accumulators (append-only evolution).

A consistency proof convinces a verifier who trusts the commitment at size
*a* that the commitment at size *b* > *a* extends it **append-only** — no
historical leaf was modified or removed.  This is what lets a client advance
its trusted anchors (§III-A1: "before a new trusted anchor is set, all
earlier ledger data must be cryptographically verified") without
re-downloading and re-verifying the whole prefix.

Construction (frontier model): every peak of the size-*b* frontier covers a
leaf range that splits into (i) old peaks of the size-*a* frontier and
(ii) *complement* subtrees made purely of new leaves.  The proof ships the
old peak set plus the complement subtree roots; the verifier re-tiles each
new peak from them.  Soundness hinges on the tiling rule enforced during
verification: a complement tile may never cover any leaf < *a*, so the old
region can only be reconstructed from the old peaks the verifier already
trusts (via the old root).

A fam grows in epochs, so "head B extends head A" spans epoch rolls: a
:class:`ConsistencyBundle` chains one consistency proof per end with the
merged-leaf links between them, and :meth:`ConsistencyBundle.fold` is the
one check of it — for signed tree heads and for the anchor tracker alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..crypto.hashing import Digest, node_hash
from ..encoding import BYTES, BYTES_LIST, UINT, Record, list_of, nested, optional
from .proofs import TILES, MembershipProof, bag_peaks
from .shrubs import ShrubsAccumulator, peak_positions

if TYPE_CHECKING:
    from ..transparency.sth import SignedTreeHead
    from .fam import FamAccumulator

__all__ = ["ConsistencyBundle", "ConsistencyProof", "prove_consistency"]


def _aligned_cover(start: int, end: int) -> list[tuple[int, int]]:
    """Decompose [start, end) into maximal aligned subtrees (level, index)."""
    tiles: list[tuple[int, int]] = []
    position = start
    while position < end:
        # Largest aligned subtree starting at `position` that fits.
        level = (position & -position).bit_length() - 1 if position else (end - 1).bit_length()
        while position + (1 << level) > end or position % (1 << level) != 0:
            level -= 1
        tiles.append((level, position >> level))
        position += 1 << level
    return tiles


@dataclass(frozen=True)
class ConsistencyProof:
    """Proof that the commitment at ``new_size`` extends that at ``old_size``."""

    old_size: int
    new_size: int
    old_peaks: list[Digest]
    complement: dict[tuple[int, int], Digest]  # tiles covering leaves >= old_size

    def verify(self, old_root: Digest, new_root: Digest) -> bool:
        """Check both commitments against the shipped structure.  Never raises."""
        try:
            return self._verify(old_root, new_root)
        except (KeyError, ValueError, IndexError, TypeError):
            # Incomplete or ill-typed complement tiles in an untrusted proof.
            return False

    def _verify(self, old_root: Digest, new_root: Digest) -> bool:
        if not 0 < self.old_size <= self.new_size:
            return False
        old_positions = peak_positions(self.old_size)
        if len(self.old_peaks) != len(old_positions):
            return False
        if bag_peaks(self.old_peaks) != old_root:
            return False
        tiles: dict[tuple[int, int], Digest] = dict(
            zip(old_positions, self.old_peaks)
        )
        for (level, index), digest in self.complement.items():
            if (index << level) < self.old_size:
                return False  # complement may not reach into trusted history
            tiles[(level, index)] = digest

        def build(level: int, index: int) -> Digest:
            tile = tiles.get((level, index))
            if tile is not None:
                return tile
            if level == 0:
                raise KeyError((level, index))
            return node_hash(build(level - 1, index << 1), build(level - 1, (index << 1) + 1))

        new_peaks = [build(level, index) for level, index in peak_positions(self.new_size)]
        return bag_peaks(new_peaks) == new_root

    def to_bytes(self) -> bytes:
        return _PROOF.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ConsistencyProof":
        return cls(**_PROOF.decode(data))


_PROOF = Record(old_size=UINT, new_size=UINT, old_peaks=BYTES_LIST, complement=TILES)


def prove_consistency(
    accumulator: ShrubsAccumulator, old_size: int, new_size: int | None = None
) -> ConsistencyProof:
    """Build a consistency proof from size ``old_size`` to ``new_size``.

    Requires the accumulator's interior nodes for both sizes — which is
    always the case, since Shrubs nodes are immutable once written.
    """
    size = accumulator.size if new_size is None else new_size
    if not 0 < old_size <= size <= accumulator.size:
        raise ValueError(
            f"need 0 < old_size <= new_size <= {accumulator.size}, "
            f"got ({old_size}, {size})"
        )
    complement: dict[tuple[int, int], Digest] = {}
    for level, index in peak_positions(size):
        start = index << level
        end = start + (1 << level)
        if end <= old_size:
            continue  # fully inside the old frontier: it IS an old peak
        for tile_level, tile_index in _aligned_cover(max(start, old_size), end):
            complement[(tile_level, tile_index)] = accumulator.node(tile_level, tile_index)
    return ConsistencyProof(
        old_size=old_size,
        new_size=size,
        old_peaks=accumulator.peaks(old_size),
        complement=complement,
    )


@dataclass(frozen=True)
class ConsistencyBundle:
    """Append-only link between two fam heads across epoch rolls.

    A head is ``(epoch, live_size, root)``: ``live_size`` leaves into epoch
    ``epoch``'s tree, merged leaf included.  Within one epoch a plain
    :class:`ConsistencyProof` suffices (``live``).  Across epochs the bundle
    chains: ``seal`` proves the old head's epoch grew append-only from the
    head's live size to full capacity (yielding ``sealed_root``, the only
    *claimed* intermediate — the fold needs both endpoint roots), then each
    ``links`` entry is the Rule-1 merged-leaf proof whose folded root
    *derives* the next epoch root, and ``final_link`` folds the last derived
    root into the new head's live tree.  Intermediate epoch roots are
    therefore computed, not trusted.
    """

    old_epoch: int
    old_live_size: int
    new_epoch: int
    new_live_size: int
    live: ConsistencyProof | None = None
    seal: ConsistencyProof | None = None
    sealed_root: Digest | None = None
    links: tuple[MembershipProof, ...] = ()
    final_link: MembershipProof | None = None

    @classmethod
    def build(
        cls,
        fam: "FamAccumulator",
        old_epoch: int,
        old_live_size: int,
        new_epoch: int | None = None,
        new_live_size: int | None = None,
    ) -> "ConsistencyBundle":
        """Build the bundle from the server's accumulator.

        ``new_epoch``/``new_live_size`` default to the live head.  Both
        endpoints may be historical — Shrubs interior nodes are immutable,
        so any past head is still provable.
        """
        if new_epoch is None:
            new_epoch = fam.num_epochs - 1
        if new_live_size is None:
            new_live_size = fam.live_size(new_epoch)
        if not 0 <= old_epoch <= new_epoch < fam.num_epochs:
            raise ValueError(
                f"epoch pair ({old_epoch}, {new_epoch}) out of range "
                f"[0, {fam.num_epochs})"
            )
        if old_epoch == new_epoch:
            if not 0 < old_live_size <= new_live_size:
                raise ValueError(
                    f"need 0 < old_live_size <= new_live_size, got "
                    f"({old_live_size}, {new_live_size})"
                )
            if old_live_size == new_live_size:
                return cls(old_epoch, old_live_size, new_epoch, new_live_size)
            return cls(
                old_epoch,
                old_live_size,
                new_epoch,
                new_live_size,
                live=fam.prove_head_consistency(old_epoch, old_live_size, new_live_size),
            )
        capacity = fam.epoch_capacity
        return cls(
            old_epoch,
            old_live_size,
            new_epoch,
            new_live_size,
            seal=fam.prove_head_consistency(old_epoch, old_live_size, capacity),
            sealed_root=fam.epoch_root(old_epoch),
            links=tuple(fam.prove_head_link(k, capacity) for k in range(old_epoch + 1, new_epoch)),
            final_link=fam.prove_head_link(new_epoch, new_live_size),
        )

    def verify(self, old: "SignedTreeHead", new: "SignedTreeHead") -> bool:
        """Check that signed head ``new`` append-only-extends ``old``.  Never
        raises.

        Checks structure only — callers validate the heads' signatures
        separately (the :class:`~repro.transparency.Witness` does).
        """
        old_coords, new_coords = (old.epoch, old.live_size), (new.epoch, new.live_size)
        if not old.same_stream(new) or old.is_composite or new.is_composite:
            return False  # composite heads have no epoch tree to connect
        if (old_coords, new_coords) != (
            (self.old_epoch, self.old_live_size),
            (self.new_epoch, self.new_live_size),
        ):
            return False
        if old.tree_size > new.tree_size:
            return False
        if old_coords == new_coords and old.tree_size != new.tree_size:
            return False
        try:
            capacity = 1 << old.fractal_height
        except (TypeError, ValueError):
            return False
        return self.fold(old.root, new.root, capacity) is not None

    def fold(self, old_root: Digest, new_root: Digest, capacity: int) -> list[Digest] | None:
        """Fold the old head's ``old_root`` to the new head's ``new_root`` in
        a fam whose sealed epochs hold ``capacity`` leaves.

        Returns the roots this bundle *derives* — the sealed root of every
        epoch from ``old_epoch`` to ``new_epoch - 1``, empty inside one epoch
        — or None when it does not connect the two.  Never raises.
        """
        try:
            return self._fold(old_root, new_root, capacity)
        except (KeyError, ValueError, IndexError, TypeError):
            return None

    def _fold(self, old_root: Digest, new_root: Digest, capacity: int) -> list[Digest] | None:
        old_size, new_size = self.old_live_size, self.new_live_size
        if self.old_epoch == self.new_epoch:
            if old_size == new_size:
                return [] if old_root == new_root else None
            live = self.live
            if live is None or (live.old_size, live.new_size) != (old_size, new_size):
                return None
            return [] if live.verify(old_root, new_root) else None
        seal, sealed_root = self.seal, self.sealed_root
        if seal is None or sealed_root is None:
            return None
        if (seal.old_size, seal.new_size) != (old_size, capacity):
            return None
        if not seal.verify(old_root, sealed_root):
            return None
        if len(self.links) != self.new_epoch - self.old_epoch - 1:
            return None
        roots = [sealed_root]
        for link in self.links:
            if link.leaf_index != 0 or link.tree_size != capacity:
                return None
            roots.append(link.computed_root(roots[-1]))
        final = self.final_link
        if final is None or final.leaf_index != 0 or final.tree_size != new_size:
            return None
        return roots if final.computed_root(roots[-1]) == new_root else None

    def to_bytes(self) -> bytes:
        return _BUNDLE.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ConsistencyBundle":
        return cls(**_BUNDLE.decode(data))


_BUNDLE = Record(
    old_epoch=UINT,
    old_live_size=UINT,
    new_epoch=UINT,
    new_live_size=UINT,
    live=optional(nested(ConsistencyProof)),
    seal=optional(nested(ConsistencyProof)),
    sealed_root=optional(BYTES),
    links=list_of(nested(MembershipProof), tuple),
    final_link=optional(nested(MembershipProof)),
)
