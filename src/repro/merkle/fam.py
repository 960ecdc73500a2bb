"""fam — the fractal accumulating model (§III-A1), LedgerDB's *what* engine.

*fam* layers blockchain-style linked entanglement over Shrubs accumulators,
but fractally instead of linearly (Rule 1): when the current tree of size
``2^delta`` fills up, its root becomes the **first leaf of a new tree** (a
*merged leaf*), opening the next accumulation epoch.  The epoch chain

    epoch 0 root -> leaf 0 of epoch 1 -> ... -> live epoch frontier

means the live commitment transitively commits the entire ledger, while any
single verification only ever touches trees of height <= delta.

Trusted anchors (*fam-aoa*): every completed epoch root is a natural anchor
point.  A verifier that has validated epoch *k* stores its root; existence
proofs for journals in anchored epochs then cost O(delta) — fixed, regardless
of total ledger size — versus the O(log n) ever-growing cost of *tim*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.hashing import Digest
from ..encoding import UINT, Record, list_of, nested
from .proofs import MembershipProof
from .shrubs import FrontierAccumulator, ShrubsAccumulator

__all__ = ["FamAccumulator", "FamProof", "FamReplayer", "AnchorStore"]


@dataclass(frozen=True)
class FamProof:
    """Existence proof for one journal digest in a fam tree.

    ``epoch_proof`` covers the journal inside its own epoch tree.  For a
    journal in a completed epoch and a verifier *without* an anchor for that
    epoch, ``link_proofs`` carries the merged-leaf chain: one proof per later
    epoch showing epoch *k*'s root sits at leaf 0 of epoch *k+1*, up to the
    live epoch.  Anchored verifiers ignore ``link_proofs`` entirely.
    """

    jsn: int
    epoch_index: int
    num_epochs: int
    epoch_proof: MembershipProof
    link_proofs: list[MembershipProof] = field(default_factory=list)

    @property
    def anchored_cost(self) -> int:
        """Hash-path length when verified against an epoch anchor."""
        return len(self.epoch_proof.path)

    @property
    def full_cost(self) -> int:
        """Hash-path length when chained all the way to the live commitment."""
        return len(self.epoch_proof.path) + sum(len(p.path) for p in self.link_proofs)

    def to_bytes(self) -> bytes:
        return _FAM_PROOF.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "FamProof":
        return cls(**_FAM_PROOF.decode(data))


_FAM_PROOF = Record(
    jsn=UINT,
    epoch_index=UINT,
    num_epochs=UINT,
    epoch_proof=nested(MembershipProof),
    link_proofs=list_of(nested(MembershipProof)),
)


class AnchorStore:
    """Client-side store of verified epoch roots (the *aoa* trusted anchors).

    Recording an anchor asserts "all data up to and including this epoch has
    been cryptographically verified" — callers must only add roots they have
    actually validated (e.g. via :meth:`FamAccumulator.verify_full`).
    """

    def __init__(self) -> None:
        self._roots: dict[int, Digest] = {}

    def add(self, epoch_index: int, root: Digest) -> None:
        existing = self._roots.get(epoch_index)
        if existing is not None and existing != root:
            raise ValueError(f"conflicting anchor for epoch {epoch_index}")
        self._roots[epoch_index] = root

    def get(self, epoch_index: int) -> Digest | None:
        return self._roots.get(epoch_index)

    def items(self) -> list[tuple[int, Digest]]:
        """Sorted ``(epoch_index, root)`` pairs — the exportable anchor set."""
        return sorted(self._roots.items())

    def __contains__(self, epoch_index: int) -> bool:
        return epoch_index in self._roots

    def __len__(self) -> int:
        return len(self._roots)


class FamAccumulator:
    """Fractal accumulating model with fixed fractal height ``delta``.

    Epoch 0 holds ``2^delta`` journal leaves; every later epoch holds
    ``2^delta - 1`` journals plus the merged leaf (slot 0) carrying the
    previous epoch's root.
    """

    def __init__(self, fractal_height: int) -> None:
        if fractal_height < 1:
            raise ValueError("fractal height must be >= 1")
        self.fractal_height = fractal_height
        self.epoch_capacity = 1 << fractal_height
        self._epochs: list[ShrubsAccumulator] = [ShrubsAccumulator()]
        self._epoch_roots: list[Digest] = []  # roots of completed epochs
        self._erased_epochs: set[int] = set()  # trees dropped by purge
        self._size = 0  # journal digests appended (merged leaves excluded)

    # ------------------------------------------------------------------ state

    @property
    def size(self) -> int:
        """Number of journal digests accumulated (jsn of the next append)."""
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def num_epochs(self) -> int:
        return len(self._epochs)

    def epoch_root(self, epoch_index: int) -> Digest:
        """Root of a *completed* epoch (an anchor candidate)."""
        return self._epoch_roots[epoch_index]

    def current_root(self) -> Digest:
        """The live global commitment (bagged root of the live epoch)."""
        return self._epochs[-1].root()

    def locate(self, jsn: int) -> tuple[int, int]:
        """Map a journal sequence number to ``(epoch_index, leaf_slot)``."""
        if not 0 <= jsn < self._size:
            raise IndexError(f"jsn {jsn} out of range [0, {self._size})")
        cap = self.epoch_capacity
        if jsn < cap:
            return (0, jsn)
        k = 1 + (jsn - cap) // (cap - 1)
        slot = 1 + (jsn - cap) % (cap - 1)
        return (k, slot)

    def jsn_of(self, epoch_index: int, slot: int) -> int:
        """Inverse of :meth:`locate` (merged slot 0 of epoch >= 1 is invalid)."""
        cap = self.epoch_capacity
        if epoch_index == 0:
            return slot
        if slot == 0:
            raise ValueError("slot 0 of a non-genesis epoch is the merged leaf")
        return cap + (epoch_index - 1) * (cap - 1) + (slot - 1)

    def leaf_digest(self, jsn: int) -> Digest:
        """The accumulated digest of journal ``jsn`` (its retained hash).

        Raises :class:`KeyError` if the containing epoch was erased by purge.
        """
        epoch_index, slot = self.locate(jsn)
        if epoch_index in self._erased_epochs:
            raise KeyError(f"epoch {epoch_index} erased; digest of jsn {jsn} gone")
        return self._epochs[epoch_index].leaf(slot)

    # ---------------------------------------------------------------- append

    def append(self, digest: Digest) -> int:
        """Accumulate one journal digest; returns its jsn.

        Rolls the epoch over per Rule 1 when the live tree fills.
        """
        live = self._epochs[-1]
        live.append_leaf(digest)
        jsn = self._size
        self._size += 1
        if live.size == self.epoch_capacity:
            self._roll_epoch()
        return jsn

    def append_many(self, digests: list[Digest]) -> list[int]:
        """Accumulate several journal digests; returns their jsns, in order.

        Same state evolution as repeated :meth:`append` (Rule-1 rollovers
        included) without the per-call bookkeeping — the fam half of the
        batched append pipeline.
        """
        epochs = self._epochs
        capacity = self.epoch_capacity
        jsns: list[int] = []
        for digest in digests:
            live = epochs[-1]
            live.append_leaf(digest)
            jsns.append(self._size)
            self._size += 1
            if live.size == capacity:
                self._roll_epoch()
        return jsns

    def _roll_epoch(self) -> None:
        completed_root = self._epochs[-1].root()
        self._epoch_roots.append(completed_root)
        fresh = ShrubsAccumulator()
        # Rule 1: the full tree's root becomes the first (merged) leaf of the
        # next tree.  Roots are node-domain digests, so merged leaves cannot
        # be confused with journal leaves.
        fresh.append_leaf(completed_root)
        self._epochs.append(fresh)

    # --------------------------------------------------------------- proving

    def _cut(self, size: int) -> tuple[int, int]:
        """``(live epoch, its leaf count)`` right after the first ``size``
        journals — the coordinates of the commitment :meth:`root_at` names."""
        cap = self.epoch_capacity
        if size < cap:
            return 0, size
        return 1 + (size - cap) // (cap - 1), 1 + (size - cap) % (cap - 1)

    def get_proof(self, jsn: int, anchored: bool = True, at_size: int | None = None) -> FamProof:
        """Existence proof for journal ``jsn``.

        With ``anchored=True`` (the fam-aoa fast path) only the within-epoch
        path is produced — O(delta) work.  With ``anchored=False`` the
        merged-leaf link chain to the live epoch is included so a verifier
        holding only the current commitment can check it.  ``at_size`` cuts
        the proof at the commitment after that many journals (default: now).
        """
        return self.get_proofs([jsn], anchored, at_size)[0]

    def get_proofs(
        self, jsns: list[int], anchored: bool = True, at_size: int | None = None
    ) -> list[FamProof]:
        """Existence proofs for many journals, byte-identical to calling
        :meth:`get_proof` per jsn; each merged-leaf link is computed once.

        All fold to the commitment after ``at_size`` journals (default: now),
        so proofs cut at a past size stay exact while appends continue.
        """
        size = self._size if at_size is None else at_size
        last, live_size = self._cut(size)

        def prove(epoch_index: int, slot: int) -> MembershipProof:
            tree_size = live_size if epoch_index == last else self.epoch_capacity
            return self._epochs[epoch_index].prove(slot, at_size=tree_size)

        links: dict[int, MembershipProof] = {}
        proofs: list[FamProof] = []
        for jsn in jsns:
            if not 0 <= jsn < size:
                raise IndexError(f"jsn {jsn} out of range [0, {size})")
            epoch_index, slot = self.locate(jsn)
            if epoch_index in self._erased_epochs:
                raise KeyError(
                    f"epoch {epoch_index} was erased by purge; jsn {jsn} unprovable"
                )
            link_proofs: list[MembershipProof] = []
            if not anchored:
                for k in range(epoch_index + 1, last + 1):
                    if k not in links:
                        links[k] = prove(k, 0)
                    link_proofs.append(links[k])
            proofs.append(
                FamProof(
                    jsn=jsn,
                    epoch_index=epoch_index,
                    num_epochs=last + 1,
                    epoch_proof=prove(epoch_index, slot),
                    link_proofs=link_proofs,
                )
            )
        return proofs

    # ------------------------------------------------------------- verifying

    @staticmethod
    def verify_full(leaf_digest: Digest, proof: FamProof, trusted_root: Digest) -> bool:
        """Verify a full-chain proof against the live commitment.

        Folds the journal to its epoch root, then walks each link proof
        (merged leaf 0 = previous root) up to the live epoch, and compares
        with ``trusted_root``.  Never raises.
        """
        return FamAccumulator.fold_full(leaf_digest, proof) == trusted_root

    @staticmethod
    def fold_full(leaf_digest: Digest, proof: FamProof) -> Digest | None:
        """The live commitment a full-chain proof *implies*, or None.

        The fold half of :meth:`verify_full`, exposed so composite proofs
        (e.g. a sharded deployment's shard→root link) can recover the fam
        root this proof speaks for and chain it into a further inclusion
        check.  Returns None on any malformed step; never raises.
        """
        try:
            current = proof.epoch_proof.computed_root(leaf_digest)
        except (ValueError, IndexError):
            return None
        for link in proof.link_proofs:
            if link.leaf_index != 0:
                return None
            try:
                current = link.computed_root(current)
            except (ValueError, IndexError):
                return None
        return current

    def verify_with_anchors(
        self,
        leaf_digest: Digest,
        proof: FamProof,
        anchors: AnchorStore,
    ) -> bool:
        """fam-aoa verification: O(delta) against a stored epoch anchor.

        Journals in the live epoch are checked against the live commitment;
        journals in completed epochs are checked against that epoch's anchor.
        Falls back to ``False`` (not to full-chain verification) when the
        anchor is missing, so callers can distinguish and fetch links.
        """
        if proof.epoch_index == self.num_epochs - 1:
            expected = self.current_root()
        else:
            anchor = anchors.get(proof.epoch_index)
            if anchor is None:
                return False
            expected = anchor
        try:
            return proof.epoch_proof.computed_root(leaf_digest) == expected
        except (ValueError, IndexError):
            return False

    # -------------------------------------------------- anchor advancement

    def live_size(self, epoch_index: int | None = None) -> int:
        """Leaf count of one epoch's tree, merged leaf included.

        Defaults to the live epoch.  This is the size the signed-tree-head /
        consistency machinery speaks in — distinct from :attr:`size`, which
        counts journals across all epochs.
        """
        if epoch_index is None:
            epoch_index = len(self._epochs) - 1
        if not 0 <= epoch_index < len(self._epochs):
            raise IndexError(f"epoch {epoch_index} out of range")
        return self._epochs[epoch_index].size

    def head_root(self, epoch_index: int, live_size: int | None = None) -> Digest:
        """Bagged root of epoch ``epoch_index``'s tree at ``live_size`` leaves.

        With ``live_size=None`` this is the epoch's current root (for the
        live epoch, the global commitment).  Historical sizes work because
        Shrubs interior nodes are immutable — this is how the server signs
        consistency assertions about past heads.
        """
        if self.is_epoch_erased(epoch_index):
            raise KeyError(f"epoch {epoch_index} was erased by purge")
        return self._epochs[epoch_index].root(at_size=live_size)

    def prove_head_link(
        self, epoch_index: int, live_size: int | None = None
    ) -> MembershipProof:
        """Merged-leaf proof of leaf 0 against one head of an epoch (the
        Rule-1 link): epoch ``epoch_index - 1``'s root sits at leaf 0 of epoch
        ``epoch_index``'s tree *as of* ``live_size`` leaves (default: the
        tree's current size; the capacity for a sealed epoch's link).
        """
        if not 1 <= epoch_index < len(self._epochs):
            raise ValueError(
                f"epoch {epoch_index} has no merged leaf "
                f"(valid range: 1..{len(self._epochs) - 1})"
            )
        if self.is_epoch_erased(epoch_index):
            raise KeyError(f"epoch {epoch_index} was erased by purge")
        return self._epochs[epoch_index].prove(0, at_size=live_size)

    def prove_head_consistency(self, epoch_index: int, old_size: int, new_size: int | None = None):
        """Consistency proof *within* one epoch's tree (sealed or live), from
        its head at ``old_size`` leaves to the one at ``new_size``."""
        from .consistency import prove_consistency

        if self.is_epoch_erased(epoch_index):
            raise KeyError(f"epoch {epoch_index} was erased by purge")
        return prove_consistency(self._epochs[epoch_index], old_size, new_size)

    # ------------------------------------------------------- purge integration

    def erase_up_to(self, jsn: int, within_epoch: bool = True) -> int:
        """Erase fam nodes covering the purged prefix ``[0, jsn)``.

        Epochs wholly before ``jsn``'s epoch lose their trees — only the
        epoch root (needed by merged-leaf links) survives.  With
        ``within_epoch`` (the paper's fine-grained option, §III-A2), the
        partially-purged epoch additionally drops every node left of the
        purge point's Merkle path: "the nodes to be retained are all latter
        nodes of the next node of the purging node's Merkle path".

        Returns the number of nodes/trees erased.  Journals inside erased
        regions become unprovable — exactly purge's contract — while every
        retained journal's proof, the epoch roots, and future appends are
        unaffected.
        """
        if jsn < self._size:
            epoch_index, slot = self.locate(jsn)
        else:
            epoch_index, slot = len(self._epochs) - 1, 0
        erased = 0
        for k in range(epoch_index):
            if k not in self._erased_epochs:
                self._epochs[k] = ShrubsAccumulator()  # free the tree
                self._erased_epochs.add(k)
                erased += 1
        if within_epoch and slot > 0 and epoch_index not in self._erased_epochs:
            erased += self._epochs[epoch_index].erase_prefix(slot)
        return erased

    def is_epoch_erased(self, epoch_index: int) -> bool:
        return epoch_index in self._erased_epochs

    # ------------------------------------------------------------- utilities

    def num_nodes(self) -> int:
        """Total stored Merkle nodes across epochs (storage accounting)."""
        return sum(epoch.num_nodes() for epoch in self._epochs) + len(self._epoch_roots)

    def dump_state(self) -> dict:
        """Complete accumulator state for a ledger checkpoint (DESIGN.md §13).

        Unlike :meth:`snapshot` (frontier-only, for pseudo-genesis replay)
        this keeps every epoch's full node table so the restored accumulator
        can keep *proving* — and is JSON/TLV-encodable as-is.
        """
        return {
            "fractal_height": self.fractal_height,
            "size": self._size,
            "epoch_roots": list(self._epoch_roots),
            "erased_epochs": sorted(self._erased_epochs),
            "epochs": [epoch.dump_levels() for epoch in self._epochs],
        }

    @classmethod
    def from_state(cls, state: dict) -> "FamAccumulator":
        """Rebuild an accumulator from :meth:`dump_state` output."""
        fam = cls(state["fractal_height"])
        epochs = [ShrubsAccumulator.from_levels(levels) for levels in state["epochs"]]
        fam._epochs = epochs if epochs else [ShrubsAccumulator()]
        fam._epoch_roots = [bytes(root) for root in state["epoch_roots"]]
        fam._erased_epochs = set(state["erased_epochs"])
        fam._size = state["size"]
        return fam

    def snapshot(self) -> tuple[tuple[Digest, ...], int, tuple[Digest, ...]]:
        """(completed epoch roots, live epoch size, live epoch peaks).

        Enough state for a :class:`FamReplayer` to resume commitment replay —
        used by pseudo-genesis records.
        """
        live = self._epochs[-1]
        return tuple(self._epoch_roots), live.size, tuple(live.peaks())

    def snapshot_at(self, size: int) -> tuple[tuple[Digest, ...], int, tuple[Digest, ...]]:
        """Historical snapshot as of the first ``size`` journals.

        Works because Shrubs interior nodes are immutable once written:
        completed-epoch roots and historical peaks are all still available.
        """
        if size == 0:
            return (), 0, ()
        if not 0 < size <= self._size:
            raise ValueError(f"size {size} out of range (0, {self._size}]")
        epoch_index, slot = self.locate(size - 1)
        if epoch_index > 0 and self.is_epoch_erased(epoch_index - 1):
            # Peaks inside erased epochs are gone, but completed roots survive.
            pass
        in_epoch_size = slot + 1
        epoch = self._epochs[epoch_index]
        return (
            tuple(self._epoch_roots[:epoch_index]),
            in_epoch_size,
            tuple(epoch.peaks(at_size=in_epoch_size)),
        )

    def root_at(self, size: int) -> Digest:
        """The fam commitment right after the first ``size`` journals."""
        return self.head_root(*self._cut(size))


class FamReplayer:
    """Frontier-only fam: O(delta) state, exact same roots as the full tree.

    Auditors use this to replay commitment evolution journal-by-journal —
    either from genesis or resumed from a pseudo-genesis snapshot — and
    compare the evolving root against block headers and time-journal anchors.
    """

    def __init__(self, fractal_height: int) -> None:
        if fractal_height < 1:
            raise ValueError("fractal height must be >= 1")
        self.fractal_height = fractal_height
        self.epoch_capacity = 1 << fractal_height
        self._epoch_roots: list[Digest] = []
        self._live = FrontierAccumulator()
        self._size = 0

    @classmethod
    def from_snapshot(
        cls,
        fractal_height: int,
        epoch_roots: tuple[Digest, ...],
        live_size: int,
        live_peaks: tuple[Digest, ...],
        journal_count: int,
    ) -> "FamReplayer":
        """Resume from a pseudo-genesis snapshot.

        ``journal_count`` is the number of *journals* (jsns) the snapshot
        covers — distinct from leaf counts because merged leaves occupy
        slots but are not journals.
        """
        replayer = cls(fractal_height)
        replayer._epoch_roots = list(epoch_roots)
        replayer._live = FrontierAccumulator(live_size, list(live_peaks))
        replayer._size = journal_count
        return replayer

    @property
    def size(self) -> int:
        return self._size

    def append(self, digest: Digest) -> int:
        """Accumulate one journal digest (Rule 1 rollover included)."""
        if self._live.size == self.epoch_capacity:
            self._roll_epoch()
        self._live.append_leaf(digest)
        jsn = self._size
        self._size += 1
        if self._live.size == self.epoch_capacity:
            self._roll_epoch()
        return jsn

    def _roll_epoch(self) -> None:
        root = self._live.root()
        self._epoch_roots.append(root)
        self._live = FrontierAccumulator()
        self._live.append_leaf(root)

    def current_root(self) -> Digest:
        return self._live.root()

    @property
    def epoch_roots(self) -> list[Digest]:
        return list(self._epoch_roots)
