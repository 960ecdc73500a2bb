"""The fam-aoa anchor tracker: a distrusting client's O(delta) *what* state.

A tracker follows one ledger's fam through a **source** with one read,
``fam_extension(old_epoch, old_live_size, new_epoch=None,
new_live_size=None)``, answering ``(old_root, new_root, bundle)``: claims,
never trust.  In process the source is the ledger itself
(:meth:`repro.core.ledger.Ledger.fam_extension`); over the wire it is the
remote client, whose call is the server op of the same name.  Every move of
the tracked head is one such extension, and the
:class:`~repro.merkle.consistency.ConsistencyBundle` must fold from the
tracked ``(epoch, size, root)`` before anything moves: sealed-epoch anchors
are the roots the seal and the merged-leaf links *derive*, and the live
epoch's leaf 0 is bound to the last of them the moment the tracker enters
that epoch.  The first extension starts at the genesis head ``(0, 1)``,
whose root is the server's claim (as the head always was).

The source is read beside a writer, so the tracker names the sizes it asks
about (the new end defaults to the head the server publishes when it
answers) and checks that the bundle speaks for exactly those.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..core.errors import UsageError, VerificationFailure
from ..core.receipt import Receipt
from ..crypto.hashing import Digest
from ..merkle.fam import AnchorStore, FamProof

__all__ = ["AnchorTracker", "ClientState"]

#: The head every fam starts from: epoch 0 holding the genesis journal.
GENESIS_HEAD = (0, 1)


@dataclass
class ClientState:
    """What the client persists between sessions."""

    receipts: dict[int, Receipt] = field(default_factory=dict)
    anchored_epochs: int = 0  # epochs with verified anchors
    epoch_capacity: int = 0  # leaves per sealed epoch tree, once one sealed
    live_epoch_index: int = 0  # epoch the live state below belongs to
    live_size: int = 0  # last verified live-epoch leaf count
    live_root: Digest | None = None  # last verified live commitment


class AnchorTracker:
    """Verified epoch anchors plus the verified live head of one fam.

    ``anchors`` holds every sealed epoch's root, ``state`` the live epoch's
    ``(size, root)``; both only ever move along extensions that folded.
    Thread-safe: one lock serialises everything that reads-then-moves the
    tracked head (it is held across the source's round trip — a second
    verifier waiting is cheaper than two of them interleaving a catch-up).
    """

    def __init__(self, source) -> None:
        self.source = source
        self.anchors = AnchorStore()
        self.state = ClientState()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ sync

    def sync(self) -> int:
        """Advance to the source's current head; returns new epoch anchors.

        Raises:
            VerificationFailure: the extension does not fold from the
                tracked head — nothing unverified is ever anchored.
        """
        with self._lock:
            return self._sync()

    def _sync(self) -> int:
        state = self.state
        before = state.anchored_epochs
        if state.live_root is None:
            self._advance(*GENESIS_HEAD, None)
        else:
            self._advance(state.live_epoch_index, state.live_size, state.live_root)
        return state.anchored_epochs - before

    def _extension(self, epoch: int, size: int, root: Digest | None, new=None) -> tuple:
        """One ``fam_extension`` read from the head ``(epoch, size, root)`` to
        ``new = (epoch, size, root)`` (default: the source's head), folded.

        Returns ``(bundle, new_root, sealed_roots, capacity)`` and moves
        nothing; raises :class:`VerificationFailure` unless the bundle folds
        from exactly the head asked about to exactly the one asked for.
        """
        new_epoch, new_size, new_root = new if new is not None else (None, None, None)
        claimed_old, claimed_new, bundle = self.source.fam_extension(
            epoch, size, new_epoch, new_size
        )
        if root is None:
            root = claimed_old  # the genesis head is the server's claim
        if claimed_old != root or (new_root is not None and claimed_new != new_root):
            raise VerificationFailure(
                f"the fam extension from ({epoch}, {size}) claims roots other than the tracked"
            )
        if (bundle.old_epoch, bundle.old_live_size) != (epoch, size) or (
            new is not None and (bundle.new_epoch, bundle.new_live_size) != new[:2]
        ):
            raise VerificationFailure(
                f"the fam extension from ({epoch}, {size}) proves other coordinates"
            )
        capacity = self.state.epoch_capacity or (bundle.seal.new_size if bundle.seal else 0)
        sealed = bundle.fold(root, claimed_new, capacity)
        if sealed is None:
            raise VerificationFailure(
                f"the fam head does not extend ({epoch}, {size}) append-only "
                "(shrank, or history rewritten?)"
            )
        return bundle, claimed_new, sealed, capacity

    def _advance(self, epoch: int, size: int, root: Digest | None, new=None) -> None:
        """Move the tracked head along one verified extension."""
        bundle, new_root, sealed, capacity = self._extension(epoch, size, root, new)
        state = self.state
        for index, sealed_root in enumerate(sealed, start=epoch):
            self.anchors.add(index, sealed_root)
        if sealed:
            state.epoch_capacity = capacity
        state.anchored_epochs = state.live_epoch_index = bundle.new_epoch
        state.live_size, state.live_root = bundle.new_live_size, new_root

    # ------------------------------------------------------------------ fold

    def fold_anchored(self, digest: Digest, proof: FamProof) -> bool:
        """O(delta) existence: fold ``digest`` through an *anchored* proof.

        The proof's epoch root must lie on the chain this tracker verified:
        equal to the tracked head of its epoch (a sealed epoch's anchor, the
        live epoch's root), or connected to it by one extension.  A proof cut
        from a *newer* live head than the tracked one — the server appended
        between :meth:`sync` and the proof fetch — is therefore not a
        failure: the tracker catches up, verified, to the proof's head.  A
        proof from an epoch the tracker has not seen yet triggers a
        :meth:`sync` first.

        Returns False for any proof that does not connect (the source
        refusing its coordinates included); raises
        :class:`VerificationFailure` only where :meth:`sync` would.
        """
        try:
            root = proof.epoch_proof.computed_root(digest)
        except (ValueError, IndexError):
            return False
        epoch, size = proof.epoch_index, proof.epoch_proof.tree_size
        with self._lock:
            state = self.state
            if state.live_root is None or epoch > state.live_epoch_index:
                self._sync()
            if epoch > state.live_epoch_index:
                return False
            if epoch < state.live_epoch_index:
                head = (epoch, state.epoch_capacity, self.anchors.get(epoch))
            else:
                head = (epoch, state.live_size, state.live_root)
            if size == head[1]:
                return root == head[2]
            if size > head[1] and epoch < state.live_epoch_index:
                return False
            try:
                if size < head[1]:  # cut behind the tracked head: connect, move nothing
                    self._extension(epoch, size, root, head)
                else:  # cut ahead of the tracked live head: catch up to it
                    self._advance(*head, (epoch, size, root))
            except (VerificationFailure, UsageError):  # refused coordinates do not connect
                return False
            return True
