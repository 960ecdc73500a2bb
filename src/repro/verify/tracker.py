"""The fam-aoa anchor tracker: a distrusting client's O(delta) *what* state.

A tracker follows one ledger's fam through a **read source** — the five
calls of :class:`ReadSource`, answering with claims, never with trust.
In process the source is a :class:`FamReader`; over the wire it is the
remote client, whose calls are the server ops of the same names (the
server answers them from a :class:`FamReader` too).  Everything the source
says is verified before it moves the tracker: epoch 0 by re-hashing its
leaves, later epochs by merged-leaf links, the live epoch by consistency
proofs between exact ``(size, root)`` pairs.

The source is read beside a writer, so two answers never describe one
instant.  That is why every consistency request names both of its sizes —
the tracker asks for a proof to the head it *was told*, not to whatever is
live by the time the request lands — and why "live" is always spelled as an
explicit epoch index: the live epoch may have sealed in between (the server
still answers the older ``live_consistency`` op; the tracker never asks it).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from ..core.errors import UsageError, VerificationFailure
from ..core.receipt import Receipt
from ..crypto.hashing import Digest
from ..merkle.consistency import ConsistencyProof
from ..merkle.fam import AnchorStore, FamAccumulator, FamProof
from ..merkle.proofs import MembershipProof
from ..merkle.shrubs import FrontierAccumulator

__all__ = ["AnchorTracker", "ClientState", "FamReader", "ReadSource"]


@dataclass
class ClientState:
    """What the client persists between sessions."""

    receipts: dict[int, Receipt] = field(default_factory=dict)
    anchored_epochs: int = 0  # epochs with verified anchors
    epoch_capacity: int = 0  # leaves per sealed epoch tree, as last told
    live_epoch_index: int = 0  # epoch the live state below belongs to
    live_size: int = 0  # last verified live-epoch leaf count
    live_root: Digest | None = None  # last verified live commitment


class ReadSource(Protocol):
    """The claims an :class:`AnchorTracker` verifies (see module docstring)."""

    def fam_info(self) -> dict: ...

    def epoch_anchor(self, epoch: int) -> Digest: ...

    def epoch_link(self, epoch: int) -> MembershipProof: ...

    def epoch_leaves(self, epoch: int) -> list[Digest]: ...

    def epoch_consistency(
        self, epoch: int, old_size: int, new_size: int | None = None
    ) -> ConsistencyProof: ...


class FamReader:
    """Read-only face of one :class:`FamAccumulator` — the local source, and
    what the network server answers its fam ops from.

    Safe beside the (single) appending thread without a lock: ``head()``
    returns the ledger's published head (size, epoch, live size and root of
    one commit), which :meth:`fam_info` answers from; every other answer is
    computed at sizes its caller names, and Shrubs nodes are immutable once
    written.
    """

    def __init__(self, fam: FamAccumulator, head: Callable[[], Any]) -> None:
        self._fam = fam
        self._head = head

    def fam_info(self) -> dict:
        head = self._head()
        return {
            "size": head.size,
            "num_epochs": head.epoch + 1,
            "epoch_capacity": self._fam.epoch_capacity,
            "fractal_height": self._fam.fractal_height,
            "live_size": head.live_size,
            "live_root": head.root,
        }

    def epoch_anchor(self, epoch: int) -> Digest:
        return self._fam.epoch_root(epoch)

    def epoch_link(self, epoch: int) -> MembershipProof:
        return self._fam.prove_epoch_link(epoch)

    def epoch_leaves(self, epoch: int) -> list[Digest]:
        if epoch != 0:
            raise UsageError("only epoch 0 is bootstrapped from raw leaves")
        fam = self._fam
        return [fam.leaf_digest(jsn) for jsn in range(fam.epoch_capacity)]

    def live_consistency(
        self, old_size: int, new_size: int | None = None
    ) -> ConsistencyProof:
        head = self._head()
        new_size = head.live_size if new_size is None else new_size
        return self.epoch_consistency(head.epoch, old_size, new_size)

    def epoch_consistency(
        self, epoch: int, old_size: int, new_size: int | None = None
    ) -> ConsistencyProof:
        return self._fam.prove_epoch_consistency(epoch, old_size, new_size)


class AnchorTracker:
    """Verified epoch anchors plus the verified live head of one fam.

    ``anchors`` holds every sealed epoch's root, ``state`` the live epoch's
    ``(size, root)``; both only ever move along proofs that verified.
    Thread-safe: one lock serialises everything that reads-then-moves the
    tracked head (it is held across the source's round trips — a second
    verifier waiting is cheaper than two of them interleaving a catch-up).
    """

    def __init__(self, source: ReadSource) -> None:
        self.source = source
        self.anchors = AnchorStore()
        self.state = ClientState()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ sync

    def sync(self) -> int:
        """Advance to the source's current state; returns new epoch anchors.

        Epoch 0's anchor is bootstrapped by full verification (downloading
        and re-hashing the epoch's leaf digests); every later epoch advances
        via an O(delta) merged-leaf link proof; the live epoch via a
        consistency proof from the last verified live head.

        Raises:
            VerificationFailure: the moment any link fails — nothing
                unverified is ever anchored.
        """
        with self._lock:
            return self._sync()

    def _sync(self) -> int:
        source, state = self.source, self.state
        info = source.fam_info()
        live_epoch = info["num_epochs"] - 1
        state.epoch_capacity = info["epoch_capacity"]
        added = 0
        while state.anchored_epochs < live_epoch:
            epoch = state.anchored_epochs
            claimed_root = source.epoch_anchor(epoch)
            if epoch == 0:
                frontier = FrontierAccumulator()
                for leaf in source.epoch_leaves(0):
                    frontier.append_leaf(leaf)
                if frontier.root() != claimed_root:
                    raise VerificationFailure("epoch 0 bootstrap verification failed")
                self.anchors.add(0, claimed_root)
            elif not self.anchors.advance(epoch, claimed_root, source.epoch_link(epoch)):
                raise VerificationFailure(f"merged-leaf link for epoch {epoch} failed")
            state.anchored_epochs += 1
            added += 1
        self._advance_live(live_epoch, info["live_size"], bytes(info["live_root"]))
        return added

    def _advance_live(self, epoch: int, size: int, root: Digest) -> None:
        """Move the live head to the ``(epoch, size, root)`` the source claimed."""
        state = self.state
        if state.live_root is not None and state.live_size > 0:
            if (epoch, size) < (state.live_epoch_index, state.live_size):
                raise VerificationFailure("live epoch shrank")
            if epoch == state.live_epoch_index:
                # Same epoch: its evolution must be append-only.
                if size == state.live_size:
                    if root != state.live_root:
                        raise VerificationFailure(
                            "live commitment changed without appends"
                        )
                elif not self._extends(
                    epoch, state.live_size, state.live_root, size, root
                ):
                    raise VerificationFailure(
                        "live epoch evolved non-append-only (history rewritten?)"
                    )
            else:
                # Our epoch has been sealed since we last looked: the anchor
                # sync just validated for it must extend the head we verified.
                sealed = state.live_epoch_index
                if not self._extends(
                    sealed,
                    state.live_size,
                    state.live_root,
                    state.epoch_capacity,
                    self.anchors.get(sealed),
                ):
                    raise VerificationFailure(
                        f"sealed epoch {sealed} does not extend the state "
                        "this client verified"
                    )
        state.live_epoch_index = epoch
        state.live_size = size
        state.live_root = root

    def _extends(
        self,
        epoch: int,
        old_size: int,
        old_root: Digest,
        new_size: int,
        new_root: Digest | None,
    ) -> bool:
        """One consistency round trip: does ``new`` append-only extend ``old``
        inside ``epoch``'s tree?  The proof must speak for exactly the two
        sizes asked about."""
        if new_root is None:
            return False
        proof = self.source.epoch_consistency(epoch, old_size, new_size)
        return (
            proof.old_size == old_size
            and proof.new_size == new_size
            and proof.verify(old_root, new_root)
        )

    # ------------------------------------------------------------------ fold

    def fold_anchored(self, digest: Digest, proof: FamProof) -> bool:
        """O(delta) existence: fold ``digest`` through an *anchored* proof.

        The proof's epoch root must lie on the chain this tracker verified:
        equal to the tracked head of its epoch (a sealed epoch's anchor, the
        live epoch's root), or connected to it by a consistency proof.  A
        proof cut from a *newer* live head than the tracked one — the server
        appended between :meth:`sync` and the proof fetch — is therefore not
        a failure: the tracker catches up, verified, to the proof's head.  A
        proof from an epoch the tracker has not seen yet triggers a
        :meth:`sync` first.

        Returns False for any proof that does not connect; raises
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
                head_size, head_root = state.epoch_capacity, self.anchors.get(epoch)
            else:
                head_size, head_root = state.live_size, state.live_root
            if size == head_size:
                return root == head_root
            if size < head_size:
                return self._extends(epoch, size, root, head_size, head_root)
            if epoch < state.live_epoch_index or not self._extends(
                epoch, head_size, head_root, size, root
            ):
                return False
            state.live_size, state.live_root = size, root
            return True
