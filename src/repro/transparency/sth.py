"""Signed tree heads and non-equivocation evidence (DESIGN.md §16).

The paper's LSP is still trusted in one important way: nothing stops it from
showing client A one chain and client B another ("forking" / equivocation).
The defence, borrowed from certificate-transparency-style systems (GlassDB,
AQUAREUM — see PAPERS.md), is to make the server *commit* to one chain in a
form third parties can compare:

* a :class:`SignedTreeHead` (STH) binds the LSP key to the exact fam state
  ``(epoch, tree_size, live_size, root)`` at a moment in time — one is
  emitted automatically at every epoch close and any client can demand a
  fresh one;
* a :class:`ConsistencyBundle` (from :mod:`repro.merkle.consistency`)
  proves head B append-only-extends head A across fam epoch rolls (seal
  proof + merged-leaf links), so two honest heads are always connectable;
* a :class:`ConsistencyAssertion` is the LSP's *signed claim* that two
  head coordinates carry specific roots — refusing to prove a signed claim
  is suspicious, but signing a claim that contradicts a signed head is
  **evidence**;
* :class:`EquivocationEvidence` packages the conflicting signed statements
  into a bundle that :func:`verify_equivocation` checks *offline*: no
  ledger instance, no network — just the LSP public key.

Everything here depends only on crypto/encoding/merkle, so evidence
verifies in a process that has never imported the ledger kernel.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from ..crypto.ecdsa import Signature
from ..crypto.hashing import Digest
from ..crypto.keys import PublicKey
from ..crypto.signed import LspSigned
from ..encoding import (
    BYTES,
    FLOAT,
    INT,
    STR,
    UINT,
    EncodingError,
    Record,
    list_of,
    nested,
    optional,
    row,
)
from ..merkle.consistency import ConsistencyBundle
from ..merkle.shrubs import ShrubsAccumulator

__all__ = [
    "SignedTreeHead",
    "ConsistencyBundle",
    "ConsistencyAssertion",
    "EquivocationEvidence",
    "SthStore",
    "verify_equivocation",
]

#: ``shard_index`` of a non-sharded ledger's heads.
SOLO_SHARD = -1
#: ``epoch`` marker for a sharded deployment's composite head (a composite
#: head commits the shard map, not a fam tree, so it has no epoch).
COMPOSITE_EPOCH = -1


@dataclass(frozen=True)
class SignedTreeHead(LspSigned):
    """The LSP's signed commitment to one exact fam state.

    ``tree_size`` counts journals (fam jsns); ``live_size`` counts leaves of
    the live epoch tree *including* the merged leaf, which is what the
    consistency machinery operates on.  ``shard_index`` distinguishes the
    per-shard streams of one sharded deployment — shards share the
    deployment URI and LSP key, so without it two sibling shards at equal
    coordinates would read as a fork.

    A sharded deployment's *composite* head carries ``epoch == -1``,
    ``live_size == number of shards``, the composite (shard-map) root, and
    the per-shard head tuples in ``shard_heads`` so the composite root can
    be re-folded by anyone (:meth:`composite_consistent`).
    """

    SCHEME = "repro.sth.v1"
    FIELDS = dict(
        ledger_uri=STR,
        epoch=INT,
        tree_size=UINT,
        live_size=UINT,
        root=BYTES,
        timestamp=FLOAT,
        fractal_height=UINT,
        shard_index=INT,
        shard_heads=list_of(row(INT, INT, UINT, UINT, BYTES), tuple),
    )

    ledger_uri: str
    epoch: int
    tree_size: int
    live_size: int
    root: Digest
    timestamp: float
    fractal_height: int
    shard_index: int = SOLO_SHARD
    #: Composite heads only: (shard_index, epoch, tree_size, live_size, root)
    #: per shard, in shard order.
    shard_heads: tuple[tuple[int, int, int, int, Digest], ...] = ()
    lsp_signature: Signature | None = None

    # ------------------------------------------------------------- identity

    @property
    def is_composite(self) -> bool:
        return self.epoch == COMPOSITE_EPOCH

    @property
    def coords(self) -> tuple[int, int, int]:
        """The comparable position of this head: (epoch, tree_size, live_size)."""
        return (self.epoch, self.tree_size, self.live_size)

    def same_stream(self, other: "SignedTreeHead") -> bool:
        """True when both heads speak for the same append-only stream."""
        return (
            self.ledger_uri == other.ledger_uri
            and self.shard_index == other.shard_index
            and self.fractal_height == other.fractal_height
        )

    def composite_consistent(self) -> bool:
        """Re-fold ``shard_heads`` and compare with ``root`` (composite only).

        The shard map is a plain Shrubs accumulator over the per-shard roots
        in shard order, so anyone holding this head can recompute the
        composite root with no ledger instance.
        """
        if not self.is_composite:
            return False
        shard_map = ShrubsAccumulator()
        shard_map.extend([bytes(root) for *_coords, root in self.shard_heads])
        return shard_map.root() == self.root


@dataclass(frozen=True)
class ConsistencyAssertion(LspSigned):
    """The LSP's *signed claim* that two head coordinates carry these roots.

    Append-only extension to a given size does not determine a unique root,
    so "the server's proof failed" is an alarm, not evidence — a broken
    proof proves nothing about who lied.  An assertion closes that gap: the
    server signs the endpoint roots it claims to connect, and a signed
    assertion whose endpoint contradicts a signed head at the same
    coordinates *is* offline-verifiable equivocation (see
    :class:`EquivocationEvidence`).
    """

    SCHEME = "repro.sth-consistency.v1"
    FIELDS = dict(
        ledger_uri=STR,
        shard_index=INT,
        fractal_height=UINT,
        old_epoch=INT,
        old_tree_size=UINT,
        old_live_size=UINT,
        old_root=BYTES,
        new_epoch=INT,
        new_tree_size=UINT,
        new_live_size=UINT,
        new_root=BYTES,
        timestamp=FLOAT,
    )

    ledger_uri: str
    shard_index: int
    fractal_height: int
    old_epoch: int
    old_tree_size: int
    old_live_size: int
    old_root: Digest
    new_epoch: int
    new_tree_size: int
    new_live_size: int
    new_root: Digest
    timestamp: float
    lsp_signature: Signature | None = None

    def same_stream(self, head: SignedTreeHead) -> bool:
        return (
            self.ledger_uri == head.ledger_uri
            and self.shard_index == head.shard_index
            and self.fractal_height == head.fractal_height
        )

    def matches_old(self, head: SignedTreeHead) -> bool:
        """True when ``head`` sits at this assertion's old coordinates."""
        return self.same_stream(head) and head.coords == (
            self.old_epoch,
            self.old_tree_size,
            self.old_live_size,
        )

    def matches_new(self, head: SignedTreeHead) -> bool:
        return self.same_stream(head) and head.coords == (
            self.new_epoch,
            self.new_tree_size,
            self.new_live_size,
        )


@dataclass(frozen=True)
class EquivocationEvidence:
    """Two conflicting LSP-signed statements — the server forked its ledger.

    Kinds:

    * ``"fork-heads"`` — two signed heads at equal coordinates with
      different roots (the classic CT fork proof);
    * ``"fork-assertion"`` — a signed consistency assertion whose endpoint
      contradicts a signed head at the same coordinates;
    * ``"composite-mismatch"`` — a signed composite head whose embedded
      shard heads do not re-fold to its own composite root;
    * ``"fork-composite"`` — a signed per-shard head conflicting with the
      same shard's entry inside a signed composite head.

    Every kind verifies *offline* against only the LSP public key.
    """

    kind: str
    first: SignedTreeHead
    second: SignedTreeHead | None = None
    assertion: ConsistencyAssertion | None = None
    detail: str = ""

    def verify(self, lsp_public_key: PublicKey) -> bool:
        """Standalone check — no ledger, no network.  Never raises."""
        try:
            return self._verify(lsp_public_key)
        except (KeyError, ValueError, IndexError, TypeError):
            return False

    def _verify(self, lsp_public_key: PublicKey) -> bool:
        if not self.first.verify(lsp_public_key):
            return False
        if self.kind == "fork-heads":
            if self.second is None or not self.second.verify(lsp_public_key):
                return False
            return (
                self.first.same_stream(self.second)
                and self.first.coords == self.second.coords
                and self.first.root != self.second.root
            )
        if self.kind == "fork-assertion":
            if self.assertion is None or not self.assertion.verify(lsp_public_key):
                return False
            assertion = self.assertion
            head = self.first
            if assertion.matches_old(head) and assertion.old_root != head.root:
                return True
            if assertion.matches_new(head) and assertion.new_root != head.root:
                return True
            return False
        if self.kind == "composite-mismatch":
            return self.first.is_composite and not self.first.composite_consistent()
        if self.kind == "fork-composite":
            if self.second is None or not self.second.verify(lsp_public_key):
                return False
            shard_head, composite = self.first, self.second
            if not composite.is_composite or shard_head.is_composite:
                return False
            if composite.ledger_uri != shard_head.ledger_uri:
                return False
            if composite.fractal_height != shard_head.fractal_height:
                return False
            for shard, epoch, tree_size, live_size, root in composite.shard_heads:
                if shard != shard_head.shard_index:
                    continue
                if (epoch, tree_size, live_size) == shard_head.coords:
                    return bytes(root) != shard_head.root
            return False
        return False

    def to_bytes(self) -> bytes:
        return _EVIDENCE.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "EquivocationEvidence":
        return cls(**_EVIDENCE.decode(data))


_EVIDENCE = Record(
    kind=STR,
    first=nested(SignedTreeHead),
    second=optional(nested(SignedTreeHead)),
    assertion=optional(nested(ConsistencyAssertion)),
    detail=STR,
)


def verify_equivocation(
    evidence: EquivocationEvidence, lsp_public_key: PublicKey
) -> bool:
    """Offline verdict on an evidence bundle: True = the LSP equivocated.

    The standalone entry point the gossip/audit tooling hands to third
    parties: it touches only the evidence bytes and the LSP public key.
    """
    return evidence.verify(lsp_public_key)


class SthStore:
    """Append-only log of epoch-close heads, optionally file-backed.

    The on-disk form is a flat sequence of ``4-byte big-endian length +
    head bytes`` records; loading tolerates a torn tail (a crash mid-append
    drops at most the in-flight record, mirroring the journal stream's
    rollback discipline) and keeps the good prefix before a corrupt record.

    A load never writes.  The store that appends (the ledger's own) repairs:
    before its first append it cuts the file back to the good prefix it
    loaded, so a new head never lands behind bytes a later load drops.
    """

    def __init__(self, path=None) -> None:
        from pathlib import Path

        self._path = Path(path) if path is not None else None
        self._heads: list[SignedTreeHead] = []
        #: Where the good prefix ends, if the loaded file runs past it.
        self._damaged_from: int | None = None
        if self._path is not None and self._path.exists():
            self._load()

    def _load(self) -> None:
        data = self._path.read_bytes()
        offset = 0
        while offset + 4 <= len(data):
            length = int.from_bytes(data[offset : offset + 4], "big")
            if offset + 4 + length > len(data):
                break  # torn tail: drop the partial record
            try:
                self._heads.append(
                    SignedTreeHead.from_bytes(data[offset + 4 : offset + 4 + length])
                )
            except EncodingError:
                break  # corrupt record poisons the suffix, keep the prefix
            offset += 4 + length
        if offset < len(data):
            self._damaged_from = offset

    def append(self, head: SignedTreeHead) -> None:
        self._heads.append(head)
        if self._path is not None:
            blob = head.to_bytes()
            with open(self._path, "ab") as fh:
                if self._damaged_from is not None:
                    fh.truncate(self._damaged_from)
                    self._damaged_from = None
                fh.write(len(blob).to_bytes(4, "big") + blob)
                fh.flush()

    def restamp(self, shard_index: int, lsp_keypair) -> None:
        """Re-sign stored heads under stamp ``shard_index`` (same coordinates,
        root, timestamp) and rewrite the file, unless all carry it already: a
        log written by a build that stamped its stream otherwise keeps one name."""
        if all(head.shard_index == shard_index for head in self._heads):
            return
        self._heads = [
            replace(head, shard_index=shard_index).signed_by(lsp_keypair)
            for head in self._heads
        ]
        if self._path is not None:
            staged = self._path.with_name(self._path.name + ".tmp")
            blobs = [head.to_bytes() for head in self._heads]
            staged.write_bytes(b"".join(len(b).to_bytes(4, "big") + b for b in blobs))
            os.replace(staged, self._path)
            self._damaged_from = None

    def heads(self) -> list[SignedTreeHead]:
        return list(self._heads)

    def latest(self) -> SignedTreeHead | None:
        return self._heads[-1] if self._heads else None

    def for_epoch(self, epoch: int) -> SignedTreeHead | None:
        """The epoch-close head minted when ``epoch`` became the live epoch."""
        for head in reversed(self._heads):
            if head.epoch == epoch:
                return head
        return None

    def range(self, start: int, end: int) -> list[SignedTreeHead]:
        """Stored heads with ``start <= epoch < end``, in emission order."""
        return [head for head in self._heads if start <= head.epoch < end]

    def __len__(self) -> int:
        return len(self._heads)
