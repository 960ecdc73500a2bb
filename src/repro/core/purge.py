"""Purge — verifiable removal of obsolete history (§III-A2).

A purge erases consecutive journals from genesis (or the previous purge
point) up to a designated jsn.  The value of purged history lies in proving
the authenticity of the *current* state, so purge replaces it with a
**pseudo genesis**: a snapshot record storing the ledger's commitments
(fam root, CM-Tree state root, membership) at the purge point.  The purge
itself is recorded as a purge journal, doubly linked with the pseudo genesis
for mutual proving, and subsequent verification treats the latest pseudo
genesis as the ledger's genesis (Protocol 1).

Prerequisite 1: multi-signatures from the DBA and all members owning
journals before the purge point.

Milestone journals named in ``survivors`` are copied to the *survival
stream* before erasure so business-critical records remain retrievable and
verifiable after the purge.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.hashing import Digest, sha256
from ..encoding import BOOL, BYTES, FLOAT, STR, UINT, Record, list_of, row

__all__ = ["PseudoGenesis", "PurgeRecord"]

_STRS = list_of(STR, tuple)
_DIGESTS = list_of(BYTES, tuple)
_PSEUDO_GENESIS = Record(
    scheme="repro.pseudo_genesis.v1",
    purge_point=UINT,
    fam_root=BYTES,
    state_root=BYTES,
    member_ids=_STRS,
    related_member_ids=_STRS,
    survivor_jsns=list_of(UINT, tuple),
    original_genesis_hash=BYTES,
    created_at=FLOAT,
    fam_epoch_roots=_DIGESTS,
    fam_live_epoch=row(UINT, _DIGESTS),
    clue_snapshot=list_of(row(STR, UINT, _DIGESTS), tuple),
)
_PURGE_FIELDS = dict(purge_point=UINT, pseudo_genesis_hash=BYTES, erase_fam_nodes=BOOL, reason=STR)
_PURGE = Record(**_PURGE_FIELDS)
_PURGE_APPROVAL = Record(**_PURGE_FIELDS, scheme="repro.purge.v1")


@dataclass(frozen=True)
class PseudoGenesis:
    """Snapshot that replaces the purged prefix (stored before the first
    unpurged block, replicating the genesis role)."""

    purge_point: int  # first jsn that survives
    fam_root: Digest  # fam commitment over the full prefix [0, purge_point)
    state_root: Digest  # CM-Tree1 root at the purge point
    member_ids: tuple[str, ...]  # membership snapshot
    #: Members owning journals in the purged range — exactly the parties
    #: whose signatures Prerequisite 1 demands (plus the DBA).
    related_member_ids: tuple[str, ...]
    survivor_jsns: tuple[int, ...]  # milestones copied to the survival stream
    original_genesis_hash: Digest
    created_at: float
    # Resume snapshots: enough accumulator state for an auditor to *continue*
    # commitment replay from the purge point without the purged data.
    fam_epoch_roots: tuple[Digest, ...] = ()  # completed fam epochs so far
    fam_live_epoch: tuple[int, tuple[Digest, ...]] = (0, ())  # (size, peaks)
    clue_snapshot: tuple[tuple[str, int, tuple[Digest, ...]], ...] = ()  # (clue, size, peaks)

    def hash(self) -> Digest:
        return sha256(self.to_bytes())

    def to_bytes(self) -> bytes:
        return _PSEUDO_GENESIS.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "PseudoGenesis":
        return cls(**_PSEUDO_GENESIS.decode(data))


@dataclass(frozen=True)
class PurgeRecord:
    """The content of a purge journal's payload.

    ``pseudo_genesis_hash`` is the forward half of the double link (the
    pseudo genesis stores ``purge_point`` which resolves back to this journal
    through the ledger's purge registry) — "doubly linked ... for mutual
    proving and fast locating".
    """

    purge_point: int
    pseudo_genesis_hash: Digest
    erase_fam_nodes: bool
    reason: str

    def approval_digest(self) -> Digest:
        """What the DBA and all affected members multi-sign (Prerequisite 1)."""
        return sha256(_PURGE_APPROVAL.encode(vars(self)))

    def to_bytes(self) -> bytes:
        return _PURGE.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "PurgeRecord":
        return cls(**_PURGE.decode(data))
