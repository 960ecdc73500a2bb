"""Occult — regulation-driven hiding with retained verifiability (§III-A3).

An occult operation hides the journal at a designated jsn and *retains its
hash digest* on the ledger, so the accumulator (and therefore every later
proof) remains intact: "the retained hash in an occulted journal is viewed as
the original journal when verifying subsequent journals" (Protocol 2).

Prerequisite 2: multi-signatures from the DBA and the regulator role holder.

Execution is synchronous (payload erased immediately) or asynchronous: the
occult *bit* is set at once — the journal is unretrievable from that moment —
while physical erasure is deferred to the data-reorganisation utility
(:meth:`repro.core.ledger.Ledger.reorganize`), mirroring the paper's
idle-batch erasure from the *occulted* anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..crypto.hashing import Digest, sha256
from ..crypto.multisig import MultiSignature
from ..encoding import BYTES, STR, UINT, Record, enum_of, list_of

__all__ = ["OccultMode", "OccultRecord", "OccultBitmap"]


class OccultMode(Enum):
    SYNC = "sync"
    ASYNC = "async"


@dataclass(frozen=True)
class OccultRecord:
    """The content of an occult journal's payload."""

    target_jsn: int
    retained_hash: Digest  # the original journal's tx-hash, kept forever
    mode: OccultMode
    reason: str
    #: The occulted journal's clue labels are retained (the *payload* is the
    #: regulated content; the business key is needed so lineage counts and
    #: state-root replay remain verifiable after the occult — Protocol 2).
    retained_clues: tuple[str, ...] = ()

    def approval_digest(self) -> Digest:
        """What the DBA and regulator multi-sign (Prerequisite 2)."""
        return sha256(_APPROVAL.encode(vars(self)))

    def to_bytes(self) -> bytes:
        return _RECORD.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "OccultRecord":
        return cls(**_RECORD.decode(data))


_FIELDS = dict(
    target_jsn=UINT,
    retained_hash=BYTES,
    mode=enum_of(OccultMode),
    reason=STR,
    retained_clues=list_of(STR, tuple),
)
_RECORD = Record(**_FIELDS)
_APPROVAL = Record(**_FIELDS, scheme="repro.occult.v1")


class OccultBitmap:
    """The occult bitmap index: one bit per jsn, set = occulted.

    Setting the bit is the logical deletion — retrieval checks it before
    touching the stream — independent of when physical erasure happens.
    """

    def __init__(self) -> None:
        self._bits = bytearray()
        self._count = 0

    def set(self, jsn: int) -> None:
        if jsn < 0:
            raise IndexError("jsn must be non-negative")
        byte_index = jsn >> 3
        if byte_index >= len(self._bits):
            self._bits.extend(b"\x00" * (byte_index - len(self._bits) + 1))
        mask = 1 << (jsn & 7)
        if not self._bits[byte_index] & mask:
            self._bits[byte_index] |= mask
            self._count += 1

    def test(self, jsn: int) -> bool:
        if jsn < 0:
            raise IndexError("jsn must be non-negative")
        byte_index = jsn >> 3
        if byte_index >= len(self._bits):
            return False
        return bool(self._bits[byte_index] & (1 << (jsn & 7)))

    def __contains__(self, jsn: int) -> bool:
        return self.test(jsn)

    def __len__(self) -> int:
        """Number of occulted jsns."""
        return self._count

    def occulted_jsns(self) -> list[int]:
        out = []
        for byte_index, byte in enumerate(self._bits):
            if not byte:
                continue
            for bit in range(8):
                if byte & (1 << bit):
                    out.append((byte_index << 3) | bit)
        return out


def verify_occult_approvals(
    record: OccultRecord,
    approvals: MultiSignature,
    required_signers: dict,
) -> None:
    """Prerequisite 2 check: DBA + regulator signatures over the record.

    ``required_signers`` maps member id -> certificate for the DBA and the
    regulator.  Raises :class:`repro.crypto.MultiSignatureError` on failure.
    """
    if approvals.digest != record.approval_digest():
        from ..crypto.multisig import MultiSignatureError

        raise MultiSignatureError("approval signatures cover a different occult record")
    approvals.verify(required_signers)
