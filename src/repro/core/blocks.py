"""Block commit layer.

LedgerDB blurs the block concept for writes (journals commit individually
into fam), but blocks still exist as audit and snapshot units: "when
transactions fill up a block, a block-hash is calculated during block
committing" (§III-C), CM-Tree1's root "is calculated and recorded in every
block to capture the verifiable snapshot according to its block version"
(§IV-B2), and the §V audit walks block ranges between time journals.

A block header commits: its journal range, the fam commitment, the CM-Tree1
(state) root, and the previous block hash — the chain link audit step 4
verifies across adjacent blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.hashing import Digest, block_hash
from ..encoding import BYTES, FLOAT, UINT, Record

__all__ = ["Block"]

_HEADER = Record(
    height=UINT,
    previous_hash=BYTES,
    start_jsn=UINT,
    end_jsn=UINT,
    journal_root=BYTES,
    state_root=BYTES,
    timestamp=FLOAT,
)


@dataclass(frozen=True)
class Block:
    """An immutable committed block header."""

    height: int
    previous_hash: Digest
    start_jsn: int
    end_jsn: int  # exclusive
    journal_root: Digest  # fam commitment after end_jsn - 1
    state_root: Digest  # CM-Tree1 root snapshot at this block version
    timestamp: float

    def header_bytes(self) -> bytes:
        return _HEADER.encode(vars(self))

    def hash(self) -> Digest:
        # Memoized: every receipt issued between two seals re-reads the
        # latest block's hash, and the header is immutable.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = block_hash(self.header_bytes())
            object.__setattr__(self, "_hash", cached)
        return cached

    @property
    def tx_count(self) -> int:
        return self.end_jsn - self.start_jsn

    @classmethod
    def from_bytes(cls, data: bytes) -> "Block":
        return cls(**_HEADER.decode(data))
