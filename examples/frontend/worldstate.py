"""World-state — the single-layer state accumulator of Figure 2.

Besides the per-clue CM-Tree, LedgerDB maintains a *world-state*: the
current value of every business key, "maintained by a single-layer state
accumulator without clue accumulator" (§II-C).  This module implements that
component: an authenticated key-value map over the MPT whose 32-byte root
is a verifiable snapshot of the entire current state.

Each key's MPT value commits the *value digest*, the key's version count,
and the jsn of the journal that last wrote it — so a state proof pins a
value to a specific ledger position, and historical roots (captured in
block headers) remain queryable and provable thanks to the MPT's
persistence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, sha256
from repro.encoding import decode, encode
from repro.merkle.mpt import MPT, MPTProof
from repro.storage.kv import KVStore

__all__ = ["StateEntry", "StateProof", "WorldState"]


@dataclass(frozen=True)
class StateEntry:
    """The committed metadata for one key."""

    key: bytes
    value_digest: Digest
    version: int  # number of writes to this key, minus one
    jsn: int  # journal that performed the latest write

    def to_value_bytes(self) -> bytes:
        return encode(
            {
                "value_digest": self.value_digest,
                "version": self.version,
                "jsn": self.jsn,
            }
        )

    @classmethod
    def from_value_bytes(cls, key: bytes, data: bytes) -> "StateEntry":
        obj = decode(data)
        return cls(
            key=key,
            value_digest=bytes(obj["value_digest"]),
            version=obj["version"],
            jsn=obj["jsn"],
        )


@dataclass(frozen=True)
class StateProof:
    """Proof that a key has (or does not have) a given current state."""

    entry: StateEntry | None  # None asserts non-membership
    mpt_proof: MPTProof

    def verify(self, state_root: Digest, value: bytes | None = None) -> bool:
        """Check against a trusted state root; optionally bind the raw value.

        With ``value`` supplied, also checks the value digest — the full
        "this exact value is the key's current state" statement.
        """
        if self.entry is None:
            return self.mpt_proof.value is None and self.mpt_proof.verify(state_root)
        if self.mpt_proof.key != self.entry.key:
            return False
        if self.mpt_proof.value != self.entry.to_value_bytes():
            return False
        if value is not None and sha256(value) != self.entry.value_digest:
            return False
        return self.mpt_proof.verify(state_root)


class WorldState:
    """Authenticated current-state KV map with verifiable snapshots."""

    def __init__(self, store: KVStore | None = None) -> None:
        self._mpt = MPT(store)
        self._values: dict[bytes, bytes] = {}  # raw payloads for retrieval
        self._versions: dict[bytes, int] = {}

    @property
    def root(self) -> Digest:
        """The snapshot commitment (recorded per block in LedgerDB)."""
        return self._mpt.root

    def put(self, key: bytes, value: bytes, jsn: int) -> Digest:
        """Write ``key`` from journal ``jsn``; returns the new state root."""
        version = self._versions.get(key, -1) + 1
        self._versions[key] = version
        entry = StateEntry(key=key, value_digest=sha256(value), version=version, jsn=jsn)
        self._values[key] = value
        return self._mpt.put(key, entry.to_value_bytes())

    def get(self, key: bytes) -> bytes:
        """The key's current raw value (KeyError if absent)."""
        if key not in self._values:
            raise KeyError(key)
        return self._values[key]

    def entry(self, key: bytes) -> StateEntry | None:
        data = self._mpt.get_default(key)
        if data is None:
            return None
        return StateEntry.from_value_bytes(key, data)

    def __contains__(self, key: bytes) -> bool:
        return key in self._values

    def version(self, key: bytes) -> int:
        """Number of writes minus one (-1 if never written)."""
        return self._versions.get(key, -1)

    def prove(self, key: bytes, root: Digest | None = None) -> StateProof:
        """Membership/non-membership proof at the current (or a historical) root."""
        mpt_proof = self._mpt.prove(key, root=root)
        if mpt_proof.value is None:
            return StateProof(entry=None, mpt_proof=mpt_proof)
        return StateProof(
            entry=StateEntry.from_value_bytes(key, mpt_proof.value),
            mpt_proof=mpt_proof,
        )

    def historical_entry(self, key: bytes, root: Digest) -> StateEntry | None:
        """The key's committed entry under a historical state root."""
        data = self._mpt.get_at(root, key)
        if data is None:
            return None
        return StateEntry.from_value_bytes(key, data)
