"""Journal model: client requests, committed journals, and their digests.

The journal is LedgerDB's unit of append (§II-C).  A client builds a
:class:`ClientRequest` — payload plus metadata (ledger uri, type, nonce,
clues) — computes its *request-hash*, and signs it (proof pi_c).  The server
turns an admitted request into a :class:`Journal` carrying a unique
incremental *jsn*; the digest of the serialized journal is the *tx-hash*
accumulated by fam.

Special journal types (time, purge, occult) are system journals issued by
the LSP; their payloads carry the respective protocol records.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

from .. import obs
from ..crypto.ecdsa import Signature
from ..crypto.hashing import Digest, journal_hash, receipt_hash
from ..crypto.keys import KeyPair
from ..crypto.signed import SIGNATURE
from ..encoding import BYTES, FLOAT, STR, UINT, Record, enum_of, list_of, optional

__all__ = ["JournalType", "ClientRequest", "Journal"]


class JournalType(Enum):
    """Kinds of entries on the ledger."""

    GENESIS = "genesis"
    NORMAL = "normal"
    TIME = "time"  # anchored TSA / T-Ledger evidence (pi_t)
    PURGE = "purge"  # records a purge operation (Prerequisite 1)
    OCCULT = "occult"  # records an occult operation (Prerequisite 2)


@dataclass(frozen=True)
class ClientRequest:
    """A signed client transaction submission (Figure 1, left side)."""

    ledger_uri: str
    client_id: str
    journal_type: JournalType
    payload: bytes
    clues: tuple[str, ...]
    nonce: bytes
    client_timestamp: float
    signature: Signature | None = None

    def request_hash(self) -> Digest:
        """The digest the client signs — covers the entire transaction.

        Memoized: the hash is consumed at least twice per append (signature
        admission, then journal construction), and the request is frozen.
        """
        cached = self.__dict__.get("_request_hash")
        if cached is not None:
            obs.inc("journal.request_hash_memo.hit")
            return cached
        obs.inc("journal.request_hash_memo.miss")
        cached = receipt_hash(_STATEMENT.encode(vars(self)))
        object.__setattr__(self, "_request_hash", cached)
        return cached

    def signed_by(self, keypair: KeyPair) -> "ClientRequest":
        """Return a copy carrying the client's signature pi_c."""
        digest = self.request_hash()
        signed = replace(self, signature=keypair.sign(digest))
        # The hash excludes the signature, so the copy shares it.
        object.__setattr__(signed, "_request_hash", digest)
        return signed

    @classmethod
    def build(
        cls,
        ledger_uri: str,
        client_id: str,
        payload: bytes,
        clues: tuple[str, ...] = (),
        nonce: bytes = b"",
        client_timestamp: float = 0.0,
        journal_type: JournalType = JournalType.NORMAL,
    ) -> "ClientRequest":
        return cls(
            ledger_uri=ledger_uri,
            client_id=client_id,
            journal_type=journal_type,
            payload=payload,
            clues=tuple(clues),
            nonce=nonce,
            client_timestamp=float(client_timestamp),  # the wire form is a float
        )

    def to_bytes(self) -> bytes:
        """Canonical wire serialization (signature included).

        This is what crosses the network boundary: the signed request travels
        whole, so the server admits exactly the bytes the client signed over
        (the signature itself is outside :meth:`request_hash`).
        """
        return _REQUEST.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ClientRequest":
        return cls(**_REQUEST.decode(data))


_JOURNAL_TYPE = enum_of(JournalType)
_CLUES = list_of(STR, tuple)
#: Everything the client signs (the signature itself stays outside).
_STATEMENT_FIELDS = dict(
    ledger_uri=STR,
    client_id=STR,
    journal_type=_JOURNAL_TYPE,
    payload=BYTES,
    clues=_CLUES,
    nonce=BYTES,
    client_timestamp=FLOAT,
)
_STATEMENT = Record(**_STATEMENT_FIELDS)
_REQUEST = Record(**_STATEMENT_FIELDS, signature=optional(SIGNATURE))
_JOURNAL = Record(
    jsn=UINT,
    journal_type=_JOURNAL_TYPE,
    client_id=STR,
    payload=BYTES,
    clues=_CLUES,
    timestamp=FLOAT,
    nonce=BYTES,
    request_hash=BYTES,
    client_signature=optional(SIGNATURE),
)


@dataclass(frozen=True)
class Journal:
    """A committed ledger entry.

    ``tx_hash`` (the fam leaf digest) is the hash of :meth:`to_bytes`, which
    covers every field below — so tampering any of them after commitment is
    detectable by existence verification.
    """

    jsn: int
    journal_type: JournalType
    client_id: str
    payload: bytes
    clues: tuple[str, ...]
    timestamp: float  # server-side commit time (local, non-authoritative)
    nonce: bytes
    request_hash: Digest
    client_signature: Signature | None

    def to_bytes(self) -> bytes:
        """Canonical serialization (the bytes stored on the journal stream).

        Memoized — ``_commit`` serialises once for the stream write and once
        more (via :meth:`tx_hash`) for the fam leaf.
        """
        cached = self.__dict__.get("_bytes")
        if cached is None:
            cached = _JOURNAL.encode(vars(self))
            object.__setattr__(self, "_bytes", cached)
        return cached

    @classmethod
    def from_bytes(cls, data: bytes) -> "Journal":
        data = bytes(data)
        journal = cls(**_JOURNAL.decode(data))
        # Seed the serialization memo with the wire bytes: ``tx_hash`` must
        # digest the bytes fam actually accumulated, not a re-encoding.
        object.__setattr__(journal, "_bytes", data)
        return journal

    def tx_hash(self) -> Digest:
        """The server-side journal digest accumulated by fam (§III-C).

        Memoized alongside :meth:`to_bytes`.
        """
        cached = self.__dict__.get("_tx_hash")
        if cached is not None:
            obs.inc("journal.tx_hash_memo.hit")
            return cached
        obs.inc("journal.tx_hash_memo.miss")
        cached = journal_hash(self.to_bytes())
        object.__setattr__(self, "_tx_hash", cached)
        return cached
