"""Ledger proxy — the Figure-1 deployment front end.

The proxy splits a transaction into its two paths:

* the **payload** goes to shared storage (content-addressed blob store);
* the **digest** goes onto the ledger: the journal's payload field carries a
  fixed-size *payload reference* ``{digest, size}``.

The client builds and signs the reference-carrying request itself (so pi_c
covers exactly what the ledger commits), and uploads the raw payload
alongside; the proxy checks the upload hashes to the referenced digest
before admitting anything — a tampered-in-flight payload (threat-A) is
rejected at the door.  On retrieval the proxy re-joins the two paths and
re-checks the content address.

Mutations compose naturally: occulting or purging a journal releases its
blob reference, so the regulated payload disappears from shared storage too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import AuthenticationError, LedgerError
from repro.core.journal import ClientRequest, Journal, JournalType
from repro.core.ledger import Ledger
from repro.core.receipt import Receipt
from repro.crypto.hashing import Digest, sha256
from repro.crypto.keys import KeyPair
from repro.encoding import decode, encode

from .shared import SharedStorage

__all__ = ["PayloadRef", "LedgerProxy", "ResolvedJournal"]

_REF_MARKER = "repro.payload_ref.v1"


@dataclass(frozen=True)
class PayloadRef:
    """The fixed-size stand-in committed on the ledger."""

    digest: Digest
    size: int

    def to_bytes(self) -> bytes:
        return encode({"scheme": _REF_MARKER, "digest": self.digest, "size": self.size})

    @classmethod
    def from_bytes(cls, data: bytes) -> "PayloadRef":
        obj = decode(data)
        if obj.get("scheme") != _REF_MARKER:
            raise ValueError("not a payload reference")
        return cls(digest=bytes(obj["digest"]), size=obj["size"])

    @staticmethod
    def is_ref(payload: bytes) -> bool:
        try:
            PayloadRef.from_bytes(payload)
        except Exception:
            return False
        return True


@dataclass(frozen=True)
class ResolvedJournal:
    """A journal re-joined with its shared-storage payload."""

    journal: Journal
    payload: bytes  # the raw business payload (resolved from the ref)
    ref: PayloadRef | None  # None for inline (small) payloads


class LedgerProxy:
    """The deployment front end: payload/digest split + re-join."""

    def __init__(
        self,
        ledger: Ledger,
        storage: SharedStorage | None = None,
        inline_threshold: int = 256,
    ) -> None:
        self.ledger = ledger
        self.storage = storage or SharedStorage()
        #: Payloads at or below this size are committed inline (the split
        #: only pays off for bulky blobs).
        self.inline_threshold = inline_threshold

    # ---------------------------------------------------------------- submit

    def build_request(
        self,
        client_id: str,
        payload: bytes,
        clues: tuple[str, ...] = (),
        nonce: bytes = b"",
    ) -> tuple[ClientRequest, bytes | None]:
        """Build the (unsigned) request the client must sign.

        Returns ``(request, upload)``: for bulky payloads the request
        carries a :class:`PayloadRef` and ``upload`` is the raw payload the
        client must hand the proxy alongside the signed request.
        """
        if len(payload) <= self.inline_threshold:
            request = ClientRequest.build(
                self.ledger.config.uri, client_id, payload, clues=clues, nonce=nonce,
                client_timestamp=self.ledger.clock.now(),
            )
            return request, None
        ref = PayloadRef(digest=sha256(payload), size=len(payload))
        request = ClientRequest.build(
            self.ledger.config.uri, client_id, ref.to_bytes(), clues=clues, nonce=nonce,
            client_timestamp=self.ledger.clock.now(),
        )
        return request, payload

    def submit(self, request: ClientRequest, upload: bytes | None = None) -> Receipt:
        """Admit a signed request, routing the payload to shared storage.

        For reference-carrying requests the raw ``upload`` must hash to the
        referenced digest — the threat-A check at the proxy.
        """
        if PayloadRef.is_ref(request.payload):
            ref = PayloadRef.from_bytes(request.payload)
            if upload is None:
                raise LedgerError("reference request needs the raw payload upload")
            if sha256(upload) != ref.digest:
                raise AuthenticationError(
                    "uploaded payload does not hash to the signed reference "
                    "(tampered in flight?)"
                )
            if len(upload) != ref.size:
                raise AuthenticationError("uploaded payload size mismatch")
            receipt = self.ledger.append(request)  # digest path
            self.storage.put(upload)  # payload path
            return receipt
        if upload is not None:
            raise LedgerError("inline request must not carry a separate upload")
        return self.ledger.append(request)

    def append(
        self,
        client_id: str,
        keypair: KeyPair,
        payload: bytes,
        clues: tuple[str, ...] = (),
        nonce: bytes = b"",
    ) -> Receipt:
        """Convenience: build, sign, and submit in one call."""
        request, upload = self.build_request(client_id, payload, clues, nonce)
        return self.submit(request.signed_by(keypair), upload)

    # --------------------------------------------------------------- resolve

    def get_journal(self, jsn: int) -> ResolvedJournal:
        """Fetch a journal and re-join its payload from shared storage."""
        journal = self.ledger.get_journal(jsn)
        if journal.journal_type is not JournalType.NORMAL or not PayloadRef.is_ref(journal.payload):
            return ResolvedJournal(journal=journal, payload=journal.payload, ref=None)
        ref = PayloadRef.from_bytes(journal.payload)
        blob = self.storage.get(ref.digest)  # integrity-checked read
        return ResolvedJournal(journal=journal, payload=blob, ref=ref)

    def release_payload(self, jsn_payload: bytes) -> bool:
        """Drop the blob behind a mutated journal's reference (purge/occult)."""
        if not PayloadRef.is_ref(jsn_payload):
            return False
        return self.storage.release(PayloadRef.from_bytes(jsn_payload).digest)
