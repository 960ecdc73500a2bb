"""LSP receipts — the pi_s non-repudiation proof (§III-C).

After committing a journal, the LSP packs the three digests (*request-hash*,
*tx-hash*, *block-hash*) together with the jsn and commit timestamp into a
receipt, signs it, and hands it to the client.  The client keeps the receipt
*externally*: if the LSP later deletes or rewrites the journal, the receipt
is the evidence that convicts it (threat-B / threat-C defence).

``ledger_root`` additionally entangles the fam commitment as of this commit,
giving the receipt tim-style fine-grained coverage of the whole prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..crypto.ecdsa import Signature
from ..crypto.hashing import Digest, sha256
from ..crypto.keys import KeyPair
from ..crypto.signed import LspSigned
from ..encoding import decode

__all__ = ["Receipt"]


@dataclass(frozen=True)
class Receipt(LspSigned):
    """A signed acknowledgement of one committed journal."""

    SCHEME = "repro.receipt.v1"

    ledger_uri: str
    jsn: int
    request_hash: Digest
    tx_hash: Digest
    block_hash: Digest  # latest committed block at issue time
    block_height: int
    ledger_root: Digest  # fam commitment immediately after this commit
    timestamp: float
    lsp_signature: Signature | None = None

    def statement(self) -> dict:
        return {
            "ledger_uri": self.ledger_uri,
            "jsn": self.jsn,
            "request_hash": self.request_hash,
            "tx_hash": self.tx_hash,
            "block_hash": self.block_hash,
            "block_height": self.block_height,
            "ledger_root": self.ledger_root,
            "timestamp": self.timestamp,
        }

    @classmethod
    def sign_batch(cls, receipts: list["Receipt"], lsp_keypair: KeyPair) -> list["Receipt"]:
        """Sign many receipts in one pass with shared batch inversions.

        Signatures are bit-identical to :meth:`signed_by` per receipt, so
        batched admission hands out exactly the pi_s a sequential commit
        would have.
        """
        digests = [sha256(receipt.signing_payload()) for receipt in receipts]
        signatures = lsp_keypair.sign_batch(digests)
        return [
            replace(receipt, lsp_signature=signature)
            for receipt, signature in zip(receipts, signatures)
        ]

    @classmethod
    def from_bytes(cls, data: bytes) -> "Receipt":
        obj = decode(data)
        return cls(
            ledger_uri=obj["ledger_uri"],
            jsn=obj["jsn"],
            request_hash=bytes(obj["request_hash"]),
            tx_hash=bytes(obj["tx_hash"]),
            block_hash=bytes(obj["block_hash"]),
            block_height=obj["block_height"],
            ledger_root=bytes(obj["ledger_root"]),
            timestamp=obj["timestamp"],
            lsp_signature=cls._signature_of(obj),
        )
