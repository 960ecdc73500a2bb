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
from ..encoding import BYTES, FLOAT, INT, STR, UINT

__all__ = ["Receipt"]


@dataclass(frozen=True)
class Receipt(LspSigned):
    """A signed acknowledgement of one committed journal."""

    SCHEME = "repro.receipt.v1"
    FIELDS = dict(
        ledger_uri=STR,
        jsn=UINT,
        request_hash=BYTES,
        tx_hash=BYTES,
        block_hash=BYTES,
        block_height=INT,
        ledger_root=BYTES,
        timestamp=FLOAT,
    )

    ledger_uri: str
    jsn: int
    request_hash: Digest
    tx_hash: Digest
    block_hash: Digest  # latest committed block at issue time
    block_height: int
    ledger_root: Digest  # fam commitment immediately after this commit
    timestamp: float
    lsp_signature: Signature | None = None

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
