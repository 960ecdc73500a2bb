"""LSP receipts — the pi_s non-repudiation proof (§III-C).

After committing a journal, the LSP packs the three digests (*request-hash*,
*tx-hash*, *block-hash*) together with the jsn and commit timestamp into a
receipt, signs it, and hands it to the client.  The client keeps the receipt
*externally*: if the LSP later deletes or rewrites the journal, the receipt
is the evidence that convicts it (threat-B / threat-C defence).

``ledger_root`` additionally entangles the fam commitment as of this commit,
giving the receipt tim-style fine-grained coverage of the whole prefix.

The ledger keeps what it issued as :class:`ReceiptRows`, one fixed-width row
per receipt, so that ``receipt_for(jsn)`` can hand a receipt out again
without keeping an object per journal.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Sequence

from ..crypto.ecdsa import Signature
from ..crypto.hashing import EMPTY_DIGEST, Digest, sha256
from ..crypto.keys import KeyPair
from ..crypto.signed import LspSigned
from ..encoding import BYTES, FLOAT, INT, STR, UINT
from .blocks import Block

__all__ = ["Receipt", "ReceiptRows"]


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


#: One receipt's own fields: request_hash, tx_hash, block_height,
#: ledger_root, timestamp and the signature's r, s and ry (208 bytes).
_ROW = struct.Struct(">32s32sq32sd32s32s32s")
_DIGEST_SIZE = 32


def _row(receipt: Receipt) -> bytes:
    unfit = ValueError(f"receipt for jsn {receipt.jsn} does not fit a receipt row")
    signature = receipt.lsp_signature
    digests = (receipt.request_hash, receipt.tx_hash, receipt.ledger_root)
    if signature is None or signature.ry is None or any(
        len(digest) != _DIGEST_SIZE for digest in digests
    ):
        raise unfit
    try:
        r, s, ry = (
            value.to_bytes(_DIGEST_SIZE, "big")
            for value in (signature.r, signature.s, signature.ry)
        )
    except OverflowError:
        raise unfit from None
    return _ROW.pack(
        receipt.request_hash, receipt.tx_hash, receipt.block_height,
        receipt.ledger_root, receipt.timestamp, r, s, ry,
    )


class ReceiptRows:
    """The receipts one ledger issued, as fixed-width rows in one buffer.

    A row holds what is the receipt's own; the rest is the ledger's:
    ``ledger_uri`` is fixed here, ``jsn`` is the row's position, and
    ``block_hash`` is the hash of block ``block_height``, taken from the
    ``blocks`` a read passes in.  The rows keep no reference back to the
    ledger, so a dropped ledger is freed by reference counting alone.

    Rows cover consecutive jsns from the first receipt added: from genesis,
    or from the receipt a reopened ledger reissues for its last journal.
    Reads beside the one writer are safe: a row is written whole before a
    read can reach it.
    """

    def __init__(self, ledger_uri: str) -> None:
        self._uri = ledger_uri
        self._first = 0
        self._rows = bytearray()

    def __len__(self) -> int:
        return len(self._rows) // _ROW.size

    def add(self, receipt: Receipt) -> None:
        row = _row(receipt)
        if not self._rows:
            self._first = receipt.jsn
        elif receipt.jsn != self._first + len(self):
            raise ValueError(
                f"receipt for jsn {receipt.jsn} does not follow the rows "
                f"[{self._first}, {self._first + len(self)})"
            )
        self._rows += row

    def get(self, jsn: int, blocks: Sequence[Block]) -> Receipt | None:
        """The receipt issued for ``jsn`` (``None`` if none was), rebuilt from
        its row; ``blocks`` are the ledger's sealed blocks."""
        index = jsn - self._first
        if not 0 <= index < len(self):
            return None
        # A copy of the row, not a view: a view would stop the writer's next
        # append from growing the buffer.
        start = index * _ROW.size
        request_hash, tx_hash, height, root, timestamp, r, s, ry = _ROW.unpack(
            self._rows[start : start + _ROW.size]
        )
        return Receipt(
            ledger_uri=self._uri,
            jsn=jsn,
            request_hash=request_hash,
            tx_hash=tx_hash,
            block_hash=blocks[height].hash() if height >= 0 else EMPTY_DIGEST,
            block_height=height,
            ledger_root=root,
            timestamp=timestamp,
            lsp_signature=Signature(
                int.from_bytes(r, "big"), int.from_bytes(s, "big"), int.from_bytes(ry, "big")
            ),
        )
