"""LSP receipts — the pi_s non-repudiation proof (§III-C).

After committing a journal, the LSP packs the three digests (*request-hash*,
*tx-hash*, *block-hash*) together with the jsn and commit timestamp into a
receipt statement and hands the receipt to the client.  The client keeps the
receipt *externally*: if the LSP later deletes or rewrites the journal, the
receipt is the evidence that convicts it (threat-B / threat-C defence).

``ledger_root`` additionally entangles the fam commitment as of this commit,
giving the receipt tim-style fine-grained coverage of the whole prefix.

One group commit is signed once (DESIGN.md §8): the LSP signs a
:class:`ReceiptBatch` — the ledger, the batch's first jsn and size, and the
Merkle root over ``leaf_hash(statement)`` of its receipts in jsn order — and
every receipt carries its :class:`~repro.merkle.proofs.MembershipProof` to
that root plus the batch signature.  A batch of one has an empty path.

The ledger keeps what it issued as :class:`ReceiptRows`, one fixed-width row
per receipt and one signature per batch, so that ``receipt_for(jsn)`` can
hand a receipt out again without keeping an object per journal.
"""

from __future__ import annotations

import struct
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Sequence

from .. import obs
from ..crypto.ecdsa import Signature
from ..crypto.hashing import EMPTY_DIGEST, Digest, leaf_hash
from ..crypto.keys import KeyPair
from ..crypto.signed import LspSigned
from ..encoding import BYTES, FLOAT, INT, STR, UINT, nested, optional
from ..merkle.proofs import MembershipProof
from ..merkle.shrubs import ShrubsAccumulator
from .blocks import Block

__all__ = ["Receipt", "ReceiptBatch", "ReceiptRows"]


@dataclass(frozen=True)
class ReceiptBatch(LspSigned):
    """What the LSP signs for one group commit: ``size`` receipts from
    ``first_jsn`` on, committed by ``root``.  ``size`` is signed because a
    bagged root alone does not bind the leaf count."""

    SCHEME = "repro.receipt_batch.v1"
    FIELDS = dict(ledger_uri=STR, first_jsn=UINT, size=UINT, root=BYTES)

    ledger_uri: str
    first_jsn: int
    size: int
    root: Digest
    lsp_signature: Signature | None = None


@dataclass(frozen=True)
class Receipt(LspSigned):
    """An acknowledgement of one committed journal: its statement, the path
    from it to its batch's root, and the batch's signature."""

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
    PROOF_FIELDS = dict(
        first_jsn=UINT, batch_size=UINT, proof=optional(nested(MembershipProof))
    )

    ledger_uri: str
    jsn: int
    request_hash: Digest
    tx_hash: Digest
    block_hash: Digest  # latest committed block at issue time
    block_height: int
    ledger_root: Digest  # fam commitment immediately after this commit
    timestamp: float
    first_jsn: int = 0
    batch_size: int = 0
    proof: MembershipProof | None = None  # leaf ``jsn - first_jsn`` of the batch
    lsp_signature: Signature | None = None  # over the batch statement

    def signed_statement(self) -> ReceiptBatch | None:
        """The batch statement this receipt's path folds to, carrying the
        batch signature; ``None`` when the path does not address this
        receipt as leaf ``jsn - first_jsn`` of ``batch_size``."""
        proof = self.proof
        if (
            proof is None
            or proof.leaf_index != self.jsn - self.first_jsn
            or proof.tree_size != self.batch_size
        ):
            return None
        root = proof.root_for(leaf_hash(self.signing_payload()))
        if root is None:
            return None
        return ReceiptBatch(
            self.ledger_uri, self.first_jsn, self.batch_size, root, self.lsp_signature
        )

    def signed_by(self, lsp_keypair: KeyPair) -> "Receipt":
        """This receipt signed as a batch of one."""
        return self.sign_batch([self], lsp_keypair)[0]

    @classmethod
    def sign_batch(cls, receipts: list["Receipt"], lsp_keypair: KeyPair) -> list["Receipt"]:
        """Sign one group commit's receipts (consecutive jsns, one ledger)
        with one LSP signature over their :class:`ReceiptBatch`."""
        first = receipts[0]
        if any(
            receipt.jsn != first.jsn + index or receipt.ledger_uri != first.ledger_uri
            for index, receipt in enumerate(receipts)
        ):
            raise ValueError("a receipt batch covers consecutive jsns of one ledger")
        tree = _tree(receipts)
        batch = ReceiptBatch(first.ledger_uri, first.jsn, len(receipts), tree.root())
        obs.inc("receipt.batches.signed")
        obs.inc("receipt.issued", len(receipts))
        signature = batch.signed_by(lsp_keypair).lsp_signature
        return [
            _in_batch(receipt, first.jsn, tree, signature) for receipt in receipts
        ]


def _tree(receipts: Sequence[Receipt]) -> ShrubsAccumulator:
    """The batch tree over ``receipts``' statements, in jsn order."""
    tree = ShrubsAccumulator()
    tree.extend([leaf_hash(receipt.signing_payload()) for receipt in receipts])
    return tree


def _in_batch(
    receipt: Receipt, first_jsn: int, tree: ShrubsAccumulator, signature: Signature
) -> Receipt:
    """``receipt`` with its path in the batch ``tree`` from ``first_jsn``
    and the batch ``signature``."""
    return replace(
        receipt,
        first_jsn=first_jsn,
        batch_size=tree.size,
        proof=tree.prove(receipt.jsn - first_jsn),
        lsp_signature=signature,
    )


#: One receipt's own fields: request_hash, tx_hash, block_height,
#: ledger_root and timestamp (112 bytes).
_ROW = struct.Struct(">32s32sq32sd")
#: One batch signature's r, s and ry.
_SIGNATURE = struct.Struct(">32s32s32s")
_DIGEST_SIZE = 32


def _row(receipt: Receipt) -> bytes:
    digests = (receipt.request_hash, receipt.tx_hash, receipt.ledger_root)
    if any(len(digest) != _DIGEST_SIZE for digest in digests):
        raise ValueError(f"receipt for jsn {receipt.jsn} does not fit a receipt row")
    return _ROW.pack(
        receipt.request_hash, receipt.tx_hash, receipt.block_height,
        receipt.ledger_root, receipt.timestamp,
    )


def _signature_row(signature: Signature | None) -> bytes:
    if signature is None or signature.ry is None:
        raise ValueError("the batch signature does not fit a receipt row")
    try:
        return _SIGNATURE.pack(
            *(
                value.to_bytes(_DIGEST_SIZE, "big")
                for value in (signature.r, signature.s, signature.ry)
            )
        )
    except OverflowError:
        raise ValueError("the batch signature does not fit a receipt row") from None


class ReceiptRows:
    """The receipts one ledger issued, as fixed-width rows in one buffer.

    A row holds what is the receipt's own; the rest is the ledger's:
    ``ledger_uri`` is fixed here, ``jsn`` is the row's position, and
    ``block_hash`` is the hash of block ``block_height``, taken from the
    ``blocks`` a read passes in.  Batches cover consecutive jsns, so a batch
    is its first jsn and its signature, kept once per batch; a read finds
    its batch by bisection and rebuilds the path from the batch's rows.  The
    rows keep no reference back to the ledger, so a dropped ledger is freed
    by reference counting alone.

    Rows cover consecutive jsns from the first receipt added: from genesis,
    or from the receipt a reopened ledger reissues for its last journal.
    Reads beside the one writer are safe: a batch's rows, signature and
    first jsn are written before the end of the rows moves past them.
    """

    def __init__(self, ledger_uri: str) -> None:
        self._uri = ledger_uri
        self._rows = bytearray()
        self._signatures = bytearray()
        self._firsts = array("q")
        self._end = 0  # one past the last jsn with a row, published last

    def __len__(self) -> int:
        return self._end - self._firsts[0] if self._firsts else 0

    def add_batch(self, receipts: Sequence[Receipt]) -> None:
        """Keep one group commit's signed receipts, in jsn order."""
        first = receipts[0]
        if self._firsts and first.jsn != self._end:
            raise ValueError(
                f"receipt for jsn {first.jsn} does not follow the rows "
                f"[{self._firsts[0]}, {self._end})"
            )
        if any(
            receipt.first_jsn != first.jsn
            or receipt.batch_size != len(receipts)
            or receipt.jsn != first.jsn + index
            or receipt.lsp_signature != first.lsp_signature
            for index, receipt in enumerate(receipts)
        ):
            raise ValueError(f"receipts from jsn {first.jsn} are not one batch")
        signature = _signature_row(first.lsp_signature)
        rows = b"".join(_row(receipt) for receipt in receipts)
        self._rows += rows
        self._signatures += signature
        self._firsts.append(first.jsn)
        self._end = first.jsn + len(receipts)

    def get(self, jsn: int, blocks: Sequence[Block]) -> Receipt | None:
        """The receipt issued for ``jsn`` (``None`` if none was), rebuilt from
        its batch's rows; ``blocks`` are the ledger's sealed blocks."""
        # The end before the batches: a batch the writer adds in between
        # is then seen as the next batch's first jsn, never as more rows.
        end = self._end
        firsts = self._firsts
        batch = bisect_right(firsts, jsn) - 1
        if batch < 0:
            return None
        first = firsts[batch]
        if batch + 1 < len(firsts):
            end = firsts[batch + 1]
        if jsn >= end:
            return None
        receipts = [self._statement(row_jsn, blocks) for row_jsn in range(first, end)]
        start = batch * _SIGNATURE.size
        r, s, ry = _SIGNATURE.unpack(self._signatures[start : start + _SIGNATURE.size])
        signature = Signature(
            int.from_bytes(r, "big"), int.from_bytes(s, "big"), int.from_bytes(ry, "big")
        )
        return _in_batch(receipts[jsn - first], first, _tree(receipts), signature)

    def _statement(self, jsn: int, blocks: Sequence[Block]) -> Receipt:
        # A copy of the row, not a view: a view would stop the writer's next
        # append from growing the buffer.
        start = (jsn - self._firsts[0]) * _ROW.size
        request_hash, tx_hash, height, root, timestamp = _ROW.unpack(
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
        )
