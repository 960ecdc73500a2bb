"""bim — the block-intensive ledger model (baseline).

Bitcoin-style organisation (§II-A): transactions are batched into blocks,
each block carries the Merkle root of its transactions, and block headers are
hash-chained.  A light client stores all headers as block-oriented trusted
anchors (*boa*, O(#blocks) space) and verifies a transaction with an SPV
proof: the in-block Merkle path plus the anchored header.

The in-block tree is the classic padded Merkle tree (odd node duplicated up),
distinct from the Shrubs frontier model, matching Bitcoin's construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import EMPTY_DIGEST, Digest, block_hash, leaf_hash, node_hash
from repro.encoding import encode
from repro.merkle.proofs import PathStep, fold_path

__all__ = [
    "BlockHeader",
    "SPVProof",
    "BimLedger",
    "LightClient",
    "merkle_root_padded",
    "merkle_path_padded",
]


def merkle_root_padded(leaves: list[Digest]) -> Digest:
    """Bitcoin-style Merkle root: odd trailing node is paired with itself."""
    if not leaves:
        return EMPTY_DIGEST
    level = list(leaves)
    while len(level) > 1:
        if len(level) & 1:
            level.append(level[-1])
        level = [node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def merkle_path_padded(leaves: list[Digest], index: int) -> list[PathStep]:
    """Merkle path of ``leaves[index]`` in the padded in-block tree."""
    if not 0 <= index < len(leaves):
        raise IndexError(f"index {index} out of range")
    path: list[PathStep] = []
    level = list(leaves)
    j = index
    while len(level) > 1:
        if len(level) & 1:
            level.append(level[-1])
        sibling = j ^ 1
        path.append(PathStep(level[sibling], sibling_on_left=bool(j & 1)))
        level = [node_hash(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        j >>= 1
    return path


@dataclass(frozen=True)
class BlockHeader:
    """A chained block header (the light client's unit of storage)."""

    height: int
    previous_hash: Digest
    merkle_root: Digest
    timestamp: float
    tx_count: int

    def header_hash(self) -> Digest:
        return block_hash(
            encode(
                {
                    "height": self.height,
                    "previous_hash": self.previous_hash,
                    "merkle_root": self.merkle_root,
                    "timestamp": self.timestamp,
                    "tx_count": self.tx_count,
                }
            )
        )


@dataclass(frozen=True)
class SPVProof:
    """Simplified-payment-verification proof: block height + in-block path."""

    block_height: int
    tx_index: int
    path: list[PathStep]


@dataclass
class _Block:
    header: BlockHeader
    tx_digests: list[Digest] = field(default_factory=list)


class BimLedger:
    """A full node holding complete blocks."""

    def __init__(self, block_capacity: int = 128, genesis_timestamp: float = 0.0) -> None:
        if block_capacity < 1:
            raise ValueError("block capacity must be >= 1")
        self.block_capacity = block_capacity
        self._blocks: list[_Block] = []
        self._pending: list[Digest] = []
        self._pending_timestamp = genesis_timestamp

    @property
    def height(self) -> int:
        """Number of committed blocks."""
        return len(self._blocks)

    @property
    def size(self) -> int:
        """Total committed transactions."""
        return sum(block.header.tx_count for block in self._blocks)

    def append(self, payload: bytes, timestamp: float = 0.0) -> tuple[int, int]:
        """Add a transaction; returns (block_height, tx_index) once committed.

        Blocks auto-commit when they reach capacity — like Bitcoin's "large
        number of blocks each containing a small number of transactions"
        (§III-A1), the capacity bounds commit latency.
        """
        self._pending.append(leaf_hash(payload))
        self._pending_timestamp = timestamp
        position = (len(self._blocks), len(self._pending) - 1)
        if len(self._pending) >= self.block_capacity:
            self.commit_block()
        return position

    def commit_block(self) -> BlockHeader | None:
        """Seal the pending transactions into a block."""
        if not self._pending:
            return None
        previous = (
            self._blocks[-1].header.header_hash() if self._blocks else EMPTY_DIGEST
        )
        header = BlockHeader(
            height=len(self._blocks),
            previous_hash=previous,
            merkle_root=merkle_root_padded(self._pending),
            timestamp=self._pending_timestamp,
            tx_count=len(self._pending),
        )
        self._blocks.append(_Block(header=header, tx_digests=self._pending))
        self._pending = []
        return header

    def header(self, height: int) -> BlockHeader:
        return self._blocks[height].header

    def headers(self) -> list[BlockHeader]:
        return [block.header for block in self._blocks]

    def get_proof(self, block_height: int, tx_index: int) -> SPVProof:
        """SPV proof for a committed transaction."""
        block = self._blocks[block_height]
        return SPVProof(
            block_height=block_height,
            tx_index=tx_index,
            path=merkle_path_padded(block.tx_digests, tx_index),
        )

    def tx_digest(self, block_height: int, tx_index: int) -> Digest:
        return self._blocks[block_height].tx_digests[tx_index]


class LightClient:
    """A *boa* light client: stores validated headers, verifies via SPV.

    Header space grows O(n) with block count — the storage cost the paper
    charges against *bim* (§III-A1).
    """

    def __init__(self) -> None:
        self._headers: list[BlockHeader] = []

    @property
    def anchored_height(self) -> int:
        return len(self._headers)

    def sync_headers(self, headers: list[BlockHeader]) -> None:
        """Download and chain-validate new headers (the one-time block check)."""
        for header in headers:
            if header.height != len(self._headers):
                raise ValueError(
                    f"expected header at height {len(self._headers)}, got {header.height}"
                )
            expected_previous = (
                self._headers[-1].header_hash() if self._headers else EMPTY_DIGEST
            )
            if header.previous_hash != expected_previous:
                raise ValueError(f"broken header chain at height {header.height}")
            self._headers.append(header)

    def verify(self, payload: bytes, proof: SPVProof) -> bool:
        """SPV-verify a transaction against the anchored headers."""
        if not 0 <= proof.block_height < len(self._headers):
            return False
        root = fold_path(leaf_hash(payload), proof.path)
        return root == self._headers[proof.block_height].merkle_root

    def storage_bytes(self) -> int:
        """Approximate anchor storage (fixed-size header per block)."""
        return len(self._headers) * 80  # Bitcoin-style 80-byte headers
