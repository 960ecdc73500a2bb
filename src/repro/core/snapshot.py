"""Checkpoint snapshot files — O(delta) ledger reopen (DESIGN.md §13).

A snapshot is *derived* state: everything in it can be rebuilt by replaying
the journal stream from genesis.  Its only job is to make reopening cheap —
``Ledger.open`` restores the snapshot and replays just the stream suffix
``[snapshot.jsn_count, len(stream))``.  Consequently corruption here is never
fatal (:class:`~repro.core.errors.SnapshotError` -> full replay fallback),
and writing one rides the same §9 commit discipline as every other durable
artifact: tmp -> flush -> fsync -> rename -> directory fsync.

File layout::

    magic "LDBSNAP1" | payload_crc u32 (CRC32C) | payload (repro.encoding TLV)

The payload is a plain dict (see :func:`Ledger.checkpoint
<repro.core.ledger.Ledger.checkpoint>` for the producer): fam/CM-Tree/cSL
state, block headers, mutation records, the occult bitmap, and the node
store's page manifest (root digest + page list) so a restore can detect that
the pages backing the saved MPT root were tampered with or lost.

The sibling ``ledger.cfg`` file persists the :class:`LedgerConfig` at create
time so ``Ledger.open`` needs no out-of-band configuration.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from ..encoding import EncodingError, decode, encode
from ..storage.checksum import crc32c
from .errors import SnapshotError

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_FORMAT",
    "write_snapshot",
    "load_snapshot",
    "write_config_file",
    "load_config_file",
]

SNAPSHOT_MAGIC = b"LDBSNAP1"
SNAPSHOT_FORMAT = 1
_CRC = struct.Struct(">I")


def _commit_file(path: Path, data: bytes) -> None:
    """The §9 page-commit discipline for a whole small file."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    try:
        fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def write_snapshot(path: str | os.PathLike[str], state: dict) -> None:
    """Atomically persist a checkpoint snapshot."""
    payload = encode(state)
    _commit_file(Path(path), SNAPSHOT_MAGIC + _CRC.pack(crc32c(payload)) + payload)


def load_snapshot(path: str | os.PathLike[str]) -> dict:
    """Load and validate a snapshot; :class:`SnapshotError` if unusable."""
    path = Path(path)
    if not path.exists():
        raise SnapshotError(f"no snapshot at {path}")
    raw = path.read_bytes()
    if len(raw) < len(SNAPSHOT_MAGIC) + _CRC.size:
        raise SnapshotError(f"{path.name}: truncated snapshot")
    if raw[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise SnapshotError(f"{path.name}: bad snapshot magic")
    (expected_crc,) = _CRC.unpack_from(raw, len(SNAPSHOT_MAGIC))
    payload = memoryview(raw)[len(SNAPSHOT_MAGIC) + _CRC.size :]
    if crc32c(payload) != expected_crc:
        raise SnapshotError(f"{path.name}: snapshot checksum mismatch")
    try:
        state = decode(payload)
    except EncodingError as exc:
        raise SnapshotError(f"{path.name}: undecodable snapshot: {exc}") from exc
    if not isinstance(state, dict) or state.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path.name}: unsupported snapshot format")
    return state


def write_config_file(path: str | os.PathLike[str], config) -> None:
    """Persist a :class:`LedgerConfig` next to the data it configures."""
    from .ledger import LedgerConfig  # local: avoid import cycle

    if not isinstance(config, LedgerConfig):
        raise TypeError(f"expected LedgerConfig, got {type(config).__name__}")
    fields = {
        "uri": config.uri,
        "fractal_height": config.fractal_height,
        "block_size": config.block_size,
        "require_client_signature": config.require_client_signature,
        "observability": config.observability,
        "node_store": config.node_store,
        "cache_pages": config.cache_pages,
        "shards": config.shards,
    }
    _commit_file(Path(path), encode(fields))


def load_config_file(path: str | os.PathLike[str], data_dir: str | None = None):
    """Reconstruct the :class:`LedgerConfig` persisted by ``Ledger`` create."""
    from .ledger import LedgerConfig  # local: avoid import cycle

    path = Path(path)
    if not path.exists():
        raise SnapshotError(f"no ledger config at {path}")
    try:
        fields = decode(path.read_bytes())
    except EncodingError as exc:
        raise SnapshotError(f"{path.name}: undecodable ledger config: {exc}") from exc
    return LedgerConfig(
        uri=str(fields["uri"]),
        fractal_height=fields["fractal_height"],
        block_size=fields["block_size"],
        require_client_signature=fields["require_client_signature"],
        observability=fields["observability"],
        node_store=str(fields["node_store"]),
        cache_pages=fields["cache_pages"],
        data_dir=data_dir,
        shards=fields.get("shards", 1),  # configs written before sharding
    )
