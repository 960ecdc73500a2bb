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

The payload is the strict record ``SNAPSHOT`` (see :func:`Ledger.checkpoint
<repro.core.ledger.Ledger.checkpoint>` for the producer): fam/CM-Tree/cSL
state, block headers, mutation records, the occult bitmap, and the node
store's page manifest (root digest + page list) so a restore can detect that
the pages backing the saved MPT root were tampered with or lost.  A body
that passes its CRC but not the schema is damage like any other.

The sibling ``ledger.cfg`` file (the ``CONFIG`` record) persists the
:class:`LedgerConfig` at create time so ``Ledger.open`` needs no
out-of-band configuration.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

from ..crypto.multisig import MultiSignature
from ..crypto.signed import SIGNATURE
from ..encoding import BOOL, BYTES, BYTES_LIST, STR, UINT, EncodingError, Record
from ..encoding import dict_of, inline, list_of, mapped, nested, nullable, row
from ..storage.checksum import crc32c
from .blocks import Block
from .errors import SnapshotError
from .occult import OccultRecord

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


_LEVELS = list_of(list_of(nullable(BYTES)))
_MULTISIG = mapped(
    inline(Record(digest=BYTES, signers=dict_of(SIGNATURE))),
    lambda fields: MultiSignature(fields["digest"], fields["signers"]),
    lambda sig: {"digest": sig.digest, "signers": sig.signatures},
)

#: A checkpoint's body.  Values load typed: blocks as :class:`Block`,
#: occult records as ``(jsn, OccultRecord, MultiSignature)``.
SNAPSHOT = Record(
    format=SNAPSHOT_FORMAT,
    uri=STR,
    jsn_count=UINT,
    pending_start=UINT,
    genesis_start=UINT,
    fam=inline(Record(fractal_height=UINT, size=UINT, epoch_roots=BYTES_LIST,
                       erased_epochs=list_of(UINT), epochs=list_of(_LEVELS))),
    cmtree=inline(Record(root=BYTES, clues=list_of(inline(Record(name=STR, levels=_LEVELS))))),
    cluesl=list_of(row(STR, list_of(UINT))),
    blocks=list_of(mapped(BYTES, Block.from_bytes, Block.header_bytes)),
    time_journals=list_of(UINT),
    occult_bits=list_of(UINT),
    occult_records=list_of(row(UINT, nested(OccultRecord), _MULTISIG)),
    erase_queue=list_of(UINT),
    page_manifest=list_of(row(STR, UINT, UINT)),
    mpt_nodes=list_of(row(BYTES, BYTES)),
)

#: ``ledger.cfg``: every :class:`LedgerConfig` field but ``data_dir``.
CONFIG = Record(
    uri=STR,
    fractal_height=UINT,
    block_size=UINT,
    require_client_signature=BOOL,
    observability=BOOL,
    node_store=STR,
    cache_pages=UINT,
    shards=UINT,
)


def _commit_file(path: Path, *chunks: bytes | bytearray) -> None:
    """The §9 page-commit discipline for a whole small file."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
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
    """Atomically persist a checkpoint snapshot: the header and the payload
    are two writes of one file, so the payload is held once."""
    payload = bytearray()
    SNAPSHOT.write(state, payload)
    _commit_file(Path(path), SNAPSHOT_MAGIC + _CRC.pack(crc32c(payload)), payload)


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
        return SNAPSHOT.decode(payload)
    except EncodingError as exc:
        raise SnapshotError(f"{path.name}: undecodable snapshot: {exc}") from exc


def write_config_file(path: str | os.PathLike[str], config) -> None:
    """Persist a :class:`LedgerConfig` next to the data it configures."""
    _commit_file(Path(path), CONFIG.encode(vars(config)))


def load_config_file(path: str | os.PathLike[str], data_dir: str | None = None):
    """Reconstruct the :class:`LedgerConfig` persisted by ``Ledger`` create."""
    from .ledger import LedgerConfig  # local: avoid import cycle

    path = Path(path)
    if not path.exists():
        raise SnapshotError(f"no ledger config at {path}")
    try:
        fields = CONFIG.decode(path.read_bytes())
    except EncodingError as exc:
        raise SnapshotError(f"{path.name}: undecodable ledger config: {exc}") from exc
    return LedgerConfig(**fields, data_dir=data_dir)
