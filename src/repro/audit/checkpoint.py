"""Resumable audit checkpoints.

A full Dasein audit over a large ledger can run for minutes; a killed audit
that restarts from genesis repays everything it already verified.  The
engine therefore snapshots its replay state after verified block ranges:
everything needed to resume the fold mid-stream —

* the fam replayer frontier (epoch roots + live-epoch peaks), exactly the
  shape a pseudo-genesis snapshot uses;
* the per-clue frontier accumulators (the CM-Tree state rebuilds from
  these, the same way the purge path rebuilds it);
* the block cursor (previous hash + index) and report counters;
* the jsns of time journals already collected for the *when* phase, and the
  replayed root at the receipt's jsn once the fold passes it;
* the outcomes of the pre-replay steps (certificates, Π1, Π2), so a resumed
  report is byte-identical to an uninterrupted one.

Trust note: a checkpoint is the **auditor's own** state, stored on the
auditor's disk — resuming trusts nothing the LSP produced.  Restarting from
a checkpoint asserts "I already verified everything below ``next_jsn``",
which holds exactly when the checkpoint file is the auditor's.

Durability: :meth:`CheckpointStore.save` writes a checksummed JSON envelope
to a temp file, fsyncs, then atomically renames over the previous
checkpoint — a crash mid-save leaves the old checkpoint intact, and
:meth:`load` rejects torn or bit-flipped files (falling back to a fresh
audit rather than resuming from garbage).  The checksum is unkeyed, so it
proves no origin: a body whose fields have the wrong type, range or shape
is refused the same way.  ``file_factory`` admits the fault-injection
harness (:mod:`repro.storage.faults`) for crash tests.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from types import UnionType
from typing import Any, Callable

from ..crypto.hashing import DIGEST_SIZE

__all__ = ["AuditCheckpoint", "CheckpointStore", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 1


#: The JSON body's fields and their kinds: ``int`` is a non-negative
#: integer, ``bytes`` a hex digest, ``[k]`` a list of ``k``, ``(k, ...)`` a
#: fixed-length list, ``{str: k}`` an object, ``k | None`` nullable.
_SCHEMA: dict[str, Any] = {
    "uri": str,
    "fractal_height": int,
    "genesis_start": int,
    "next_jsn": int,
    "fam_epoch_roots": [bytes],
    "fam_live_size": int,
    "fam_live_peaks": [bytes],
    "fam_journal_count": int,
    "clue_snapshot": {str: (int, [bytes])},
    "previous_block_hash": bytes,
    "block_index": int,
    "journals_replayed": int,
    "blocks_verified": int,
    "time_jsns": [int],
    "receipt_jsn": int | None,
    "receipt_root": bytes | None,
    "pre_steps": [(str, bool, str)],
}


def _read(value: Any, kind: Any) -> Any:
    """``value`` read from JSON as ``kind`` (see :data:`_SCHEMA`).

    Raises:
        ValueError: ``value`` is not of that kind.
    """
    if isinstance(kind, UnionType):
        return None if value is None else _read(value, kind.__args__[0])
    if isinstance(kind, dict):
        ((key_kind, item_kind),) = kind.items()
        if not isinstance(value, dict):
            raise ValueError("checkpoint field is not an object")
        return {_read(key, key_kind): _read(item, item_kind) for key, item in value.items()}
    if isinstance(kind, (list, tuple)):
        if not isinstance(value, list) or (isinstance(kind, tuple) and len(value) != len(kind)):
            raise ValueError("checkpoint field is not a list of its kind")
        if isinstance(kind, list):
            return [_read(item, kind[0]) for item in value]
        return tuple(_read(item, item_kind) for item, item_kind in zip(value, kind))
    if kind is bytes:
        digest = bytes.fromhex(_read(value, str))
        if len(digest) != DIGEST_SIZE:
            raise ValueError("checkpoint digest has the wrong length")
        return digest
    if type(value) is not kind or (kind is int and value < 0):
        raise ValueError(f"checkpoint field is not a {kind.__name__} in range")
    return value


def _json(value: Any) -> Any:
    """``value`` as the JSON body holds it: bytes as hex, tuples as lists."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json(item) for item in value]
    return value


@dataclass
class AuditCheckpoint:
    """Replay state as of ``next_jsn`` (everything below it is verified)."""

    uri: str
    fractal_height: int
    genesis_start: int
    next_jsn: int
    fam_epoch_roots: list[bytes]
    fam_live_size: int
    fam_live_peaks: list[bytes]
    fam_journal_count: int
    clue_snapshot: dict[str, tuple[int, list[bytes]]]
    previous_block_hash: bytes
    block_index: int
    journals_replayed: int
    blocks_verified: int
    time_jsns: list[int] = field(default_factory=list)
    receipt_jsn: int | None = None
    receipt_root: bytes | None = None
    pre_steps: list[tuple[str, bool, str]] = field(default_factory=list)

    def matches_view(self, view) -> bool:
        """Does this checkpoint belong to (a later state of) ``view``?"""
        return (
            self.uri == view.uri
            and self.fractal_height == view.fractal_height
            and self.genesis_start == view.genesis_start
            and view.genesis_start <= self.next_jsn
            and self.next_jsn <= view.genesis_start + len(view.entries)
            and self.block_index
            <= sum(1 for block in view.blocks if block.end_jsn > view.genesis_start)
        )

    def to_dict(self) -> dict:
        return {"version": CHECKPOINT_VERSION, **_json(vars(self))}

    @classmethod
    def from_dict(cls, data: Any) -> "AuditCheckpoint":
        """Read a checkpoint body, checking every field's type and range.

        Raises:
            ValueError: a field is missing, mistyped or out of range, or the
                counters disagree with the cursor the way no save writes them.
        """
        if not isinstance(data, dict) or data.get("version") != CHECKPOINT_VERSION:
            raise ValueError("unsupported checkpoint version")
        checkpoint = cls(**{name: _read(data[name], kind) for name, kind in _SCHEMA.items()})
        # What every save writes: the fold covered [genesis_start, next_jsn),
        # one fam leaf and one replayed journal per jsn, one verified block
        # per block passed, time journals in jsn order inside that range,
        # frontiers with one peak per set bit of their size.
        low, high = checkpoint.genesis_start, checkpoint.next_jsn
        frontiers = [
            (checkpoint.fam_live_size, checkpoint.fam_live_peaks),
            *checkpoint.clue_snapshot.values(),
        ]
        if not (
            low <= high
            and checkpoint.fam_journal_count == high
            and checkpoint.journals_replayed == high - low
            and checkpoint.blocks_verified == checkpoint.block_index
            and checkpoint.time_jsns == sorted(set(checkpoint.time_jsns))
            and all(low <= jsn < high for jsn in checkpoint.time_jsns)
            and checkpoint.fractal_height <= 64
            and checkpoint.fam_live_size <= 1 << checkpoint.fractal_height
            and all(len(peaks) == bin(size).count("1") for size, peaks in frontiers)
        ):
            raise ValueError("checkpoint counters disagree with its cursor")
        return checkpoint


class CheckpointStore:
    """Durable slot for the latest :class:`AuditCheckpoint`.

    ``file_factory`` wraps the raw temp-file handle (crash injection via
    :class:`~repro.storage.faults.FaultyFile`); production callers leave it
    ``None``.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        file_factory: Callable | None = None,
    ) -> None:
        self.path = Path(path)
        self._file_factory = file_factory

    def save(self, checkpoint: AuditCheckpoint) -> None:
        """Atomically persist ``checkpoint`` (old slot survives any crash)."""
        payload = checkpoint.to_dict()
        body = json.dumps(payload, sort_keys=True)
        envelope = json.dumps(
            {"sha256": hashlib.sha256(body.encode()).hexdigest(), "payload": body}
        ).encode()
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        raw = open(tmp, "wb")
        handle = self._file_factory(raw) if self._file_factory else raw
        try:
            handle.write(envelope)
            handle.flush()
            if hasattr(handle, "fsync"):
                handle.fsync()
            else:
                os.fsync(handle.fileno())
        finally:
            handle.close()
        os.replace(tmp, self.path)

    def load(self) -> AuditCheckpoint | None:
        """The last durable checkpoint, or None (missing, torn, corrupt)."""
        try:
            envelope = json.loads(self.path.read_bytes())
            body = envelope["payload"]
            if hashlib.sha256(body.encode()).hexdigest() != envelope["sha256"]:
                return None
            return AuditCheckpoint.from_dict(json.loads(body))
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            return None

    def clear(self) -> None:
        """Remove the checkpoint (a completed audit needs no resume point)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
