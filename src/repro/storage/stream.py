"""Append-only record streams — LedgerDB's stream file system substrate.

LedgerDB "implements a stream file system ... to manage journals" (§II-C).
A :class:`Stream` is an append-only sequence of byte records addressed by a
dense integer offset (the journal stream is addressed by jsn).  Two backends
are provided:

* :class:`MemoryStream` — list-backed, used by tests and benchmarks;
* :class:`FileStream`  — a crash-consistent, corruption-detecting log of
  checksummed records in a single file with an in-memory offset index.

Streams support *erasure* of individual records (required by occult's
asynchronous data reorganisation and by purge): an erased slot keeps its
offset but its payload is gone.  Erasure is exposed separately from append so
that the ledger layer can enforce its multi-signature prerequisites first.

Crash-consistency model (DESIGN.md §9)
--------------------------------------

The on-disk format is::

    superblock := b"LDBSTRM2"                                            (8 bytes)
    record     := length:u32 | flags:u8 | pcrc:u32 | hcrc:u32 | payload  (13 + length)

``flags`` carries two bits: ``ERASED`` (payload scrubbed in place) and
``COMMIT`` (this record terminates a commit — set on the *last* record of
every ``append_many`` batch, a single append being a batch of one, making
the batch's final header its commit epilogue).  ``pcrc`` is the CRC32C of
the payload (zero for erased records, whose scrubbed payload is
don't-care); ``hcrc`` is the CRC32C of the preceding nine header bytes,
making the header self-validating — crucially, a corrupted *length* field
can never masquerade as a torn tail and silently swallow the committed
records behind it.

``open()`` scans and verifies the whole file:

* an incomplete final record (header or payload cut short, with every
  header that *is* complete passing its ``hcrc``) is a **torn tail** — the
  crash happened mid-write — and is truncated away;
* intact trailing records *after the last COMMIT record* belong to a batch
  whose commit epilogue never reached the disk and are truncated with it
  (this is the atomicity half of group commit: a batch recovers all-or-
  nothing);
* any checksum mismatch — ``hcrc`` on a complete header, ``pcrc`` on a
  complete record — is **corruption**, wherever it sits, and raises
  :class:`StreamCorruptionError` with the record offset and a precise
  reason: corruption is never silently returned as data, and because CRC32C
  detects all single-bit and sub-32-bit-burst errors, no single flipped bit
  anywhere in the file can alias into a valid parse.

The fault model assumes a torn write persists some *prefix* of the issued
bytes (standard sector-append semantics) and that the 13-byte record header
rewrite performed by :meth:`FileStream.erase` is atomic (headers are far
smaller than a 512-byte sector).  See :mod:`repro.storage.faults` for the
injection harness that exercises every crash point of this model.

A write or fsync that *fails* (``OSError``: a full disk, a device error)
is not a crash: the process lives on and will append again, so the failed
batch's bytes are cut off before the error propagates — otherwise the next
batch would land behind them and a reopen would read them as records.  If
they cannot be cut off, the stream fail-stops: every later append raises
:class:`StreamError` naming the first error.
"""

from __future__ import annotations

import os
import struct
import threading
from array import array
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import BinaryIO, Iterator

from .. import obs
from .checksum import crc32c

__all__ = [
    "Stream",
    "MemoryStream",
    "FileStream",
    "StreamError",
    "StreamCorruptionError",
    "RecordErasedError",
    "OpenReport",
]


class StreamError(Exception):
    """Raised on out-of-range access or backend corruption."""


class StreamCorruptionError(StreamError):
    """The backing file holds bytes that cannot be honest data.

    ``offset`` is the record slot (or byte position, for framing damage
    before any record parses) where verification failed; ``reason`` states
    the exact check that failed.  This is deliberately *not* recoverable:
    mid-stream corruption means the ledger's durable history was tampered
    with or rotted, and only an auditor with external evidence (receipts,
    anchored roots) can adjudicate what was lost.
    """

    def __init__(self, offset: int, reason: str, *, path: str | None = None) -> None:
        where = f" in {path}" if path else ""
        super().__init__(f"stream corrupt at record {offset}{where}: {reason}")
        self.offset = offset
        self.reason = reason
        self.path = path


class RecordErasedError(StreamError):
    """Raised when reading a record that has been physically erased."""

    def __init__(self, offset: int) -> None:
        super().__init__(f"record at offset {offset} has been erased")
        self.offset = offset


@dataclass(frozen=True)
class OpenReport:
    """What :class:`FileStream` did to the file while opening it.

    A clean open reports zeros everywhere.  After a crash, ``truncated_*``
    describe the torn/uncommitted tail that was rolled back (the pre-commit
    state the ledger recovers to) and ``scrubbed_records`` counts interrupted
    erasures whose payload zeroing was completed.
    """

    records: int = 0
    truncated_records: int = 0
    truncated_bytes: int = 0
    truncation_reason: str = ""
    scrubbed_records: tuple[int, ...] = field(default=())

    @property
    def clean(self) -> bool:
        return self.truncated_records == 0 and self.truncated_bytes == 0


class Stream(ABC):
    """Abstract append-only record stream."""

    def append(self, record: bytes) -> int:
        """Append ``record``; return its offset (0-based, dense)."""
        return self.append_many([record])[0]

    @abstractmethod
    def append_many(self, records: list[bytes]) -> list[int]:
        """Append several records as one commit; return their offsets, in
        order.  The only write: a durable backend pays one flush/fsync per
        call — the group-commit half of ``Ledger.append_batch``."""

    @abstractmethod
    def read(self, offset: int) -> bytes:
        """Read the record at ``offset``.

        Raises :class:`StreamError` for out-of-range offsets and
        :class:`RecordErasedError` for erased slots.
        """

    @abstractmethod
    def erase(self, offset: int) -> None:
        """Physically erase the record at ``offset`` (idempotent)."""

    @abstractmethod
    def is_erased(self, offset: int) -> bool:
        """True if the slot exists but its payload was erased."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of slots ever appended (erased slots still count)."""

    def iter_records(self, start: int = 0, stop: int | None = None) -> Iterator[tuple[int, bytes]]:
        """Yield ``(offset, record)`` for live records in ``[start, stop)``."""
        end = len(self) if stop is None else min(stop, len(self))
        for offset in range(start, end):
            if not self.is_erased(offset):
                yield offset, self.read(offset)

    def _check_offset(self, offset: int) -> None:
        if not 0 <= offset < len(self):
            raise StreamError(f"offset {offset} out of range [0, {len(self)})")


class MemoryStream(Stream):
    """List-backed stream; erased slots hold ``None``."""

    def __init__(self) -> None:
        self._records: list[bytes | None] = []

    def append_many(self, records: list[bytes]) -> list[int]:
        first = len(self._records)
        self._records.extend(bytes(record) for record in records)
        return list(range(first, len(self._records)))

    def read(self, offset: int) -> bytes:
        self._check_offset(offset)
        record = self._records[offset]
        if record is None:
            raise RecordErasedError(offset)
        return record

    def erase(self, offset: int) -> None:
        self._check_offset(offset)
        self._records[offset] = None

    def is_erased(self, offset: int) -> bool:
        self._check_offset(offset)
        return self._records[offset] is None

    def __len__(self) -> int:
        return len(self._records)


# FileStream record layout: [u32 length][u8 flags][u32 pcrc][u32 hcrc][payload].
_HEADER = struct.Struct(">IBII")
_HEADER_PREFIX = struct.Struct(">IBI")  # the hcrc-covered fixed part
_MAGIC = b"LDBSTRM2"
_FLAG_ERASED = 0x01
_FLAG_COMMIT = 0x02
_KNOWN_FLAGS = _FLAG_ERASED | _FLAG_COMMIT


def _pack_record_header(length: int, flags: int, payload: bytes) -> bytes:
    """Serialize a header: payload CRC (zero for erased) + header CRC."""
    pcrc = 0 if flags & _FLAG_ERASED else crc32c(payload)
    hcrc = crc32c(_HEADER_PREFIX.pack(length, flags, pcrc))
    return _HEADER.pack(length, flags, pcrc, hcrc)


def _header_crc_ok(length: int, flags: int, pcrc: int, hcrc: int) -> bool:
    return hcrc == crc32c(_HEADER_PREFIX.pack(length, flags, pcrc))


class FileStream(Stream):
    """Durable, crash-consistent stream of checksummed records in one file.

    Erasure overwrites the payload bytes with zeros and rewrites the record's
    header in place (flags + checksum), so offsets of later records are
    unaffected; the header is rewritten *before* the payload is scrubbed, so
    a crash mid-erase recovers as an erased record whose scrub ``open()``
    completes.

    With ``durable=True`` every ``append_many`` (and erase) is followed by an
    ``fsync``, making commits crash-safe at ~100 us a piece: a *single* fsync
    for the whole batch — the classic WAL group-commit amortisation.  The
    COMMIT flag on the batch's final record is the commit epilogue: on
    reopen, a batch missing it rolls back whole.

    Concurrency: any number of threads may :meth:`read` beside one another
    and beside a writer.  Reads are positional (``os.pread``) and never
    touch the file object's shared offset; a record becomes readable — its
    index entry is published — only after its bytes have been flushed to the
    OS, so a reader sees a record whole or not at all.  Writers (append,
    erase) are serialised among themselves by one lock.

    ``file_factory`` lets a test harness interpose on the underlying file
    object (see :class:`repro.storage.faults.FaultyFile`); production code
    never passes it.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        durable: bool = False,
        file_factory=None,
    ) -> None:
        self._path = os.fspath(path)
        self._durable = durable
        # The offset index, rebuilt on open: each record header's file
        # position, its payload length and an erased flag, as flat columns.
        self._positions = array("q")
        self._lengths = array("q")
        self._erased = bytearray()
        self._write_lock = threading.Lock()
        #: The write error whose bytes could not be cut off (fail-stop).
        self._failed: OSError | None = None
        mode = "r+b" if os.path.exists(self._path) else "w+b"
        raw: BinaryIO = open(self._path, mode)
        self._file = file_factory(raw) if file_factory is not None else raw
        try:
            with obs.span("storage.open_scan") as sp:
                self.open_report = self._load_index()
                sp.add("records", self.open_report.records)
        except BaseException:
            self._file.close()
            raise

    # ------------------------------------------------------------- open scan

    def _load_index(self) -> OpenReport:
        self._file.seek(0, os.SEEK_END)
        size = self._file.tell()
        if size < len(_MAGIC):
            # A fresh file, or a crash during creation before the superblock
            # was durable: (re)write the superblock from scratch.
            self._file.seek(0)
            self._file.truncate(0)
            self._file.write(_MAGIC)
            self._flush()
            return OpenReport()
        self._file.seek(0)
        if self._file.read(len(_MAGIC)) != _MAGIC:
            raise StreamCorruptionError(
                0, "bad superblock magic (not a stream file, or header rot)",
                path=self._path,
            )

        position = len(_MAGIC)
        scrubbed: list[int] = []
        # End position of the last record carrying the COMMIT flag; records
        # beyond it belong to a batch whose epilogue never hit the disk.
        committed_end = position
        committed_count = 0
        torn_reason = ""
        while position < size:
            header = self._file.read(_HEADER.size)
            if len(header) < _HEADER.size:
                torn_reason = (
                    f"torn record header at byte {position} "
                    f"({len(header)} of {_HEADER.size} bytes)"
                )
                break
            length, flags, pcrc, hcrc = _HEADER.unpack(header)
            offset = len(self._positions)
            # The header checksum first: with a self-validated header, a
            # corrupted length field can never fake a torn tail, so any
            # truncation below provably discards only uncommitted bytes.
            if not _header_crc_ok(length, flags, pcrc, hcrc):
                raise StreamCorruptionError(
                    offset, "header checksum mismatch", path=self._path
                )
            if flags & ~_KNOWN_FLAGS:
                raise StreamCorruptionError(
                    offset, f"unknown flag bits 0x{flags & ~_KNOWN_FLAGS:02x}",
                    path=self._path,
                )
            end = position + _HEADER.size + length
            if end > size:
                torn_reason = (
                    f"torn record payload at byte {position} "
                    f"(need {length}, have {size - position - _HEADER.size})"
                )
                break
            if flags & _FLAG_ERASED:
                # Complete an interrupted erasure: the header committed the
                # erase, so the payload must end up zeroed (idempotent).
                payload = self._file.read(length)
                if payload.strip(b"\x00"):
                    self._file.seek(position + _HEADER.size)
                    self._file.write(b"\x00" * length)
                    scrubbed.append(offset)
            else:
                payload = self._file.read(length)
                if pcrc != crc32c(payload):
                    raise StreamCorruptionError(
                        offset, "payload checksum mismatch", path=self._path
                    )
            self._positions.append(position)
            self._lengths.append(length)
            self._erased.append(flags & _FLAG_ERASED)
            position = end
            if flags & _FLAG_COMMIT:
                committed_end = end
                committed_count = len(self._positions)

        truncated_records = len(self._positions) - committed_count
        truncated_bytes = size - committed_end
        if truncated_bytes:
            if not torn_reason:
                torn_reason = (
                    f"{truncated_records} intact record(s) past the last "
                    "commit epilogue (uncommitted batch tail)"
                )
            # Roll the file back to the last committed record boundary: the
            # torn/uncommitted tail never happened.
            del self._positions[committed_count:]
            del self._lengths[committed_count:]
            del self._erased[committed_count:]
            self._file.seek(committed_end)
            self._file.truncate(committed_end)
            self._flush()
        if scrubbed and not truncated_bytes:
            self._flush()
        return OpenReport(
            records=len(self._positions),
            truncated_records=truncated_records,
            truncated_bytes=truncated_bytes,
            truncation_reason=torn_reason if truncated_bytes else "",
            scrubbed_records=tuple(scrubbed),
        )

    # ------------------------------------------------------------ durability

    def _flush(self) -> None:
        self._file.flush()
        if self._durable:
            self._fsync()

    def _fsync(self) -> None:
        # A fault-injecting wrapper intercepts fsync as a first-class op;
        # plain files go through os.fsync.
        with obs.span("storage.fsync"):
            fsync = getattr(self._file, "fsync", None)
            if fsync is not None:
                fsync()
            else:
                os.fsync(self._file.fileno())

    # --------------------------------------------------------------- appends

    def _publish(self, positions: list[int], lengths: list[int]) -> list[int]:
        """Make flushed records readable.  ``_positions`` goes last: its
        length is what admits an offset, so the other columns must be there."""
        first = len(self._positions)
        self._lengths.extend(lengths)
        self._erased.extend(bytes(len(lengths)))
        self._positions.extend(positions)
        return list(range(first, first + len(positions)))

    def append_many(self, records: list[bytes]) -> list[int]:
        if not records:
            return []
        with obs.span("storage.append_many") as sp, self._write_lock:
            if self._failed is not None:
                raise StreamError(
                    f"stream {self._path} is stopped: a failed write could not "
                    f"be undone ({self._failed})"
                )
            sp.add("records", len(records))
            self._file.seek(0, os.SEEK_END)
            start = position = self._file.tell()
            chunks: list[bytes] = []
            positions: list[int] = []
            last = len(records) - 1
            for index, record in enumerate(records):
                # Only the batch's final record carries the commit epilogue: a
                # reopen after a crash anywhere inside this write rolls the
                # whole batch back (all-or-nothing group commit).
                flags = _FLAG_COMMIT if index == last else 0
                chunks.append(_pack_record_header(len(record), flags, record))
                chunks.append(record)
                positions.append(position)
                position += _HEADER.size + len(record)
            payload = b"".join(chunks)
            try:
                self._file.write(payload)
                self._flush()
            except OSError as exc:
                self._cut_failed_write(start, exc)
                raise
            obs.inc("storage.bytes_written", len(payload))
            return self._publish(positions, [len(record) for record in records])

    def _cut_failed_write(self, start: int, error: OSError) -> None:
        """Truncate a failed batch's bytes back to ``start``; fail-stop if
        that fails too.  Only ``OSError``: an injected crash (a
        ``BaseException``) models power loss and keeps its torn prefix."""
        try:
            self._file.truncate(start)
            self._flush()
        except OSError:
            self._failed = error

    # ----------------------------------------------------------------- reads

    def read(self, offset: int) -> bytes:
        self._check_offset(offset)
        if self._erased[offset]:
            raise RecordErasedError(offset)
        # One positional read of header + payload: no seek, so concurrent
        # readers and the writer cannot move each other's file offset.
        blob = os.pread(
            self._file.fileno(),
            _HEADER.size + self._lengths[offset],
            self._positions[offset],
        )
        header = blob[: _HEADER.size]
        if len(header) < _HEADER.size:
            raise StreamCorruptionError(
                offset, "record header truncated under an open stream",
                path=self._path,
            )
        length, flags, pcrc, hcrc = _HEADER.unpack(header)
        # Verify on every read, not just at open: a flipped bit must never
        # flow into tx-hash recomputation as if it were honest data.
        if not _header_crc_ok(length, flags, pcrc, hcrc):
            raise StreamCorruptionError(
                offset, "header checksum mismatch", path=self._path
            )
        if flags & _FLAG_ERASED:  # stale in-memory index (concurrent erase)
            self._erased[offset] = 1
            raise RecordErasedError(offset)
        data = blob[_HEADER.size : _HEADER.size + length]
        if len(data) < length:
            raise StreamCorruptionError(
                offset, f"record body truncated (need {length}, got {len(data)})",
                path=self._path,
            )
        if pcrc != crc32c(data):
            raise StreamCorruptionError(
                offset, "payload checksum mismatch", path=self._path
            )
        return data

    # --------------------------------------------------------------- erasure

    def erase(self, offset: int) -> None:
        self._check_offset(offset)
        if self._erased[offset]:
            return
        position = self._positions[offset]
        length = self._lengths[offset]
        # Header first (atomic in-place rewrite of 13 bytes), then scrub.  A
        # crash between the two recovers as an erased record whose payload
        # zeroing open() completes — the erase fully happened or fully didn't.
        # COMMIT is set unconditionally: an erasable record was by definition
        # already committed, and the flag keeps it inside the committed
        # prefix if it happens to be the final record of the file.
        with self._write_lock:
            self._file.seek(position)
            self._file.write(_pack_record_header(length, _FLAG_ERASED | _FLAG_COMMIT, b""))
            self._flush()
            self._file.write(b"\x00" * length)
            self._flush()
        self._erased[offset] = 1

    def is_erased(self, offset: int) -> bool:
        self._check_offset(offset)
        return bool(self._erased[offset])

    def __len__(self) -> int:
        return len(self._positions)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "FileStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
