"""Paged on-disk node store — the persistent bottom of the trie (§IV-B2).

The paper keeps "a configurable top layers cache in memory ... bottom layers
including the leaf nodes are stored on disk persistently".  This module is
that disk: a :class:`KVStore` that groups content-addressed Merkle nodes
into immutable *page files*, fronted by an LRU page cache of mmap'd pages.

Design (DESIGN.md §13):

* **Write-behind batching.**  ``put`` lands in a dirty buffer; ``flush()``
  packs the buffer into one or more new page files.  The ledger calls
  ``flush`` at block-commit boundaries, so node persistence rides the same
  cadence as block sealing and a crash can only lose nodes that the journal
  stream can deterministically regenerate (content-addressed puts replay to
  identical pages-worth of state).
* **Page commit rides the §9 contract.**  A page is written to a ``.tmp``
  sibling, flushed, fsync'd, then atomically renamed into place and the
  directory fsync'd.  A torn page write therefore leaves only an ignored
  ``.tmp``; a visible ``page-*.pg`` is complete by construction.
* **Checksummed, self-validating pages.**  The fixed header carries CRC32C
  over itself, over the index section, and over the value blob.  Header and
  index are verified at open (corruption refuses the store rather than
  serving garbage); the blob CRC is verified lazily the first time a page
  is faulted into the cache, which keeps open() O(#pages · index) without
  ever trusting unchecked bytes.
* **mmap-backed reads.**  A page faults in as one ``mmap`` mapping; value
  reads are zero-copy slices.  The LRU page cache bounds resident mappings
  to ``cache_pages``.
* **Deletes are logical.**  ``delete`` drops the key from the live index and
  queues a durable tombstone for the next flush; ``compact()`` rewrites the
  live set into fresh pages and unlinks the old generation.

Page file format (all integers big-endian)::

    header   = magic "LDBPAGE1" | count u32 | index_len u32 | blob_len u32
             | index_crc u32 | blob_crc u32 | header_crc u32       (32 bytes)
    index    = count * ( key_len u16 | key | value_len u32 )
    blob     = concatenated values, in index order

``value_len == 0xFFFFFFFF`` marks a tombstone (no blob bytes).  Page files
are numbered monotonically; at open they are replayed in order, so later
pages (including compaction output) shadow earlier ones.
"""

from __future__ import annotations

import mmap
import os
import struct
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Iterator

from .. import obs
from .checksum import crc32c
from .kv import KeyNotFoundError, KVStore
from .stream import StreamCorruptionError

__all__ = ["PagedNodeStore", "PageCorruptionError", "PAGE_MAGIC"]

PAGE_MAGIC = b"LDBPAGE1"
_HEADER = struct.Struct(">8sIIIIII")
_KEY_LEN = struct.Struct(">H")
_VAL_LEN = struct.Struct(">I")
_TOMBSTONE = 0xFFFFFFFF
_PAGE_GLOB = "page-*.pg"


class PageCorruptionError(StreamCorruptionError):
    """A page file failed its magic or checksum validation (bit rot, torn
    metadata, outside tampering).  The store refuses to serve from it; the
    ledger-level open falls back to a full stream rebuild."""

    def __init__(self, reason: str) -> None:
        # The parent's (offset, reason) shape is record-oriented; pages are
        # whole files, so the reason string names the file instead.
        Exception.__init__(self, f"page corrupt: {reason}")
        self.offset = -1
        self.reason = reason
        self.path = None


class _Page:
    """Metadata for one committed page file (values stay on disk)."""

    __slots__ = ("number", "path", "blob_start", "blob_len", "blob_crc", "count", "index_crc")

    def __init__(self, number: int, path: Path, blob_start: int, blob_len: int,
                 blob_crc: int, count: int, index_crc: int) -> None:
        self.number = number
        self.path = path
        self.blob_start = blob_start
        self.blob_len = blob_len
        self.blob_crc = blob_crc
        self.count = count
        self.index_crc = index_crc


class PagedNodeStore(KVStore):
    """On-disk page-organized node store with an LRU page cache.

    ``file_factory`` (same contract as :class:`~repro.storage.stream.FileStream`)
    wraps the raw ``.tmp`` handle during page writes so the §9 fault harness
    can inject crashes into the page-commit path.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        cache_pages: int = 64,
        page_bytes: int = 64 * 1024,
        file_factory: Callable | None = None,
    ) -> None:
        if cache_pages < 1:
            raise ValueError("cache_pages must be >= 1")
        if page_bytes < 1:
            raise ValueError("page_bytes must be >= 1")
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._cache_pages = cache_pages
        self._page_bytes = page_bytes
        self._file_factory = file_factory
        self._dirty: dict[bytes, bytes] = {}
        self._pending_tombstones: set[bytes] = set()
        # key -> (page_number, offset_in_blob, value_len)
        self._index: dict[bytes, tuple[int, int, int]] = {}
        self._pages: dict[int, _Page] = {}
        self._mmaps: OrderedDict[int, mmap.mmap] = OrderedDict()
        self._next_page = 0
        # Benchmark-facing counters (live even when obs is disabled).
        self.cache_hits = 0
        self.cache_misses = 0
        self.dirty_hits = 0
        self.backend_reads = 0
        self.page_loads = 0
        self.flushes = 0
        self.pages_written = 0
        self.bytes_written = 0
        self._open_scan()

    # ------------------------------------------------------------- open scan

    def _open_scan(self) -> None:
        """Build the live index from committed pages; sweep torn ``.tmp``s."""
        with obs.span("pagestore.open_scan") as sp:
            for leftover in self._dir.glob(_PAGE_GLOB + ".tmp"):
                leftover.unlink()  # torn page commit: never became visible
            numbered = []
            for path in self._dir.glob(_PAGE_GLOB):
                try:
                    number = int(path.stem.split("-", 1)[1])
                except (IndexError, ValueError):
                    raise PageCorruptionError(f"unrecognised page file name: {path.name}")
                numbered.append((number, path))
            for number, path in sorted(numbered):
                self._scan_page(number, path)
                self._next_page = max(self._next_page, number + 1)
            sp.add("pages", len(numbered))

    def _scan_page(self, number: int, path: Path) -> None:
        with open(path, "rb") as handle:
            header = handle.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise PageCorruptionError(f"{path.name}: truncated page header")
            magic, count, index_len, blob_len, index_crc, blob_crc, header_crc = (
                _HEADER.unpack(header)
            )
            if magic != PAGE_MAGIC:
                raise PageCorruptionError(f"{path.name}: bad page magic")
            if crc32c(header[:-4]) != header_crc:
                raise PageCorruptionError(f"{path.name}: page header checksum mismatch")
            index_bytes = handle.read(index_len)
        if len(index_bytes) != index_len:
            raise PageCorruptionError(f"{path.name}: truncated page index")
        if crc32c(index_bytes) != index_crc:
            raise PageCorruptionError(f"{path.name}: page index checksum mismatch")
        if path.stat().st_size != _HEADER.size + index_len + blob_len:
            raise PageCorruptionError(f"{path.name}: page size mismatch")
        page = _Page(number, path, _HEADER.size + index_len, blob_len,
                     blob_crc, count, index_crc)
        offset = 0
        cursor = 0
        for _ in range(count):
            (key_len,) = _KEY_LEN.unpack_from(index_bytes, cursor)
            cursor += _KEY_LEN.size
            key = index_bytes[cursor:cursor + key_len]
            cursor += key_len
            (value_len,) = _VAL_LEN.unpack_from(index_bytes, cursor)
            cursor += _VAL_LEN.size
            if value_len == _TOMBSTONE:
                self._index.pop(key, None)
            else:
                self._index[key] = (number, offset, value_len)
                offset += value_len
        if offset != blob_len:
            raise PageCorruptionError(f"{path.name}: index does not cover blob")
        self._pages[number] = page

    # ------------------------------------------------------------ KV surface

    def get(self, key: bytes) -> bytes:
        obs.inc("pagestore.read")
        value = self._dirty.get(key)
        if value is not None:
            self.dirty_hits += 1
            return value
        entry = self._index.get(key)
        if entry is None:
            raise KeyNotFoundError(key)
        self.backend_reads += 1
        return self._read_committed(entry)

    def _read_committed(self, entry: tuple[int, int, int]) -> bytes:
        number, offset, length = entry
        page_map = self._mmaps.get(number)
        if page_map is not None:
            self._mmaps.move_to_end(number)
            self.cache_hits += 1
            obs.inc("pagestore.cache.hit")
        else:
            self.cache_misses += 1
            obs.inc("pagestore.cache.miss")
            page_map = self._load_page(number)
        start = self._pages[number].blob_start + offset
        return bytes(page_map[start:start + length])

    def put(self, key: bytes, value: bytes) -> None:
        if len(key) > 0xFFFF:
            raise ValueError("key too long for page index (max 65535 bytes)")
        self._pending_tombstones.discard(key)
        if key not in self._dirty:
            entry = self._index.get(key)
            if entry is not None and entry[2] == len(value):
                try:
                    committed = self._read_committed(entry)
                except PageCorruptionError:
                    # A rotted page must not block the overwrite: the fresh
                    # value shadows the damaged entry at the next flush.
                    committed = None
                if committed == value:
                    # Content-addressed dedupe: re-putting a node that is
                    # already durable (same digest, same bytes) is a no-op, so
                    # replayed deltas never bloat pages with duplicates.
                    return
        self._dirty[key] = value

    def delete(self, key: bytes) -> None:
        found = False
        if key in self._dirty:
            del self._dirty[key]
            found = True
        if key in self._index:
            del self._index[key]
            self._pending_tombstones.add(key)
            found = True
        if not found:
            raise KeyNotFoundError(key)

    def __contains__(self, key: bytes) -> bool:
        return key in self._dirty or key in self._index

    def __len__(self) -> int:
        extra = sum(1 for key in self._dirty if key not in self._index)
        return len(self._index) + extra

    def keys(self) -> Iterator[bytes]:
        seen = list(self._dirty)
        yield from seen
        dirty = self._dirty
        for key in list(self._index):
            if key not in dirty:
                yield key

    # ----------------------------------------------------------- page faults

    def _load_page(self, number: int) -> mmap.mmap:
        page = self._pages[number]
        self.page_loads += 1
        obs.inc("pagestore.page_load")
        with open(page.path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        with memoryview(mapped) as view:  # checksum in place: no copy of the blob
            blob_crc = crc32c(view[page.blob_start:page.blob_start + page.blob_len])
        if blob_crc != page.blob_crc:
            mapped.close()
            raise PageCorruptionError(f"{page.path.name}: page blob checksum mismatch")
        self._mmaps[number] = mapped
        while len(self._mmaps) > self._cache_pages:
            _evicted, old = self._mmaps.popitem(last=False)
            old.close()
            obs.inc("pagestore.cache.evict")
        return mapped

    def _drop_mapping(self, number: int) -> None:
        mapped = self._mmaps.pop(number, None)
        if mapped is not None:
            mapped.close()

    # ---------------------------------------------------------------- flush

    def flush(self) -> int:
        """Persist the dirty buffer as new page files; returns pages written.

        Each page commit is tmp -> flush -> fsync -> rename -> dir fsync, so
        a crash at any point leaves every previously visible page intact and
        at worst an ignorable ``.tmp``.
        """
        if not self._dirty and not self._pending_tombstones:
            return 0
        with obs.span("pagestore.flush") as sp:
            batches = self._plan_pages()
            written = 0
            for batch in batches:
                self._write_page(batch)
                written += 1
            self.flushes += 1
            sp.add("pages", written)
            sp.add("nodes", len(self._dirty))
            self._dirty.clear()
            self._pending_tombstones.clear()
            return written

    def _plan_pages(self) -> list[list[tuple[bytes, bytes | None]]]:
        """Split the dirty buffer into page-sized batches (tombstones first)."""
        entries: list[tuple[bytes, bytes | None]] = [
            (key, None) for key in sorted(self._pending_tombstones)
        ]
        entries.extend(self._dirty.items())
        batches: list[list[tuple[bytes, bytes | None]]] = []
        current: list[tuple[bytes, bytes | None]] = []
        blob_size = 0
        for key, value in entries:
            length = len(value) if value is not None else 0
            if current and blob_size + length > self._page_bytes:
                batches.append(current)
                current = []
                blob_size = 0
            current.append((key, value))
            blob_size += length
        if current:
            batches.append(current)
        return batches

    def _write_page(self, entries: list[tuple[bytes, bytes | None]]) -> None:
        number = self._next_page
        index_parts: list[bytes] = []
        blob_parts: list[bytes] = []
        offset = 0
        for key, value in entries:
            length = _TOMBSTONE if value is None else len(value)
            index_parts.append(_KEY_LEN.pack(len(key)) + key + _VAL_LEN.pack(length))
            if value is not None:
                blob_parts.append(value)
                offset += len(value)
        index_bytes = b"".join(index_parts)
        blob = b"".join(blob_parts)
        index_crc = crc32c(index_bytes)
        blob_crc = crc32c(blob)
        body = _HEADER.pack(
            PAGE_MAGIC, len(entries), len(index_bytes), len(blob),
            index_crc, blob_crc, 0,
        )
        header = body[:-4] + struct.pack(">I", crc32c(body[:-4]))
        path = self._page_path(number)
        tmp = path.with_name(path.name + ".tmp")
        raw = open(tmp, "wb")
        handle = self._file_factory(raw) if self._file_factory is not None else raw
        try:
            handle.write(header + index_bytes + blob)
            handle.flush()
            if hasattr(handle, "fsync"):
                handle.fsync()
            else:
                os.fsync(handle.fileno())
        finally:
            handle.close()
        os.replace(tmp, path)
        self._fsync_dir()
        # Only now — after the rename is durable — admit the page to the index.
        page = _Page(number, path, _HEADER.size + len(index_bytes), len(blob),
                     blob_crc, len(entries), index_crc)
        self._pages[number] = page
        self._next_page = number + 1
        offset = 0
        for key, value in entries:
            if value is None:
                self._index.pop(key, None)
            else:
                self._index[key] = (number, offset, len(value))
                offset += len(value)
        self.pages_written += 1
        self.bytes_written += len(header) + len(index_bytes) + len(blob)
        obs.inc("pagestore.pages_written")

    def _page_path(self, number: int) -> Path:
        return self._dir / f"page-{number:08d}.pg"

    def _fsync_dir(self) -> None:
        try:
            fd = os.open(self._dir, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

    # -------------------------------------------------------------- compact

    def compact(self, live_keys: set[bytes] | None = None) -> dict:
        """Rewrite the live set into fresh pages and unlink the old ones.

        With ``live_keys`` (e.g. the node set reachable from a trusted MPT
        root) only those keys survive — unreachable nodes are garbage from
        superseded trie paths and are dropped.  Crash-safe: the new
        generation commits page-by-page before any old file is unlinked, and
        page replay order means a half-finished compaction merely leaves
        redundant (identical) entries behind.
        """
        self.flush()
        before_pages = len(self._pages)
        before_entries = len(self._index)
        before_bytes = sum(
            page.blob_start + page.blob_len for page in self._pages.values()
        )
        keep: list[tuple[bytes, bytes]] = []
        for key in list(self._index):
            if live_keys is not None and key not in live_keys:
                continue
            keep.append((key, self.get(key)))
        old_numbers = list(self._pages)
        self._index.clear()
        self._dirty = dict(keep)
        self._pending_tombstones.clear()
        self.flush()
        for number in old_numbers:
            self._drop_mapping(number)
            page = self._pages.pop(number)
            page.path.unlink()
        self._fsync_dir()
        after_bytes = sum(
            page.blob_start + page.blob_len for page in self._pages.values()
        )
        stats = {
            "pages_before": before_pages,
            "pages_after": len(self._pages),
            "entries_before": before_entries,
            "entries_after": len(self._index),
            "bytes_before": before_bytes,
            "bytes_after": after_bytes,
        }
        obs.inc("pagestore.compactions")
        return stats

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Flush outstanding writes and drop every cached mapping."""
        self.flush()
        for number in list(self._mmaps):
            self._drop_mapping(number)

    def __enter__(self) -> "PagedNodeStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- manifest

    def manifest(self) -> list[tuple[str, int, int]]:
        """(file name, entry count, index crc) per page — snapshot material."""
        return [
            (page.path.name, page.count, page.index_crc)
            for _number, page in sorted(self._pages.items())
        ]

    def verify_manifest(self, manifest: list[tuple[str, int, int]]) -> bool:
        """True when every manifested page is still present and unchanged.

        Pages written *after* the manifest was taken are fine (they hold
        post-snapshot nodes); a missing or altered manifested page means the
        snapshot's node set cannot be trusted.
        """
        by_name = {page.path.name: page for page in self._pages.values()}
        for name, count, index_crc in manifest:
            page = by_name.get(str(name))
            if page is None or page.count != count or page.index_crc != index_crc:
                return False
        return True

    # ----------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Counter snapshot for ``python -m repro stats`` and benchmarks."""
        total = self.cache_hits + self.cache_misses
        return {
            "pages": len(self._pages),
            "entries": len(self._index),
            "dirty_nodes": len(self._dirty),
            "cached_pages": len(self._mmaps),
            "cache_pages_limit": self._cache_pages,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": (self.cache_hits / total) if total else 0.0,
            "dirty_hits": self.dirty_hits,
            "backend_reads": self.backend_reads,
            "page_loads": self.page_loads,
            "flushes": self.flushes,
            "pages_written": self.pages_written,
            "bytes_written": self.bytes_written,
        }
