"""Ordered key-value node store used by Merkle-Patricia trees and indexes.

MPT / CM-Tree1 nodes are content-addressed blobs; the paper keeps "a
configurable top layers cache in memory ... bottom layers including the leaf
nodes are stored on disk persistently" (§IV-B2).  That split is
:class:`~repro.storage.pagestore.PagedNodeStore` with its LRU page cache;
:class:`MemoryKVStore` is the plain in-memory backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

__all__ = ["KVStore", "MemoryKVStore", "KeyNotFoundError"]


class KeyNotFoundError(KeyError):
    """Raised when a key is absent from the store."""


class KVStore(ABC):
    """Abstract byte-to-byte key-value store."""

    @abstractmethod
    def get(self, key: bytes) -> bytes: ...

    @abstractmethod
    def put(self, key: bytes, value: bytes) -> None: ...

    @abstractmethod
    def delete(self, key: bytes) -> None: ...

    @abstractmethod
    def __contains__(self, key: bytes) -> bool: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def keys(self) -> Iterator[bytes]: ...

    def flush(self) -> int:
        """Persist buffered writes (no-op for unbuffered stores)."""
        return 0

    def close(self) -> None:
        """Release resources (no-op for in-memory stores)."""

    def stats(self) -> dict:
        """Counter snapshot for observability surfaces (empty by default)."""
        return {}


class MemoryKVStore(KVStore):
    """Dict-backed store.  Read/write counters support benchmark accounting."""

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}
        self.reads = 0
        self.writes = 0

    def get(self, key: bytes) -> bytes:
        self.reads += 1
        try:
            return self._data[key]
        except KeyError:
            raise KeyNotFoundError(key) from None

    def put(self, key: bytes, value: bytes) -> None:
        self.writes += 1
        self._data[key] = value

    def delete(self, key: bytes) -> None:
        try:
            del self._data[key]
        except KeyError:
            raise KeyNotFoundError(key) from None

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[bytes]:
        return iter(list(self._data))
