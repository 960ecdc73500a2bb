"""Ordered key-value node store used by Merkle-Patricia trees and indexes.

MPT / CM-Tree1 nodes are content-addressed blobs; the paper keeps "a
configurable top layers cache in memory ... bottom layers including the leaf
nodes are stored on disk persistently" (§IV-B2).  That split is
:class:`~repro.storage.pagestore.PagedNodeStore` with its LRU page cache;
:class:`MemoryKVStore` is the plain in-memory backend, and
:class:`GenerationalMemoryStore` the one a live CM-Tree1 sweeps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

__all__ = ["KVStore", "MemoryKVStore", "GenerationalMemoryStore", "KeyNotFoundError"]


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


class GenerationalMemoryStore(MemoryKVStore):
    """Memory store whose :meth:`sweep` drops what its caller no longer needs,
    except what was written since the previous sweep.

    Every :meth:`put` counts as a write, also one that rewrites a key the
    store already holds: a content-addressed trie that rewrites a node still
    references it from its new version.
    """

    def __init__(self) -> None:
        super().__init__()
        self._fresh: set[bytes] = set()

    def put(self, key: bytes, value: bytes) -> None:
        super().put(key, value)
        self._fresh.add(key)

    def sweep(self, keep: set[bytes]) -> int:
        """Drop every key that is neither in ``keep`` nor written since the
        previous sweep; returns how many were dropped."""
        fresh, self._fresh = self._fresh, set()
        dropped = [key for key in self._data if key not in keep and key not in fresh]
        for key in dropped:
            del self._data[key]
        return len(dropped)
