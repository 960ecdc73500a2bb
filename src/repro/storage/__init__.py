"""Storage substrate: append-only streams and KV node stores."""

from .checksum import crc32c
from .kv import KeyNotFoundError, KVStore, MemoryKVStore
from .pagestore import PageCorruptionError, PagedNodeStore
from .stream import (
    FileStream,
    MemoryStream,
    OpenReport,
    RecordErasedError,
    Stream,
    StreamCorruptionError,
    StreamError,
)

__all__ = [
    "KeyNotFoundError",
    "KVStore",
    "MemoryKVStore",
    "PageCorruptionError",
    "PagedNodeStore",
    "FileStream",
    "MemoryStream",
    "OpenReport",
    "RecordErasedError",
    "Stream",
    "StreamCorruptionError",
    "StreamError",
    "crc32c",
]
