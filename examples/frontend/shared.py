"""Shared payload storage — the content-addressed blob store of Figure 1.

In the LedgerDB deployment, "the ledger proxy sends the transaction payload
to a shared storage, and sends the proof and payload digest to the ledger
server" (§II-C): bulky payloads live in a horizontally-scaled blob store
while the ledger server handles only fixed-size digests.

:class:`SharedStorage` is that store: content-addressed (key = SHA-256 of
the blob), so integrity is verified on every read and deduplication is
free.  Reference-counted deletion supports purge/occult erasure of payloads
whose journals are gone.
"""

from __future__ import annotations

from repro.crypto.hashing import Digest, sha256

__all__ = ["SharedStorage", "BlobIntegrityError"]


class BlobIntegrityError(Exception):
    """A stored blob no longer hashes to its address (corruption/tamper)."""


class SharedStorage:
    """Content-addressed blob store with reference counting."""

    def __init__(self) -> None:
        self._blobs: dict[Digest, bytes] = {}
        self._refcounts: dict[Digest, int] = {}
        self.reads = 0
        self.writes = 0

    def put(self, blob: bytes) -> Digest:
        """Store ``blob``; returns its content address.  Idempotent."""
        digest = sha256(blob)
        self.writes += 1
        if digest in self._blobs:
            self._refcounts[digest] += 1
        else:
            self._blobs[digest] = bytes(blob)
            self._refcounts[digest] = 1
        return digest

    def get(self, digest: Digest) -> bytes:
        """Fetch and integrity-check a blob."""
        self.reads += 1
        try:
            blob = self._blobs[digest]
        except KeyError:
            raise KeyError(f"no blob at {digest.hex()[:12]}…") from None
        if sha256(blob) != digest:
            raise BlobIntegrityError(f"blob at {digest.hex()[:12]}… failed its hash check")
        return blob

    def __contains__(self, digest: Digest) -> bool:
        return digest in self._blobs

    def release(self, digest: Digest) -> bool:
        """Drop one reference; physically erase at zero.  Returns True if erased."""
        count = self._refcounts.get(digest)
        if count is None:
            return False
        if count <= 1:
            del self._blobs[digest]
            del self._refcounts[digest]
            return True
        self._refcounts[digest] = count - 1
        return False

    def __len__(self) -> int:
        return len(self._blobs)

    def total_bytes(self) -> int:
        return sum(len(blob) for blob in self._blobs.values())
