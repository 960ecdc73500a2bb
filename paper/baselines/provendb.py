"""ProvenDB-like CLD with one-way Bitcoin pegging (simulated comparator).

ProvenDB "submits transaction digests to a public blockchain (e.g., Bitcoin)
periodically to gain external timestamp evidence" (§I) — a one-way pegging
protocol.  Though the LSP cannot tamper a timestamp once anchored, "it can
still infinitely delay its actual effective time" (§III-B1): the simulator's
``malicious_delay`` knob demonstrates exactly that amplification, and the
Figure-5 benchmark measures it against LedgerDB's two-way pegging.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, leaf_hash
from repro.encoding import encode
from repro.timeauth.clock import Clock
from repro.timeauth.pegging import NotaryEvidence, OneWayPegger, PublicChainNotary, TimeBound
from paper.merkle.tim import TimAccumulator

__all__ = ["ProvenDBSimulator", "VersionRecord"]


@dataclass(frozen=True)
class VersionRecord:
    """One committed document version."""

    key: str
    version: int
    data: bytes
    created_at: float
    sequence: int


class ProvenDBSimulator:
    """A versioned document DB whose digests peg one-way to a public chain."""

    def __init__(
        self,
        clock: Clock,
        notary: PublicChainNotary | None = None,
        peg_interval: float = 60.0,
        malicious_delay: float = 0.0,
    ) -> None:
        self.clock = clock
        self.notary = notary or PublicChainNotary(clock, block_interval=600.0)
        self._pegger = OneWayPegger(self.notary)
        self.peg_interval = peg_interval
        #: A colluding LSP holds digests back this long before submitting —
        #: the infinite-time-amplification lever of §III-B1.
        self.malicious_delay = malicious_delay
        self._accumulator = TimAccumulator()
        self._documents: dict[str, list[VersionRecord]] = {}
        self._next_peg = clock.now() + peg_interval
        self._held_digests: list[tuple[float, Digest]] = []  # (release_at, digest)

    # ------------------------------------------------------------------- API

    def insert(self, key: str, data: bytes) -> VersionRecord:
        history = self._documents.setdefault(key, [])
        record = VersionRecord(
            key=key,
            version=len(history),
            data=data,
            created_at=self.clock.now(),
            sequence=self._accumulator.append(
                encode({"key": key, "version": len(history), "data": data})
            ),
        )
        history.append(record)
        self.tick()
        return record

    def tick(self) -> None:
        """Run due pegs; a malicious LSP defers submissions by its delay."""
        now = self.clock.now()
        while self._next_peg <= now:
            digest = self._accumulator.root()
            release_at = self._next_peg + self.malicious_delay
            self._held_digests.append((release_at, digest))
            self._next_peg += self.peg_interval
        still_held = []
        for release_at, digest in self._held_digests:
            if release_at <= now:
                # Preserve the logical submission time so the digest lands in
                # the block it would have under continuous operation.
                self.notary.submit(digest, at_time=release_at)
            else:
                still_held.append((release_at, digest))
        self._held_digests = still_held
        self.notary.tick()

    def latest(self, key: str) -> VersionRecord:
        history = self._documents.get(key)
        if not history:
            raise KeyError(f"no document {key!r}")
        return history[-1]

    def history(self, key: str) -> list[VersionRecord]:
        return list(self._documents.get(key, []))

    # -------------------------------------------------------------- evidence

    def time_bound_for_root(self, root: Digest) -> TimeBound | None:
        """What the public chain can attest about a pegged ledger digest.

        Note the lower bound is ``-inf``: one-way pegging proves only
        "existed before the anchoring block" — the heart of its weakness.
        """
        return self._pegger.time_bound_for(root)

    def evidence_for_root(self, root: Digest) -> NotaryEvidence | None:
        return self.notary.evidence_for(root)

    def effective_anchor_delay(self, record: VersionRecord) -> float | None:
        """Measured gap between a record's creation and its first credible
        anchor — grows without bound as ``malicious_delay`` grows."""
        self.tick()
        bound = self._pegger.time_bound_for(self._accumulator.root())
        if bound is None:
            return None
        return bound.upper - record.created_at

    def verify_version(self, key: str, version: int) -> bool:
        """Existence verification against the global accumulator (real)."""
        history = self._documents.get(key)
        if not history or version >= len(history):
            return False
        record = history[version]
        proof = self._accumulator.get_proof(record.sequence)
        digest = leaf_hash(
            encode({"key": key, "version": version, "data": record.data})
        )
        return proof.verify(digest, self._accumulator.root())
