"""QLDB-like centralized ledger database (simulated comparator).

Amazon QLDB is a closed public-cloud service, so this comparator rebuilds
its *verification-relevant* behaviour from its documented design (§VII,
[5], [20], [41]):

* a document store where each ``(table, key)`` holds a revision history;
* a single global **tim** Merkle accumulator over all revisions — "QLDB
  discloses its transaction verification approach for an entire Merkle tree,
  which limits verification efficiency when data volume grows";
* a GetRevision-style verify: fetch the revision plus its proof via the API
  and recompute the full path against a ledger digest.

Every Merkle/hash operation is executed for real; API round trips and
QLDB's opaque service-side processing are accounted on a
:class:`~paper.costmodel.CostMeter` with the calibrated QLDB profile.
The decisive *shape* this preserves (Table II): one verify costs ~seconds,
and verifying a k-version lineage issues k sequential GetRevision calls, so
lineage verification grows linearly in k — versus LedgerDB's flat ~30 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, leaf_hash
from repro.encoding import encode
from repro.merkle.proofs import MembershipProof
from paper.costmodel import QLDB_PROFILE, CostMeter, CostProfile
from paper.merkle.tim import TimAccumulator

__all__ = ["QLDBSimulator", "Revision", "OpResult"]


@dataclass(frozen=True)
class Revision:
    """One committed document revision."""

    table: str
    key: str
    version: int
    data: bytes
    sequence: int  # global position in the ledger accumulator


@dataclass(frozen=True)
class OpResult:
    """A simulated API call's outcome: real result + modelled latency."""

    value: object
    latency_ms: float
    breakdown: dict


class QLDBSimulator:
    """A QLDB-shaped document ledger over a global tim accumulator."""

    def __init__(self, profile: CostProfile = QLDB_PROFILE) -> None:
        self.profile = profile
        self._accumulator = TimAccumulator()
        self._documents: dict[tuple[str, str], list[Revision]] = {}
        self._revision_bytes: dict[int, bytes] = {}

    @property
    def size(self) -> int:
        return self._accumulator.size

    def _revision_payload(self, table: str, key: str, version: int, data: bytes) -> bytes:
        return encode({"table": table, "key": key, "version": version, "data": data})

    # ------------------------------------------------------------------- API

    def insert(self, table: str, key: str, data: bytes) -> OpResult:
        """INSERT / UPDATE: append a new revision of ``(table, key)``."""
        meter = CostMeter(self.profile)
        history = self._documents.setdefault((table, key), [])
        version = len(history)
        payload = self._revision_payload(table, key, version, data)
        sequence = self._accumulator.append(payload)  # real Merkle work
        revision = Revision(table=table, key=key, version=version, data=data, sequence=sequence)
        history.append(revision)
        self._revision_bytes[sequence] = payload
        # QLDB's transactional commit protocol costs two API round trips
        # (start/execute + commit), which dominates the ~65 ms the paper
        # reports for a 32 KB insert.
        meter.api_rtts(2).disk_writes(1).transfer_kb(len(data) / 1024.0)
        meter.hashes(1)  # leaf hash is charged; interior updates amortised
        return OpResult(value=revision, latency_ms=meter.elapsed_ms, breakdown=meter.breakdown())

    def retrieve(self, table: str, key: str, version: int | None = None) -> OpResult:
        """SELECT: fetch one revision (latest by default)."""
        meter = CostMeter(self.profile)
        history = self._documents.get((table, key))
        if not history:
            raise KeyError(f"no document {table}/{key}")
        revision = history[-1 if version is None else version]
        meter.api_rtts(1).disk_reads(1).transfer_kb(len(revision.data) / 1024.0)
        return OpResult(value=revision, latency_ms=meter.elapsed_ms, breakdown=meter.breakdown())

    def get_revision(self, table: str, key: str, version: int) -> OpResult:
        """GetRevision: fetch a revision *with* its full-tree proof and verify.

        This is the QLDB verification path: GetDigest + GetRevision API
        calls, then a client-side recomputation of the whole Merkle path
        against the ledger digest.
        """
        meter = CostMeter(self.profile)
        history = self._documents.get((table, key))
        if not history or version >= len(history):
            raise KeyError(f"no revision {version} of {table}/{key}")
        revision = history[version]
        # GetDigest + GetRevision round trips, plus the opaque service-side
        # proof assembly the paper's 1.56 s is dominated by.
        meter.api_rtts(2).service_calls(1).disk_reads(1)
        meter.transfer_kb(len(revision.data) / 1024.0)
        proof = self._accumulator.get_proof(revision.sequence)  # real proof
        digest = leaf_hash(self._revision_bytes[revision.sequence])
        ok = proof.verify(digest, self._accumulator.root())  # real verification
        meter.hashes(len(proof.path) + len(proof.peaks_left) + len(proof.peaks_right) + 1)
        if not ok:
            raise AssertionError("QLDB simulator produced an invalid proof")
        return OpResult(
            value=(revision, proof), latency_ms=meter.elapsed_ms, breakdown=meter.breakdown()
        )

    def verify_lineage(self, table: str, key: str) -> OpResult:
        """Verify every version of a key — k sequential GetRevision calls.

        QLDB has no native lineage primitive (Table I: no verifiable
        N-lineage); the §VI-D workload realises lineage with a
        [key, data, prehash, sig] schema and must verify each version
        separately, which is exactly what this method reproduces.
        """
        history = self._documents.get((table, key))
        if not history:
            raise KeyError(f"no document {table}/{key}")
        total_ms = 0.0
        merged: dict[str, float] = {}
        revisions = []
        for version in range(len(history)):
            result = self.get_revision(table, key, version)
            revisions.append(result.value)
            total_ms += result.latency_ms
            for op, ms in result.breakdown.items():
                merged[op] = merged.get(op, 0.0) + ms
        return OpResult(value=revisions, latency_ms=total_ms, breakdown=merged)

    # --------------------------------------------------------------- digest

    def ledger_digest(self) -> Digest:
        return self._accumulator.root()

    def get_proof(self, sequence: int) -> MembershipProof:
        return self._accumulator.get_proof(sequence)
