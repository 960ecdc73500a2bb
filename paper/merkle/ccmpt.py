"""ccMPT — the clue-counter MPT baseline (from the VLDB'20 LedgerDB paper).

The earlier LedgerDB design kept, per clue, only a *counter* m in an MPT
(write-intensive friendly: appending a journal just bumps one MPT value).
Clue verification must then (§IV-B1):

1. verify the integrity of the clue's counter m via an MPT path proof, and
2. verify the existence of **all m journals individually** against the global
   ledger accumulator — O(m x log n) total, the linear expansion CM-Tree
   eliminates.

This module is the faithful baseline for the Figure 9 comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import Digest, clue_key_hash
from repro.encoding import decode, encode
from repro.merkle.mpt import MPT, MPTProof
from repro.merkle.proofs import MembershipProof
from repro.storage.kv import KVStore
from paper.merkle.tim import TimAccumulator

__all__ = ["ClueCounterMPT", "CCMPTClueProof"]


@dataclass(frozen=True)
class CCMPTClueProof:
    """Everything a client needs to verify a clue under ccMPT.

    ``existence_proofs`` holds one full global-accumulator proof per journal —
    the m-fold cost that makes ccMPT verification linear in the clue length.
    """

    clue: str
    counter: int
    counter_proof: MPTProof
    jsns: list[int]
    existence_proofs: list[MembershipProof]


class ClueCounterMPT:
    """Clue world-state as (clue -> counter) MPT over a global accumulator."""

    def __init__(self, ledger_accumulator: TimAccumulator, store: KVStore | None = None) -> None:
        self._ledger = ledger_accumulator
        self._mpt = MPT(store)
        # Non-verified retrieval index (the cSL's role): clue -> jsn list.
        self._index: dict[str, list[int]] = {}

    @property
    def root(self) -> Digest:
        return self._mpt.root

    def add(self, clue: str, jsn: int) -> int:
        """Record that journal ``jsn`` carries ``clue``; returns the new counter."""
        jsns = self._index.setdefault(clue, [])
        jsns.append(jsn)
        counter = len(jsns)
        self._mpt.put(clue_key_hash(clue), encode(counter))
        return counter

    def count(self, clue: str) -> int:
        value = self._mpt.get_default(clue_key_hash(clue))
        return 0 if value is None else decode(value)

    def jsns(self, clue: str) -> list[int]:
        return list(self._index.get(clue, []))

    # --------------------------------------------------------------- proving

    def prove_clue(self, clue: str) -> CCMPTClueProof:
        """Build the full clue proof: counter path + m existence proofs."""
        jsns = self._index.get(clue)
        if not jsns:
            raise KeyError(f"unknown clue: {clue!r}")
        counter_proof = self._mpt.prove(clue_key_hash(clue))
        existence_proofs = [self._ledger.get_proof(jsn) for jsn in jsns]
        return CCMPTClueProof(
            clue=clue,
            counter=len(jsns),
            counter_proof=counter_proof,
            jsns=list(jsns),
            existence_proofs=existence_proofs,
        )

    # ------------------------------------------------------------- verifying

    @staticmethod
    def verify_clue(
        proof: CCMPTClueProof,
        journal_digests: list[Digest],
        mpt_root: Digest,
        ledger_root: Digest,
    ) -> bool:
        """Client-side ccMPT clue verification (the O(m log n) procedure).

        ``journal_digests[i]`` must be the leaf digest of ``proof.jsns[i]``.
        Fails if the counter mismatches, any MPT path step is wrong, or any of
        the m accumulator proofs fails.
        """
        if len(journal_digests) != proof.counter or len(proof.jsns) != proof.counter:
            return False
        if len(proof.existence_proofs) != proof.counter:
            return False
        if proof.counter_proof.key != clue_key_hash(proof.clue):
            return False
        if proof.counter_proof.value is None or decode(proof.counter_proof.value) != proof.counter:
            return False
        if not proof.counter_proof.verify(mpt_root):
            return False
        for digest, jsn, membership in zip(journal_digests, proof.jsns, proof.existence_proofs):
            if membership.leaf_index != jsn:
                return False
            if not membership.verify(digest, ledger_root):
                return False
        return True
