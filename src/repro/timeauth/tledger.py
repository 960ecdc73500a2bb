"""T-Ledger — the two-layer time-notary anchoring architecture (§III-B2).

Direct TSA interaction per journal is costly, and shrinking the malicious
window Δτ means stamping *more* often.  The T-Ledger amortises this:

* **bottom layer** (common ledger → T-Ledger): an advanced one-way pegging
  protocol (Protocol 4).  A ledger submits (digest, local timestamp τ_c);
  the T-Ledger admits the request only if its own clock τ_t satisfies
  ``τ_t < τ_c + τ_Δ`` — a stale request (one the adversary sat on) is
  rejected, which removes the time-amplification loophole of plain one-way
  pegging.
* **top layer** (T-Ledger → TSA): the two-way pegging protocol (Protocol 3)
  every Δτ seconds — the *periodic time notary finalization*.  The TSA token
  is recorded back on the T-Ledger as a time journal.

The T-Ledger is public (Prerequisite 4): anyone can download its entries and
re-verify every accumulator proof and TSA signature offline, which is what
:class:`TimeEvidence` packages.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.hashing import Digest
from ..merkle.proofs import MembershipProof
from ..merkle.shrubs import ShrubsAccumulator
from .clock import Clock
from .pegging import TimeBound
from .tsa import TimeStampAuthority, TimeStampToken, TSAPool

__all__ = [
    "NotaryEntry",
    "NotaryReceipt",
    "Finalization",
    "TimeEvidence",
    "TimeLedger",
    "StaleRequestError",
]


class StaleRequestError(Exception):
    """Protocol 4 admission failure: the request's τ_c is too old (or ahead)."""


@dataclass(frozen=True)
class NotaryEntry:
    """One digest recorded on the T-Ledger."""

    seq: int
    ledger_id: str
    digest: Digest
    client_timestamp: float  # τ_c
    notary_timestamp: float  # τ_t at admission

    def leaf_digest(self) -> Digest:
        from ..crypto.hashing import leaf_hash
        from ..encoding import encode

        return leaf_hash(
            encode(
                {
                    "seq": self.seq,
                    "ledger_id": self.ledger_id,
                    "digest": self.digest,
                    "client_timestamp": self.client_timestamp,
                    "notary_timestamp": self.notary_timestamp,
                }
            )
        )


@dataclass(frozen=True)
class NotaryReceipt:
    """Returned to the submitting ledger at admission time."""

    seq: int
    notary_timestamp: float


@dataclass(frozen=True)
class Finalization:
    """A periodic TSA finalization covering entries ``[0, covered_size)``."""

    index: int
    covered_size: int
    root: Digest
    token: TimeStampToken


@dataclass(frozen=True)
class TimeEvidence:
    """Everything needed to verify a notary entry's time window offline.

    * ``inclusion`` proves the entry is committed by ``finalization.root``;
    * ``finalization.token`` is the TSA's signature on (root, t_upper);
    * ``previous_token`` (from the preceding finalization) gives t_lower.
    """

    entry: NotaryEntry
    inclusion: MembershipProof
    finalization: Finalization
    previous_token: TimeStampToken | None

    def time_bound(self) -> TimeBound:
        lower = self.previous_token.timestamp if self.previous_token else float("-inf")
        return TimeBound(lower=lower, upper=self.finalization.token.timestamp)

    def verify(self, tsa: "TSAPool | TimeStampAuthority | dict") -> bool:
        """Full offline verification of this evidence.  Never raises.

        ``tsa`` may be the authority object, a pool, or — for fully offline
        auditors — a plain ``{tsa_id: PublicKey}`` mapping.
        """
        if isinstance(tsa, dict):
            def verify_token(token: TimeStampToken) -> bool:
                key = tsa.get(token.tsa_id)
                return key is not None and token.verify(key)
        elif isinstance(tsa, TSAPool):
            verify_token = tsa.verify
        else:
            authority = tsa

            def verify_token(token: TimeStampToken) -> bool:
                return token.verify(authority.public_key)
        if not verify_token(self.finalization.token):
            return False
        if self.finalization.token.digest != self.finalization.root:
            return False
        if self.previous_token is not None and not verify_token(self.previous_token):
            return False
        if self.inclusion.tree_size != self.finalization.covered_size:
            return False
        if not self.inclusion.verify(self.entry.leaf_digest(), self.finalization.root):
            return False
        return True


class TimeLedger:
    """The public T-Ledger service."""

    def __init__(
        self,
        clock: Clock,
        tsa: TimeStampAuthority | TSAPool,
        finalize_interval: float = 1.0,  # Δτ: TSA proof sought every second
        admission_tolerance: float = 1.0,  # τ_Δ of Protocol 4
    ) -> None:
        if finalize_interval <= 0 or admission_tolerance <= 0:
            raise ValueError("intervals must be positive")
        self._clock = clock
        self._tsa = tsa
        self.finalize_interval = finalize_interval
        self.admission_tolerance = admission_tolerance
        self._entries: list[NotaryEntry] = []
        self._accumulator = ShrubsAccumulator()
        self._finalizations: list[Finalization] = []
        self._next_finalize_time = clock.now() + finalize_interval
        self.rejected_count = 0

    # ---------------------------------------------------------------- submit

    def submit(self, ledger_id: str, digest: Digest, client_timestamp: float) -> NotaryReceipt:
        """Protocol 4 step 1-2: admit a digest if its τ_c is fresh.

        Raises :class:`StaleRequestError` when ``τ_t >= τ_c + τ_Δ`` (the
        request was held back) or when τ_c claims a future time beyond the
        tolerance (a backdating setup for later).
        """
        self.tick()
        notary_now = self._clock.now()
        if notary_now >= client_timestamp + self.admission_tolerance:
            self.rejected_count += 1
            raise StaleRequestError(
                f"request is stale: τ_t={notary_now:.3f} >= τ_c={client_timestamp:.3f} "
                f"+ τ_Δ={self.admission_tolerance:.3f}"
            )
        if client_timestamp > notary_now + self.admission_tolerance:
            self.rejected_count += 1
            raise StaleRequestError(
                f"request claims a future τ_c={client_timestamp:.3f} beyond "
                f"tolerance at τ_t={notary_now:.3f}"
            )
        entry = NotaryEntry(
            seq=len(self._entries),
            ledger_id=ledger_id,
            digest=digest,
            client_timestamp=client_timestamp,
            notary_timestamp=notary_now,
        )
        self._entries.append(entry)
        self._accumulator.append_leaf(entry.leaf_digest())
        return NotaryReceipt(seq=entry.seq, notary_timestamp=notary_now)

    # -------------------------------------------------------------- finalize

    def tick(self) -> int:
        """Run every due periodic finalization; returns how many ran."""
        ran = 0
        while self._next_finalize_time <= self._clock.now():
            self._finalize()
            self._next_finalize_time += self.finalize_interval
            ran += 1
        return ran

    def _finalize(self) -> None:
        covered = self._accumulator.size
        if covered == 0 and self._finalizations:
            # Nothing new to notarise and an anchor already exists: the TSA
            # round would re-sign the same root; still do it so the chain of
            # tokens stays dense (bounds stay tight even over idle periods).
            pass
        root = self._accumulator.root()
        token = self._tsa.stamp(root)
        self._finalizations.append(
            Finalization(
                index=len(self._finalizations),
                covered_size=covered,
                root=root,
                token=token,
            )
        )

    # -------------------------------------------------------------- evidence

    @property
    def size(self) -> int:
        return len(self._entries)

    @property
    def finalizations(self) -> list[Finalization]:
        return list(self._finalizations)

    def entry(self, seq: int) -> NotaryEntry:
        return self._entries[seq]

    def get_evidence(self, seq: int) -> TimeEvidence:
        """Build offline-verifiable evidence for entry ``seq``.

        Requires a finalization covering the entry (i.e. at least one
        finalization after its admission) — callers should :meth:`tick`
        first, or wait up to Δτ of simulated time.
        """
        self.tick()
        if not 0 <= seq < len(self._entries):
            raise IndexError(f"no notary entry {seq}")
        covering = next(
            (f for f in self._finalizations if f.covered_size > seq), None
        )
        if covering is None:
            raise LookupError(
                f"entry {seq} not yet covered by a finalization; advance the clock"
            )
        previous = self._finalizations[covering.index - 1] if covering.index > 0 else None
        return TimeEvidence(
            entry=self._entries[seq],
            inclusion=self._accumulator.prove(seq, at_size=covering.covered_size),
            finalization=covering,
            previous_token=previous.token if previous else None,
        )
