"""The witness: gossip cross-audit of signed tree heads (DESIGN.md §16).

A witness ingests STHs from any number of sources — its own polling of a
server, heads gossiped by other clients, composite heads of a sharded
deployment — and maintains one invariant per stream: *every pair of heads
it holds must be provably append-only consistent*.  Conflicts produce
typed, offline-verifiable :class:`~repro.transparency.sth.EquivocationEvidence`;
suspicious-but-unprovable behaviour (a refused or failed consistency proof)
produces *alarms*, which is the honest residual of CT-style gossip — a
broken proof identifies a misbehaving server but not which chain lied.

The witness talks to servers exclusively through a
:class:`~repro.session.Session` (``get_sth`` / ``get_consistency``), so the
same code cross-audits an in-process ledger, a remote socket, or one shard
of a deployment, whichever port the session holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .. import obs
from ..crypto.keys import PublicKey
from .sth import ConsistencyAssertion, EquivocationEvidence, SignedTreeHead

if TYPE_CHECKING:
    from ..session import Session

__all__ = ["Witness", "WitnessReport"]

#: Stream key for composite heads (they have no meaningful shard index).
_COMPOSITE_KEY = "composite"


@dataclass
class WitnessReport:
    """Outcome of one cross-audit round against one session."""

    heads_seen: int = 0
    pairs_checked: int = 0
    evidence: list[EquivocationEvidence] = field(default_factory=list)
    alarms: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.evidence and not self.alarms

    def to_dict(self) -> dict:
        return {
            "heads_seen": self.heads_seen,
            "pairs_checked": self.pairs_checked,
            "evidence": [
                {"kind": ev.kind, "detail": ev.detail} for ev in self.evidence
            ],
            "alarms": list(self.alarms),
            "clean": self.clean,
        }


class Witness:
    """Cross-audit store for one LSP identity.

    ``lsp_public_key`` is the out-of-band trust anchor (pinned at first
    contact or distributed like a CA root); heads failing its signature are
    discarded with an alarm, never stored — an unsigned "conflict" proves
    nothing.
    """

    def __init__(self, lsp_public_key: PublicKey) -> None:
        self.lsp_public_key = lsp_public_key
        # (ledger_uri, shard_index | "composite") -> heads sorted by coords.
        self._heads: dict[tuple, list[SignedTreeHead]] = {}
        # Adjacent pairs already proven consistent: (stream key, old, new).
        self._verified: set[tuple] = set()
        self.evidence: list[EquivocationEvidence] = []
        self.alarms: list[str] = []

    # -------------------------------------------------------------- ingest

    def _key(self, head: SignedTreeHead) -> tuple:
        if head.is_composite:
            return (head.ledger_uri, _COMPOSITE_KEY)
        return (head.ledger_uri, head.shard_index)

    def ingest(self, head: SignedTreeHead) -> EquivocationEvidence | None:
        """Add one head; returns fresh equivocation evidence, if any.

        Checks the signature, dedupes, and runs every offline conflict
        check the new head enables (fork-heads, composite refold, composite
        vs per-shard cross-checks).  Consistency *proofs* between distinct
        coordinates need a server — see :meth:`audit`.
        """
        if not head.verify(self.lsp_public_key):
            self._alarm(
                f"discarded head for {head.ledger_uri!r} "
                f"(shard {head.shard_index}): bad LSP signature"
            )
            return None
        key = self._key(head)
        stored = self._heads.setdefault(key, [])
        if any(existing == head for existing in stored):
            return None
        obs.inc("transparency.witness.heads")
        first_conflict: EquivocationEvidence | None = None
        if head.is_composite and not head.composite_consistent():
            first_conflict = self._record(
                EquivocationEvidence(
                    kind="composite-mismatch",
                    first=head,
                    detail=(
                        f"composite head at tree_size {head.tree_size} does "
                        f"not re-fold from its own shard heads"
                    ),
                )
            )
        for existing in stored:
            if existing.coords == head.coords and existing.root != head.root:
                conflict = self._record(
                    EquivocationEvidence(
                        kind="fork-heads",
                        first=existing,
                        second=head,
                        detail=(
                            f"two signed heads at coords {head.coords} with "
                            f"different roots ({head.ledger_uri!r}, shard "
                            f"{head.shard_index})"
                        ),
                    )
                )
                first_conflict = first_conflict or conflict
        first_conflict = first_conflict or self._cross_check_composites(head)
        stored.append(head)
        stored.sort(key=lambda h: h.coords)
        return first_conflict

    def _cross_check_composites(
        self, head: SignedTreeHead
    ) -> EquivocationEvidence | None:
        """Compare per-shard heads with shard entries inside composites."""
        found: EquivocationEvidence | None = None
        if head.is_composite:
            shard_heads = [
                h
                for (uri, shard), heads in self._heads.items()
                if uri == head.ledger_uri and shard != _COMPOSITE_KEY
                for h in heads
            ]
            for shard_head in shard_heads:
                conflict = self._composite_conflict(shard_head, head)
                found = found or conflict
        else:
            for composite in self._heads.get(
                (head.ledger_uri, _COMPOSITE_KEY), []
            ):
                conflict = self._composite_conflict(head, composite)
                found = found or conflict
        return found

    def _composite_conflict(
        self, shard_head: SignedTreeHead, composite: SignedTreeHead
    ) -> EquivocationEvidence | None:
        if composite.fractal_height != shard_head.fractal_height:
            return None
        for shard, epoch, tree_size, live_size, root in composite.shard_heads:
            if shard != shard_head.shard_index:
                continue
            if (epoch, tree_size, live_size) != shard_head.coords:
                continue
            if bytes(root) != shard_head.root:
                return self._record(
                    EquivocationEvidence(
                        kind="fork-composite",
                        first=shard_head,
                        second=composite,
                        detail=(
                            f"shard {shard_head.shard_index} head at coords "
                            f"{shard_head.coords} conflicts with the same "
                            f"entry inside a signed composite head"
                        ),
                    )
                )
        return None

    def observe_assertion(
        self, assertion: ConsistencyAssertion
    ) -> EquivocationEvidence | None:
        """Check a signed consistency assertion against every stored head.

        A validly-signed assertion whose endpoint coordinates match a
        stored signed head but claim a different root is form-2 evidence:
        the server signed two contradictory statements.
        """
        if not assertion.verify(self.lsp_public_key):
            self._alarm(
                f"discarded consistency assertion for "
                f"{assertion.ledger_uri!r}: bad LSP signature"
            )
            return None
        for head in self._heads.get(
            (assertion.ledger_uri, assertion.shard_index), []
        ):
            mismatch = (
                assertion.matches_old(head) and assertion.old_root != head.root
            ) or (assertion.matches_new(head) and assertion.new_root != head.root)
            if mismatch:
                return self._record(
                    EquivocationEvidence(
                        kind="fork-assertion",
                        first=head,
                        assertion=assertion,
                        detail=(
                            f"signed assertion contradicts the signed head "
                            f"at coords {head.coords} "
                            f"({head.ledger_uri!r}, shard {head.shard_index})"
                        ),
                    )
                )
        return None

    # --------------------------------------------------------------- audit

    def audit(self, session: "Session") -> WitnessReport:
        """One cross-audit round: pull the live head, prove every gap.

        Ingests the session's current head, then demands a consistency
        bundle + assertion for every adjacent, not-yet-verified pair of
        stored heads on that stream.  Failed or refused proofs raise
        alarms; contradictory signed statements become evidence.
        """
        report = WitnessReport()
        before_evidence = len(self.evidence)
        before_alarms = len(self.alarms)
        try:
            head = session.get_sth()
        except Exception as exc:  # noqa: BLE001 - any transport failure is an alarm
            self._alarm(f"session refused get_sth: {exc}")
            return self._fill(report, before_evidence, before_alarms)
        report.heads_seen += 1
        self.ingest(head)
        # Only the pulled head's own stream: a composite head's per-shard
        # streams are proven through their own shards' sessions.
        key = self._key(head)
        heads = self._heads.get(key, [])
        for old, new in zip(heads, heads[1:]):
            if old.is_composite or (key, old.coords, new.coords) in self._verified:
                continue
            report.pairs_checked += 1
            self._check_pair(session, key, old, new)
        return self._fill(report, before_evidence, before_alarms)

    def _check_pair(
        self,
        session: "Session",
        key: tuple,
        old: SignedTreeHead,
        new: SignedTreeHead,
    ) -> None:
        try:
            bundle, assertion = session.get_consistency(old, new)
        except Exception as exc:  # noqa: BLE001 - refusal is the CT residual
            self._alarm(
                f"server refused consistency proof between coords "
                f"{old.coords} and {new.coords}: {exc}"
            )
            return
        if assertion is not None:
            self.observe_assertion(assertion)
        if bundle is None or not bundle.verify(old, new):
            self._alarm(
                f"consistency proof between coords {old.coords} and "
                f"{new.coords} failed for {old.ledger_uri!r} "
                f"(shard {old.shard_index})"
            )
            return
        self._verified.add((key, old.coords, new.coords))

    # ----------------------------------------------------------- internals

    def _record(self, evidence: EquivocationEvidence) -> EquivocationEvidence:
        self.evidence.append(evidence)
        obs.inc("transparency.witness.evidence")
        return evidence

    def _alarm(self, message: str) -> None:
        self.alarms.append(message)
        obs.inc("transparency.witness.alarms")

    def _fill(
        self, report: WitnessReport, before_evidence: int, before_alarms: int
    ) -> WitnessReport:
        report.evidence = self.evidence[before_evidence:]
        report.alarms = self.alarms[before_alarms:]
        return report

    def heads(self, ledger_uri: str, shard_index: int = -1) -> list[SignedTreeHead]:
        """Stored heads for one stream, sorted by coordinates."""
        return list(self._heads.get((ledger_uri, shard_index), []))

    @property
    def head_count(self) -> int:
        return sum(len(heads) for heads in self._heads.values())
