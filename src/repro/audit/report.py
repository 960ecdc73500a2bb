"""Audit report types.

The report is the audit's *product*: a list of named sub-proof outcomes plus
replay counters.  Every worker count (tasks inline or on a pool) must emit
byte-identical reports for the same view — :func:`AuditReport.canonical`
serialises a report into the canonical JSON form that the equivalence tests
(and the ``--json`` CLI) pin, so "identical" is checkable as plain byte
equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["AuditStep", "AuditReport"]


@dataclass(frozen=True)
class AuditStep:
    """One verification sub-task and its outcome."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class AuditReport:
    """The conjunction of every audit sub-proof (§V step 6)."""

    passed: bool
    steps: list[AuditStep] = field(default_factory=list)
    journals_replayed: int = 0
    blocks_verified: int = 0
    time_journals_verified: int = 0

    def failures(self) -> list[AuditStep]:
        return [step for step in self.steps if not step.passed]

    def to_dict(self) -> dict:
        """JSON-serialisable form (every field, steps in order)."""
        return {
            "passed": self.passed,
            "steps": [
                {"name": s.name, "passed": s.passed, "detail": s.detail}
                for s in self.steps
            ],
            "journals_replayed": self.journals_replayed,
            "blocks_verified": self.blocks_verified,
            "time_journals_verified": self.time_journals_verified,
        }

    def canonical(self) -> bytes:
        """Canonical byte encoding — what "byte-identical reports" means."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")).encode()
