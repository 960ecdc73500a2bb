"""Censorship evidence: acked-but-absent becomes provable (DESIGN.md §16).

Equivocation detection (``sth.py``) catches a server that *rewrites*
history, but not one that silently *drops* a valid request — from the
outside, a dropped request is indistinguishable from one never sent.
AQUAREUM's fix (PAPERS.md): the server signs a :class:`SubmissionAck` at
admission time, binding itself to include the request within a deadline.
An ack plus any later signed tree head past the deadline is a
:class:`CensorshipEvidence` bundle that verifies offline; the server's only
way out is :func:`refute_censorship` — an inclusion proof folding the acked
request into a signed head.

Evidence here is *conditional* in a way equivocation evidence is not: it
proves "the server promised and, as of head H, had not demonstrated
inclusion".  The refutation closes the loop — a judge holding evidence asks
the server to refute; silence convicts operationally, a valid refutation
acquits cryptographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..crypto.ecdsa import Signature
from ..crypto.hashing import Digest
from ..crypto.keys import PublicKey
from ..crypto.signed import LspSigned
from ..encoding import BYTES, FLOAT, INT, STR, UINT, Record, nested
from ..merkle.fam import FamAccumulator, FamProof
from .sth import SOLO_SHARD, SignedTreeHead

if TYPE_CHECKING:
    from ..core.journal import Journal

__all__ = [
    "SubmissionAck",
    "CensorshipEvidence",
    "refute_censorship",
]


@dataclass(frozen=True)
class SubmissionAck(LspSigned):
    """The LSP's signed promise to include an admitted request.

    ``epoch``/``tree_size`` pin the fam state at admission; the promise is
    "this request will be included (and provable) before epoch
    ``epoch + deadline_epochs`` closes".  ``request_hash`` is the client
    request's own hash — the same digest a committed journal carries — so
    inclusion is checkable without trusting the server's jsn assignment.
    """

    SCHEME = "repro.ack.v1"
    FIELDS = dict(
        ledger_uri=STR,
        request_hash=BYTES,
        epoch=UINT,
        tree_size=UINT,
        deadline_epochs=UINT,
        timestamp=FLOAT,
        shard_index=INT,
    )

    ledger_uri: str
    request_hash: Digest
    epoch: int
    tree_size: int
    deadline_epochs: int
    timestamp: float
    shard_index: int = SOLO_SHARD
    lsp_signature: Signature | None = None


@dataclass(frozen=True)
class CensorshipEvidence:
    """A signed ack whose deadline passed, witnessed by a signed head.

    ``sth`` must speak for the same stream as the ack and sit at or past
    the promised deadline epoch.  The bundle does not (cannot) prove the
    request is absent — absence is unfalsifiable from outside — it proves
    the server owes an inclusion proof and lets :func:`refute_censorship`
    settle the matter either way.
    """

    ack: SubmissionAck
    sth: SignedTreeHead

    def verify(self, lsp_public_key: PublicKey) -> bool:
        """Offline check: both signatures, one stream, deadline expired."""
        try:
            return self._verify(lsp_public_key)
        except (KeyError, ValueError, IndexError, TypeError):
            return False

    def _verify(self, lsp_public_key: PublicKey) -> bool:
        if self.ack.deadline_epochs < 1:
            return False
        if not self.ack.verify(lsp_public_key):
            return False
        if not self.sth.verify(lsp_public_key):
            return False
        if self.sth.is_composite:
            return False
        if self.ack.ledger_uri != self.sth.ledger_uri:
            return False
        if self.ack.shard_index != self.sth.shard_index:
            return False
        return self.sth.epoch >= self.ack.epoch + self.ack.deadline_epochs

    def to_bytes(self) -> bytes:
        return _EVIDENCE.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "CensorshipEvidence":
        return cls(**_EVIDENCE.decode(data))


_EVIDENCE = Record(ack=nested(SubmissionAck), sth=nested(SignedTreeHead))


def refute_censorship(
    evidence: CensorshipEvidence,
    journal: "Journal",
    proof: FamProof,
    head: SignedTreeHead | None = None,
    lsp_public_key: PublicKey | None = None,
) -> bool:
    """The server's exoneration: fold the acked request into a signed head.

    ``journal`` must carry the ack's ``request_hash`` and ``proof`` must be
    a full-chain (non-anchored) fam proof folding the journal to ``head``'s
    root.  ``head`` defaults to the evidence's own head; passing a fresher
    signed head (with ``lsp_public_key`` so its signature can be checked) is
    how the server refutes after including the request late.  Never raises.
    """
    try:
        if head is None:
            head = evidence.sth
        elif lsp_public_key is None or not head.verify(lsp_public_key):
            return False
        if head.is_composite:
            return False
        if head.ledger_uri != evidence.ack.ledger_uri:
            return False
        if head.shard_index != evidence.ack.shard_index:
            return False
        if journal.request_hash != evidence.ack.request_hash:
            return False
        return FamAccumulator.fold_full(journal.tx_hash(), proof) == head.root
    except (KeyError, ValueError, IndexError, TypeError, AttributeError):
        return False
