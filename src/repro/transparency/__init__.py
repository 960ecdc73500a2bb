"""repro.transparency — non-equivocation layer (DESIGN.md §16).

Signed tree heads, consistency bundles, gossip cross-audit, and censorship
evidence: the subsystem that removes the last "trust me" from the server in
ROADMAP item 4.  Everything verifies offline against the LSP public key:

* :mod:`repro.transparency.sth` — :class:`SignedTreeHead`,
  :class:`ConsistencyBundle`, :class:`ConsistencyAssertion`,
  :class:`EquivocationEvidence`, :func:`verify_equivocation`;
* :mod:`repro.transparency.witness` — the :class:`Witness` gossip store,
  written once against :class:`~repro.session.Session`;
* :mod:`repro.transparency.censorship` — :class:`SubmissionAck`,
  :class:`CensorshipEvidence`, :func:`refute_censorship`;
* :mod:`repro.transparency.attacks` — the :class:`ForkingServer` scenario
  double (imported explicitly by the attack suite; not re-exported here
  because it pulls in the whole net stack).
"""

from .censorship import CensorshipEvidence, SubmissionAck, refute_censorship
from .sth import (
    ConsistencyAssertion,
    ConsistencyBundle,
    EquivocationEvidence,
    SignedTreeHead,
    SthStore,
    verify_equivocation,
)
from .witness import Witness, WitnessReport

__all__ = [
    "CensorshipEvidence",
    "ConsistencyAssertion",
    "ConsistencyBundle",
    "EquivocationEvidence",
    "SignedTreeHead",
    "SthStore",
    "SubmissionAck",
    "Witness",
    "WitnessReport",
    "refute_censorship",
    "verify_equivocation",
]
