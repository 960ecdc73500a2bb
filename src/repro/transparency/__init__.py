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
  :class:`CensorshipEvidence`, :func:`refute_censorship`.

The adversaries these detect (a forking server, a censoring server) are
scenarios in the paper harness, ``paper/witness.py``, not part of the
product.
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
