"""repro.verify — the one verification kernel (DESIGN.md "Verification kernel").

The paper's claim is *ubiquitous* verification: the same what/when/who
check, whether it is run by the server, a distrusting client, an auditor, or
somebody holding only a file.  This package is the only implementation of
that check; every entry point — :class:`~repro.session.Session` over either
of its ports (in process, TCP), :class:`~repro.core.verification.DaseinVerifier`,
the offline bundle verifier, the audit engine's primitives — *fetches
evidence* its own way and calls in here.

* :mod:`~repro.verify.checks` — pure functions of (evidence, trust anchors):
  :func:`tx_what`, :func:`clue_what`, :func:`time_marks` +
  :func:`when_bracket`, :func:`who` (pi_c itself is :func:`signature_check`,
  for every offline verifier), and :mod:`repro.artifacts`' :func:`lift`.
* :mod:`~repro.verify.tracker` — the one stateful piece: an
  :class:`AnchorTracker` following a fam through one ``fam_extension`` read.

Import discipline: this package reaches only ``repro.crypto`` /
``repro.merkle`` / ``repro.encoding`` / ``repro.artifacts`` /
``repro.timeauth`` and the kernel-free ``repro.core`` leaves (``journal``,
``receipt``, ``errors``) — never ``repro.core.ledger``, ``repro.service`` or
``repro.net`` (a test asserts this on a live interpreter), so a verifier can
be shipped without the system it verifies.
"""

from ..artifacts import lift
from .checks import (
    check_time_evidence,
    clue_what,
    parse_time_journal,
    signature_check,
    signed_by,
    signed_by_many,
    time_marks,
    tx_what,
    when_bracket,
    who,
)
from .tracker import AnchorTracker, ClientState

__all__ = [
    "AnchorTracker",
    "ClientState",
    "check_time_evidence",
    "clue_what",
    "lift",
    "parse_time_journal",
    "signature_check",
    "signed_by",
    "signed_by_many",
    "time_marks",
    "tx_what",
    "when_bracket",
    "who",
]
