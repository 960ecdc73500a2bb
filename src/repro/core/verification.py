"""Dasein verification (§III) over an exported ledger view.

The *Dasein* of a journal is verified along three axes:

* **what** — the journal exists verbatim on the ledger: a fam existence
  proof against a trusted commitment (an epoch anchor, the LSP-signed
  ``ledger_root`` in a receipt the client holds externally, or a
  TSA-anchored root);
* **when** — the journal was produced inside a verified time window: the
  time journals bracketing its jsn, each carrying TSA-signed evidence,
  bound its creation time from both sides;
* **who** — the journal's issuer cannot repudiate it: the client signature
  pi_c checks against the CA-certified member key, and the LSP's receipt
  pi_s convicts the LSP of having committed it.

The checks themselves live in :mod:`repro.verify`; :class:`DaseinVerifier`
is the evidence holder for one exported :class:`~repro.core.ledger.LedgerView`
plus out-of-band trust anchors (CA public key, TSA public keys), so it makes
no calls back into the — potentially malicious — LSP.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import obs
from ..artifacts import DaseinReport
from ..crypto.hashing import Digest
from ..crypto.keys import PublicKey
from ..merkle.fam import FamProof
from ..timeauth.pegging import TimeBound
from ..verify import time_marks, tx_what, when_bracket, who
from .journal import Journal
from .receipt import Receipt

if TYPE_CHECKING:
    from .ledger import LedgerView

__all__ = ["DaseinVerifier"]


class DaseinVerifier:
    """Client-side 3w verifier over an exported ledger view.

    ``tsa_keys`` maps TSA ids to their public keys (obtained from the
    authorities directly, never from the LSP).  The trusted *what* datum is
    the LSP-signed ``ledger_root`` of the latest receipt by default; pass
    ``trusted_root`` to use a different externally-validated commitment.
    """

    def __init__(
        self,
        view: "LedgerView",
        tsa_keys: dict[str, PublicKey] | None = None,
        trusted_root: Digest | None = None,
    ) -> None:
        self.view = view
        self.tsa_keys = dict(tsa_keys or {})
        if trusted_root is None:
            if view.latest_receipt is None:
                raise ValueError("view has no receipt; pass trusted_root explicitly")
            trusted_root = view.latest_receipt.ledger_root
        self.trusted_root = trusted_root
        self._marks: list[tuple[int, float, bool]] | None = None

    def journal_at(self, jsn: int) -> Journal | None:
        """Decode the journal at ``jsn`` from the view (None if mutated away)."""
        entry = self.view.entry(jsn)
        if entry.data is None:
            return None
        return Journal.from_bytes(entry.data)

    def verify_what(self, journal: Journal, proof: FamProof) -> bool:
        """Existence: fold the journal through fam to the trusted commitment.

        The proof must be a full-chain (non-anchored) proof, since a
        distrusting client verifies against one externally-trusted root.
        """
        with obs.span("dasein.what"):
            return tx_what(journal.tx_hash(), proof, self.trusted_root)

    def verify_when(self, jsn: int) -> tuple[TimeBound | None, bool]:
        """Bracket ``jsn`` between the view's verified time journals (see
        :func:`repro.verify.when_bracket`)."""
        with obs.span("dasein.when"):
            if self._marks is None:
                self._marks = time_marks(
                    (
                        Journal.from_bytes(entry.data)
                        for entry in self.view.entries
                        if entry.data is not None
                    ),
                    self.view.time_evidence,
                    self.tsa_keys,
                )
            return when_bracket(jsn, self._marks)

    def verify_who(self, journal: Journal, receipt: Receipt | None = None) -> bool:
        """Non-repudiation: pi_c against the member's certificate, and — when a
        receipt is presented — pi_s against the LSP's certificate."""
        with obs.span("dasein.who"):
            view = self.view
            return who(
                journal, receipt, view.certificates, view.ca_public_key, view.lsp_member_id
            )

    def verify_dasein(
        self,
        jsn: int,
        proof: FamProof,
        receipt: Receipt | None = None,
    ) -> DaseinReport:
        """Full 3w verification of one journal (Definition 1, per-journal)."""
        with obs.span("dasein.verify"):
            journal = self.journal_at(jsn)
            when_bound, when_valid = self.verify_when(jsn)
            if journal is None:
                # Used-to-exist: a mutated journal verifies by its retained
                # digest; the signature went with the payload.
                what = tx_what(self.view.entry(jsn).retained_hash, proof, self.trusted_root)
                who_ok = False
            else:
                what = self.verify_what(journal, proof)
                who_ok = self.verify_who(journal, receipt)
            return DaseinReport(
                jsn=jsn, what=what, when_valid=when_valid, when_bound=when_bound, who=who_ok
            )
