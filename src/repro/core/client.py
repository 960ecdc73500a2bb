"""LedgerClient — the client-side SDK of a *distrusting* ledger member.

A :class:`LedgerClient` is what a real participant runs against an untrusted
LSP.  It keeps, entirely on the client side:

* the member's key pair (requests are signed locally — pi_c never needs the
  key to leave the client);
* every receipt the LSP returned (pi_s — the evidence that convicts a
  repudiating LSP, held *externally* as §III-C requires);
* a trusted-anchor store (fam-aoa) advanced via merged-leaf link proofs and
  live-epoch consistency proofs, so existence verification costs O(delta)
  without ever re-trusting the server;
* the out-of-band trust material (CA and TSA public keys).

The client talks to the :class:`~repro.core.ledger.Ledger` through its
public API only; nothing here reads server-private state.
"""

from __future__ import annotations

from ..artifacts import DaseinReport
from ..crypto.keys import KeyPair, PublicKey
from ..verify import AnchorTracker, ClientState, clue_what
from .errors import LedgerError, VerificationFailure
from .journal import ClientRequest, Journal
from .ledger import LSP_MEMBER_ID, Ledger
from .receipt import Receipt
from .verification import DaseinVerifier

__all__ = ["LedgerClient", "ClientState"]


class LedgerClient:
    """A ledger member's local agent."""

    def __init__(
        self,
        member_id: str,
        keypair: KeyPair,
        ledger: Ledger,
        tsa_keys: dict[str, PublicKey] | None = None,
    ) -> None:
        self.member_id = member_id
        self.keypair = keypair
        self.ledger = ledger
        self.tsa_keys = dict(tsa_keys or {})
        self.tracker = AnchorTracker(ledger.fam_reader())
        self.anchors = self.tracker.anchors
        self.state = self.tracker.state
        self._nonce = 0

    # ---------------------------------------------------------------- append

    def _sign(self, payload: bytes, clues: tuple[str, ...]) -> ClientRequest:
        self._nonce += 1
        return ClientRequest.build(
            self.ledger.config.uri,
            self.member_id,
            payload,
            clues=clues,
            nonce=self._nonce.to_bytes(8, "big"),
            client_timestamp=self.ledger.clock.now(),
        ).signed_by(self.keypair)

    def _accept(self, request: ClientRequest, receipt: Receipt) -> Receipt:
        """The client's immediate defence: the LSP's signature must verify
        and the receipt must echo this exact request."""
        lsp_certificate = self.ledger.registry.certificate(LSP_MEMBER_ID)
        if not receipt.verify(lsp_certificate.public_key):
            raise VerificationFailure("LSP receipt signature invalid")
        if receipt.request_hash != request.request_hash():
            raise VerificationFailure("receipt does not cover the submitted request")
        self.state.receipts[receipt.jsn] = receipt
        return receipt

    def append(self, payload: bytes, clues: tuple[str, ...] = ()) -> Receipt:
        """Sign and submit a transaction; validate and store the receipt."""
        request = self._sign(payload, clues)
        return self._accept(request, self.ledger.append(request))

    def append_batch(self, items: list[tuple[bytes, tuple[str, ...]]]) -> list[Receipt]:
        """Sign and submit many ``(payload, clues)`` transactions at once.

        Signs every request locally, submits through the server's amortised
        :meth:`~repro.core.ledger.Ledger.append_batch`, then applies the same
        per-receipt defence as :meth:`append`.  Admission is atomic: on
        rejection no receipts are issued and the local nonce is unwound.
        """
        if not items:
            return []
        first_nonce = self._nonce
        requests = [self._sign(payload, tuple(clues)) for payload, clues in items]
        try:
            receipts = self.ledger.append_batch(requests)
        except Exception:
            self._nonce = first_nonce
            raise
        return [
            self._accept(request, receipt)
            for request, receipt in zip(requests, receipts)
        ]

    def receipt_for(self, jsn: int) -> Receipt | None:
        return self.state.receipts.get(jsn)

    # ------------------------------------------------------------- verifying

    def sync_anchors(self) -> int:
        """Advance the trusted-anchor store to the ledger's current state
        (:meth:`repro.verify.AnchorTracker.sync`); returns how many new epoch
        anchors were added.

        Raises :class:`VerificationFailure` the moment any link fails — the
        client never anchors unverified state.
        """
        return self.tracker.sync()

    def verify_journal(self, journal: Journal) -> bool:
        """O(delta) existence verification against the client's own anchors."""
        proof = self.ledger.get_proof(journal.jsn, anchored=True)
        return self.tracker.fold_anchored(journal.tx_hash(), proof)

    def verify_dasein(self, jsn: int) -> DaseinReport:
        """Full client-side 3w verification from a freshly exported view."""
        view = self.ledger.export_view()
        verifier = DaseinVerifier(view, tsa_keys=self.tsa_keys)
        proof = self.ledger.get_proof(jsn, anchored=False)
        return verifier.verify_dasein(jsn, proof, self.state.receipts.get(jsn))

    def verify_clue(self, clue: str) -> bool:
        """Client-side N-lineage verification of an entire clue."""
        jsns = self.ledger.list_tx(clue)
        if not jsns:
            return False
        try:
            digests = [self.ledger.get_journal(jsn).tx_hash() for jsn in jsns]
        except LedgerError:
            # Not-found / purged / occulted: the lineage has a hole, so the
            # clue cannot fully verify.
            return False
        proof, state_root = self.ledger.clue_evidence(clue)  # one head
        return clue_what(clue, digests, proof, state_root)
