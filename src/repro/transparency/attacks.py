"""Attack scenarios for the non-equivocation layer (DESIGN.md §16).

Two adversary playbooks are implemented against *real* servers speaking the
real wire protocol, detected by *stock* clients — no test-only hooks on the
honest side:

* :class:`ForkingServer` — the split-view attack.  Ledgers created with the
  same uri derive the same deterministic LSP keypair, so two divergent
  ledgers behind two listeners present one signing identity and two
  histories.  A :class:`~repro.transparency.witness.Witness` auditing both
  listeners through ordinary ``repro.api.connect()`` sessions walks away
  with offline-verifiable :class:`EquivocationEvidence`.

* :class:`CensoringLedgerServer` — the silent-drop attack.  A
  :class:`~repro.net.server.LedgerServer` subclass that acks marked
  requests at admission, *forges a perfectly-signed receipt*, and never
  commits.  The receipt alone convinces the client (it is exactly what an
  honest commit would have produced) — which is the point: only the
  :class:`SubmissionAck` deadline turns the drop into
  :class:`CensorshipEvidence` the server cannot refute.

Each ``run_*`` function plays one scenario end to end and returns a frozen
:class:`ScenarioResult`, in the spirit of :mod:`repro.timeauth.attacks`; the
honest-server scenario is the control: same machinery, zero evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..core.journal import ClientRequest
from ..core.ledger import Ledger, LedgerConfig
from ..core.receipt import Receipt
from ..crypto.ca import Role
from ..crypto.keys import KeyPair, PublicKey
from ..net.server import LedgerServer, ServerThread
from .censorship import CensorshipEvidence, refute_censorship
from .sth import verify_equivocation
from .witness import Witness, WitnessReport

__all__ = [
    "CensoringLedgerServer",
    "ForkingServer",
    "ScenarioResult",
    "run_censorship",
    "run_fork_equivocation",
    "run_honest_server",
]

#: Member id / deterministic key seed for the scenarios' client identity.
_CLIENT_ID = "alice"
_CLIENT_SEED = "transparency-attacks:alice"


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one adversary (or control) scenario.

    ``detected`` is the headline: did the stock verification machinery
    catch the attack (or, for the control, correctly stay silent)?
    ``evidence_verified`` asserts every collected artifact also verifies
    *offline* against nothing but the LSP public key — evidence a judge
    cannot check convicts nobody.
    """

    scenario: str
    detected: bool
    evidence_kinds: tuple[str, ...]
    evidence_verified: bool
    alarms: tuple[str, ...]
    refutation_succeeded: bool | None = None
    detail: str = ""


def _client_keypair() -> KeyPair:
    return KeyPair.generate(seed=_CLIENT_SEED)


def _build_ledger(uri: str, data_dir: Path, fractal_height: int) -> Ledger:
    ledger = Ledger(
        LedgerConfig(uri=uri, data_dir=str(data_dir), fractal_height=fractal_height)
    )
    ledger.registry.register(_CLIENT_ID, Role.USER, _client_keypair().public)
    return ledger


class ForkingServer:
    """Two listeners, one LSP identity, two histories (the split view).

    Both ledgers are created with the same uri, so
    ``KeyPair.generate(seed=f"lsp:{uri}")`` hands them the *same* LSP
    keypair — exactly the capability a compromised or malicious operator
    has.  :meth:`seed` feeds identical pre-signed requests to both forks
    (identical roots, indistinguishable to any single client);
    :meth:`diverge` then commits different payloads at the same tree
    coordinates.  :attr:`address_a`/:attr:`address_b` are what victims
    connect to.
    """

    def __init__(
        self,
        base_dir: str | Path,
        *,
        uri: str = "ledger://forked",
        fractal_height: int = 2,
    ) -> None:
        base = Path(base_dir)
        self.uri = uri
        self.ledger_a = _build_ledger(uri, base / "fork-a", fractal_height)
        self.ledger_b = _build_ledger(uri, base / "fork-b", fractal_height)
        self._nonce = 0
        self._threads: list[ServerThread] = []

    @property
    def lsp_public_key(self) -> PublicKey:
        return self.ledger_a.lsp_public_key

    @property
    def client_keypair(self) -> KeyPair:
        return _client_keypair()

    def _request(self, payload: bytes, clue: str | None) -> ClientRequest:
        self._nonce += 1
        return ClientRequest.build(
            self.uri,
            _CLIENT_ID,
            payload,
            clues=(clue,) if clue else (),
            nonce=self._nonce.to_bytes(8, "big"),
            client_timestamp=self.ledger_a.clock.now(),
        ).signed_by(self.client_keypair)

    def seed(self, count: int, clue: str | None = "SEED") -> None:
        """Commit ``count`` identical requests to both forks."""
        for index in range(count):
            request = self._request(b"seed %d" % index, clue)
            self.ledger_a.append(request)
            self.ledger_b.append(request)

    def diverge(
        self,
        payload_a: bytes,
        payload_b: bytes,
        clue: str | None = "PAY",
    ) -> None:
        """Commit *different* payloads at the same tree coordinates."""
        self.ledger_a.append(self._request(payload_a, clue))
        self.ledger_b.append(self._request(payload_b, clue))

    def start(self) -> None:
        if self._threads:
            return
        self._threads = [ServerThread(self.ledger_a), ServerThread(self.ledger_b)]

    @property
    def address_a(self) -> tuple[str, int]:
        return self._threads[0].address

    @property
    def address_b(self) -> tuple[str, int]:
        return self._threads[1].address

    def close(self) -> None:
        threads, self._threads = self._threads, []
        for thread in threads:
            thread.close()

    def __enter__(self) -> "ForkingServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class CensoringLedgerServer(LedgerServer):
    """A server that acks, forges a receipt, and never commits.

    Requests whose payload contains ``censor_marker`` are recorded in
    :attr:`dropped` and answered with a receipt that is *bit-for-bit
    plausible* — correctly LSP-signed, echoing the exact request hash — so
    the stock client's receipt verification passes.  That is the attack's
    sharp edge: without the admission-ack deadline, a dropped request is
    indistinguishable from a committed one until the victim next reads.
    Everything else (honest traffic, reads, transparency ops) passes
    through unchanged, so the server keeps emitting genuine signed heads —
    the very heads that mature the ack into evidence.
    """

    def __init__(self, *args, censor_marker: bytes = b"censor-me", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.censor_marker = censor_marker
        self.dropped: list[ClientRequest] = []

    async def _op_append(self, message: dict) -> dict:
        request, ack = message["request"], None
        if self.censor_marker not in request.payload:
            return await super()._op_append(message)
        if message["want_ack"]:
            ack = await self._run(self.ledger.issue_ack, request)
        self.dropped.append(request)
        return {"receipt": await self._run(self._forge_receipt, request), "ack": ack}

    def _forge_receipt(self, request: ClientRequest) -> Receipt:
        ledger = self.ledger
        latest = ledger.latest_receipt
        return Receipt(
            ledger_uri=ledger.config.uri,
            jsn=ledger.size,  # the jsn an honest commit would get next
            request_hash=request.request_hash(),
            tx_hash=request.request_hash(),  # fabricated: nothing was built
            block_hash=latest.block_hash if latest else b"\x00" * 32,
            block_height=latest.block_height if latest else 0,
            ledger_root=ledger.current_root(),
            timestamp=ledger.clock.now(),
        ).signed_by(ledger._lsp_keypair)


# ------------------------------------------------------------- scenarios


def _connect(address: tuple[str, int], *, with_identity: bool = False):
    import repro.api as api  # late: repro.api itself imports this package

    host, port = address
    kwargs: dict = {}
    if with_identity:
        kwargs = {"client_id": _CLIENT_ID, "keypair": _client_keypair()}
    return api.connect(f"ledger://{host}:{port}", **kwargs)


def run_fork_equivocation(
    base_dir: str | Path,
    *,
    seed_appends: int = 6,
) -> ScenarioResult:
    """The split-view attack, detected by a gossiping witness.

    One witness audits both listeners through stock sessions.  The first
    audit (fork A) comes back clean — a forked server is locally flawless.
    The second (fork B) collides: same signed identity, same coordinates,
    different roots.  Every piece of evidence is re-verified offline.
    """
    with ForkingServer(base_dir) as fork:
        fork.seed(seed_appends)
        fork.diverge(b"alice pays bob 10", b"alice pays mallory 10")
        fork.start()
        witness = Witness(fork.lsp_public_key)
        with _connect(fork.address_a) as session_a:
            report_a: WitnessReport = witness.audit(session_a)
        with _connect(fork.address_b) as session_b:
            report_b: WitnessReport = witness.audit(session_b)
        evidence = list(witness.evidence)
        verified = bool(evidence) and all(
            verify_equivocation(ev, fork.lsp_public_key) for ev in evidence
        )
        return ScenarioResult(
            scenario="fork-equivocation",
            detected=bool(evidence),
            evidence_kinds=tuple(ev.kind for ev in evidence),
            evidence_verified=verified,
            alarms=tuple(witness.alarms),
            detail=(
                f"audit A clean={report_a.clean}; audit B found "
                f"{len(report_b.evidence)} evidence / {len(report_b.alarms)} alarms"
            ),
        )


def run_censorship(
    base_dir: str | Path,
    *,
    uri: str = "ledger://censoring",
    fractal_height: int = 2,
    deadline_epochs: int = 1,
) -> ScenarioResult:
    """The acked-then-dropped attack, matured into censorship evidence.

    The victim appends with ``append_acked`` and walks away satisfied —
    receipt and ack both verify.  Honest traffic then rolls the tree past
    the ack's deadline epoch; the victim's next ``get_sth`` plus the kept
    ack form :class:`CensorshipEvidence` that verifies offline, and the
    server — asked to refute with an inclusion proof — cannot.
    """
    ledger = _build_ledger(uri, Path(base_dir) / "censoring", fractal_height)
    thread = ServerThread(ledger, server_cls=CensoringLedgerServer)
    try:
        with _connect(thread.address, with_identity=True) as session:
            receipt, ack = session.append_acked(
                b"please censor-me quietly",
                clue="VICTIM",
                deadline_epochs=deadline_epochs,
            )
            # The forged receipt *passed* client verification — record that;
            # it is why receipts alone cannot prove liveness.
            receipt_fooled = receipt.verify(ledger.lsp_public_key)
            # Honest traffic rolls epochs past the promised deadline.
            capacity = 2**fractal_height
            for index in range((deadline_epochs + 1) * capacity):
                session.append(b"honest filler %d" % index, clue="FILL")
            head = session.get_sth()
            evidence = CensorshipEvidence(ack=ack, sth=head)
            matured = evidence.verify(ledger.lsp_public_key)
        refuted = _attempt_refutation(ledger, evidence)
        return ScenarioResult(
            scenario="censorship",
            detected=matured and not refuted,
            evidence_kinds=("censorship",) if matured else (),
            evidence_verified=matured,
            alarms=(),
            refutation_succeeded=refuted,
            detail=(
                f"forged receipt fooled the client: {receipt_fooled}; "
                f"ack pinned epoch {ack.epoch}, head reached epoch {head.epoch}"
            ),
        )
    finally:
        thread.close()


def run_honest_server(
    base_dir: str | Path,
    *,
    uri: str = "ledger://honest",
    fractal_height: int = 2,
    rounds: int = 3,
    appends_per_round: int = 5,
) -> ScenarioResult:
    """The control: an honest server survives the full gauntlet.

    The same witness machinery audits the server between batches of real
    appends (every consistency pair proven, every assertion checked), and
    an acked append is *refuted* when challenged — the inclusion proof
    folds the acked request into a signed head.  Zero evidence, zero
    alarms, or the detectors are crying wolf.
    """
    ledger = _build_ledger(uri, Path(base_dir) / "honest", fractal_height)
    thread = ServerThread(ledger)
    try:
        witness = Witness(ledger.lsp_public_key)
        reports: list[WitnessReport] = []
        with _connect(thread.address, with_identity=True) as session:
            receipt, ack = session.append_acked(b"acked and kept", clue="KEPT")
            for round_index in range(rounds):
                for index in range(appends_per_round):
                    session.append(
                        b"round %d tx %d" % (round_index, index), clue="HONEST"
                    )
                reports.append(witness.audit(session))
            head = session.get_sth()
        evidence = CensorshipEvidence(ack=ack, sth=head)
        refuted = _attempt_refutation(ledger, evidence)
        clean = all(report.clean for report in reports) and not witness.evidence
        return ScenarioResult(
            scenario="honest-server",
            detected=not clean,
            evidence_kinds=tuple(ev.kind for ev in witness.evidence),
            evidence_verified=all(
                verify_equivocation(ev, ledger.lsp_public_key)
                for ev in witness.evidence
            ),
            alarms=tuple(witness.alarms),
            refutation_succeeded=refuted,
            detail=(
                f"{len(reports)} audit rounds, "
                f"{sum(r.pairs_checked for r in reports)} pairs proven"
            ),
        )
    finally:
        thread.close()


def _attempt_refutation(ledger: Ledger, evidence: CensorshipEvidence) -> bool:
    """The judge's challenge: can the server fold the acked request in?

    Scans the ledger for a journal carrying the ack's request hash and, if
    found, demands a full-chain existence proof to the evidence head's
    root.  An honest server that committed the request refutes; a censoring
    one has nothing to fold.
    """
    target = evidence.ack.request_hash
    for jsn in range(ledger.size):
        journal = ledger.get_journal(jsn)
        if journal.request_hash != target:
            continue
        proof = ledger.get_proof(jsn, anchored=False)
        if refute_censorship(evidence, journal, proof):
            return True
    return False
