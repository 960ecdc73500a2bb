"""One verifying session over two ports (DESIGN.md §11/§16).

:class:`Session` is the one client-side verifier: it signs, accepts
receipts (:func:`accept_receipts`), keeps the receipt store and the anchor
tracker, and runs every verified read, Dasein check, audit and export.  It
reaches the ledger through a **port** — :class:`LocalPort` in process
(``repro.api.LedgerSession`` builds one) or
:class:`~repro.net.client.RemoteLedgerClient` over TCP
(``repro.net.client.RemoteLedgerSession``) — and never asks which one it
holds.  The ports differ in exactly four members:

1. ``stamps(count)`` — the nonce and timestamp source for signing;
2. ``check_tx`` / ``check_clue`` — the SERVER-level check: the ledger's own
   in process, the advisory wire op over TCP;
3. ``anchored`` — the default trust of a CLIENT-level TX fold: the head the
   proof was cut at (in process) or this session's anchor store (TCP);
4. ``shards`` — the ledgers whose export views :meth:`Session.verify_dasein`
   and :meth:`Session.audit` read; the TCP port raises a typed UsageError.

Which connect()/session kwarg each transport honours, and why the others
refuse it, is one declarative table, :data:`CAPABILITIES`.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from .artifacts import VerifyLevel, VerifyResult, VerifyTarget
from .core.errors import LedgerError, UsageError, VerificationFailure
from .core.journal import ClientRequest
from .core.verification import DaseinVerifier
from .crypto.hashing import sha256
from .crypto.keys import verify_batch
from .encoding import EncodingError
from .export.bundle import export_bundle
from .merkle.fam import FamProof
from .shard.shape import audit_shards, locate
from .verify import AnchorTracker, clue_what, lift, tx_what

if TYPE_CHECKING:
    from .audit import AuditReport, CheckpointStore
    from .core.journal import Journal
    from .core.receipt import Receipt
    from .crypto.keys import KeyPair, PublicKey
    from .export.bundle import ExportBundle
    from .transparency.censorship import SubmissionAck
    from .transparency.sth import SignedTreeHead

__all__ = [
    "CAPABILITIES",
    "LocalPort",
    "Session",
    "TransportCapability",
    "accept_receipts",
    "carry",
    "check_transport_kwargs",
]


# ------------------------------------------------------------- capabilities


@dataclass(frozen=True)
class TransportCapability:
    """One session/connect kwarg and which transports honour it.

    ``reason`` explains — to the caller of the transport that *rejects* the
    kwarg — why passing it there cannot mean anything; it lands verbatim in
    the :class:`UsageError`, so it reads as a sentence fragment after ":".
    """

    kwarg: str
    transports: frozenset[str]
    reason: str

    def supports(self, transport: str) -> bool:
        return transport in self.transports


#: Every kwarg on the session surface that only some transports honour,
#: with the rejection rationale.  ``connect()`` and the session classes
#: consult this — add a row here, never another inline ``raise``.
CAPABILITIES: dict[str, TransportCapability] = {
    "service": TransportCapability(
        kwarg="service",
        transports=frozenset({"local"}),
        reason="the remote server runs its own group-commit service",
    ),
    "expected_lsp_key": TransportCapability(
        kwarg="expected_lsp_key",
        transports=frozenset({"remote"}),
        reason="an in-process ledger's LSP key needs no out-of-band pinning",
    ),
    "timeout": TransportCapability(
        kwarg="timeout",
        transports=frozenset({"remote"}),
        reason=(
            "local calls traverse no socket (per-call timeout= on "
            "service-backed appends still applies)"
        ),
    ),
}


def check_transport_kwargs(transport: str, lgid: Any = "?", **kwargs: Any) -> None:
    """Reject any non-``None`` kwarg the table says ``transport`` cannot honour.

    Raises:
        UsageError: naming the kwarg, the transport, and the table's reason.
    """
    for name, value in kwargs.items():
        capability = CAPABILITIES.get(name)
        if value is None or capability is None or capability.supports(transport):
            continue
        raise UsageError(
            f"{name}= is not supported by the {transport} transport "
            f"({lgid!r}): {capability.reason}"
        )


def accept_receipts(
    lsp_key: "PublicKey | None", ledger_uri: str, pairs: list[tuple[ClientRequest, Any]]
) -> list[VerificationFailure | None]:
    """The one acceptance rule for what the LSP signs back, on every port.

    Per ``(request, signed)`` pair — ``signed`` a receipt or a submission
    ack — ``None`` when it carries the LSP's signature under the pinned
    ``lsp_key``, echoes exactly the request's hash (pi_s for another request
    convicts nobody) and speaks for ``ledger_uri``; else the
    :class:`VerificationFailure` to raise.  One batched ECDSA pass checks
    every signature (one key, so the group aggregates).
    """
    checks = [(lsp_key, sha256(s.signing_payload()), s.lsp_signature) for _r, s in pairs]
    verdicts = verify_batch(checks) if lsp_key is not None else [False] * len(pairs)
    faults: list[VerificationFailure | None] = []
    for (request, signed), ok in zip(pairs, verdicts):
        kind = type(signed).__name__
        if not ok:
            faults.append(VerificationFailure(f"LSP signature on the {kind} is invalid"))
        elif signed.request_hash != request.request_hash():
            faults.append(VerificationFailure(f"{kind} does not cover the submitted request"))
        elif signed.ledger_uri != ledger_uri:
            faults.append(VerificationFailure(f"{kind} speaks for a different ledger"))
        else:
            faults.append(None)
    return faults


def accepted(lsp_key: "PublicKey | None", ledger_uri: str, requests: list, signed: list) -> list:
    """``signed``, once every item passed :func:`accept_receipts`; else the
    first fault is raised."""
    for fault in accept_receipts(lsp_key, ledger_uri, list(zip(requests, signed))):
        if fault is not None:
            raise fault
    return signed


# ------------------------------------------------------------------ session


class Session:
    """A verifying client of one ledger, reached through ``port``.

    ``client_id`` / ``keypair`` are the default signing identity (each
    append may override them); ``lgid`` names the session (default: the
    port's ledger URI).  The trust state is the session's: the receipts it
    accepted (:meth:`receipt_for`) and the fam anchors it verified
    (``tracker``, ``anchors``, ``state``).  Appends are thread-safe when the
    port's are (service-backed and TCP ones are).
    """

    def __init__(
        self,
        port: Any,
        *,
        lgid: str | None = None,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
    ) -> None:
        self.port = port
        self.transport = port.transport  # "local" or "remote", as CAPABILITIES names them
        self.lgid = lgid if lgid is not None else port.ledger_uri
        self.client_id = client_id
        self.keypair = keypair
        self.tracker = AnchorTracker(port)  # over the port's fam_extension read
        self.anchors = self.tracker.anchors
        self.state = self.tracker.state

    def close(self) -> None:
        """Release what the port owns (a connection, an owned service)."""
        self.port.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.lgid} {self.transport} client_id={self.client_id!r}>"

    # ------------------------------------------------------------- appends

    def _sign(
        self, items: list[tuple[bytes, tuple[str, ...]]], client_id: str | None, keypair: Any
    ) -> list[ClientRequest]:
        """``(payload, clues)`` items signed under the per-call or bound
        identity, each with the port's next nonce and timestamp."""
        client_id = client_id if client_id is not None else self.client_id
        keypair = keypair if keypair is not None else self.keypair
        if client_id is None or keypair is None:
            raise UsageError(
                "no signing identity: pass client_id and keypair here or bind them at connect()"
            )
        uri = self.port.ledger_uri
        return [
            ClientRequest.build(
                uri,
                client_id,
                payload,
                clues=clues,
                nonce=nonce.to_bytes(8, "big"),
                client_timestamp=timestamp,
            ).signed_by(keypair)
            for (payload, clues), (nonce, timestamp) in zip(items, self.port.stamps(len(items)))
        ]

    def _request_for(self, payload, clue, clues, client_id, keypair, request) -> ClientRequest:
        if (payload is None) == (request is None):
            raise UsageError("pass exactly one of a payload or a pre-signed request=")
        if clue is not None and clues is not None:
            raise UsageError("pass clue= or clues=, not both")
        if request is not None:
            return request
        clues = _clue_tuple(clues if clues is not None else clue)
        return self._sign([(payload, clues)], client_id, keypair)[0]

    def _keep(self, receipts: list["Receipt"]) -> list["Receipt"]:
        for receipt in receipts:
            self.state.receipts[receipt.jsn] = receipt
        return receipts

    def append(
        self,
        payload: bytes | None = None,
        *,
        clue: str | None = None,
        clues: tuple[str, ...] | None = None,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        request: ClientRequest | None = None,
        timeout: float | None = None,
    ) -> "Receipt":
        """Append one transaction — a ``payload`` signed here (session or
        per-call identity) or a pre-signed ``request`` — and return its
        receipt, accepted and kept.  ``timeout`` bounds the wait for a
        service-backed group commit, or the round trip over TCP.

        Raises:
            UsageError: no payload/request, both, or no signing identity.
            AuthenticationError: the ledger rejected the request.
            VerificationFailure: the receipt failed :func:`accept_receipts`.
            ServiceClosedError / ServiceOverloadedError / ServiceTimeout.
        """
        request = self._request_for(payload, clue, clues, client_id, keypair, request)
        return self._keep([self.port.append(request, timeout)])[0]

    def append_batch(
        self,
        items: list[tuple[bytes, str | tuple[str, ...] | None]] | None = None,
        *,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        requests: list[ClientRequest] | None = None,
        timeout: float | None = None,
    ) -> list["Receipt"]:
        """Append ``(payload, clue)`` items (``clue``: one, a tuple, or
        ``None``) signed here, or pre-signed ``requests``, in one pass; the
        receipts are accepted in one batch.  Direct in process the batch is
        atomic; with a service each request fails alone; over TCP the batch
        rides one frame.

        Raises:
            UsageError: neither/both of ``items`` and ``requests``, an item
                that is not a ``(payload, clue)`` pair, or no signing
                identity.
            AuthenticationError: a request was rejected.
            VerificationFailure: a receipt failed :func:`accept_receipts`.
        """
        if (items is None) == (requests is None):
            raise UsageError("append_batch() takes exactly one of items= or requests=")
        if requests is None:
            requests = self._sign(_batch_pairs(items), client_id, keypair)
        return self._keep(self.port.append_batch(requests, timeout))

    def append_acked(
        self,
        payload: bytes | None = None,
        *,
        clue: str | None = None,
        clues: tuple[str, ...] | None = None,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        request: ClientRequest | None = None,
        deadline_epochs: int | None = None,
        timeout: float | None = None,
    ) -> tuple["Receipt", "SubmissionAck"]:
        """:meth:`append` plus a censorship-accountable admission ack (§16):
        a :class:`~repro.transparency.SubmissionAck` pinning the request to
        the tree coordinates *at admission*, which with any signed tree head
        past ``deadline_epochs`` is offline-verifiable censorship evidence.
        Returns ``(receipt, ack)``, both accepted.

        Raises:
            UsageError: as :meth:`append`, or ``deadline_epochs < 1``.
        """
        request = self._request_for(payload, clue, clues, client_id, keypair, request)
        receipt, ack = self.port.append_acked(request, deadline_epochs, timeout)
        return self._keep([receipt])[0], ack

    def submit(self, request: ClientRequest) -> Future:
        """Fire-and-collect append of a pre-signed ``request``: a future of
        its receipt, accepted and kept.  Over TCP, submits in flight together
        share ``append_batch`` frames (a rejected group fails each member)."""
        kept: Future = Future()

        def settle(done: Future) -> None:
            if done.exception() is not None:
                kept.set_exception(done.exception())
            else:
                kept.set_result(self._keep([done.result()])[0])

        self.port.submit(request).add_done_callback(settle)
        return kept

    def receipt_for(self, jsn: int) -> "Receipt | None":
        """The accepted receipt (pi_s) this session holds for ``jsn``."""
        return self.state.receipts.get(jsn)

    # ---------------------------------------------------------------- reads

    def list_tx(self, clue: str) -> list["Journal"]:
        """All retrievable journals carrying ``clue`` (cSL lookup)."""
        return [self.port.get_journal(jsn) for jsn in self.port.list_tx(clue)]

    def get_proof(self, jsn: int, anchored: bool = True) -> Any:
        """The GetProof API: fam existence proof for one journal.

        Raises:
            JournalNotFoundError: no journal exists at ``jsn``.
        """
        return self.port.get_proof(jsn, anchored=anchored)

    def get_proofs(self, jsns: list[int], anchored: bool = True) -> list[Any]:
        """Bulk GetProof, byte-identical to single calls, link chains shared."""
        return self.port.get_proofs(jsns, anchored=anchored)

    def get_sth(self) -> "SignedTreeHead":
        """The current LSP-signed tree head (composite on sharded ledgers)."""
        return self.port.get_sth()

    def get_sth_range(self, start: int, end: int) -> list["SignedTreeHead"]:
        """Persisted epoch-close tree heads for epochs ``start..end``."""
        return self.port.get_sth_range(start, end)

    def get_consistency(self, old: "SignedTreeHead", new: "SignedTreeHead") -> tuple:
        """Consistency bundle + signed assertion connecting two tree heads.

        Raises:
            UsageError: composite heads, mismatched shards, or heads this
                ledger cannot connect (e.g. an equivocating pair).
        """
        return self.port.get_consistency(old, new)

    def export(self, path: Any = None, *, clues: tuple[str, ...] = ()) -> "ExportBundle":
        """The offline bundle (§17) :func:`repro.export.verify_bundle`
        checks on a machine that never saw this deployment, with the
        lineages of ``clues``; ``path`` also writes it durably.  Over TCP the
        server builds it and it is decoded (magic, CRC) here."""
        return self.port.export_bundle(tuple(clues), path)

    # ----------------------------------------------------------- verifying

    def verify(
        self,
        target: VerifyTarget | str,
        *,
        key: str | None = None,
        txdata: list["Journal"] | None = None,
        rho: Any = None,
        root: bytes | None = None,
        level: VerifyLevel | str = VerifyLevel.SERVER,
    ) -> VerifyResult:
        """The Verify API (§IV-C): existence of the one journal in ``txdata``
        (TX), or the N-lineage of clue ``key`` over ``txdata`` (CLUE), with
        ``rho`` an optional pre-fetched proof.  ``level=SERVER`` asks the
        ledger (over TCP: advisory); ``level=CLIENT`` folds here against a
        pinned ``root``, else the port's default trust (DESIGN.md
        "Verification kernel").  Returns a :class:`VerifyResult` carrying the
        proof and trusted root, falsy — never raising — on a failed check.

        Raises:
            UsageError: bad target/level, wrong ``txdata`` shape, missing
                ``key``, or a CLUE ``rho`` with no trusted root available.
        """
        target = _coerce(VerifyTarget, target)
        level = _coerce(VerifyLevel, level)
        if target is VerifyTarget.TX:
            if not txdata or len(txdata) != 1:
                raise UsageError("TX verification takes exactly one journal in txdata")
            what, evidence = self._tx_what(txdata[0], rho, root, level)
            evidence["jsn"] = txdata[0].jsn
        else:
            if key is None or txdata is None:
                raise UsageError("CLUE verification needs key and txdata")
            what, evidence = self._clue_what(key, txdata, rho, root, level)
            evidence["detail"] = f"clue {key!r} over {len(txdata)} journals"
        return lift(target, level, what=what, **evidence)

    def _tx_what(self, journal, rho, root, level) -> tuple[bool, dict]:
        port = self.port
        if level is VerifyLevel.SERVER:
            return port.check_tx(journal, rho)
        if root is None and port.anchored:
            return self._anchored_what(journal, rho)
        try:
            # Proof and default root from one head: a commit between two
            # reads cannot tear them.
            proof, head_root = port.tx_evidence(journal, rho)
        except (IndexError, KeyError):
            return False, {"detail": f"no proof obtainable for jsn {journal.jsn}"}
        # A ShardProof folds through the shard→root link: ``trusted`` is then
        # the deployment's composite root.
        trusted = root if root is not None else head_root
        return tx_what(journal.tx_hash(), proof, trusted), {"proof": proof, "trusted_root": trusted}

    def _anchored_what(self, journal, proof) -> tuple[bool, dict]:
        """An anchored proof folded against the anchor store, which connects
        the proof's head to the tracked one itself (no round trip for it).
        With no ``proof`` given, the one the journal's read carried is folded
        (:func:`carry`); without one, it costs one ``get_proof`` round trip."""
        if proof is None and _CARRIED_PROOF in journal.__dict__:
            proof = _decode_carried(journal.__dict__[_CARRIED_PROOF])
            if proof is None or proof.jsn != journal.jsn:
                return False, {
                    "proof": proof,
                    "detail": f"the proof carried with journal {journal.jsn} is not a proof of it",
                }
        elif proof is None:
            proof = self.port.get_proof(journal.jsn, anchored=True)
        return self.tracker.fold_anchored(journal.tx_hash(), proof), {
            "proof": proof,
            "trusted_root": self.state.live_root,
            "detail": "folded locally against this session's anchor store",
        }

    def _clue_what(self, key, txdata, rho, root, level) -> tuple[bool, dict]:
        if level is VerifyLevel.SERVER:
            checked = self.port.check_clue(key, txdata, rho)
            if checked is not None:  # None: the port has no server-side clue check
                return checked
        proof, head_root = self.port.clue_evidence(key, rho)
        trusted = root if root is not None else head_root
        if trusted is None:
            raise UsageError("CLUE verification with a pre-fetched rho needs a trusted root=")
        digests = [journal.tx_hash() for journal in txdata]
        return clue_what(key, digests, proof, trusted), {"proof": proof, "trusted_root": trusted}

    def sync_anchors(self) -> int:
        """Advance the anchor store to the ledger's head; returns how many
        epoch anchors were added.

        Raises:
            VerificationFailure: a link failed (a rewritten journal is caught
                here; nothing unverified is anchored).
            UsageError: a sharded deployment has no one fam to anchor.
        """
        return self.tracker.sync()

    def verify_journal(self, journal: "Journal", proof: Any = None) -> VerifyResult:
        """O(delta) existence verification against this session's anchors;
        ``proof`` optionally carries a pre-fetched *anchored* fam proof."""
        what, evidence = self._anchored_what(journal, proof)
        return lift("tx", VerifyLevel.CLIENT, what=what, jsn=journal.jsn, **evidence)

    def verify_clue(self, clue: str) -> VerifyResult:
        """CLIENT-level verification of the whole lineage of ``clue``; falsy
        for an unknown clue or a lineage with a hole."""
        jsns = self.port.list_tx(clue)
        try:
            journals = [self.port.get_journal(jsn) for jsn in jsns]
        except LedgerError:  # not found, purged, occulted: the lineage has a hole
            journals = []
        if not journals:
            return lift("clue", VerifyLevel.CLIENT, what=False, detail=f"no lineage for {clue!r}")
        return self.verify("clue", key=clue, txdata=journals, level=VerifyLevel.CLIENT)

    def verify_dasein(
        self,
        jsn: int,
        receipt: "Receipt | None" = None,
        *,
        tsa_keys: "dict[str, PublicKey] | None" = None,
        trusted_root: bytes | None = None,
    ) -> VerifyResult:
        """What/when/who of one journal, over its shard's export view and a
        proof cut at that view's head.  ``receipt`` defaults to the ledger's
        copy, ``trusted_root`` to the view's latest receipt root; take
        ``tsa_keys`` from the time authorities, never from the LSP.

        Raises:
            UsageError: no trusted root (fresh ledger, no receipt, no
                ``trusted_root``), or no export view on this port (TCP).
            JournalNotFoundError: no journal exists at ``jsn``.
        """
        shards = self.port.shards
        shard_index, jsn = locate(jsn, len(shards))  # the evidence is shard-local
        ledger = shards[shard_index]
        view = ledger.export_view()
        try:
            verifier = DaseinVerifier(view, tsa_keys=tsa_keys, trusted_root=trusted_root)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        proof = ledger.proofs_at(view.head, [jsn], anchored=False)[0]
        if receipt is None:
            receipt = ledger.receipt_for(jsn)
        report = verifier.verify_dasein(jsn, proof, receipt)
        return VerifyResult.from_dasein(
            report, proof=proof, trusted_root=verifier.trusted_root, level="client"
        )

    def audit(
        self,
        *,
        tsa_keys: "dict[str, PublicKey] | None" = None,
        workers: int = 0,
        checkpoint: "CheckpointStore | str | None" = None,
        resume: bool = False,
        temporal_range: tuple[float, float] | None = None,
    ) -> "AuditReport":
        """The §V Dasein-complete audit (:func:`repro.audit.dasein_audit`)
        of each shard's export view; several shards give one report each.
        ``workers`` sizes the signature pool; ``checkpoint`` (path or
        :class:`~repro.audit.CheckpointStore`) with ``resume=True`` resumes
        an interrupted audit.  Take ``tsa_keys`` from the time authorities
        directly.

        Raises:
            UsageError: ``resume=True`` without a ``checkpoint``, or no
                export view on this port (TCP).
        """
        if resume and checkpoint is None:
            raise UsageError("audit(resume=True) needs a checkpoint= store or path")
        return audit_shards(
            self.port.shards,
            tsa_keys=tsa_keys,
            workers=workers,
            checkpoint=checkpoint,
            resume=resume,
            temporal_range=temporal_range,
        )


#: The memo a read leaves a journal's carried proof under: not a field, so
#: invisible to ``==``, ``hash``, ``dataclasses.replace`` and ``to_bytes``.
_CARRIED_PROOF = "_carried_proof"


def carry(journal: "Journal", blob: Any) -> None:
    """Keep ``blob`` — the anchored proof a ``get_journal`` reply carried,
    still undecoded — on ``journal`` for :meth:`Session.verify` to fold."""
    object.__setattr__(journal, _CARRIED_PROOF, blob)


def _decode_carried(blob: Any) -> FamProof | None:
    """The carried proof, or ``None`` for anything that is not one."""
    if not isinstance(blob, bytes):
        return None
    try:
        return FamProof.from_bytes(blob)
    except EncodingError:
        return None


def _batch_pairs(items) -> list[tuple[bytes, tuple[str, ...]]]:
    """:meth:`Session.append_batch` items as (payload, clue tuple) pairs."""
    if not all(isinstance(item, (tuple, list)) and len(item) == 2 for item in items):
        raise UsageError("append_batch() items must be (payload, clue) pairs")
    return [(payload, _clue_tuple(clue)) for payload, clue in items]


def _clue_tuple(clue: str | tuple[str, ...] | None) -> tuple[str, ...]:
    """One clue, a tuple of clues, or none, as a request's clue tuple."""
    if isinstance(clue, str):
        return (clue,) if clue else ()
    return tuple(clue or ())


def _coerce(enum_cls: type, value: Any):
    """Accept the enum member itself or its string value ("tx", "server")."""
    if isinstance(value, enum_cls):
        return value
    try:
        return enum_cls(value)
    except ValueError:
        raise UsageError(
            f"{enum_cls.__name__} expected one of "
            f"{[member.value for member in enum_cls]}, got {value!r}"
        ) from None


# -------------------------------------------------------- the in-process port

#: Reads the in-process port answers with the ledger's own methods.
_LEDGER_READS = frozenset(
    {
        "get_journal",
        "list_tx",
        "get_proof",
        "get_proofs",
        "get_sth",
        "get_sth_range",
        "get_consistency",
        "fam_extension",  # the one read an AnchorTracker follows
    }
)


class LocalPort:
    """The in-process port over a :class:`Ledger` or
    :class:`~repro.shard.ShardedLedger`, optionally behind its group-commit
    ``service`` (closed here when ``owns_service``).  Reads answer from the
    published heads; the LSP key is pinned here, as TCP pins it at connect.
    """

    transport = "local"
    #: DESIGN.md §18: a CLIENT-level TX fold with no pinned root trusts the
    #: head the proof was cut at.
    anchored = False

    def __init__(self, ledger: Any, service: Any = None, *, owns_service: bool = False) -> None:
        self.ledger = ledger
        self.service = service
        self._owns_service = owns_service
        self.ledger_uri = ledger.config.uri
        self.lsp_public_key = ledger.lsp_public_key

    def __getattr__(self, name: str) -> Any:
        if name in _LEDGER_READS:
            return getattr(self.ledger, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def shards(self) -> list:
        """The shard ledgers whose export views an auditor reads."""
        return self.ledger.shards

    def stamps(self, count: int) -> list[tuple[int, float]]:
        """Nonces ``ledger.size + i`` at the ledger clock's time (golden bytes)."""
        size, clock = self.ledger.size, self.ledger.clock
        return [(size + index, clock.now()) for index in range(count)]

    def close(self) -> None:
        if self._owns_service and self.service is not None:
            self.service.close()

    def _accept(self, requests: list[ClientRequest], signed: list) -> list:
        return accepted(self.lsp_public_key, self.ledger_uri, requests, signed)

    def append(self, request: ClientRequest, timeout: float | None = None) -> "Receipt":
        if self.service is not None:
            receipt = self.service.append(request, timeout=timeout)
        else:
            receipt = self.ledger.append(request)
        return self._accept([request], [receipt])[0]

    def append_batch(self, requests: list[ClientRequest], timeout: float | None = None) -> list:
        if self.service is not None:
            futures = [self.service.submit(request) for request in requests]
            receipts = [future.result(timeout) for future in futures]
        else:
            receipts = self.ledger.append_batch(requests)
        return self._accept(requests, receipts)

    def append_acked(self, request: ClientRequest, deadline_epochs: int | None, timeout=None):
        # The ack pins the tree coordinates *at admission*: issue it first.
        ack = self._accept([request], [self.ledger.issue_ack(request, deadline_epochs)])[0]
        return self.append(request, timeout), ack

    def submit(self, request: ClientRequest) -> Future:
        """In process the append runs now: the future comes back settled."""
        future: Future = Future()
        try:
            future.set_result(self.append(request))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def export_bundle(self, clues: tuple[str, ...], path: Any = None) -> "ExportBundle":
        return export_bundle(self.ledger, clues=clues, path=path)

    def tx_evidence(self, journal: "Journal", rho: Any = None) -> tuple:
        """A full-chain proof of the journal (routed by content: a sharded
        ledger stamps shard-local jsns) and its root, from one head."""
        if rho is None:
            return self.ledger.tx_evidence(journal)
        return rho, self.ledger.current_root()

    def clue_evidence(self, clue: str, rho: Any = None) -> tuple:
        """A clue's lineage proof and the CM-Tree1 root it folds to, from one head."""
        if rho is None:
            return self.ledger.clue_evidence(clue)
        return rho, self.ledger.state_root()

    def check_tx(self, journal: "Journal", rho: Any) -> tuple[bool, dict]:
        """SERVER level: the ledger's own check, against its head root."""
        try:
            proof = self.tx_evidence(journal, rho)[0]
        except (IndexError, KeyError):
            return False, {"detail": f"no proof obtainable for jsn {journal.jsn}"}
        ok = self.ledger.verify_journal(journal, proof)
        return ok, {"proof": proof, "trusted_root": self.ledger.current_root()}

    def check_clue(self, key: str, txdata: list["Journal"], rho: Any) -> tuple[bool, dict]:
        """SERVER level: the ledger's own CM-Tree check."""
        ok = self.ledger.verify_clue(key, txdata)
        return ok, {"proof": rho, "trusted_root": self.ledger.state_root()}
