"""repro.api — the v2 session-handle API (DESIGN.md §11).

The paper's procedural surface is free functions keyed by an ``lgid``
string, re-resolved on every call, with ``verify`` collapsing a three-factor
Dasein audit into a bare bool.  This module offers **session handles**
instead:

* :func:`create` / :func:`drop_ledger` manage a process-wide, thread-safe
  registry of ledgers by ``lgid`` — symmetric by default (duplicate
  ``create`` and unknown ``drop_ledger`` both raise :class:`UsageError`),
  with ``exist_ok`` / ``missing_ok`` escape hatches and a
  :func:`scoped_ledger` context manager for test hygiene;
* :func:`connect` returns a :class:`LedgerSession` bound to one ledger (and
  optionally one :class:`~repro.service.LedgerService`, so appends ride the
  group-commit path), with ``append / append_batch / list_tx / get_proof /
  verify`` methods that never re-look anything up;
* every verification returns a structured
  :class:`~repro.artifacts.VerifyResult` — per-factor verdicts, the
  proof object used, and the trusted root — truthy-compatible with the old
  bool.

Exception contract: argument and registry misuse raises
:class:`~repro.core.errors.UsageError`; rejected requests raise
:class:`~repro.core.errors.AuthenticationError`; failed proofs *return* a
falsy :class:`VerifyResult` (verification outcomes are data, not errors).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator

from .artifacts import Artifact, VerifyLevel, VerifyResult, VerifyTarget
from .audit import AuditReport, CheckpointStore
from .core.errors import UsageError
from .core.journal import ClientRequest, Journal
from .core.ledger import Ledger, LedgerConfig
from .core.receipt import Receipt
from .core.verification import DaseinVerifier
from .crypto.keys import KeyPair, PublicKey
from .export.bundle import ExportBundle, export_bundle
from .export.rebuild import RebuildReport
from .service import LedgerService, ServiceConfig
from .session import (
    CAPABILITIES,
    SessionHelpers,
    VerifyingSession,
    check_transport_kwargs,
)
from .shard import ShardedLedgerService, deployment_service, new_deployment
from .shard.shape import audit_shards, locate
from .transparency.censorship import SubmissionAck
from .verify import clue_what, tx_what

__all__ = [
    "Artifact",
    "AuditReport",
    "ExportBundle",
    "RebuildReport",
    "VerifyLevel",
    "VerifyTarget",
    "VerifyResult",
    "VerifyingSession",
    "LedgerSession",
    "connect",
    "create",
    "drop_ledger",
    "get_ledger",
    "list_ledgers",
    "scoped_ledger",
]

# Values are Ledger or repro.shard.ShardedLedger (same read/append surface).
_REGISTRY: dict[str, Any] = {}
_REGISTRY_LOCK = threading.Lock()


# ------------------------------------------------------------------ registry


def create(lgid: str, *, exist_ok: bool = False, **kwargs: Any) -> Ledger:
    """The Create API: register a new ledger under ``lgid``.

    ``kwargs`` pass through to :func:`repro.shard.new_deployment`
    (``config``, ``clock``, ``registry``, ``lsp_keypair``, ``journal_stream``):
    a config of several shards builds a :class:`~repro.shard.ShardedLedger`
    — same registry entry, same session surface.  With
    ``exist_ok=True`` an already-registered ``lgid`` returns the existing
    ledger instead of raising (``kwargs`` must then be empty — silently
    ignoring a different config would be a worse footgun than the error).

    Raises:
        UsageError: ``lgid`` is already registered (and not ``exist_ok``),
            or ``exist_ok`` hit an existing ledger with ``kwargs`` supplied.
    """
    with _REGISTRY_LOCK:
        existing = _REGISTRY.get(lgid)
        if existing is not None:
            if not exist_ok:
                raise UsageError(f"ledger {lgid!r} already exists")
            if kwargs:
                raise UsageError(
                    f"ledger {lgid!r} already exists; exist_ok=True cannot "
                    f"re-apply constructor arguments {sorted(kwargs)}"
                )
            return existing
        config = kwargs.pop("config", None) or LedgerConfig(uri=lgid)
        ledger = new_deployment(config, **kwargs)
        _REGISTRY[lgid] = ledger
        return ledger


def get_ledger(lgid: str) -> Ledger:
    """Resolve a registered ledger.

    Raises:
        UsageError: no ledger is registered under ``lgid``.
    """
    with _REGISTRY_LOCK:
        try:
            return _REGISTRY[lgid]
        except KeyError:
            raise UsageError(f"unknown ledger: {lgid!r}") from None


def drop_ledger(lgid: str, *, missing_ok: bool = False) -> None:
    """Remove a ledger from the registry — symmetric twin of :func:`create`.

    Silently ignoring an unknown ``lgid`` here while ``create`` raises on
    duplicates would hide typos in teardown code, so both directions raise
    by default; pass ``missing_ok=True`` for idempotent cleanup (or use
    :func:`scoped_ledger`, which does this for you).

    Raises:
        UsageError: no ledger is registered under ``lgid`` (and not
            ``missing_ok``).
    """
    with _REGISTRY_LOCK:
        if _REGISTRY.pop(lgid, None) is None and not missing_ok:
            raise UsageError(f"unknown ledger: {lgid!r}")


def list_ledgers() -> list[str]:
    """All registered ``lgid``\\ s, sorted."""
    with _REGISTRY_LOCK:
        return sorted(_REGISTRY)


@contextmanager
def scoped_ledger(
    lgid: str,
    *,
    client_id: str | None = None,
    keypair: KeyPair | None = None,
    service: LedgerService | ServiceConfigLike = None,
    expected_lsp_key: Any = None,
    timeout: float | None = None,
    **kwargs: Any,
) -> Iterator["VerifyingSession"]:
    """Create a ledger for the block's duration and drop it on exit.

    Yields a :class:`LedgerSession` (its ``.ledger`` attribute is the raw
    :class:`Ledger`).  ``kwargs`` pass through to :func:`create`; the
    session arguments mirror :func:`connect`.  Exists for test hygiene: the
    registry is process-wide, and a test that leaks ledgers poisons its
    neighbours' ``create`` calls.

    ``lgid`` accepts the same URI forms as :func:`connect`: a
    ``ledger://host:port`` address scopes a *remote* session instead — the
    connection lasts for the block, nothing is created or dropped (the
    server owns its ledger's lifecycle), and construction ``kwargs`` are
    refused because they cannot reach the remote deployment.

    Raises:
        UsageError: remote address with :func:`create` kwargs, or a kwarg
            the resolved transport does not support (per the
            :data:`~repro.session.CAPABILITIES` table).
    """
    with _REGISTRY_LOCK:
        registered = lgid in _REGISTRY
    remote = not registered and _parse_remote_uri(lgid) is not None
    if remote and kwargs:
        raise UsageError(
            f"scoped_ledger({lgid!r}) is a remote scope: constructor "
            f"arguments {sorted(kwargs)} cannot apply — the server owns "
            f"its ledger's lifecycle"
        )
    if not remote:
        check_transport_kwargs(
            "local", lgid, expected_lsp_key=expected_lsp_key, timeout=timeout
        )
        create(lgid, **kwargs)
    try:
        with connect(
            lgid,
            client_id=client_id,
            keypair=keypair,
            service=service,
            expected_lsp_key=expected_lsp_key,
            timeout=timeout,
        ) as session:
            yield session
    finally:
        if not remote:
            drop_ledger(lgid, missing_ok=True)


# ------------------------------------------------------------------ sessions

#: ``service=`` accepts a LedgerService, True (spin up a default one the
#: session owns), or a ServiceConfig (spin up an owned one with those knobs).
ServiceConfigLike = Any


def _parse_remote_uri(lgid: str) -> tuple[str, int] | None:
    """``ledger://host:port`` → ``(host, port)``; None when not address-shaped.

    Local registry ids (``ledger://demo``) carry no port, so the two URI
    families never collide — and a *registered* id always wins regardless.
    """
    from urllib.parse import urlsplit

    if "://" not in lgid:
        return None
    try:
        parts = urlsplit(lgid)
        host, port = parts.hostname, parts.port
    except ValueError:
        return None
    if parts.scheme != "ledger" or not host or port is None:
        return None
    return host, port


def connect(
    lgid: str,
    *,
    client_id: str | None = None,
    keypair: KeyPair | None = None,
    service: LedgerService | ServiceConfigLike = None,
    expected_lsp_key: Any = None,
    timeout: float | None = None,
) -> "VerifyingSession":
    """Open a session handle on a registered ledger — or a remote one.

    A ``lgid`` naming a registered ledger yields a local
    :class:`LedgerSession`.  A ``ledger://host:port`` address that is *not*
    registered locally connects over TCP instead, returning a
    :class:`~repro.net.client.RemoteLedgerSession` with the same append /
    proof surface whose receipts and proofs are verified client-side
    (``expected_lsp_key`` pins the server's LSP key out-of-band; ``timeout``
    bounds each remote call).  Both session kinds context-manage and
    ``close()`` identically, so callers move between backends untouched.

    ``client_id`` / ``keypair`` become the session's defaults for signing
    appends (overridable per call).  ``service`` routes a *local* session's
    appends through a group-commit front end: pass an existing
    :class:`LedgerService` (shared with other sessions; the caller closes
    it), ``True`` for a service the session creates and owns, or a
    :class:`~repro.service.ServiceConfig` for an owned service with those
    coalescing knobs.

    Kwarg symmetry: both transports accept the same parameter list, and
    each rejects what it cannot honour with a typed :class:`UsageError`
    naming the transport.  Which kwarg belongs to which transport is the
    declarative :data:`~repro.session.CAPABILITIES` table — ``service=`` is
    local-only, ``expected_lsp_key=`` and ``timeout=`` are remote-only —
    and the error carries the table's rationale.

    Raises:
        UsageError: unknown ``lgid``, a malformed ``scheme://`` address,
            ``service`` misuse, or a kwarg the resolved transport does not
            support.
    """
    # One lock acquisition resolves membership AND the ledger object: a
    # check-then-get split would race a concurrent drop_ledger into a
    # misleading "unknown ledger" after the membership check passed.
    with _REGISTRY_LOCK:
        ledger = _REGISTRY.get(lgid)
    if ledger is None:
        address = _parse_remote_uri(lgid)
        if address is not None:
            check_transport_kwargs("remote", lgid, service=service)
            from .net.client import RemoteLedgerSession

            host, port = address
            return RemoteLedgerSession(
                host,
                port,
                lgid=lgid,
                client_id=client_id,
                keypair=keypair,
                expected_lsp_key=expected_lsp_key,
                timeout=timeout if timeout is not None else 30.0,
            )
        if "://" in lgid:
            # Address-shaped but unusable (no port, bad port, wrong scheme)
            # AND not a registered id: name the malformed URI instead of
            # falling through to a misleading "unknown ledger".
            raise UsageError(
                f"malformed ledger uri {lgid!r}: not a registered ledger id, "
                f"and not a usable remote address (remote connections need "
                f"ledger://host:port with an explicit port)"
            )
        raise UsageError(f"unknown ledger: {lgid!r}")
    check_transport_kwargs(
        "local", lgid, expected_lsp_key=expected_lsp_key, timeout=timeout
    )
    return LedgerSession(
        ledger,
        lgid=lgid,
        client_id=client_id,
        keypair=keypair,
        service=service,
    )


class LedgerSession(SessionHelpers):
    """A handle binding one ledger (plus optional service and identity).

    Where the paper's free functions re-resolve an ``lgid`` string and
    re-ask for identity on every call, a session resolves everything once::

        with repro.api.scoped_ledger("ledger://t") as session:
            session.ledger.registry.register("alice", Role.USER, alice.public)
            receipt = session.append(b"hello", clues=("C",),
                                     client_id="alice", keypair=alice)
            assert session.verify(VerifyTarget.TX,
                                  txdata=[session.ledger.get_journal(receipt.jsn)])

    Sessions are cheap; open as many as there are client identities.  A
    session is thread-safe exactly when its append path is: direct appends
    mutate the ledger and need external coordination, service-backed
    appends (``service=...``) are safe from any thread.
    """

    transport = "local"

    def __init__(
        self,
        ledger: Ledger,
        *,
        lgid: str | None = None,
        client_id: str | None = None,
        keypair: KeyPair | None = None,
        service: LedgerService | ServiceConfigLike = None,
    ) -> None:
        self.ledger = self._backend = ledger
        self.lgid = lgid if lgid is not None else ledger.config.uri
        self.client_id = client_id
        self.keypair = keypair
        self._owns_service = False
        if service is None or isinstance(service, (LedgerService, ShardedLedgerService)):
            self.service = service
        elif service is True or isinstance(service, ServiceConfig):
            self.service = deployment_service(ledger, None if service is True else service)
            self._owns_service = True
        else:
            raise UsageError(
                "service must be a LedgerService, a ShardedLedgerService, "
                f"a ServiceConfig, True, or None — got {type(service).__name__}"
            )

    # ------------------------------------------------------------- appends

    def _build_request(
        self,
        client_id: str,
        keypair: KeyPair,
        payload: bytes,
        clues: tuple[str, ...],
        nonce_offset: int = 0,
    ) -> ClientRequest:
        return ClientRequest.build(
            self.ledger.config.uri,
            client_id,
            payload,
            clues=clues,
            nonce=(self.ledger.size + nonce_offset).to_bytes(8, "big"),
            client_timestamp=self.ledger.clock.now(),
        ).signed_by(keypair)

    def _sign(
        self,
        items: list[tuple[bytes, tuple[str, ...]]],
        client_id: str | None,
        keypair: KeyPair | None,
    ) -> list[ClientRequest]:
        client_id = client_id if client_id is not None else self.client_id
        keypair = keypair if keypair is not None else self.keypair
        if client_id is None or keypair is None:
            raise UsageError(
                "no signing identity: pass client_id and keypair here or "
                "bind them at connect()"
            )
        return [
            self._build_request(client_id, keypair, payload, clues, nonce_offset=index)
            for index, (payload, clues) in enumerate(items)
        ]

    def _append(self, request: ClientRequest, timeout: float | None) -> Receipt:
        if self.service is not None:
            return self.service.append(request, timeout=timeout)
        return self.ledger.append(request)

    def _append_batch(
        self, requests: list[ClientRequest], timeout: float | None
    ) -> list[Receipt]:
        if self.service is not None:
            futures = [self.service.submit(request) for request in requests]
            return [future.result(timeout) for future in futures]
        return self.ledger.append_batch(requests)

    def _append_acked(
        self,
        request: ClientRequest,
        deadline_epochs: int | None,
        timeout: float | None,
    ) -> tuple[Receipt, SubmissionAck]:
        # The ack pins the tree coordinates *at admission*: issue it first.
        ack = self.ledger.issue_ack(request, deadline_epochs)
        return self._append(request, timeout), ack

    # ------------------------------------------------------------- exporting

    def export(
        self,
        path: Any = None,
        *,
        clues: tuple[str, ...] = (),
    ) -> ExportBundle:
        """Export this ledger as a self-contained offline bundle (§17).

        The :class:`~repro.export.ExportBundle` carries the journal slice,
        existence/clue proofs, epoch anchors, the STH chain with consistency
        assertions, and the trusted LSP/CA material — everything
        :func:`repro.export.verify_bundle` needs to re-run what/when/who on
        a machine that has never seen this deployment.  Sharded ledgers
        export all shards under their composite head through the same call.

        ``path`` additionally writes the bundle's canonical bytes to disk
        (durably, via the same commit discipline as snapshots); ``clues``
        selects clue lineages to include with their CM-Tree proofs.
        """
        return export_bundle(self.ledger, clues=tuple(clues), path=path)

    # ------------------------------------------------------------ verifying

    def _tx_what(
        self, journal: Journal, rho: Any, root: bytes | None, level: VerifyLevel
    ) -> tuple[bool, dict]:
        """TX evidence in process: a full-chain proof, checked by the ledger
        at SERVER level, folded against ``root`` (default: the root of the
        head the proof was cut at) at CLIENT level."""
        ledger = self.ledger
        try:
            # Routed by the journal's *content*: on a sharded ledger its
            # stamped jsn is shard-local, so indexing the facade with it
            # would mis-route.  Proof and default root come from one head
            # (one per shard), so a commit between two reads cannot tear them.
            if rho is None:
                proof, head_root = ledger.tx_evidence(journal)
            else:
                proof, head_root = rho, ledger.current_root()
        except (IndexError, KeyError):
            return False, {"detail": f"no proof obtainable for jsn {journal.jsn}"}
        if level is VerifyLevel.SERVER:
            trusted = ledger.current_root()
            ok = ledger.verify_journal(journal, proof)
        else:
            # A ShardProof folds the per-shard chain through the shard→root
            # link, so ``trusted`` is then the deployment's composite root.
            trusted = root if root is not None else head_root
            ok = tx_what(journal.tx_hash(), proof, trusted)
        return ok, {"proof": proof, "trusted_root": trusted}

    def _clue_what(
        self, key: str, txdata: list[Journal], rho: Any, root: bytes | None, level: VerifyLevel
    ) -> tuple[bool, dict]:
        """CLUE evidence in process: the ledger's own CM-Tree check at SERVER
        level, a clue proof folded against ``root`` (default: the state root
        of the head the proof was cut at) at CLIENT level."""
        ledger = self.ledger
        if level is VerifyLevel.SERVER:
            proof, trusted = rho, ledger.state_root()
            ok = ledger.verify_clue(key, txdata)
        else:
            if rho is None:
                proof, head_root = ledger.clue_evidence(key)
            else:
                proof, head_root = rho, ledger.state_root()
            trusted = root if root is not None else head_root
            ok = clue_what(key, [journal.tx_hash() for journal in txdata], proof, trusted)
        return ok, {"proof": proof, "trusted_root": trusted}

    def verify_dasein(
        self,
        jsn: int,
        receipt: Receipt | None = None,
        *,
        tsa_keys: dict[str, PublicKey] | None = None,
        trusted_root: bytes | None = None,
    ) -> VerifyResult:
        """Full three-factor (what/when/who) verification of one journal.

        Exports the ledger view, runs :class:`DaseinVerifier` over it, and
        lifts the :class:`DaseinReport` into a :class:`VerifyResult` with
        per-factor verdicts.  ``tsa_keys`` should come from the time
        authorities directly; ``trusted_root`` defaults to the latest
        receipt's LSP-signed ledger root.

        Raises:
            UsageError: no trusted root is available (fresh ledger, no
                receipt, no explicit ``trusted_root``).
            JournalNotFoundError: no journal exists at ``jsn``.
        """
        # Dasein evidence (receipt, anchors, view) is all shard-local: run
        # the three-factor check on the shard that owns the (global) jsn.
        shards = self.ledger.shards
        shard_index, jsn = locate(jsn, len(shards))
        ledger = shards[shard_index]
        view = ledger.export_view()
        try:
            verifier = DaseinVerifier(view, tsa_keys=tsa_keys, trusted_root=trusted_root)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        proof = ledger.get_proof(jsn, anchored=False)
        if receipt is None:
            receipt = ledger.receipt_for(jsn)
        report = verifier.verify_dasein(jsn, proof, receipt)
        return VerifyResult.from_dasein(
            report, proof=proof, trusted_root=verifier.trusted_root, level="client"
        )

    def audit(
        self,
        *,
        tsa_keys: dict[str, PublicKey] | None = None,
        workers: int = 0,
        resume: bool = False,
        checkpoint: CheckpointStore | str | None = None,
        temporal_range: tuple[float, float] | None = None,
        verify_client_signatures: bool = True,
        early_terminate: bool = True,
        **kwargs: Any,
    ) -> AuditReport:
        """Run the §V Dasein-complete audit over this ledger's exported view.

        The session exports a fresh :class:`LedgerView` and hands it to
        :func:`repro.audit.dasein_audit`; the returned :class:`AuditReport`
        carries per-sub-proof steps and replay counters, with ``passed`` the
        Definition-1 conjunction.

        ``workers`` enables the parallel engine (signature chunks overlap
        the replay fold; the report stays byte-identical to sequential).
        ``checkpoint`` (a path or :class:`~repro.audit.CheckpointStore`)
        makes the audit resumable; with ``resume=True`` a previously
        interrupted audit of this ledger continues from its last verified
        block range instead of genesis.  Remaining keyword arguments
        (``chunk_size``, ``checkpoint_every``, ``pool``) pass through.

        ``tsa_keys`` must come from the time authorities directly — an audit
        that takes them from the LSP proves nothing about *when*.

        Raises:
            UsageError: ``resume=True`` without a ``checkpoint``.
        """
        if resume and checkpoint is None:
            raise UsageError("audit(resume=True) needs a checkpoint= store or path")
        options = dict(
            tsa_keys=tsa_keys,
            workers=workers,
            checkpoint=checkpoint,
            resume=resume,
            temporal_range=temporal_range,
            verify_client_signatures=verify_client_signatures,
            early_terminate=early_terminate,
            **kwargs,
        )
        # One shard's audit is its own report; several run in parallel into
        # one ShardedAuditReport (truthy iff every shard passed).
        return audit_shards(self.ledger.shards, **options)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Release session resources: drains+closes an owned service only."""
        if self._owns_service and self.service is not None:
            self.service.close()

    def __repr__(self) -> str:
        mode = "service" if self.service is not None else "direct"
        return f"<LedgerSession {self.lgid} {mode} client_id={self.client_id!r}>"
