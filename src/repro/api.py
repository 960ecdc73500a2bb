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
* :func:`connect` returns a :class:`~repro.session.Session` bound to one
  ledger — in process a :class:`LedgerSession` (optionally over a
  :class:`~repro.service.LedgerService`, so appends ride the group-commit
  path), over TCP a :class:`~repro.net.client.RemoteLedgerSession` — whose
  ``append / append_batch / list_tx / get_proof / verify`` methods never
  re-look anything up;
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
from .audit import AuditReport
from .core.errors import UsageError
from .core.ledger import Ledger, LedgerConfig
from .crypto.keys import KeyPair
from .export.bundle import ExportBundle
from .export.rebuild import RebuildReport
from .service import LedgerService, ServiceConfig
from .session import LocalPort, Session, check_transport_kwargs
from .shard import ShardedLedgerService, deployment_service, new_deployment

__all__ = [
    "Artifact",
    "AuditReport",
    "ExportBundle",
    "RebuildReport",
    "VerifyLevel",
    "VerifyTarget",
    "VerifyResult",
    "Session",
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
) -> Iterator["Session"]:
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
) -> "Session":
    """Open a session handle on a registered ledger — or a remote one.

    Either way the handle is one :class:`~repro.session.Session` class over
    a port.  A ``lgid`` naming a registered ledger yields a
    :class:`LedgerSession` (the in-process port).  A ``ledger://host:port``
    address that is *not* registered locally connects over TCP instead,
    returning a :class:`~repro.net.client.RemoteLedgerSession`
    (``expected_lsp_key`` pins the server's LSP key out-of-band; ``timeout``
    bounds each remote call), so callers move between backends untouched.

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


class LedgerSession(Session):
    """A :class:`~repro.session.Session` over the in-process port on ``ledger``.

    ``ledger`` is a :class:`Ledger` or a :class:`~repro.shard.ShardedLedger`
    (the session's ``.ledger``).  ``service`` routes appends through a
    group-commit front end (the session's ``.service``): an existing
    :class:`LedgerService` / :class:`~repro.shard.ShardedLedgerService`
    (shared; the caller closes it), ``True`` for one the session creates and
    owns, or a :class:`~repro.service.ServiceConfig` for an owned one with
    those knobs::

        with repro.api.scoped_ledger("ledger://t") as session:
            session.ledger.registry.register("alice", Role.USER, alice.public)
            receipt = session.append(b"hello", clues=("C",),
                                     client_id="alice", keypair=alice)
            assert session.verify(VerifyTarget.TX,
                                  txdata=[session.ledger.get_journal(receipt.jsn)])

    Raises:
        UsageError: ``service`` is none of those.
    """

    def __init__(
        self,
        ledger: Ledger,
        *,
        lgid: str | None = None,
        client_id: str | None = None,
        keypair: KeyPair | None = None,
        service: LedgerService | ServiceConfigLike = None,
    ) -> None:
        owned = service is True or isinstance(service, ServiceConfig)
        if owned:
            service = deployment_service(ledger, None if service is True else service)
        elif service is not None and not isinstance(service, (LedgerService, ShardedLedgerService)):
            raise UsageError(
                "service must be a LedgerService, a ShardedLedgerService, "
                f"a ServiceConfig, True, or None — got {type(service).__name__}"
            )
        port = LocalPort(ledger, service, owns_service=owned)
        super().__init__(port, lgid=lgid, client_id=client_id, keypair=keypair)
        self.ledger, self.service = ledger, service
