"""The unified session protocol: one verifying surface, any transport.

:class:`VerifyingSession` is the structural type both session classes
satisfy — :class:`repro.api.LedgerSession` (in-process, optionally
service-backed) and :class:`repro.net.client.RemoteLedgerSession` (TCP,
client-side verification).  Code written against the protocol — the
transparency :class:`~repro.transparency.witness.Witness`, the CLI, tests —
runs over either transport with zero branches::

    def cross_audit(session: VerifyingSession) -> WitnessReport:
        head = session.get_sth()            # works local AND remote
        ...

``repro.api.connect()`` returns a :class:`VerifyingSession` for both
registered ``lgid``\\ s and ``ledger://host:port`` addresses, and
``isinstance(session, VerifyingSession)`` holds at runtime for both.

The contract the protocol pins down (DESIGN.md §11/§16):

* identical method *signatures* on every transport — kwargs a transport
  cannot honour are rejected with a typed
  :class:`~repro.core.errors.UsageError` naming the transport, never
  silently swallowed.  Which kwarg belongs to which transport — and *why*
  the others refuse it — lives in one declarative table,
  :data:`CAPABILITIES`, instead of being re-stated at every call site;
* every ``verify``-family method returns a structured
  :class:`~repro.artifacts.VerifyResult` (truthy-compatible with
  the old bools);
* the transparency surface (``get_sth`` / ``get_sth_range`` /
  ``get_consistency`` / ``append_acked``) is part of the session, so
  non-equivocation auditing needs no side channel.

:class:`SessionHelpers` is the shared ABC-style mixin: context management
and argument normalisation live here once instead of per transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from .artifacts import VerifyLevel, VerifyResult, VerifyTarget
from .core.errors import UsageError
from .verify import lift

if TYPE_CHECKING:
    from .core.journal import ClientRequest, Journal
    from .core.receipt import Receipt
    from .crypto.keys import KeyPair
    from .export.bundle import ExportBundle
    from .transparency.censorship import SubmissionAck
    from .transparency.sth import (
        ConsistencyAssertion,
        ConsistencyBundle,
        SignedTreeHead,
    )

__all__ = [
    "CAPABILITIES",
    "SessionHelpers",
    "TransportCapability",
    "VerifyingSession",
    "check_transport_kwargs",
]


# ------------------------------------------------------------- capabilities


@dataclass(frozen=True)
class TransportCapability:
    """One session/connect kwarg and which transports honour it.

    ``reason`` explains — to the caller of the transport that *rejects* the
    kwarg — why passing it there cannot mean anything; it lands verbatim in
    the :class:`UsageError` and in generated documentation, so it should
    read as a sentence fragment after "``:``".
    """

    kwarg: str
    transports: frozenset[str]
    reason: str

    def supports(self, transport: str) -> bool:
        return transport in self.transports


#: The declarative capability table: every kwarg on the session surface
#: that only some transports honour, with the rejection rationale.  Both
#: ``connect()`` and the session classes consult this instead of hand-rolling
#: per-call-site rejections — add a row here, never another inline ``raise``.
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
    "max_workers": TransportCapability(
        kwarg="max_workers",
        transports=frozenset({"local"}),
        reason=(
            "the server's group-commit service owns batching; max_workers "
            "only tunes the local direct-append path"
        ),
    ),
}


def check_transport_kwargs(transport: str, lgid: Any = "?", **kwargs: Any) -> None:
    """Reject any non-``None`` kwarg the table says ``transport`` cannot honour.

    Raises:
        UsageError: naming the kwarg, the transport, and the table's reason.
    """
    for name, value in kwargs.items():
        if value is None:
            continue
        capability = CAPABILITIES.get(name)
        if capability is None or capability.supports(transport):
            continue
        raise UsageError(
            f"{name}= is not supported by the {transport} transport "
            f"({lgid!r}): {capability.reason}"
        )


@runtime_checkable
class VerifyingSession(Protocol):
    """Structural type of a verifying ledger session, local or remote.

    ``runtime_checkable`` checks member *presence* only; the signature
    contract is enforced by the conformance tests (identical parameter
    lists on both implementations, per-transport typed rejection of
    unsupported kwargs).
    """

    def append(
        self,
        payload: bytes | None = None,
        *,
        clue: str | None = None,
        clues: tuple[str, ...] | None = None,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        request: "ClientRequest | None" = None,
        timeout: float | None = None,
    ) -> "Receipt": ...

    def append_batch(
        self,
        items: list[tuple[bytes, str | None]] | None = None,
        *,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        requests: "list[ClientRequest] | None" = None,
        max_workers: int | None = None,
        timeout: float | None = None,
    ) -> "list[Receipt]": ...

    def append_acked(
        self,
        payload: bytes | None = None,
        *,
        clue: str | None = None,
        clues: tuple[str, ...] | None = None,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        request: "ClientRequest | None" = None,
        deadline_epochs: int | None = None,
        timeout: float | None = None,
    ) -> "tuple[Receipt, SubmissionAck]": ...

    def list_tx(self, clue: str) -> "list[Journal]": ...

    def get_proof(self, jsn: int, anchored: bool = True) -> Any: ...

    def get_proofs(self, jsns: list[int], anchored: bool = True) -> list[Any]: ...

    def get_sth(self) -> "SignedTreeHead": ...

    def get_sth_range(self, start: int, end: int) -> "list[SignedTreeHead]": ...

    def get_consistency(
        self, old: "SignedTreeHead", new: "SignedTreeHead"
    ) -> "tuple[ConsistencyBundle | None, ConsistencyAssertion | None]": ...

    def verify(
        self,
        target: Any,
        *,
        key: str | None = None,
        txdata: "list[Journal] | None" = None,
        rho: Any = None,
        root: bytes | None = None,
        level: Any = "server",
    ) -> "VerifyResult": ...

    def export(
        self,
        path: Any = None,
        *,
        clues: tuple[str, ...] = (),
    ) -> "ExportBundle": ...

    def close(self) -> None: ...


class SessionHelpers:
    """Shared behaviour for :class:`VerifyingSession` implementations.

    Context management, the append argument contract and the Verify API's
    dispatch are transport-independent; both session classes inherit them
    from here so the protocol surface cannot drift apart by accident.  A
    transport supplies the hooks underneath: ``_sign`` and ``_append*`` for
    writes, and two evidence fetchers, ``_tx_what`` and ``_clue_what``, each
    returning ``(verdict, evidence)`` for :func:`repro.verify.lift`.
    """

    #: Implementations override with their transport name, used in the
    #: typed errors that reject unsupported kwargs.
    transport = "session"

    def close(self) -> None:  # pragma: no cover - overridden by transports
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @staticmethod
    def _normalize_clues(
        clue: str | None, clues: tuple[str, ...] | None
    ) -> tuple[str, ...]:
        if clue is not None and clues is not None:
            raise UsageError("pass clue= or clues=, not both")
        return tuple(clues) if clues is not None else ((clue,) if clue else ())

    # ------------------------------------------------------------- appends
    #
    # One argument contract for both transports; a transport supplies
    # ``_sign`` (payloads -> requests under the session or per-call
    # identity) and ``_append`` / ``_append_acked`` / ``_append_batch``
    # (requests -> receipts).

    def _request_for(
        self,
        payload: bytes | None,
        clue: str | None,
        clues: tuple[str, ...] | None,
        client_id: str | None,
        keypair: "KeyPair | None",
        request: "ClientRequest | None",
    ) -> "ClientRequest":
        if (payload is None) == (request is None):
            raise UsageError("pass exactly one of a payload or a pre-signed request=")
        if request is not None:
            return request
        items = [(payload, self._normalize_clues(clue, clues))]
        return self._sign(items, client_id, keypair)[0]

    def append(
        self,
        payload: bytes | None = None,
        *,
        clue: str | None = None,
        clues: tuple[str, ...] | None = None,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        request: "ClientRequest | None" = None,
        timeout: float | None = None,
    ) -> "Receipt":
        """Append one transaction; returns the LSP-signed receipt.

        Either pass a pre-signed ``request``, or a ``payload`` signed with
        the session identity (or the per-call ``client_id``/``keypair``).
        With a bound service the append coalesces into a group commit and
        ``timeout`` bounds the wait for the receipt; over the wire it bounds
        the round trip, and the receipt arrives verified against the pinned
        LSP key.

        Raises:
            UsageError: no payload/request, both, or no signing identity.
            AuthenticationError: the ledger rejected the request.
            ServiceClosedError / ServiceOverloadedError / ServiceTimeout:
                service-path admission and wait failures.
        """
        request = self._request_for(payload, clue, clues, client_id, keypair, request)
        return self._append(request, timeout)

    def append_batch(
        self,
        items: list[tuple[bytes, str | None]] | None = None,
        *,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        requests: "list[ClientRequest] | None" = None,
        max_workers: int | None = None,
        timeout: float | None = None,
    ) -> "list[Receipt]":
        """Append many transactions through one amortised pass.

        ``items`` are ``(payload, clue)`` pairs signed with the session (or
        per-call) identity; alternatively pass pre-signed ``requests``.
        In process without a service this is :meth:`Ledger.append_batch`
        (atomic: one bad request rejects the whole batch, ledger untouched).
        With a service the requests are submitted individually, so they
        coalesce with other sessions' traffic and a bad request fails only
        itself; over the wire the batch rides one frame into the server's
        service.

        Raises:
            UsageError: neither/both of ``items`` and ``requests``, no
                signing identity, or ``max_workers`` on a transport that
                cannot honour it.
            AuthenticationError: a request was rejected (direct path: whole
                batch; service path: that request's slot).
        """
        self._check_capabilities(max_workers=max_workers)
        if (items is None) == (requests is None):
            raise UsageError("append_batch() takes exactly one of items= or requests=")
        if requests is None:
            pairs = [(payload, (clue,) if clue else ()) for payload, clue in items]
            requests = self._sign(pairs, client_id, keypair)
        return self._append_batch(requests, max_workers, timeout)

    def append_acked(
        self,
        payload: bytes | None = None,
        *,
        clue: str | None = None,
        clues: tuple[str, ...] | None = None,
        client_id: str | None = None,
        keypair: "KeyPair | None" = None,
        request: "ClientRequest | None" = None,
        deadline_epochs: int | None = None,
        timeout: float | None = None,
    ) -> "tuple[Receipt, SubmissionAck]":
        """Append with a censorship-accountable admission ack (§16).

        The LSP signs a :class:`~repro.transparency.SubmissionAck` pinning
        the request hash to the tree coordinates *at admission*, before the
        append commits.  If the transaction later never appears, the ack
        plus any subsequent signed tree head past ``deadline_epochs`` is
        offline-verifiable :class:`~repro.transparency.CensorshipEvidence`.

        Returns ``(receipt, ack)``; arguments mirror :meth:`append` plus
        ``deadline_epochs`` (default :data:`~repro.core.ledger.Ledger`'s
        ``DEFAULT_ACK_DEADLINE_EPOCHS``).  Over the wire both arrive
        verified against the pinned LSP key.

        Raises:
            UsageError: as :meth:`append`, or ``deadline_epochs < 1``.
        """
        request = self._request_for(payload, clue, clues, client_id, keypair, request)
        return self._append_acked(request, deadline_epochs, timeout)

    # ---------------------------------------------------------------- reads
    #
    # Served by ``self._backend`` — the ledger in process, the verifying
    # remote client over the wire (where every answer arrives checked
    # against the pinned LSP key); both answer to the same calls.

    def list_tx(self, clue: str) -> "list[Journal]":
        """All retrievable journals carrying ``clue`` (cSL lookup)."""
        backend = self._backend
        return [backend.get_journal(jsn) for jsn in backend.list_tx(clue)]

    def get_proof(self, jsn: int, anchored: bool = True) -> Any:
        """The GetProof API: fam existence proof for one journal.

        Raises:
            JournalNotFoundError: no journal exists at ``jsn``.
        """
        return self._backend.get_proof(jsn, anchored=anchored)

    def get_proofs(self, jsns: list[int], anchored: bool = True) -> list[Any]:
        """Bulk GetProof — proofs byte-identical to ``N`` single calls.

        Amortises the shared work across the batch: the link chain from each
        touched epoch up to the current one is computed once per epoch, not
        once per journal, so proving a batch that clusters in few epochs is
        substantially cheaper than looping over :meth:`get_proof`.
        """
        return self._backend.get_proofs(jsns, anchored=anchored)

    def get_sth(self) -> "SignedTreeHead":
        """The current LSP-signed tree head (composite on sharded ledgers)."""
        return self._backend.get_sth()

    def get_sth_range(self, start: int, end: int) -> "list[SignedTreeHead]":
        """Persisted epoch-close tree heads for epochs ``start..end``."""
        return self._backend.get_sth_range(start, end)

    def get_consistency(
        self, old: "SignedTreeHead", new: "SignedTreeHead"
    ) -> "tuple[ConsistencyBundle | None, ConsistencyAssertion | None]":
        """Consistency proof + signed assertion connecting two tree heads.

        Raises:
            UsageError: composite heads, mismatched shards, or heads this
                ledger cannot connect (e.g. an equivocating pair).
        """
        return self._backend.get_consistency(old, new)

    # ----------------------------------------------------------- verifying

    def verify(
        self,
        target: VerifyTarget | str,
        *,
        key: str | None = None,
        txdata: "list[Journal] | None" = None,
        rho: Any = None,
        root: bytes | None = None,
        level: VerifyLevel | str = VerifyLevel.SERVER,
    ) -> VerifyResult:
        """The Verify API (§IV-C), returning structured evidence.

        * ``target=TX`` — existence of the single journal in ``txdata[0]``;
          ``rho`` optionally carries a pre-fetched fam proof.
        * ``target=CLUE`` — N-lineage verification of clue ``key`` over
          ``txdata`` (all related journals, in order); ``rho`` optionally
          carries a pre-fetched :class:`~repro.merkle.cmtree.ClueProof`.

        ``level=SERVER`` asks the ledger itself (over the wire: advisory —
        the server attests its own ledger).  ``level=CLIENT`` folds the
        proof here: against ``root`` when the caller pins a trusted datum
        (the fam commitment for TX — the composite root on a sharded ledger
        — or the CM-Tree1 state root for CLUE), else against the transport's
        own trust state — the latest LSP-signed receipt locally, the
        client's verified anchor store remotely (DESIGN.md "Verification
        kernel" has the per-transport trust table).

        Returns a :class:`VerifyResult` (truthy iff the check passed)
        carrying the proof used and the trusted root.  A *failed* check is a
        falsy result, not an exception.

        Raises:
            UsageError: bad target/level, wrong ``txdata`` shape, missing
                ``key``, or a client-level check with no trusted root
                available.
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

    def _check_capabilities(self, **kwargs: Any) -> None:
        """Typed rejection of kwargs this transport cannot honour.

        Table-driven (:data:`CAPABILITIES`): pass the candidate kwargs and
        every non-``None`` one the table denies this transport raises a
        :class:`UsageError` carrying the table's rationale.
        """
        check_transport_kwargs(
            self.transport, getattr(self, "lgid", "?"), **kwargs
        )


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
