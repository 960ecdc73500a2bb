"""Remote ledger client SDK: asyncio core plus a synchronous wrapper.

The design rule is the paper's threat model: **the server is untrusted**.
Every byte that comes back over the socket is a *claim* until the client has
checked it against something it trusts:

* receipts and acks pass :func:`repro.session.accept_receipts` — the LSP
  signature under the key pinned at connect time, the exact request hash
  the client signed, this ledger's URI — before any caller sees them;
* proofs are folded by the :class:`~repro.session.Session` over this port,
  the same session class an in-process caller uses (its
  :class:`~repro.verify.AnchorTracker` reads through this connection).

What the client necessarily takes on faith is documented in DESIGN.md
"Verification kernel" (completeness of ``list_tx``, freshness of roots
between syncs — the non-equivocation gap the transparency layer closes).

:class:`AsyncRemoteLedger` is the asyncio core: one connection, pipelined
request ids, out-of-order completion, plus a pool of blocking read sockets
for calls made off its loop.  :class:`RemoteLedgerClient` wraps it for
synchronous code by parking the event loop on a background thread: it is
the TCP port of a :class:`~repro.session.Session`, and
:class:`RemoteLedgerSession` (what ``repro.api.connect("ledger://host:port")``
hands out) is a session over a new one.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import socket
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, TypeVar

if TYPE_CHECKING:
    from ..export.bundle import ExportBundle

from ..artifacts import VerifyResult
from ..core.errors import (
    AuthenticationError,
    AuthorizationError,
    JournalNotFoundError,
    JournalOccultedError,
    JournalPurgedError,
    LedgerError,
    UsageError,
    VerificationFailure,
)
from ..core.journal import ClientRequest, Journal
from ..core.receipt import Receipt
from ..crypto.hashing import Digest
from ..crypto.keys import KeyPair, PublicKey
from ..encoding import EncodingError
from ..merkle.cmtree import ClueProof
from ..merkle.fam import FamProof
from ..merkle.proofs import MembershipProof
from ..service import ServiceClosedError, ServiceOverloadedError, ServiceTimeout
from ..session import Session, accept_receipts, accepted, carry
from ..transparency.censorship import SubmissionAck
from ..transparency.sth import (
    ConsistencyAssertion,
    ConsistencyBundle,
    SignedTreeHead,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameConnection,
    FrameDecoder,
    ProtocolError,
    encode_frame,
    request as make_request,
)

__all__ = [
    "AsyncRemoteLedger",
    "RemoteLedgerClient",
    "RemoteLedgerError",
    "RemoteLedgerSession",
]


class RemoteLedgerError(LedgerError):
    """Transport-level failure: connection lost, server gone, bad handshake."""


#: Server-side exception types that re-raise as their local counterparts.
_ERROR_TYPES: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        AuthenticationError, AuthorizationError, UsageError, VerificationFailure,
        JournalNotFoundError, JournalOccultedError, JournalPurgedError,
        ServiceClosedError, ServiceOverloadedError, ServiceTimeout, ProtocolError,
    )
}


def _remote_error(error: Any) -> Exception:
    """The local exception for a typed error frame."""
    if not isinstance(error, dict):
        return RemoteLedgerError(f"malformed error response: {error!r}")
    error_type = error.get("type", "?")
    detail = error.get("message", "")
    exc_class = _ERROR_TYPES.get(error_type, RemoteLedgerError)
    return exc_class(f"[remote {error_type}] {detail}")


_T = TypeVar("_T")


def _require(result: Any, field: str, valid: Callable[[Any], bool], kind: str) -> Any:
    """Reply field ``field``, checked with ``valid`` before it is used: a
    hostile integer never becomes that many zero bytes here, nor a string a
    list of jsns."""
    value = result.get(field) if isinstance(result, dict) else None
    if not valid(value):
        raise VerificationFailure(f"reply field '{field}' must be {kind}")
    return value


def _is_blob(value: Any) -> bool:
    return isinstance(value, (bytes, bytearray))


def _is_uint(value: Any) -> bool:
    return type(value) is int and value >= 0


def _require_bytes(result: Any, field: str) -> bytes:
    return bytes(_require(result, field, _is_blob, "bytes"))


def _require_blobs(result: Any, field: str) -> list[bytes]:
    blobs = _require(
        result,
        field,
        lambda value: isinstance(value, list) and all(map(_is_blob, value)),
        "a list of bytes",
    )
    return [bytes(blob) for blob in blobs]


def _require_int(result: Any, field: str) -> int:
    """A size, an index or a height: a non-negative integer (not a bool)."""
    return _require(result, field, _is_uint, "a non-negative integer")


def _require_ints(result: Any, field: str) -> list[int]:
    ints = _require(
        result,
        field,
        lambda value: isinstance(value, list) and all(map(_is_uint, value)),
        "a list of non-negative integers",
    )
    return list(ints)


def _require_str(result: Any, field: str) -> str:
    return _require(result, field, lambda value: isinstance(value, str), "a string")


def _require_bool(result: Any, field: str) -> bool:
    return _require(result, field, lambda value: isinstance(value, bool), "a boolean")


def _decoded(loader: Callable[[bytes], _T], blob: bytes, field: str) -> _T:
    """``loader(blob)``, a record (or key) the reply carried: undecodable
    bytes fail verification, never with a bare codec error."""
    try:
        return loader(blob)
    except (EncodingError, ValueError) as exc:
        raise VerificationFailure(f"undecodable '{field}' in the reply: {exc}") from None


class _ReceiptChecker:
    """Micro-batched receipt acceptance (:func:`repro.session.accept_receipts`).

    Receipts whose responses land in the same event-loop burst (the common
    case under pipelining: the server group-commits a window and writes the
    response frames back-to-back) are verified with **one** batched ECDSA
    pass — all receipts carry the same LSP key, so
    :func:`repro.crypto.keys.verify_batch` collapses the group into a single
    randomised aggregate equation plus a shared inversion, the same fast
    path the audit engine uses.  A lone receipt costs exactly one ordinary
    verification; correctness is per-receipt either way (a bad signature in
    a batch is re-checked and attributed individually).
    """

    def __init__(self, remote: "AsyncRemoteLedger") -> None:
        self._remote = remote
        self._pending: list[tuple[Receipt, ClientRequest, asyncio.Future]] = []
        self._scheduled = False

    def check(self, receipt: Receipt, request: ClientRequest) -> asyncio.Future:
        """Future resolving to the receipt once verified (or failing typed)."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((receipt, request, future))
        if not self._scheduled:
            self._scheduled = True
            loop.call_soon(self._drain)
        return future

    def _drain(self) -> None:
        self._scheduled = False
        pending, self._pending = self._pending, []
        if not pending:
            return
        remote = self._remote
        faults = accept_receipts(
            remote.lsp_public_key,
            remote.ledger_uri,
            [(request, receipt) for receipt, request, _future in pending],
        )
        for (receipt, _request, future), fault in zip(pending, faults):
            if future.done():
                continue
            if fault is not None:
                future.set_exception(fault)
            else:
                future.set_result(receipt)


class _SubmitCoalescer:
    """Client-side group commit: pipelined :meth:`AsyncRemoteLedger.submit`
    calls landing in the same event-loop tick ride one ``append_batch``
    frame.

    The per-frame costs — request envelope, frame encode, send/drain, the
    server's read/dispatch/response cycle — are paid once per group instead
    of once per append, which is what keeps a single-process benchmark
    (client, server, and commit writer all sharing one GIL) honest about
    *protocol* overhead rather than measuring Python thread churn.  Receipts
    come back in request order and each caller's future resolves with its
    own locally-verified receipt; a rejected group fails every member with
    the server's typed error (use :meth:`AsyncRemoteLedger.append` for
    per-request isolation).
    """

    def __init__(self, remote: "AsyncRemoteLedger", max_group: int = 64) -> None:
        self._remote = remote
        self._max_group = max_group
        self._pending: list[tuple[ClientRequest, asyncio.Future]] = []
        self._scheduled = False

    def submit(self, request: ClientRequest) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, future))
        if not self._scheduled:
            self._scheduled = True
            loop.call_soon(self._launch)
        return future

    def _launch(self) -> None:
        self._scheduled = False
        pending, self._pending = self._pending, []
        while pending:
            group, pending = pending[: self._max_group], pending[self._max_group :]
            asyncio.ensure_future(self._send_group(group))

    async def _send_group(
        self, group: list[tuple[ClientRequest, asyncio.Future]]
    ) -> None:
        requests = [request for request, _future in group]
        try:
            if len(group) == 1:
                receipts = [await self._remote.append(requests[0])]
            else:
                receipts = await self._remote.append_batch(requests)
        except BaseException as exc:
            for _request, future in group:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_request, future), receipt in zip(group, receipts):
            if not future.done():
                future.set_result(receipt)


class AsyncRemoteLedger(FrameConnection):
    """One pipelined connection to a :class:`~repro.net.server.LedgerServer`.

    Create with :meth:`connect`; every public coroutine may be in flight
    concurrently on its loop — responses are matched by request id, so slow
    bulk operations never block fast ones.  Awaited on any other thread,
    :meth:`_call` is a blocking round trip on a pooled read socket instead,
    so a read coroutine (whose only await is :meth:`_call`) finishes there
    without yielding: that is how :class:`RemoteLedgerClient` reads.
    """

    #: Seconds one blocking round trip may take (the sync client sets its own).
    timeout: float = 30.0

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        super().__init__(max_bytes=max_frame_bytes)
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._closed = False
        self._conn_error: BaseException | None = None
        self._loop_thread = 0
        self._checker = _ReceiptChecker(self)
        self._coalescer = _SubmitCoalescer(self)
        # Blocking read sockets to the same server: every open one, and the
        # idle ones among them.  A socket carries one request at a time.
        self._address = ("", 0)
        self._read_lock = threading.Lock()
        self._read_sockets: set[socket.socket] = set()
        self._idle: list[socket.socket] = []
        # Filled by the hello handshake.
        self.ledger_uri: str = ""
        self.lsp_public_key: PublicKey | None = None
        self.ca_public_key: PublicKey | None = None
        self.fractal_height: int = 0

    # ---------------------------------------------------------- lifecycle

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        expected_lsp_key: PublicKey | bytes | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> "AsyncRemoteLedger":
        """Open a connection and run the hello handshake.

        ``expected_lsp_key`` is the out-of-band trust root for receipts: a
        :class:`PublicKey` (or its serialized bytes) the server's claimed
        LSP key must equal.  Without it the key is pinned trust-on-first-use
        — fine for tests and demos, documentedly weaker for deployments.
        """
        try:
            _transport, remote = await asyncio.get_running_loop().create_connection(
                lambda: cls(max_frame_bytes=max_frame_bytes), host, port
            )
        except OSError as exc:
            raise RemoteLedgerError(f"cannot reach ledger at {host}:{port}: {exc}") from None
        remote._address = (host, port)
        try:
            await remote._hello(expected_lsp_key)
        except BaseException:
            await remote.close()
            raise
        return remote

    async def _hello(self, expected_lsp_key: PublicKey | bytes | None) -> None:
        """The handshake: adopt the server's claimed identity, every field
        type-checked, the LSP key against ``expected_lsp_key`` when given."""
        hello = await self._call("hello", protocol=PROTOCOL_VERSION)
        self.ledger_uri = _require_str(hello, "ledger_uri")
        self.fractal_height = _require_int(hello, "fractal_height")
        claimed = _require_bytes(hello, "lsp_public_key")
        if expected_lsp_key is not None:
            expected = (
                expected_lsp_key.to_bytes()
                if isinstance(expected_lsp_key, PublicKey)
                else bytes(expected_lsp_key)
            )
            if claimed != expected:
                raise VerificationFailure(
                    "server's claimed LSP key does not match the expected key"
                )
        self.lsp_public_key = _decoded(PublicKey.from_bytes, claimed, "lsp_public_key")
        self.ca_public_key = _decoded(
            PublicKey.from_bytes, _require_bytes(hello, "ca_public_key"), "ca_public_key"
        )

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._close_read_sockets()
        self._fail_pending(RemoteLedgerError("connection closed"))
        self.flush()
        self.transport.close()
        await self.lost

    # ----------------------------------------------------------- plumbing

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self._loop_thread = threading.get_ident()

    def frames_received(self, messages: list[dict], violation: ProtocolError | None) -> None:
        for message in messages:
            future = self._pending.pop(message["id"], None)
            if future is None or future.done():
                continue  # late response for an abandoned request
            if message.get("ok"):
                future.set_result(message.get("result"))
            else:
                future.set_exception(_remote_error(message.get("error")))
        if violation is not None:
            self._fail_pending(violation)
            self.transport.close()

    def connection_lost(self, exc: BaseException | None) -> None:
        super().connection_lost(exc)
        reason = "server closed the connection" if exc is None else f"connection lost: {exc}"
        self._fail_pending(RemoteLedgerError(reason))

    def _fail_pending(self, error: BaseException) -> None:
        # Set before draining: a _call racing with this sees the error and
        # fails fast instead of parking a future nobody will ever resolve.
        if self._conn_error is None:
            self._conn_error = error
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _call(self, op: str, **fields: Any) -> dict:
        """One request/response.  On the loop thread the frame joins this
        tick's write and the reply is an asyncio future; on any other thread
        it is one blocking round trip on a pooled read socket, made there."""
        if self._closed:
            raise RemoteLedgerError("client is closed")
        if self._conn_error is not None:
            raise self._conn_error
        if threading.get_ident() != self._loop_thread:
            return self._round_trip(op, fields)
        request_id = next(self._ids)
        frame = encode_frame(make_request(request_id, op, **fields), max_bytes=self.max_bytes)
        future = self._loop.create_future()
        self._pending[request_id] = future
        try:
            self.write(frame)
            return await future
        finally:
            # No-op once answered; otherwise (timed out, cancelled) the
            # entry must not outlive the call.
            self._pending.pop(request_id, None)

    # -------------------------------------------------------- read sockets

    def _round_trip(self, op: str, fields: dict[str, Any]) -> dict:
        """``_call`` off the loop: one request on a read socket of the pool,
        which gets the socket back only after a clean exchange."""
        sock = self._read_socket()
        try:
            request_id = next(self._ids)
            frame = encode_frame(make_request(request_id, op, **fields), max_bytes=self.max_bytes)
            reply = self._exchange(sock, op, request_id, frame)
        except BaseException:
            self._discard(sock)
            raise
        self._release(sock)
        if reply["ok"]:
            return reply.get("result")
        raise _remote_error(reply.get("error"))

    def _read_socket(self) -> socket.socket:
        """An idle read socket, or a new one whose ``hello`` reported the LSP
        key pinned on this connection — nothing is read over one that did not."""
        with self._read_lock:
            if self._closed:
                raise RemoteLedgerError("client is closed")
            if self._idle:
                return self._idle.pop()
        host, port = self._address
        try:
            sock = socket.create_connection((host, port), timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise RemoteLedgerError(f"cannot reach ledger at {host}:{port}: {exc}") from None
        with self._read_lock:
            if self._closed:
                sock.close()
                raise RemoteLedgerError("client is closed")
            self._read_sockets.add(sock)
        request_id = next(self._ids)
        hello = make_request(request_id, "hello", protocol=PROTOCOL_VERSION)
        try:
            reply = self._exchange(sock, "hello", request_id, encode_frame(hello))
            result = reply.get("result") if reply["ok"] else None
            claimed = result.get("lsp_public_key") if isinstance(result, dict) else None
            if self.lsp_public_key is None or claimed != self.lsp_public_key.to_bytes():
                raise VerificationFailure(
                    "a read connection's server did not report the pinned LSP key"
                )
        except BaseException:
            self._discard(sock)
            raise
        return sock

    def _exchange(self, sock: socket.socket, op: str, request_id: int, frame: bytes) -> dict:
        """Send one request frame and read its one reply, within ``timeout``.

        Anything but exactly one reply frame carrying ``request_id`` raises
        typed, naming ``op``; the caller then closes the socket, so a late
        or extra frame can never be read as the answer to a later call.
        """
        deadline = time.monotonic() + self.timeout
        decoder = FrameDecoder(max_bytes=self.max_bytes)
        messages: list[dict] = []
        try:
            sock.settimeout(self.timeout)
            sock.sendall(frame)
            while not messages:
                data = sock.recv(65536)
                if not data:
                    raise self._gone(op)
                messages = decoder.feed(data)
                if not messages:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError
                    sock.settimeout(remaining)
        except TimeoutError:
            raise RemoteLedgerError(f"no reply to {op} within {self.timeout}s") from None
        except ProtocolError as exc:
            raise ProtocolError(f"{op}: {exc}") from None
        except OSError as exc:
            raise self._gone(op, exc) from None
        if len(messages) > 1 or decoder.pending_bytes:
            raise ProtocolError(f"{op}: more than one frame came back for one request")
        (reply,) = messages
        if reply["id"] != request_id or "ok" not in reply:
            raise ProtocolError(
                f"{op}: expected the reply to request {request_id}, got message {reply['id']}"
            )
        return reply

    def _gone(self, op: str, exc: OSError | None = None) -> RemoteLedgerError:
        if self._closed:
            return RemoteLedgerError(f"{op}: client is closed")
        if exc is None:
            return RemoteLedgerError(f"{op}: server closed the connection")
        return RemoteLedgerError(f"{op}: connection lost: {exc}")

    def _release(self, sock: socket.socket) -> None:
        with self._read_lock:
            if sock in self._read_sockets:  # else close() ran meanwhile
                self._idle.append(sock)
                return
        sock.close()

    def _discard(self, sock: socket.socket) -> None:
        with self._read_lock:
            self._read_sockets.discard(sock)
        sock.close()

    def _close_read_sockets(self) -> None:
        """Close the idle read sockets and shut the busy ones down: that
        wakes their callers, whose failing round trips then close them."""
        with self._read_lock:
            idle, self._idle = self._idle, []
            busy = self._read_sockets.difference(idle)
            self._read_sockets = set()
        for sock in idle:
            sock.close()
        for sock in busy:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)

    # ------------------------------------------------------------ appends

    async def append(self, request: ClientRequest) -> Receipt:
        """Submit one pre-signed request; returns the accepted receipt."""
        result = await self._call("append", request=request.to_bytes())
        receipt = _decoded(Receipt.from_bytes, _require_bytes(result, "receipt"), "receipt")
        return await self._checker.check(receipt, request)

    async def append_acked(
        self, request: ClientRequest, *, deadline_epochs: int | None = None
    ) -> tuple[Receipt, SubmissionAck]:
        """Append with a censorship-accountable admission ack (DESIGN.md §16).

        The server issues the :class:`SubmissionAck` *before* submitting, so
        its tree coordinates pin the state at admission.  Both the receipt
        and the ack pass :func:`~repro.session.accept_receipts` — an ack for
        somebody else's request convicts nobody.
        """
        fields: dict[str, Any] = {"request": request.to_bytes(), "want_ack": True}
        if deadline_epochs is not None:
            fields["ack_deadline"] = int(deadline_epochs)
        result = await self._call("append", **fields)
        receipt = _decoded(Receipt.from_bytes, _require_bytes(result, "receipt"), "receipt")
        if not result.get("ack"):
            raise VerificationFailure("server omitted the requested submission ack")
        ack = _decoded(SubmissionAck.from_bytes, _require_bytes(result, "ack"), "ack")
        receipt = await self._checker.check(receipt, request)
        return receipt, accepted(self.lsp_public_key, self.ledger_uri, [request], [ack])[0]

    async def submit(self, request: ClientRequest) -> Receipt:
        """Pipelined append: same-tick submits coalesce into one
        ``append_batch`` frame (see :class:`_SubmitCoalescer`); the receipt
        is verified exactly like :meth:`append`'s."""
        return await self._coalescer.submit(request)

    async def append_batch(self, requests: list[ClientRequest]) -> list[Receipt]:
        result = await self._call(
            "append_batch", requests=[request.to_bytes() for request in requests]
        )
        receipts = [
            _decoded(Receipt.from_bytes, blob, "receipts")
            for blob in _require_blobs(result, "receipts")
        ]
        if len(receipts) != len(requests):
            raise VerificationFailure(
                f"server returned {len(receipts)} receipts for {len(requests)} requests"
            )
        # Enqueued synchronously, so the whole batch lands in one checker
        # drain — a single aggregated ECDSA pass.
        await asyncio.gather(
            *(self._checker.check(receipt, request) for request, receipt in zip(requests, receipts))
        )
        return receipts

    # -------------------------------------------------------------- reads

    async def get_journal(self, jsn: int) -> Journal:
        """The journal; the anchored proof its reply carries rides along on
        it undecoded (:func:`repro.session.carry`), a claim until folded."""
        result = await self._call("get_journal", jsn=jsn)
        journal = _decoded(Journal.from_bytes, _require_bytes(result, "journal"), "journal")
        if "proof" in result:
            carry(journal, result["proof"])
        return journal

    async def list_tx(self, clue: str) -> list[int]:
        return _require_ints(await self._call("list_tx", clue=clue), "jsns")

    async def get_proof(self, jsn: int, anchored: bool = True) -> FamProof:
        result = await self._call("get_proof", jsn=jsn, anchored=anchored)
        return _decoded(FamProof.from_bytes, _require_bytes(result, "proof"), "proof")

    async def get_proofs(self, jsns: list[int], anchored: bool = True) -> list[FamProof]:
        result = await self._call("get_proofs", jsns=list(jsns), anchored=anchored)
        return [
            _decoded(FamProof.from_bytes, blob, "proofs")
            for blob in _require_blobs(result, "proofs")
        ]

    async def prove_clue(self, clue: str) -> tuple[ClueProof, Digest]:
        """The clue proof plus the server's *claimed* CM-Tree1 root."""
        result = await self._call("prove_clue", clue=clue)
        proof = _decoded(ClueProof.from_bytes, _require_bytes(result, "proof"), "proof")
        return proof, _require_bytes(result, "state_root")

    async def get_root(self) -> dict:
        """The server's claimed commitments (verify before trusting)."""
        result = await self._call("get_root")
        blob = _require_bytes(result, "latest_receipt")
        receipt = _decoded(Receipt.from_bytes, blob, "latest_receipt") if blob else None
        return {
            "root": _require_bytes(result, "root"),
            "state_root": _require_bytes(result, "state_root"),
            "size": _require_int(result, "size"),
            "latest_receipt": receipt,
        }

    async def receipt_for(self, jsn: int) -> Receipt | None:
        blob = _require_bytes(await self._call("receipt_for", jsn=jsn), "receipt")
        return _decoded(Receipt.from_bytes, blob, "receipt") if blob else None

    async def register(self, member_id: str, role: str, public_key: PublicKey) -> None:
        """Ask the server to mint a member.  Refused (AuthorizationError)
        unless the server was started with ``allow_register=True``, and
        only role ``"user"`` is ever accepted over the wire."""
        await self._call(
            "register", member_id=member_id, role=role, public_key=public_key.to_bytes()
        )

    async def verify_journal_remote(self, journal: Journal) -> bool:
        """Ask the *server* to verify (advisory only — it could lie)."""
        result = await self._call("verify_journal", journal=journal.to_bytes())
        return _require_bool(result, "ok")

    async def fam_extension(
        self,
        old_epoch: int,
        old_live_size: int,
        new_epoch: int | None = None,
        new_live_size: int | None = None,
    ) -> tuple[Digest, Digest, ConsistencyBundle]:
        """The server's claimed roots of two fam heads and the bundle between
        them (the new one defaults to its head): a claim until folded.

        Raises:
            VerificationFailure: the reply does not decode to that triple.
        """
        result = await self._call(
            "fam_extension",
            old_epoch=old_epoch,
            old_live_size=old_live_size,
            new_epoch=new_epoch,
            new_live_size=new_live_size,
        )
        old_root, new_root, blob = (
            _require_bytes(result, name) for name in ("old_root", "new_root", "bundle")
        )
        return old_root, new_root, _decoded(ConsistencyBundle.from_bytes, blob, "bundle")

    async def shard_info(self) -> dict:
        """This server's place in its deployment's shard map (DESIGN.md §15).

        A solo server answers with a one-leaf map.
        """
        result = await self._call("shard_info")
        return {
            "shard_index": _require_int(result, "shard_index"),
            "num_shards": _require_int(result, "num_shards"),
            "shard_root": _require_bytes(result, "shard_root"),
            "composite_root": _require_bytes(result, "composite_root"),
            "link": _decoded(MembershipProof.from_bytes, _require_bytes(result, "link"), "link"),
        }

    # ------------------------------------------------------- transparency

    def _check_sth(self, head: SignedTreeHead) -> SignedTreeHead:
        """Every tree head off the wire is a claim until its LSP signature
        verifies against the pinned key and it speaks for this stream."""
        if self.lsp_public_key is None or not head.verify(self.lsp_public_key):
            raise VerificationFailure("tree head failed LSP signature check")
        if head.ledger_uri != self.ledger_uri:
            raise VerificationFailure("tree head speaks for a different ledger")
        return head

    async def get_sth(self, *, composite: bool = False) -> SignedTreeHead:
        """The server's current signed tree head, signature-checked locally.

        ``composite=True`` asks the sharded deployment behind the server for
        its composite head; refused (UsageError) on solo servers.
        """
        result = await self._call("get_sth", composite=bool(composite))
        return self._check_sth(
            _decoded(SignedTreeHead.from_bytes, _require_bytes(result, "sth"), "sth")
        )

    async def get_sth_range(self, start: int, end: int) -> list[SignedTreeHead]:
        result = await self._call("get_sth_range", start=int(start), end=int(end))
        return [
            self._check_sth(_decoded(SignedTreeHead.from_bytes, blob, "sths"))
            for blob in _require_blobs(result, "sths")
        ]

    async def get_consistency(
        self, old: SignedTreeHead, new: SignedTreeHead
    ) -> tuple[ConsistencyBundle | None, ConsistencyAssertion]:
        """Consistency bundle + signed assertion connecting two tree heads.

        The assertion's LSP signature is checked here; whether its roots
        *agree* with the heads is the witness's judgement call
        (:meth:`repro.transparency.Witness.observe_assertion`) — a
        contradiction is evidence, not a transport error.
        """
        result = await self._call(
            "get_consistency", old=old.to_bytes(), new=new.to_bytes()
        )
        blob = _require_bytes(result, "bundle")
        bundle = _decoded(ConsistencyBundle.from_bytes, blob, "bundle") if blob else None
        assertion = _decoded(
            ConsistencyAssertion.from_bytes, _require_bytes(result, "assertion"), "assertion"
        )
        if self.lsp_public_key is None or not assertion.verify(self.lsp_public_key):
            raise VerificationFailure(
                "consistency assertion failed LSP signature check"
            )
        return bundle, assertion

    async def export(self, clues: tuple[str, ...] = ()) -> bytes:
        """Fetch a full offline export bundle (canonical container bytes).

        The bundle is built server-side and travels as one frame, so it is
        subject to the protocol's frame cap — a deployment too large for
        :data:`~repro.net.protocol.MAX_FRAME_BYTES` must be exported at the
        operator's console instead.  The bytes come back *unparsed*; callers
        decode (and thereby CRC-check) with
        :meth:`repro.export.ExportBundle.from_bytes`.
        """
        return _require_bytes(await self._call("export", clues=list(clues)), "bundle")

    async def stats(self) -> dict:
        return await self._call("stats")

    async def ping(self) -> int:
        return _require_int(await self._call("ping"), "size")


def _driven(coroutine):
    """The synchronous face of one :class:`AsyncRemoteLedger` read: same
    signature and docstring, run on the caller's thread by
    :meth:`RemoteLedgerClient._drive` instead of as a task on the loop."""

    @functools.wraps(coroutine)
    def call(self: "RemoteLedgerClient", *args: Any, **kwargs: Any) -> Any:
        return self._drive(coroutine(self._remote, *args, **kwargs))

    return call


class RemoteLedgerClient:
    """The TCP port of a :class:`~repro.session.Session`: one
    :class:`AsyncRemoteLedger` connection on a background loop.  Writes of
    pre-signed requests pipeline on that loop and return only receipts
    :class:`_ReceiptChecker` accepted; reads are blocking round trips on the
    caller's thread over pooled read sockets (``list_tx`` returns jsns, as on
    the wire).  Thread-safe.  ``member_id`` / ``keypair`` sign for
    :attr:`session`.
    """

    transport = "remote"
    #: DESIGN.md §18: a CLIENT-level TX fold with no pinned root trusts the
    #: session's verified anchor store, never a root the server names.
    anchored = True

    def __init__(
        self,
        host: str,
        port: int,
        *,
        member_id: str | None = None,
        keypair: KeyPair | None = None,
        expected_lsp_key: PublicKey | bytes | None = None,
        timeout: float = 30.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self._nonces = itertools.count(1)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="ledger-client", daemon=True
        )
        self._thread.start()
        try:
            self._remote: AsyncRemoteLedger = self._wait(
                AsyncRemoteLedger.connect(
                    host,
                    port,
                    expected_lsp_key=expected_lsp_key,
                    max_frame_bytes=max_frame_bytes,
                ),
                timeout,
            )
        except BaseException:
            self._stop_loop()
            raise
        self._remote.timeout = timeout
        #: The verifying session over this connection, signing as
        #: ``member_id``/``keypair`` (a :class:`RemoteLedgerSession` is it).
        self.session = Session(self, client_id=member_id, keypair=keypair)

    # ----------------------------------------------------------- plumbing

    def _submit(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def _wait(self, coro, timeout: float | None = None):
        """Run ``coro`` on the connection's loop and wait for it — the way
        for calls that need the loop itself (appends: the receipt checker
        and the submit coalescer batch per loop tick)."""
        timeout = self._remote.timeout if timeout is None else timeout
        future = self._submit(coro)
        try:
            return future.result(timeout)
        except TimeoutError:
            future.cancel()  # unwinds the coroutine, which drops its pending entry
            raise RemoteLedgerError(f"no reply to {coro.__name__} within {timeout}s") from None

    def _drive(self, coro):
        """Run a read coroutine on *this* thread.  Off the loop its one
        ``_call`` is a blocking round trip, so it finishes without yielding."""
        try:
            coro.send(None)
        except StopIteration as done:
            return done.value
        coro.close()
        raise UsageError(f"{coro.__name__}() cannot be driven on the client's own loop thread")

    def _stop_loop(self) -> None:
        if self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        if not self._loop.is_running():
            self._loop.close()

    def close(self) -> None:
        """Close the connection and release the background loop.  Idempotent."""
        if not self._loop.is_closed() and self._thread.is_alive():
            try:
                self._wait(self._remote.close())
            except Exception:
                pass
            self._stop_loop()

    @property
    def ledger_uri(self) -> str:
        return self._remote.ledger_uri

    @property
    def lsp_public_key(self) -> PublicKey | None:
        return self._remote.lsp_public_key

    def stamps(self, count: int) -> list[tuple[int, float]]:
        """The connection's next ``count`` nonces, at the wall clock's time."""
        return [(next(self._nonces), time.time()) for _ in range(count)]

    # ------------------------------------------------------------- writes

    def append(self, request: ClientRequest, timeout: float | None = None) -> Receipt:
        return self._wait(self._remote.append(request), timeout)

    def append_batch(self, requests: list[ClientRequest], timeout: float | None = None) -> list:
        return self._wait(self._remote.append_batch(requests), timeout)

    def append_acked(self, request: ClientRequest, deadline_epochs=None, timeout=None) -> tuple:
        coro = self._remote.append_acked(request, deadline_epochs=deadline_epochs)
        return self._wait(coro, timeout)

    def submit(self, request: ClientRequest):
        """A concurrent Future of the accepted receipt; submits in flight
        together share ``append_batch`` frames (see :class:`_SubmitCoalescer`)."""
        return self._submit(self._remote.submit(request))

    # -------------------------------------------------------------- reads

    get_journal = _driven(AsyncRemoteLedger.get_journal)
    list_tx = _driven(AsyncRemoteLedger.list_tx)
    get_proof = _driven(AsyncRemoteLedger.get_proof)
    get_proofs = _driven(AsyncRemoteLedger.get_proofs)
    prove_clue = _driven(AsyncRemoteLedger.prove_clue)
    register = _driven(AsyncRemoteLedger.register)
    export = _driven(AsyncRemoteLedger.export)
    stats = _driven(AsyncRemoteLedger.stats)
    ping = _driven(AsyncRemoteLedger.ping)
    shard_info = _driven(AsyncRemoteLedger.shard_info)
    verify_journal_remote = _driven(AsyncRemoteLedger.verify_journal_remote)
    get_sth = _driven(AsyncRemoteLedger.get_sth)
    get_sth_range = _driven(AsyncRemoteLedger.get_sth_range)
    get_consistency = _driven(AsyncRemoteLedger.get_consistency)
    fam_extension = _driven(AsyncRemoteLedger.fam_extension)

    def export_bundle(self, clues: tuple[str, ...], path: Any = None) -> "ExportBundle":
        """The server's bundle, decoded (magic, CRC) and written to ``path``."""
        from ..export.bundle import ExportBundle

        bundle = ExportBundle.from_bytes(self.export(clues))
        if path is not None:
            bundle.write(path)
        return bundle

    # ------------------------------------------- evidence for the session

    def tx_evidence(self, journal: Journal, rho: Any = None) -> tuple[Any, None]:
        """A full-chain proof, and no root: any root the server names is a claim."""
        return (rho if rho is not None else self.get_proof(journal.jsn, anchored=False)), None

    def clue_evidence(self, clue: str, rho: Any = None) -> tuple[Any, Digest | None]:
        """A clue proof and the server's *claimed* CM-Tree1 root (none for ``rho``)."""
        return (rho, None) if rho is not None else self.prove_clue(clue)

    def check_tx(self, journal: Journal, rho: Any) -> tuple[bool, dict]:
        """SERVER level: the server's own verdict, advisory (it could lie)."""
        return self.verify_journal_remote(journal), {
            "detail": "server-side check (advisory: the server attests its own ledger)"
        }

    def check_clue(self, key: str, txdata: list[Journal], rho: Any) -> None:
        """No wire op checks a clue: the session folds it locally."""
        return None

    @property
    def shards(self) -> list:
        raise UsageError(
            "verify_dasein() and audit() read the ledger's export view, which only "
            "an in-process session has; over TCP, export() a bundle and check it "
            "with repro.export.verify_bundle"
        )

    # benchmarks/e2e/trace.py wraps these by name on this class (ROADMAP 11(a)).
    def sync_anchors(self) -> int:
        return self.session.sync_anchors()

    def verify_journal(self, journal: Journal, proof: FamProof | None = None) -> VerifyResult:
        return self.session.verify_journal(journal, proof)

    def verify_clue(self, clue: str) -> VerifyResult:
        return self.session.verify_clue(clue)

    def verify_shard_link(self, *, max_attempts: int = 4) -> dict:
        """Verify this shard's membership in the deployment's composite root:
        the shard root the server links in must be the live fam root
        :attr:`session` verified append-only, and the link must fold it to
        the claimed composite root at the claimed index.  Returns the
        :meth:`shard_info` dict.  The composite root stays the server's
        claim: pin it across listeners or out of band (DESIGN.md §15).

        Raises:
            VerificationFailure: link inconsistent, or the shard kept
                advancing past this client for ``max_attempts`` rounds.
        """
        state = self.session.state
        for _ in range(max_attempts):
            info = self.shard_info()
            link: MembershipProof = info["link"]
            if (
                link.leaf_index != info["shard_index"]
                or link.tree_size != info["num_shards"]
                or not link.verify(info["shard_root"], info["composite_root"])
            ):
                raise VerificationFailure(
                    "shard link does not place this shard's root in the "
                    "claimed composite root"
                )
            if info["shard_root"] == state.live_root:
                return info
            # The shard committed between our last sync and the snapshot;
            # catch the anchor store up (verified) and re-snapshot.
            self.session.sync_anchors()
            if info["shard_root"] == state.live_root:
                return info
        raise VerificationFailure(
            f"shard root kept advancing past this client for {max_attempts} "
            "rounds; deployment too hot to pin, retry later"
        )


class RemoteLedgerSession(Session):
    """A :class:`~repro.session.Session` over a new TCP port, :attr:`client`
    (whose :attr:`~RemoteLedgerClient.session` this is), pinning
    ``expected_lsp_key`` (trust on first use without it); ``timeout`` bounds
    each call.  ``repro.api.connect("ledger://host:port")`` returns one."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        lgid: str | None = None,
        client_id: str | None = None,
        keypair: KeyPair | None = None,
        expected_lsp_key: PublicKey | bytes | None = None,
        timeout: float = 30.0,
    ) -> None:
        self.client = RemoteLedgerClient(
            host,
            port,
            member_id=client_id,
            keypair=keypair,
            expected_lsp_key=expected_lsp_key,
            timeout=timeout,
        )
        super().__init__(self.client, lgid=lgid, client_id=client_id, keypair=keypair)
        self.client.session = self
