"""Asyncio ledger server: the network front end over :class:`LedgerService`.

One :class:`LedgerServer` listens on a TCP socket and speaks the frame
protocol of :mod:`repro.net.protocol`.  Its job is purely *transport*: every
append is funneled into the group-commit service (so remote traffic
coalesces with in-process traffic into the same single-fsync batches), and
every read is served straight off the ledger's public read API.  The server
adds no trust — clients are expected to re-verify everything it returns.

Connection state machine (DESIGN.md §14)::

    data_received ─▶ FrameDecoder ─▶ backlog ─▶ _dispatch ─┬▶ answered on the loop
      (one loop)                      (in order)           └▶ task ─▶ pool | service

* A request whose op is in :data:`_LOOP_OPS` (bounded work over memory or
  one positional read) is answered where its frame was decoded.  Every other
  op becomes a task, so responses go out in *completion* order — a pipelined
  append stream is never head-of-line blocked behind a bulk proof fetch.
  Clients match responses by request id.
* Replies made in one loop tick leave in one ``transport.write``.
* At most ``max_inflight`` tasks per connection run at once; past that — or
  while the peer is not reading its replies — the connection stops reading
  and TCP backpressure reaches the client.  Blocking service calls
  (``submit`` against a full admission queue) run on a small thread pool, so
  the event loop itself never blocks.
* ``close(drain=True)`` stops accepting connections and new requests,
  answers everything already in flight, then drains the owned service —
  no accepted append is ever dropped without a response.

A hostile or broken peer costs exactly its own connection: malformed frames
poison only that stream (best-effort error frame, then close), and a peer
that trickles bytes one at a time just fills its own decoder.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable

from .. import obs
from ..core.errors import AuthorizationError, UsageError
from ..core.journal import ClientRequest
from ..core.ledger import LSP_MEMBER_ID, Ledger
from ..crypto.ca import Role
from ..crypto.keys import PublicKey
from ..encoding import EncodingError
from ..service import (
    LedgerService,
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadedError,
)
from ..shard.shape import has_composite
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameConnection,
    ProtocolError,
    response_error,
    response_ok,
)

__all__ = ["LedgerServer", "ServerThread"]

#: Ops refused while draining (reads stay up until the socket closes).
_MUTATING_OPS = frozenset({"append", "append_batch", "register"})

#: Ops answered on the loop, where their frame was decoded — no task, no pool
#: hop.  Admission rule: the work is bounded and touches only memory or one
#: positional stream read.  Anything that can wait on a lock, an fsync, the
#: page store or the service queue, or whose result is unbounded, stays out
#: and runs as a task (``get_sth`` signs and may persist a head).
_LOOP_OPS = frozenset(
    "ping hello get_root get_journal get_proof receipt_for "
    "fam_info epoch_anchor epoch_link epoch_leaves epoch_consistency".split()
)


class _Connection(FrameConnection):
    """The server's end of one peer.

    Decoded requests queue in ``backlog`` and are started in arrival order
    while the server may take more: fewer than ``max_inflight`` tasks
    ``inflight`` for this peer and its transport accepting writes.  Otherwise
    the backlog holds and reading pauses, so TCP backpressure reaches the
    peer.  A protocol violation or EOF queues behind the requests received
    before it and ends the connection once those are answered.
    """

    def __init__(self, server: "LedgerServer") -> None:
        super().__init__(max_bytes=server.max_frame_bytes)
        self.server = server
        self.backlog: deque[dict[str, Any] | ProtocolError | None] = deque()
        self.inflight: set[asyncio.Task] = set()
        self.hanging_up = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        if self.server._closed:
            transport.close()
            return
        self.server._connections.add(self)
        obs.inc("net.connections.accepted")
        obs.set_gauge("net.connections.open", len(self.server._connections))

    def connection_lost(self, exc: BaseException | None) -> None:
        super().connection_lost(exc)
        self.hang_up()  # tasks already started run on; their replies are dropped
        self.server._connections.discard(self)
        obs.set_gauge("net.connections.open", len(self.server._connections))

    def frames_received(self, messages: list[dict], violation: ProtocolError | None) -> None:
        self.backlog.extend(messages)
        if violation is not None:
            self.backlog.append(violation)
        self.pump()

    def eof_received(self) -> bool:
        self.backlog.append(None)
        self.pump()
        return True  # keep the write side open for replies still owed

    def pause_writing(self) -> None:
        super().pause_writing()
        self.pump()

    def resume_writing(self) -> None:
        super().resume_writing()
        self.pump()

    def accepting(self) -> bool:
        """May this peer's next request start?"""
        cap = self.server.max_inflight
        return not self.hanging_up and self.writable and len(self.inflight) < cap

    def pump(self) -> None:
        """Start backlogged requests in order, then read on or hold."""
        backlog = self.backlog
        while backlog and self.accepting():
            item = backlog.popleft()
            if isinstance(item, dict):
                obs.inc("net.frames.in")
                self.server._dispatch(self, item)
            else:
                self.hang_up(item)
        if self.accepting():
            self.transport.resume_reading()  # both calls are idempotent
        else:
            self.transport.pause_reading()

    def start(self, serving: Awaitable[None]) -> None:
        task = asyncio.ensure_future(serving)
        self.inflight.add(task)
        task.add_done_callback(self.settle)

    def settle(self, done: asyncio.Task | None = None) -> None:
        """A task finished (or the hang-up began): go on with the backlog,
        or close once the last reply owed has been written."""
        self.inflight.discard(done)
        if not self.hanging_up:
            self.pump()
        elif not self.inflight:
            self.flush()
            self.transport.close()

    def hang_up(self, violation: ProtocolError | None = None) -> None:
        """Take no more requests; close once every started one is answered.

        Framing lost: best-effort error frame first.  Only this peer pays;
        every other connection is unharmed.
        """
        if violation is not None:
            obs.inc("net.errors.protocol")
            with contextlib.suppress(ProtocolError):
                self.send(response_error(0, "ProtocolError", str(violation)))
        self.hanging_up = True
        self.backlog.clear()
        self.settle()


class LedgerServer:
    """Serve one ledger (via its group-commit service) over TCP frames.

    Pass either a :class:`Ledger` (the server creates and owns a
    :class:`LedgerService` over it, closed with the server) or an existing
    :class:`LedgerService` (shared; the caller keeps ownership unless
    ``close_service=True``).

    Member registration is a governance operation (registered members gain
    append access and privileged roles sit in destructive-op signer sets),
    so the ``register`` op is refused unless the operator opts in with
    ``allow_register=True`` — and even then only :attr:`Role.USER` members
    may be minted over the wire; DBA/regulator/LSP registration stays a
    local operator action.

    All coroutine methods must run on one event loop; use
    :class:`ServerThread` to host a server from synchronous code.
    """

    def __init__(
        self,
        target: Ledger | LedgerService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        service_config: ServiceConfig | None = None,
        close_service: bool | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_inflight: int = 64,
        submit_timeout_s: float = 30.0,
        workers: int = 8,
        allow_register: bool = False,
        shard_context: tuple[Any, int] | None = None,
    ) -> None:
        if isinstance(target, LedgerService):
            if service_config is not None:
                raise UsageError("service_config only applies when passing a Ledger")
            self.service = target
            self._owns_service = bool(close_service)
        elif isinstance(target, Ledger):
            self.service = LedgerService(target, service_config)
            self._owns_service = True if close_service is None else close_service
        else:
            raise UsageError(
                f"serve a Ledger or a LedgerService, not {type(target).__name__}"
            )
        self.ledger = self.service.ledger
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.max_inflight = max_inflight
        self.submit_timeout_s = submit_timeout_s
        self.allow_register = allow_register
        #: ``(deployment, shard_index)`` this server fronts (a solo ledger is
        #: its own one-shard deployment): ``shard_info``, heads and exports.
        self.shard_context = shard_context or (self.ledger, 0)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._draining = False
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="ledger-net"
        )
        #: Every ``_op_<name>`` method below serves the wire op ``<name>``:
        #: plain functions for :data:`_LOOP_OPS`, coroutines for the rest.
        self._handlers: dict[str, Callable[[dict], Any]] = {
            name[len("_op_") :]: getattr(self, name)
            for name in dir(self)
            if name.startswith("_op_")
        }

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the actual ``(host, port)`` bound."""
        if self._server is not None:
            raise UsageError("server already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def close(self, *, drain: bool = True) -> None:
        """Shut down: stop listening, settle in-flight work, close transports.

        ``drain=True`` answers every request already dispatched (and drains
        the owned service's admission queue) before closing; ``drain=False``
        cancels in-flight work and fails queued appends fast.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        connections = list(self._connections)
        for conn in connections:
            conn.hang_up()
            if not drain:
                for task in conn.inflight:
                    task.cancel()
        pending = [task for conn in connections for task in conn.inflight]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        for conn in connections:
            if not drain:
                conn.transport.abort()
            await conn.lost
        if self._owns_service and not self.service.closed:
            # The service's writer thread blocks; keep it off the event loop.
            await asyncio.get_running_loop().run_in_executor(
                self._pool, lambda: self.service.close(drain=drain)
            )
        self._pool.shutdown(wait=False)

    # ------------------------------------------------------------- requests

    def _dispatch(self, conn: _Connection, message: dict[str, Any]) -> None:
        """Per-request entry: a loop op is answered here and now, anything
        else becomes a task whose reply leaves when it completes — so
        responses go out in completion order, matched by request id."""
        op = message.get("op")
        handler = self._handlers.get(op)
        if handler is not None and op not in _LOOP_OPS:
            conn.start(self._serve(conn, op, handler, message))
            return
        started = time.perf_counter()
        try:
            if handler is None:
                raise ProtocolError(f"unknown op: {op!r}")
            reply = response_ok(message["id"], handler(message))
        except Exception as exc:  # typed error travels; connection survives
            reply = _refusal(message["id"], exc)
        self._reply(conn, op, started, reply)

    async def _serve(self, conn: _Connection, op: str, handler: Callable, message: dict) -> None:
        request_id = message["id"]
        started = time.perf_counter()
        try:
            if self._draining and op in _MUTATING_OPS:
                raise ServiceClosedError("server is draining; no new appends")
            reply = response_ok(request_id, await handler(message))
        except asyncio.CancelledError:
            with contextlib.suppress(Exception):
                conn.send(response_error(request_id, "ServiceClosedError", "server shut down"))
            raise
        except Exception as exc:
            reply = _refusal(request_id, exc)
        self._reply(conn, op, started, reply)

    def _reply(self, conn: _Connection, op: str | None, started: float, reply: dict) -> None:
        obs.observe("net.request.latency_us", (time.perf_counter() - started) * 1e6)
        if op is not None:
            obs.inc(f"net.op.{op}")
        try:
            size = conn.send(reply)
        except ProtocolError as exc:
            # The *response* was undeliverable (exceeds the frame cap /
            # unencodable).  The request id must still be settled — a
            # pipelined client otherwise awaits this future forever — so
            # downgrade to a small typed error frame.
            obs.inc("net.errors.protocol")
            size = 0
            with contextlib.suppress(ProtocolError):
                detail = f"response undeliverable: {exc}"
                size = conn.send(response_error(reply["id"], "ProtocolError", detail))
        obs.inc("net.frames.out")
        obs.observe("net.frame.out_bytes", size)

    async def _run(self, fn: Callable, *args: Any) -> Any:
        """Run a blocking ledger/service call off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(self._pool, fn, *args)

    # ------------------------------------------------------------------ ops

    def _op_hello(self, message: dict) -> dict:
        protocol = message.get("protocol")
        if protocol != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: server speaks {PROTOCOL_VERSION}, "
                f"client sent {protocol!r}"
            )
        ledger = self.ledger
        return {
            "protocol": PROTOCOL_VERSION,
            "ledger_uri": ledger.config.uri,
            "size": ledger.size,
            "fractal_height": ledger.config.fractal_height,
            "lsp_public_key": ledger.registry.public_key(LSP_MEMBER_ID).to_bytes(),
            "ca_public_key": ledger.registry.ca_public_key.to_bytes(),
        }

    def _op_ping(self, message: dict) -> dict:
        return {"size": self.ledger.size}

    @staticmethod
    def _decode_request(blob: Any) -> ClientRequest:
        try:
            return ClientRequest.from_bytes(_require_bytes(blob, "request"))
        except (EncodingError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"undecodable client request: {exc}") from None

    async def _admit(self, submit: Callable, work: Any) -> Any:
        """Hand ``work`` to the service (``submit`` one request, or
        ``submit_many`` all-or-nothing) without blocking the loop.

        Fast path: ``timeout=0`` inline — admission is a lock'd deque append
        when the queue has room, far cheaper than two thread hops.  Only when
        the queue is full (real backpressure; nothing was queued, so the
        retry cannot double-append) does the blocking wait move to the pool,
        where it stalls a worker instead of the event loop.
        """
        try:
            return submit(work, timeout=0)
        except ServiceOverloadedError:
            return await self._run(lambda: submit(work, timeout=self.submit_timeout_s))

    async def _op_append(self, message: dict) -> dict:
        request = self._decode_request(message.get("request"))
        ack = None
        if message.get("want_ack"):
            # The ack must pin the tree coordinates *at admission* — issue it
            # before the submit so a censoring server cannot dodge the
            # deadline by acking late.
            deadline = _optional_int(message.get("ack_deadline"), "ack_deadline")
            ack = await self._run(self.ledger.issue_ack, request, deadline)
        future = await self._admit(self.service.submit, request)
        receipt = await asyncio.wrap_future(future)
        response = {"receipt": receipt.to_bytes()}
        if ack is not None:
            response["ack"] = ack.to_bytes()
        return response

    async def _op_append_batch(self, message: dict) -> dict:
        blobs = message.get("requests")
        if not isinstance(blobs, list) or not blobs:
            raise ProtocolError("append_batch needs a non-empty 'requests' list")
        requests = [self._decode_request(blob) for blob in blobs]
        futures = await self._admit(self.service.submit_many, requests)
        receipts = await asyncio.gather(*(asyncio.wrap_future(f) for f in futures))
        return {"receipts": [receipt.to_bytes() for receipt in receipts]}

    async def _op_register(self, message: dict) -> dict:
        # A certified member gains append access and a permanent member id,
        # and privileged roles enter the occult/purge required-signer sets —
        # an open network surface here would let any peer corrupt
        # destructive-op governance.  Refuse unless the operator opted in,
        # and never mint anything beyond a plain user over the wire.
        if not self.allow_register:
            raise AuthorizationError(
                "member registration is disabled on this server; start it "
                "with allow_register=True (serve --allow-register) or "
                "register members locally"
            )
        member_id = _require_str(message.get("member_id"), "member_id")
        try:
            role = Role(_require_str(message.get("role"), "role"))
        except ValueError:
            raise ProtocolError(f"unknown role: {message.get('role')!r}") from None
        if role is not Role.USER:
            raise AuthorizationError(
                f"remote registration is limited to role {Role.USER.value!r}; "
                f"{role.value!r} members must be registered locally by the "
                "operator"
            )
        try:
            public_key = PublicKey.from_bytes(
                _require_bytes(message.get("public_key"), "public_key")
            )
        except (ValueError, IndexError) as exc:
            raise ProtocolError(f"undecodable public key: {exc}") from None
        await self._run(lambda: self.ledger.registry.register(member_id, role, public_key))
        return {"member_id": member_id, "role": role.value}

    def _op_get_journal(self, message: dict) -> dict:
        jsn = _require_int(message.get("jsn"), "jsn")
        return {"journal": self.ledger.get_journal(jsn).to_bytes()}

    async def _op_list_tx(self, message: dict) -> dict:
        clue = _require_str(message.get("clue"), "clue")
        return {"jsns": list(await self._run(self.ledger.list_tx, clue))}

    def _op_get_proof(self, message: dict) -> dict:
        jsn = _require_int(message.get("jsn"), "jsn")
        anchored = bool(message.get("anchored", True))
        return {"proof": self.ledger.get_proof(jsn, anchored=anchored).to_bytes()}

    async def _op_get_proofs(self, message: dict) -> dict:
        jsns = message.get("jsns")
        if not isinstance(jsns, list):
            raise ProtocolError("get_proofs needs a 'jsns' list")
        jsns = [_require_int(jsn, "jsn") for jsn in jsns]
        anchored = bool(message.get("anchored", True))
        proofs = await self._run(lambda: self.ledger.get_proofs(jsns, anchored=anchored))
        return {"proofs": [proof.to_bytes() for proof in proofs]}

    async def _op_prove_clue(self, message: dict) -> dict:
        clue = _require_str(message.get("clue"), "clue")
        state_root = self.ledger.head.state_root
        proof = await self._run(lambda: self.ledger.prove_clue(clue, root=state_root))
        return {"proof": proof.to_bytes(), "state_root": state_root}

    def _op_get_root(self, message: dict) -> dict:
        head = self.ledger.head
        return {
            "root": head.root,
            "state_root": head.state_root,
            "size": head.size,
            "latest_receipt": head.receipt.to_bytes() if head.receipt else b"",
        }

    def _op_receipt_for(self, message: dict) -> dict:
        jsn = _require_int(message.get("jsn"), "jsn")
        receipt = self.ledger.receipt_for(jsn)
        return {"receipt": receipt.to_bytes() if receipt is not None else b""}

    # The six fam read ops an anchor-tracking client follows the ledger
    # through — all answered by the ledger's read-only FamReader, the same
    # object an in-process LedgerClient reads (repro.verify.tracker).

    def _op_fam_info(self, message: dict) -> dict:
        return self.ledger.fam_reader().fam_info()

    def _op_epoch_anchor(self, message: dict) -> dict:
        epoch = _require_int(message.get("epoch"), "epoch")
        return {"root": self.ledger.fam_reader().epoch_anchor(epoch)}

    def _op_epoch_link(self, message: dict) -> dict:
        epoch = _require_int(message.get("epoch"), "epoch")
        return {"proof": self.ledger.fam_reader().epoch_link(epoch).to_bytes()}

    def _op_epoch_leaves(self, message: dict) -> dict:
        epoch = _require_int(message.get("epoch"), "epoch")
        return {"digests": self.ledger.fam_reader().epoch_leaves(epoch)}

    def _op_epoch_consistency(self, message: dict) -> dict:
        epoch = _require_int(message.get("epoch"), "epoch")
        old_size = _require_int(message.get("old_size"), "old_size")
        new_size = _optional_int(message.get("new_size"), "new_size")
        proof = self.ledger.fam_reader().epoch_consistency(epoch, old_size, new_size)
        return {"proof": proof.to_bytes()}

    async def _op_verify_journal(self, message: dict) -> dict:
        from ..core.journal import Journal

        try:
            journal = Journal.from_bytes(_require_bytes(message.get("journal"), "journal"))
        except (EncodingError, KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"undecodable journal: {exc}") from None
        return {"ok": bool(await self._run(self.ledger.verify_journal, journal))}

    async def _op_shard_info(self, message: dict) -> dict:
        """This shard's place in its deployment (DESIGN.md §15).

        Returns the shard→root inclusion link against a composite root built
        from one atomic snapshot of all shard roots, so the triple
        (shard_root, composite_root, link) is internally consistent even
        while other shards keep committing.  A solo server reports a one-leaf
        shard map, so clients handle both cases uniformly.
        """
        from ..merkle.shrubs import ShrubsAccumulator

        def build():
            deployment, shard_index = self.shard_context
            roots = [shard.head.root for shard in deployment.shards]
            shard_map = ShrubsAccumulator()
            shard_map.extend(roots)
            link = shard_map.prove(shard_index)
            return {
                "shard_index": shard_index,
                "num_shards": len(roots),
                "shard_root": roots[shard_index],
                "composite_root": shard_map.root(),
                "link": link.to_bytes(),
            }

        return await self._run(build)

    async def _op_get_sth(self, message: dict) -> dict:
        """The current signed tree head (DESIGN.md §16).

        ``composite=True`` asks the sharded deployment behind this server
        for its composite head (per-shard heads folded through the shard
        map); a deployment of one shard has none, so it is refused there
        rather than silently downgraded to a shard-local head.
        """
        if message.get("composite"):
            deployment, _shard_index = self.shard_context
            if not has_composite(len(deployment.shards)):
                raise UsageError(
                    "composite tree heads need a deployment of several "
                    "shards behind this server; this server fronts a solo ledger"
                )
            head = await self._run(deployment.get_sth)
        else:
            head = await self._run(self.ledger.get_sth)
        return {"sth": head.to_bytes()}

    async def _op_get_sth_range(self, message: dict) -> dict:
        start = _require_int(message.get("start"), "start")
        end = _require_int(message.get("end"), "end")
        heads = await self._run(lambda: self.ledger.get_sth_range(start, end))
        return {"sths": [head.to_bytes() for head in heads]}

    async def _op_get_consistency(self, message: dict) -> dict:
        from ..transparency.sth import SignedTreeHead

        def decode(field: str) -> SignedTreeHead:
            try:
                return SignedTreeHead.from_bytes(
                    _require_bytes(message.get(field), field)
                )
            except (EncodingError, KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"undecodable tree head '{field}': {exc}") from None

        old, new = decode("old"), decode("new")
        bundle, assertion = await self._run(
            lambda: self.ledger.get_consistency(old, new)
        )
        return {
            "bundle": bundle.to_bytes() if bundle is not None else b"",
            "assertion": assertion.to_bytes(),
        }

    async def _op_export(self, message: dict) -> dict:
        """Build an offline export bundle and ship its canonical bytes.

        A server fronting one shard of a sharded deployment exports the
        *whole* deployment (all shards under the composite head) — a bundle
        restricted to one shard could never verify the composite root.  The
        response is one frame, so deployments whose bundle exceeds the frame
        cap fail typed here (ProtocolError on send) rather than truncating.
        """
        clues = message.get("clues") or []
        if not isinstance(clues, list):
            raise ProtocolError("'clues' must be a list of strings")
        clues = tuple(_require_str(clue, "clue") for clue in clues)
        from ..export.bundle import export_bundle

        deployment, _shard_index = self.shard_context
        bundle = await self._run(lambda: export_bundle(deployment, clues=clues))
        return {"bundle": bundle.to_bytes()}

    async def _op_stats(self, message: dict) -> dict:
        stats = self.service.stats()
        stats["ledger_size"] = self.ledger.size
        stats["connections"] = len(self._connections)
        return stats


# ------------------------------------------------------- field validation


def _refusal(request_id: int, exc: BaseException) -> dict[str, Any]:
    """The typed error frame for a request the server could not serve."""
    obs.inc("net.errors.request")
    return response_error(request_id, type(exc).__name__, str(exc))


def _require_bytes(value: Any, field: str) -> bytes:
    if not isinstance(value, (bytes, bytearray)):
        raise ProtocolError(f"'{field}' must be bytes")
    return bytes(value)


def _require_str(value: Any, field: str) -> str:
    if not isinstance(value, str):
        raise ProtocolError(f"'{field}' must be a string")
    return value


def _require_int(value: Any, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"'{field}' must be an integer")
    return value


def _optional_int(value: Any, field: str) -> int | None:
    return None if value is None else _require_int(value, field)


# -------------------------------------------------------------- threading


class ServerThread:
    """Host a :class:`LedgerServer` on a background event loop.

    The synchronous world's handle on a server: tests, benchmarks, the
    ``stats`` workload, and examples all start one of these, talk to it over
    real sockets, and tear it down with :meth:`close` (graceful drain) or
    :meth:`kill` (simulated crash — transports die mid-flight).
    """

    def __init__(
        self,
        target: Ledger | LedgerService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        server_cls: type[LedgerServer] = LedgerServer,
        **kwargs: Any,
    ) -> None:
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self.server = server_cls(target, host, port, **kwargs)
        self._thread = threading.Thread(
            target=self._run, name="ledger-server", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._started.is_set():
            raise TimeoutError("server thread failed to start within 30s")

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            # Settle whatever close()/kill() left cancelled, then free the loop.
            pending = asyncio.all_tasks(self._loop)
            for task in pending:
                task.cancel()
            if pending:
                self._loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            self._loop.close()

    @property
    def address(self) -> tuple[str, int]:
        return self.server.address

    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Graceful shutdown from any thread; idempotent."""
        if self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.close(drain=drain), self._loop
            )
            future.result(timeout)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def kill(self, timeout: float = 30.0) -> None:
        """Abrupt shutdown: connections die mid-flight, nothing drains."""
        self.close(drain=False, timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
