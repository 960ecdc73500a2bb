"""Wire protocol: length-prefixed frames, each one message of the op table.

A frame is a 4-byte big-endian unsigned length followed by exactly that many
payload bytes, one message in the canonical encoding of :mod:`repro.encoding`
(the format every digest is computed over: no second serializer).  A message
is a dict with an unsigned integer ``id``: a request adds its ``op`` and that
op's fields; a reply adds ``ok`` and the op's ``result`` or an ``error``
``{type, message}``.  Ids are the client's, echoed back, so the server may
answer out of order (a pipelined append overtakes a slow bulk proof fetch).

:data:`OPS` declares each op's request and reply once, as strict
:class:`~repro.encoding.Record` schemas whose fields load typed (a
``Journal``, a ``FamProof``, a ``PublicKey``), and both ends encode and
decode through it: the server reads a request's ``id`` and ``op`` off its
head, then the rest through that op's record; the client decodes a reply,
once, through the record of the op it waits on.  The frame decoder consumes
nothing it cannot validate first, so bad input never hangs either end.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import struct
from typing import Any, Mapping, NamedTuple, Sequence

from ..core.errors import LedgerError
from ..core.journal import ClientRequest, Journal
from ..core.receipt import Receipt
from ..crypto.ca import Role
from ..crypto.keys import PublicKey
from ..encoding import ANY, BOOL, BYTES, FLOAT, STR, UINT, EncodingError, Kind, Record
from ..encoding import enum_of, inline, list_of, mapped, nested, nullable, optional, peek
from ..encoding import read_dict_size
from ..merkle.cmtree import ClueProof
from ..merkle.consistency import ConsistencyBundle
from ..merkle.fam import FamProof
from ..merkle.proofs import MembershipProof
from ..transparency.censorship import SubmissionAck
from ..transparency.sth import ConsistencyAssertion, SignedTreeHead

__all__ = [
    "PROTOCOL_VERSION", "MAX_FRAME_BYTES", "OPS", "ProtocolError",
    "request_frame", "reply_frame", "error_frame", "decode_message", "reply_id", "decode_reply",
    "encode_frame", "FrameDecoder", "read_frame", "FrameConnection",
]

#: Bumped on any incompatible change; exchanged in the ``hello`` op.
PROTOCOL_VERSION = 1

#: Default ceiling on one frame's payload.  Large enough for a bulk proof
#: fetch over thousands of journals, small enough that a hostile length
#: prefix cannot make the server allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(LedgerError):
    """The peer sent bytes that are not a valid protocol frame/message."""

    #: Set by :meth:`FrameDecoder.feed`: payloads cut before the violation.
    completed: Sequence[bytes] = ()
    #: Set by :func:`decode_message`: the id of the request it refuses, or
    #: None when the payload is no message at all (framing is lost).
    request_id: int | None = None


# ---------------------------------------------------------------- the schema


class sometimes(NamedTuple):
    """A :class:`Message` key present only while its value is not None."""

    kind: Kind


class Message:
    """A dict-shaped message some of whose keys are :class:`sometimes`
    present: one :class:`Record` per number of them present (the first ones,
    in declaration order), told apart by the dict's key count, so a message
    without them keeps the bytes it had before they existed.  Read, an
    absent key is None; written, a None one is left out."""

    def __init__(self, **keys: Kind | sometimes | Any) -> None:
        required = {key: kind for key, kind in keys.items() if not isinstance(kind, sometimes)}
        self._optional = [key for key in keys if key not in required]
        self._records: dict[int, tuple[Record, list[str]]] = {}
        for present in range(len(self._optional) + 1):
            shape = {**required, **{key: keys[key].kind for key in self._optional[:present]}}
            self._records[len(shape)] = (Record(**shape), self._optional[present:])

    def _record(self, values: Mapping[str, Any]) -> Record:
        present = 0
        while present < len(self._optional) and values.get(self._optional[present]) is not None:
            present += 1
        return self._records[min(self._records) + present][0]

    def _shape(self, data: bytes, pos: int) -> tuple[Record, list[str]]:
        got = read_dict_size(data, pos)
        if got is None or got[0] not in self._records:
            raise EncodingError(f"expected a dict of {' or '.join(map(str, self._records))} keys")
        return self._records[got[0]]

    def encode(self, values: Mapping[str, Any]) -> bytes:
        return self._record(values).encode(values)

    def write(self, values: Mapping[str, Any], out: bytearray) -> None:
        self._record(values).write(values, out)

    def read(self, data: bytes, pos: int) -> tuple[dict, int]:
        record, absent = self._shape(data, pos)
        fields, pos = record.read(data, pos)
        for key in absent:
            fields[key] = None
        return fields, pos

    def decode(self, data: bytes) -> dict:
        try:
            record, absent = self._shape(data, 0)
        except IndexError:
            raise EncodingError("truncated record") from None
        return dict(record.decode(data), **dict.fromkeys(absent))


def _message(**keys: Kind | sometimes | Any) -> Record | Message:
    """Its one :class:`Record`, unless some key is only sometimes present."""
    if any(isinstance(kind, sometimes) for kind in keys.values()):
        return Message(**keys)
    return Record(**keys)


def _public_key(blob: bytes) -> PublicKey:
    try:
        return PublicKey.from_bytes(blob)
    except ValueError as exc:
        raise EncodingError(str(exc)) from None


_KEY = mapped(BYTES, _public_key, PublicKey.to_bytes)
_REQUEST, _RECEIPT, _STH = nested(ClientRequest), nested(Receipt), nested(SignedTreeHead)
_FAM_PROOF, _BUNDLE = nested(FamProof), nested(ConsistencyBundle)
_COUNTS = "submitted committed rejected batches salvaged_batches queued ledger_size connections"

#: Each op's request fields and reply result fields, by op name.
_SCHEMA: dict[str, tuple[dict[str, Any], dict[str, Any]]] = {
    "hello": ({"protocol": UINT}, {
        "protocol": UINT, "ledger_uri": STR, "size": UINT, "fractal_height": UINT,
        "lsp_public_key": _KEY, "ca_public_key": _KEY,
    }),
    "ping": ({}, {"size": UINT}),
    "append": (
        {"request": _REQUEST, "want_ack": sometimes(BOOL), "ack_deadline": sometimes(UINT)},
        {"receipt": _RECEIPT, "ack": sometimes(nested(SubmissionAck))},
    ),
    "append_batch": ({"requests": list_of(_REQUEST)}, {"receipts": list_of(_RECEIPT)}),
    "register": (
        {"member_id": STR, "role": enum_of(Role), "public_key": _KEY},
        {"member_id": STR, "role": STR},
    ),
    # The proof rides along undecoded: a claim the session folds, or finds
    # is not a proof of this journal (repro.session.carry).
    "get_journal": ({"jsn": UINT}, {"journal": nested(Journal), "proof": sometimes(ANY)}),
    "list_tx": ({"clue": STR}, {"jsns": list_of(UINT)}),
    "get_proof": ({"jsn": UINT, "anchored": BOOL}, {"proof": _FAM_PROOF}),
    "get_proofs": ({"jsns": list_of(UINT), "anchored": BOOL}, {"proofs": list_of(_FAM_PROOF)}),
    "prove_clue": ({"clue": STR}, {"proof": nested(ClueProof), "state_root": BYTES}),
    "get_root": ({}, {
        "root": BYTES, "state_root": BYTES, "size": UINT, "latest_receipt": optional(_RECEIPT),
    }),
    "receipt_for": ({"jsn": UINT}, {"receipt": optional(_RECEIPT)}),
    "fam_extension": (
        {"old_epoch": UINT, "old_live_size": UINT,
         "new_epoch": nullable(UINT), "new_live_size": nullable(UINT)},
        {"old_root": BYTES, "new_root": BYTES, "bundle": _BUNDLE},
    ),
    "verify_journal": ({"journal": nested(Journal)}, {"ok": BOOL}),
    "shard_info": ({}, {
        "shard_index": UINT, "num_shards": UINT, "shard_root": BYTES, "composite_root": BYTES,
        "link": nested(MembershipProof),
    }),
    "get_sth": ({"composite": BOOL}, {"sth": _STH}),
    "get_sth_range": ({"start": UINT, "end": UINT}, {"sths": list_of(_STH)}),
    "get_consistency": (
        {"old": _STH, "new": _STH},
        {"bundle": optional(_BUNDLE), "assertion": nested(ConsistencyAssertion)},
    ),
    # The bundle's bytes go on unparsed: the caller decodes and CRC-checks them.
    "export": ({"clues": list_of(STR)}, {"bundle": BYTES}),
    "stats": ({}, {**dict.fromkeys(_COUNTS.split(), UINT), "mean_batch_size": FLOAT}),
}


class Op(NamedTuple):
    """One op's two messages: ``{id, op, fields}`` and ``{id, ok, result}``."""

    request: Record | Message
    reply: Record


#: The op table: every wire op's request and reply.
OPS: dict[str, Op] = {
    name: Op(
        _message(id=UINT, op=name, **request),
        Record(id=UINT, ok=True, result=inline(_message(**result))),
    )
    for name, (request, result) in _SCHEMA.items()
}

#: The refusal of any request.
ERROR = Record(id=UINT, ok=False, error=inline(Record(type=STR, message=STR)))


# ------------------------------------------------------------------ messages


def request_frame(op: str, request_id: int, fields: dict, *, max_bytes=MAX_FRAME_BYTES) -> bytes:
    """The frame of request ``request_id``: ``op`` with ``fields``."""
    if op not in OPS:
        raise ProtocolError(f"unknown op: {op!r}")
    return _frame(OPS[op].request, {"id": request_id, **fields}, max_bytes)


def reply_frame(op: str, request_id: int, result: dict, *, max_bytes=MAX_FRAME_BYTES) -> bytes:
    """The frame answering request ``request_id`` of ``op`` with ``result``."""
    return _frame(OPS[op].reply, {"id": request_id, "result": result}, max_bytes)


def error_frame(request_id: int, error_type: str, detail: str) -> bytes:
    """The frame refusing request ``request_id`` with a typed error."""
    message = {"id": request_id, "error": {"type": error_type, "message": detail}}
    return _frame(ERROR, message, MAX_FRAME_BYTES)


def _frame(schema: Record | Message, message: dict, max_bytes: int) -> bytes:
    try:
        payload = schema.encode(message)
    except (EncodingError, KeyError, TypeError, AttributeError) as exc:
        raise ProtocolError(f"unencodable message: {exc!r}") from None
    return encode_frame(payload, max_bytes=max_bytes)


def _head(payload: bytes, *keys: str) -> dict[str, Any]:
    """A message's ``id`` and ``keys``, read off its head.

    Raises:
        ProtocolError: the payload is no dict with an unsigned integer
            ``id``: no message at all, so framing is lost.
    """
    try:
        head = peek(payload, ("id", *keys))
    except EncodingError as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if type(head.get("id")) is not int or head["id"] < 0:
        raise ProtocolError("message has no unsigned integer 'id'")
    return head


def decode_message(payload: bytes) -> dict[str, Any]:
    """A request payload as its ``id``, ``op`` and typed fields.

    Raises:
        ProtocolError: the payload is no message (``request_id`` None), or
            its op is unknown or a field fails the op's record
            (``request_id`` set: the request is refused, the connection
            serves on).
    """
    head = _head(payload, "op")
    op = head.get("op")
    schema = OPS.get(op) if type(op) is str else None
    refusal = ProtocolError(f"unknown op: {op!r}")
    if schema is not None:
        try:
            return dict(schema.request.decode(payload), op=op)
        except EncodingError as exc:
            refusal = ProtocolError(f"{op} request refused: {exc}")
    refusal.request_id = head["id"]
    raise refusal


def reply_id(payload: bytes) -> int:
    """The id of the request a reply payload answers (see :func:`_head`)."""
    return _head(payload)["id"]


def decode_reply(op: str, payload: bytes) -> tuple[bool, dict[str, Any]]:
    """``(True, result)`` of an ok reply to ``op``, or ``(False, error)`` of
    a refusal; :class:`EncodingError`, naming the field, for anything else."""
    try:
        return True, OPS[op].reply.decode(payload)["result"]
    except EncodingError as exc:
        try:
            return False, ERROR.decode(payload)["error"]
        except EncodingError:
            raise exc from None


# -------------------------------------------------------------------- frames


def encode_frame(payload: bytes, *, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Length-prefix one message's payload into a frame."""
    if len(payload) > max_bytes:
        raise ProtocolError(f"message of {len(payload)} bytes exceeds the {max_bytes}-byte cap")
    return _LENGTH.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame decoder for byte streams of any chunking.

    Feed it whatever the transport produced — single bytes, half a length
    prefix, three frames at once — and it yields every complete payload, in
    order, holding partial input until the rest arrives.  A framing
    violation raises :class:`ProtocolError` and poisons the decoder (a
    stream is unrecoverable once framing is lost).
    """

    def __init__(self, *, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_bytes = max_bytes
        self._buffer = bytearray()
        self._poisoned = False

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[bytes]:
        """Absorb ``data``; return the payload of every frame completed by it.

        A violation raises with the payloads that were whole before it in
        the error's ``completed`` — the peer is owed answers to those.
        """
        if self._poisoned:
            raise ProtocolError("decoder poisoned by an earlier protocol error")
        self._buffer += data
        payloads: list[bytes] = []
        try:
            while self._buffer:
                payload = read_frame(self._buffer, max_bytes=self.max_bytes)
                if payload is None:
                    break
                payloads.append(payload)
        except ProtocolError as exc:
            self._poisoned = True
            exc.completed = payloads
            raise
        return payloads


def read_frame(buffer: bytearray, *, max_bytes: int = MAX_FRAME_BYTES) -> bytes | None:
    """Cut the next complete frame's payload off the front of ``buffer``.

    Returns None, consuming nothing, while the frame is still partial.

    Raises:
        ProtocolError: a zero or over-the-cap length.
    """
    if len(buffer) < _LENGTH.size:
        return None
    (length,) = _LENGTH.unpack_from(buffer)
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > max_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds the {max_bytes}-byte cap")
    end = _LENGTH.size + length
    if len(buffer) < end:
        return None
    payload = bytes(buffer[_LENGTH.size : end])
    del buffer[:end]
    return payload


class FrameConnection(asyncio.Protocol):
    """One end of a framed TCP connection, driven by transport callbacks.

    Bytes in: ``data_received`` feeds the :class:`FrameDecoder` and hands
    every payload the segment completed — plus the violation that ended it,
    if any — to the subclass's ``frames_received(payloads, violation)``.
    Frames out: :meth:`write` buffers, and everything buffered in one
    event-loop tick (a segment's replies, a group commit's receipts) leaves
    in one ``transport.write``.  ``writable`` mirrors the transport's flow
    control (``pause_writing`` / ``resume_writing``); what a paused end does
    about it is the subclass's policy.  Loop thread only.
    """

    #: Frames buffered past this leave at once instead of at the end of the
    #: tick, so a paused transport is noticed while replies are being made.
    FLUSH_BYTES = 64 * 1024

    def __init__(self, *, max_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_bytes = max_bytes
        self.decoder = FrameDecoder(max_bytes=max_bytes)
        self.transport: asyncio.Transport | None = None
        self.writable = True
        self._loop: asyncio.AbstractEventLoop | None = None
        self._out: list[bytes] = []
        self._out_bytes = 0
        self._flush_due = False
        #: Resolved by ``connection_lost``: the socket is closed.
        self.lost: asyncio.Future | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self._loop = asyncio.get_running_loop()
        self.lost = self._loop.create_future()
        sock = transport.get_extra_info("socket")
        if sock is not None:
            # Frames are small and latency-sensitive; batching is the
            # group-commit service's job, not the kernel's.
            with contextlib.suppress(OSError):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def connection_lost(self, exc: BaseException | None) -> None:
        self.lost.set_result(None)

    def data_received(self, data: bytes) -> None:
        try:
            payloads, violation = self.decoder.feed(data), None
        except ProtocolError as exc:
            payloads, violation = exc.completed, exc
        self._flush_due = True  # whatever this segment makes us write leaves together
        try:
            self.frames_received(payloads, violation)
        finally:
            self.flush()

    def write(self, frame: bytes) -> None:
        self._out.append(frame)
        self._out_bytes += len(frame)
        if self._out_bytes >= self.FLUSH_BYTES:
            self.flush()
        elif not self._flush_due:
            self._flush_due = True
            self._loop.call_soon(self.flush)

    def flush(self) -> None:
        """Push buffered frames to the transport now.  Transport errors are
        reported through ``connection_lost``, never raised here."""
        self._flush_due = False
        frames, self._out, self._out_bytes = self._out, [], 0
        if frames and not self.transport.is_closing():
            self.transport.write(b"".join(frames))

    def pause_writing(self) -> None:
        self.writable = False

    def resume_writing(self) -> None:
        self.writable = True
