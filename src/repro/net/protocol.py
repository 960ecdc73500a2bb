"""Wire protocol: length-prefixed binary frames over the canonical encoding.

A frame is a 4-byte big-endian unsigned length followed by exactly that many
payload bytes; the payload is one :func:`repro.encoding.encode` value.  The
same canonical TLV that every digest in the system is computed over is thus
also the wire format — there is no second serializer to keep honest.

Every frame carries a *message*: a dict with an integer ``id``.  Requests
additionally carry an ``op`` string (plus op-specific fields); responses
carry ``ok`` (bool) and either ``result`` or ``error``.  Request ids are
chosen by the client and echoed verbatim, which is what allows the server to
answer out of order — a pipelined append can overtake a slow bulk proof
fetch without head-of-line blocking.

Malformed input of any kind — oversized length, zero length, truncated
payload, undecodable bytes, a payload that is not a message-shaped dict —
raises :class:`ProtocolError`, never anything else and never a hang: the
decoder consumes nothing it cannot validate first.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import struct
from typing import Any, Sequence

from ..core.errors import LedgerError
from ..encoding import EncodingError, decode, encode

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "encode_frame",
    "decode_message",
    "FrameDecoder",
    "read_frame",
    "FrameConnection",
    "request",
    "response_ok",
    "response_error",
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

    #: Set by :meth:`FrameDecoder.feed`: messages decoded before the violation.
    completed: Sequence[dict[str, Any]] = ()


def _check_length(length: int, max_bytes: int) -> None:
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > max_bytes:
        raise ProtocolError(f"frame of {length} bytes exceeds the {max_bytes}-byte cap")


def encode_frame(message: dict[str, Any], *, max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialize one message dict into a length-prefixed frame."""
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a dict, got {type(message).__name__}")
    try:
        payload = encode(message)
    except EncodingError as exc:
        raise ProtocolError(f"unencodable message: {exc}") from None
    if len(payload) > max_bytes:
        raise ProtocolError(
            f"message of {len(payload)} bytes exceeds the {max_bytes}-byte cap"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_message(payload: bytes) -> dict[str, Any]:
    """Decode and shape-check one frame payload into a message dict."""
    try:
        message = decode(payload)
    except EncodingError as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must decode to a dict, got {type(message).__name__}"
        )
    request_id = message.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ProtocolError("message has no integer 'id'")
    is_request = "op" in message
    is_response = "ok" in message
    if is_request == is_response:
        raise ProtocolError("message must carry exactly one of 'op' or 'ok'")
    if is_request and not isinstance(message["op"], str):
        raise ProtocolError("'op' must be a string")
    if is_response and not isinstance(message["ok"], bool):
        raise ProtocolError("'ok' must be a bool")
    return message


class FrameDecoder:
    """Incremental frame decoder for byte streams of any chunking.

    Feed it whatever the transport produced — single bytes, half a length
    prefix, three frames at once — and it yields every complete message, in
    order, holding partial input until the rest arrives.  A protocol
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

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Absorb ``data``; return every message completed by it.

        A violation raises with the messages that were whole before it in
        the error's ``completed`` — the peer is owed answers to those.
        """
        if self._poisoned:
            raise ProtocolError("decoder poisoned by an earlier protocol error")
        self._buffer += data
        messages: list[dict[str, Any]] = []
        try:
            while self._buffer:
                message = read_frame(self._buffer, max_bytes=self.max_bytes)
                if message is None:
                    break
                messages.append(message)
        except ProtocolError as exc:
            self._poisoned = True
            exc.completed = messages
            raise
        return messages


def read_frame(
    buffer: bytearray, *, max_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any] | None:
    """Cut the next complete message off the front of ``buffer``.

    Returns None, consuming nothing, while the frame is still partial.

    Raises:
        ProtocolError: malformed length or payload.
    """
    if len(buffer) < _LENGTH.size:
        return None
    (length,) = _LENGTH.unpack_from(buffer)
    _check_length(length, max_bytes)
    end = _LENGTH.size + length
    if len(buffer) < end:
        return None
    payload = bytes(buffer[_LENGTH.size : end])
    del buffer[:end]
    return decode_message(payload)


class FrameConnection(asyncio.Protocol):
    """One end of a framed TCP connection, driven by transport callbacks.

    Bytes in: ``data_received`` feeds the :class:`FrameDecoder` and hands
    every message the segment completed — plus the violation that ended it,
    if any — to the subclass's ``frames_received(messages, violation)``.
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
            messages, violation = self.decoder.feed(data), None
        except ProtocolError as exc:
            messages, violation = exc.completed, exc
        self._flush_due = True  # whatever this segment makes us write leaves together
        try:
            self.frames_received(messages, violation)
        finally:
            self.flush()

    def send(self, message: dict[str, Any]) -> int:
        """Encode and buffer one message; returns the frame size.  Encoding
        errors (oversized/unencodable message) raise synchronously."""
        frame = encode_frame(message, max_bytes=self.max_bytes)
        self.write(frame)
        return len(frame)

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


# ------------------------------------------------------------- envelopes


def request(request_id: int, op: str, **fields: Any) -> dict[str, Any]:
    message = {"id": request_id, "op": op}
    message.update(fields)
    return message


def response_ok(request_id: int, result: dict[str, Any]) -> dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def response_error(request_id: int, error_type: str, detail: str) -> dict[str, Any]:
    return {"id": request_id, "ok": False, "error": {"type": error_type, "message": detail}}
