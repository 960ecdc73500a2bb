"""The blocking read path: golden frames, a hostile server, the client's lifecycle.

Off its event loop, a :class:`RemoteLedgerClient` read is one blocking round
trip on a pooled read socket of its own.  What that must keep, and guard:

* The wire does not change.  ``tests/data/golden/frame.*.hex`` hold the
  ``hello``, ``get_journal`` and anchored ``get_proof`` request and response
  frames over :func:`golden_ledger`, recorded by a TCP proxy between the
  client and the server as they were before the read sockets: one
  connection carrying hello #1, get_journal #2 and get_proof #3.  The read
  path must send byte-identical requests, and the server must still answer
  them with byte-identical replies.  The one deliberate change since: the
  ``get_journal`` reply carries the journal's anchored proof (``proof``),
  and its golden frame was re-recorded from the server that added it.
* The carried proof is a claim.  A server that omits it costs one
  ``get_proof`` round trip; one that sends garbage, a truncated proof, a
  non-bytes value, another journal's proof, a fork's proof or an honest
  proof beside a tampered journal gets a falsy verdict, never an exception;
  the memo changes nothing a journal compares, hashes or encodes.
* A hostile server costs one socket and one typed error naming the op, within
  the client's ``timeout``: a reply with another id, two frames for one
  request, a length prefix over the cap, a close mid-frame, silence.  The
  socket is closed, so a late reply can never answer a later call, and the
  next read goes out on a fresh socket.  A read socket whose ``hello`` claims
  another LSP key carries nothing.
* ``close()`` closes every read socket, and a read in flight at that moment
  fails typed instead of hanging.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import itertools
import socket
import struct
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from typing import Callable

import pytest

from repro.core import ClientRequest, Ledger, LedgerConfig
from repro.core.errors import VerificationFailure
from repro.core.journal import Journal
from repro.crypto import KeyPair, Role
from repro.net import (
    MAX_FRAME_BYTES,
    LedgerServer,
    ProtocolError,
    RemoteLedgerClient,
    RemoteLedgerError,
    RemoteLedgerSession,
    ServerThread,
    encode_frame,
)
from repro.encoding import decode, encode
from repro.net.client import AsyncRemoteLedger
from repro.timeauth import SimClock

GOLDEN = Path(__file__).parent / "data" / "golden"
URI = "ledger://transport"
USER = "transport-user"
JSN = 3
#: The golden exchange, in wire order.
OPS = ("hello", "get_journal", "get_proof")
TIMEOUT = 1.0


def golden_ledger(fork_at: int | None = None) -> Ledger:
    """The net tests' seeded ledger and member, with six journals appended
    in-process; ``fork_at`` is the jsn of a journal whose payload a fork changed."""
    ledger = Ledger(LedgerConfig(uri=URI, fractal_height=4, block_size=4), clock=SimClock())
    user = KeyPair.generate(seed="transport:user")
    ledger.registry.register(USER, Role.USER, user.public)
    for index in range(6):
        request = ClientRequest.build(
            URI,
            USER,
            (b"forked %d" if ledger.size == fork_at else b"golden %d") % index,
            clues=("GOLDEN",),
            nonce=index.to_bytes(8, "big"),
            client_timestamp=1.0,
        )
        ledger.append(request.signed_by(user))
    return ledger


def golden(name: str) -> bytes:
    return bytes.fromhex((GOLDEN / f"frame.{name}.hex").read_text())


def message_of(frame: bytes) -> dict:
    """A frame's message, read by the generic decoder (the test's oracle)."""
    return decode(frame[4:])


def frame_of(message: dict) -> bytes:
    """Any message as a frame, schema or not: what a hostile server sends."""
    return encode_frame(encode(message))


HELLO = message_of(golden("hello.response"))
LSP_KEY = bytes(HELLO["result"]["lsp_public_key"])


# ------------------------------------------------------------ golden frames


def test_the_server_answers_the_golden_requests_byte_for_byte():
    with ServerThread(golden_ledger()) as served:
        peer = socket.create_connection(served.address, timeout=30.0)
        try:
            peer.sendall(b"".join(golden(f"{op}.request") for op in OPS))
            expected = b"".join(golden(f"{op}.response") for op in OPS)
            received = bytearray()
            while len(received) < len(expected):
                data = peer.recv(65536)
                if not data:
                    break
                received += data
        finally:
            peer.close()
    assert bytes(received) == expected


class DoubleServer:
    """A test-double ledger server on raw sockets, one thread per connection.

    Every request frame is recorded byte for byte, per connection in accept
    order.  ``reply(connection, message)`` returns the bytes to send back and
    whether to hang up after them.  ``hung_up[i]`` is set once connection
    ``i`` is over — the client closed it, or the double did.
    """

    def __init__(self, reply: Callable[[int, dict], tuple[bytes, bool]]) -> None:
        self.reply = reply
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self.requests: list[list[bytes]] = []
        self.hung_up: list[threading.Event] = []
        self.threads = [threading.Thread(target=self._accept, daemon=True)]
        self.threads[0].start()

    def ops(self, connection: int) -> list[str]:
        return [message_of(frame)["op"] for frame in self.requests[connection]]

    def _accept(self) -> None:
        with contextlib.suppress(OSError):
            while True:
                conn, _peer = self.listener.accept()
                self.requests.append([])
                self.hung_up.append(threading.Event())
                serving = threading.Thread(
                    target=self._serve, args=(conn, len(self.requests) - 1), daemon=True
                )
                self.threads.append(serving)
                serving.start()

    def _serve(self, conn: socket.socket, index: int) -> None:
        buffer = bytearray()
        try:
            with conn:
                while data := conn.recv(65536):
                    buffer += data
                    while len(buffer) >= 4:
                        end = 4 + struct.unpack_from(">I", buffer)[0]
                        if len(buffer) < end:
                            break
                        frame = bytes(buffer[:end])
                        del buffer[:end]
                        self.requests[index].append(frame)
                        out, hang_up = self.reply(index, message_of(frame))
                        conn.sendall(out)
                        if hang_up:
                            return
        except OSError:
            pass
        finally:
            self.hung_up[index].set()

    def __enter__(self) -> "DoubleServer":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        with contextlib.suppress(OSError):
            self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self.listener.close()
        for thread in self.threads:
            thread.join(10.0)
        if exc_type is None:
            assert not any(thread.is_alive() for thread in self.threads), "a socket was left open"


def test_the_read_path_sends_the_golden_request_frames():
    answers = {op: golden(f"{op}.response") for op in OPS}
    with DoubleServer(lambda _index, message: (answers[message["op"]], False)) as double:
        client = RemoteLedgerClient(*double.address, expected_lsp_key=LSP_KEY)
        try:
            # Ids need only be unique per connection: counted from 1 again,
            # the read socket carries the golden exchange exactly as the
            # single connection did.
            client._remote._ids = itertools.count(1)
            journal = client.get_journal(JSN)
            proof = client.get_proof(JSN, anchored=True)
        finally:
            client.close()
    main, reads = double.requests
    assert main == [golden("hello.request")]
    assert reads == [golden(f"{op}.request") for op in OPS]
    results = {op: message_of(answers[op])["result"] for op in OPS}
    assert journal == Journal.from_bytes(bytes(results["get_journal"]["journal"]))
    assert proof.to_bytes() == bytes(results["get_proof"]["proof"])


# ---------------------------------------------------------- hostile server


def hello_reply(message: dict, lsp_key: bytes = LSP_KEY) -> bytes:
    result = dict(HELLO["result"], lsp_public_key=lsp_key)
    return frame_of({"id": message["id"], "ok": True, "result": result})


def pong(message: dict, request_id: int | None = None) -> bytes:
    answer = message["id"] if request_id is None else request_id
    return frame_of({"id": answer, "ok": True, "result": {"size": 7}})


#: What a hostile server sends for one ``ping``, and whether it hangs up after.
MISBEHAVIOURS: dict[str, Callable[[dict], tuple[bytes, bool]]] = {
    "another id": lambda message: (pong(message, message["id"] + 1), False),
    "two frames": lambda message: (pong(message) * 2, False),
    "length over the cap": lambda _message: (struct.pack(">I", MAX_FRAME_BYTES + 1), False),
    "close mid-frame": lambda message: (pong(message)[:-3], True),
    "silence": lambda _message: (b"", False),
}


@pytest.mark.parametrize("misbehaviour", sorted(MISBEHAVIOURS))
def test_a_hostile_reply_costs_one_socket_and_names_the_op(misbehaviour):
    hostile = threading.Event()

    def reply(_index: int, message: dict) -> tuple[bytes, bool]:
        if message["op"] == "hello":
            return hello_reply(message), False
        if hostile.is_set():
            hostile.clear()  # once, then honest again
            return MISBEHAVIOURS[misbehaviour](message)
        return pong(message), False

    with DoubleServer(reply) as double:
        client = RemoteLedgerClient(*double.address, expected_lsp_key=LSP_KEY, timeout=TIMEOUT)
        try:
            assert client.ping() == 7
            assert double.ops(1) == ["hello", "ping"]
            hostile.set()
            started = time.monotonic()
            with pytest.raises((RemoteLedgerError, ProtocolError), match="ping"):
                client.ping()
            assert time.monotonic() - started < TIMEOUT + 0.5
            assert double.hung_up[1].wait(5.0), "the client kept the socket open"
            assert client.ping() == 7
            assert len(double.requests) == 3 and double.ops(2) == ["hello", "ping"]
            assert client._remote._pending == {}
        finally:
            client.close()


def test_a_read_socket_claiming_another_lsp_key_carries_nothing():
    other = KeyPair.generate(seed="not-the-lsp").public.to_bytes()

    def reply(index: int, message: dict) -> tuple[bytes, bool]:
        if message["op"] == "hello":
            return hello_reply(message, other if index else LSP_KEY), False
        return pong(message), False

    with DoubleServer(reply) as double:
        client = RemoteLedgerClient(*double.address, expected_lsp_key=LSP_KEY, timeout=TIMEOUT)
        try:
            for attempt in (1, 2):  # every fresh read socket is checked
                with pytest.raises(VerificationFailure):
                    client.ping()
                assert double.hung_up[attempt].wait(5.0)
                assert double.ops(attempt) == ["hello"]
        finally:
            client.close()


# ------------------------------------------------- hostile reply fields


#: What a hostile reply carries wherever bytes belong (list fields carry
#: one such item): an integer n, which ``bytes(n)`` would turn into n zero
#: bytes, and bytes no record decodes.
HOSTILE_VALUES = {"integer": 2_000_000, "garbage": b"\xff\xff"}

BYTES_FIELDS = (
    "receipt ack journal proof state_root root latest_receipt bundle assertion "
    "sth old_root new_root shard_root composite_root link lsp_public_key ca_public_key"
).split()
LIST_FIELDS = ("receipts", "proofs", "sths")
#: The bytes fields that are digests: any bytes are one, garbage included.
DIGESTS = ("state_root", "root", "old_root", "new_root", "shard_root", "composite_root")

#: The replies' fields that are not bytes, well-typed — and each with a
#: value of the wrong type, which the client must refuse as well.
SCALARS = {
    "protocol": 1,
    "ledger_uri": URI,
    "fractal_height": 3,
    "size": 1,
    "shard_index": 0,
    "num_shards": 1,
    "jsns": [JSN],
    "ok": True,
}



def _link() -> bytes:
    from repro.merkle.shrubs import ShrubsAccumulator

    shard_map = ShrubsAccumulator()
    shard_map.extend([bytes(32)])
    return shard_map.prove(0).to_bytes()


#: Well-typed values of the other fields a scalar's reply carries.
WELL_TYPED = {
    **SCALARS,
    **dict.fromkeys(DIGESTS, bytes(32)),
    "lsp_public_key": LSP_KEY,
    "ca_public_key": LSP_KEY,
    "link": _link(),
    "latest_receipt": b"",
}
WRONG_SCALARS = {
    "ledger_uri": 7,
    "fractal_height": "x",
    "size": "x",
    "shard_index": "0",
    "num_shards": 1.0,
    "jsns": 2_000_000,
    "ok": "yes",
}


class _Head:
    def to_bytes(self) -> bytes:
        return b""


def _request() -> ClientRequest:
    user = KeyPair.generate(seed="transport:user")
    return ClientRequest.build(URI, USER, b"x", nonce=b"n", client_timestamp=1.0).signed_by(user)


#: Every read and append that checks a reply field, with its arguments,
#: and the fields of the reply it reads.
REPLY_DECODERS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "hello": (
        lambda remote: remote._hello(None),
        ("protocol", "ledger_uri", "size", "fractal_height", "lsp_public_key", "ca_public_key"),
    ),
    "append": (lambda remote: remote.append(_request()), ("receipt",)),
    "append_acked": (lambda remote: remote.append_acked(_request()), ("receipt", "ack")),
    "append_batch": (lambda remote: remote.append_batch([_request()]), ("receipts",)),
    "get_journal": (lambda remote: remote.get_journal(JSN), ("journal", "proof")),
    "get_proof": (lambda remote: remote.get_proof(JSN), ("proof",)),
    "get_proofs": (lambda remote: remote.get_proofs([JSN]), ("proofs",)),
    "prove_clue": (lambda remote: remote.prove_clue("GOLDEN"), ("proof", "state_root")),
    "get_root": (
        lambda remote: remote.get_root(),
        ("root", "state_root", "size", "latest_receipt"),
    ),
    "receipt_for": (lambda remote: remote.receipt_for(JSN), ("receipt",)),
    "fam_extension": (
        lambda remote: remote.fam_extension(0, 1),
        ("old_root", "new_root", "bundle"),
    ),
    "shard_info": (
        lambda remote: remote.shard_info(),
        ("shard_index", "num_shards", "shard_root", "composite_root", "link"),
    ),
    "get_sth": (lambda remote: remote.get_sth(), ("sth",)),
    "get_sth_range": (lambda remote: remote.get_sth_range(0, 1), ("sths",)),
    "get_consistency": (
        lambda remote: remote.get_consistency(_Head(), _Head()),
        ("bundle", "assertion"),
    ),
    "export": (lambda remote: remote.export(), ("bundle",)),
    "ping": (lambda remote: remote.ping(), ("size",)),
    "list_tx": (lambda remote: remote.list_tx("GOLDEN"), ("jsns",)),
    "verify_journal_remote": (lambda remote: remote.verify_journal_remote(_Head()), ("ok",)),
}

#: The ops that read scalar fields, and which.
SCALAR_READS = {
    "hello": ("ledger_uri", "fractal_height"),
    "get_root": ("size",),
    "shard_info": ("shard_index", "num_shards"),
    "ping": ("size",),
    "list_tx": ("jsns",),
    "verify_journal_remote": ("ok",),
}


def hostile_reply(op: str, hostile: str) -> tuple[bytes, str]:
    """The payload of a reply to ``op`` whose fields carry, for a
    :data:`HOSTILE_VALUES` kind, that value in every bytes field, or else
    one scalar field of the wrong type — and the field the refusal names:
    the first refused one in the reply's key order."""
    fields = REPLY_DECODERS[op][1]
    if hostile in HOSTILE_VALUES:
        value = HOSTILE_VALUES[hostile]
        refused = SCALARS.keys() | (DIGESTS if hostile == "garbage" else ())
        hostile_fields = [field for field in fields if field not in refused]
        result = {
            field: SCALARS[field]
            if field in SCALARS
            else [value] if field in LIST_FIELDS else value
            for field in fields
        }
    else:
        hostile_fields = [hostile]
        result = {field: WELL_TYPED[field] for field in fields}
        result[hostile] = WRONG_SCALARS[hostile]
    return encode({"id": 1, "ok": True, "result": result}), min(hostile_fields)


@pytest.mark.parametrize(
    "op, hostile",
    [
        (op, hostile)
        for op in sorted(REPLY_DECODERS)
        if op not in ("ping", "list_tx", "verify_journal_remote")  # no bytes fields
        for hostile in HOSTILE_VALUES
        if (op, hostile) != ("export", "garbage")  # export hands its bytes on unparsed
    ]
    + [(op, field) for op, fields in sorted(SCALAR_READS.items()) for field in fields],
)
def test_a_hostile_reply_field_fails_typed_without_allocating(op, hostile):
    """The reply frame goes through the client's own read path — its one
    round trip reads these bytes off the socket — and the op's record
    refuses it, naming the field, before anything is built from it."""
    payload, field = hostile_reply(op, hostile)
    remote = object.__new__(AsyncRemoteLedger)
    remote._closed, remote._conn_error, remote._loop_thread = False, None, None
    remote._ids, remote.max_bytes = itertools.count(1), MAX_FRAME_BYTES
    remote._read_socket = lambda: None
    remote._release = remote._discard = lambda _sock: None
    remote._exchange = lambda _sock, _op, _request_id, _frame: payload
    coroutine = REPLY_DECODERS[op][0](remote)
    tracemalloc.start()
    try:
        with pytest.raises(VerificationFailure, match=f"'{field}'"):
            coroutine.send(None)  # the blocking round trip never suspends
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        coroutine.close()
    assert peak < 64 * 1024, f"{op} allocated {peak} bytes for a hostile reply"


def test_a_hostile_server_sending_integers_for_bytes_gets_a_typed_error():
    def reply(_index: int, message: dict) -> tuple[bytes, bool]:
        if message["op"] == "hello":
            return hello_reply(message), False
        field = {"get_journal": "journal", "append": "receipt"}[message["op"]]
        result = {field: 2_000_000}
        return frame_of({"id": message["id"], "ok": True, "result": result}), False

    with DoubleServer(reply) as double:
        client = RemoteLedgerClient(*double.address, expected_lsp_key=LSP_KEY, timeout=TIMEOUT)
        try:
            with pytest.raises(VerificationFailure, match="'journal'"):
                client.get_journal(JSN)
            with pytest.raises(VerificationFailure, match="'receipt'"):
                client.append(_request())
        finally:
            client.close()


# ------------------------------------------------------ the carried proof


OTHER = 1  # another journal of the golden ledger, in JSN's epoch


def read_frame_from(sock: socket.socket) -> bytes:
    """Exactly one frame off ``sock``."""
    data = b""
    while len(data) < 4 or len(data) < 4 + struct.unpack_from(">I", data)[0]:
        chunk = sock.recv(65536)
        assert chunk, "the upstream server hung up"
        data += chunk
    return data


class Relay:
    """A :class:`DoubleServer` reply function that forwards every request to
    a real server (one upstream socket per connection) and hands each
    ``get_journal`` result to ``edit`` before it goes back."""

    def __init__(self, address: tuple[str, int], edit: Callable[[dict], dict]) -> None:
        self.address = address
        self.edit = edit
        self.upstream: dict[int, socket.socket] = {}

    def __call__(self, index: int, message: dict) -> tuple[bytes, bool]:
        if index not in self.upstream:
            self.upstream[index] = socket.create_connection(self.address, timeout=30.0)
        sock = self.upstream[index]
        sock.sendall(frame_of(message))
        reply = read_frame_from(sock)
        if message["op"] == "get_journal":
            answer = message_of(reply)
            answer["result"] = self.edit(dict(answer["result"]))
            reply = frame_of(answer)
        return reply, False

    def close(self) -> None:
        for sock in self.upstream.values():
            sock.close()


def carried(ledger: Ledger) -> dict[str, Callable[[dict], dict]]:
    """Hostile ``get_journal`` results for JSN, by name, over ``ledger``'s
    honest one.  Two forks of it: one changed JSN itself (whose proof is
    then the honest one: a path holds no leaf of its own), one changed the
    journal after it (whose proof of JSN is another)."""
    fork, fork_beside = golden_ledger(fork_at=JSN), golden_ledger(fork_at=JSN + 1)
    honest = ledger.get_proof(JSN, anchored=True)
    forked = fork_beside.get_proof(JSN, anchored=True)
    assert forked != honest and fork.get_journal(JSN) != ledger.get_journal(JSN)
    other = ledger.get_proof(OTHER, anchored=True)
    journal = ledger.get_journal(JSN)
    tampered = dataclasses.replace(journal, payload=journal.payload[:-1] + b"X")
    return {
        "garbage": lambda result: dict(result, proof=bytes(range(64))),
        "truncated": lambda result: dict(result, proof=honest.to_bytes()[:-7]),
        "a str": lambda result: dict(result, proof=honest.to_bytes().hex()),
        "an int": lambda result: dict(result, proof=7),
        "another jsn's proof": lambda result: dict(result, proof=other.to_bytes()),
        "another jsn's path, relabelled": lambda result: dict(
            result, proof=dataclasses.replace(other, jsn=JSN).to_bytes()
        ),
        "a fork's proof": lambda result: dict(result, proof=forked.to_bytes()),
        "a fork's journal and proof": lambda result: dict(
            result,
            journal=fork.get_journal(JSN).to_bytes(),
            proof=fork.get_proof(JSN, anchored=True).to_bytes(),
        ),
        "a tampered journal, the honest proof": lambda result: dict(
            result, journal=tampered.to_bytes()
        ),
    }


def verdicts(session: RemoteLedgerSession) -> list:
    """The TX verdict on the journal at JSN, read afresh, both ways."""
    return [
        session.verify("tx", txdata=[session.client.get_journal(JSN)], level="client"),
        session.verify_journal(session.client.get_journal(JSN)),
    ]


def relayed(edit: Callable[[dict], dict], ledger: Ledger, check: Callable) -> None:
    """``check(session, double)`` over a session reading ``ledger`` through a
    :class:`Relay` that applies ``edit``."""
    with ServerThread(ledger) as served:
        relay = Relay(served.address, edit)
        try:
            with DoubleServer(relay) as double:
                session = RemoteLedgerSession(
                    *double.address, expected_lsp_key=LSP_KEY, timeout=10.0
                )
                try:
                    check(session, double)
                finally:
                    session.close()
        finally:
            relay.close()


def get_proofs_served(double: DoubleServer) -> int:
    return sum(double.ops(index).count("get_proof") for index in range(len(double.requests)))


def test_a_reply_without_a_proof_costs_exactly_one_get_proof():
    """Today's server: the session fetches the proof, once per verify."""
    ledger = golden_ledger()

    def check(session: RemoteLedgerSession, double: DoubleServer) -> None:
        session.sync_anchors()
        for verify in (
            lambda journal: session.verify("tx", txdata=[journal], level="client"),
            session.verify_journal,
        ):
            journal = session.client.get_journal(JSN)
            before = get_proofs_served(double)
            assert verify(journal).ok
            assert get_proofs_served(double) == before + 1

    relayed(lambda result: {"journal": result["journal"]}, ledger, check)


def test_an_honest_carried_proof_costs_no_get_proof():
    ledger = golden_ledger()

    def check(session: RemoteLedgerSession, double: DoubleServer) -> None:
        assert all(verdicts(session))
        assert get_proofs_served(double) == 0

    relayed(lambda result: result, ledger, check)


@pytest.mark.parametrize("hostile", sorted(carried(golden_ledger())))
def test_a_hostile_carried_proof_is_falsy_and_never_raises(hostile):
    ledger = golden_ledger()

    def check(session: RemoteLedgerSession, double: DoubleServer) -> None:
        for result in verdicts(session):
            assert not result.ok and result.what is False, (hostile, result)
            assert result.detail

    relayed(carried(ledger)[hostile], ledger, check)


def test_the_memo_changes_no_equality_hash_or_bytes():
    ledger = golden_ledger()
    with ServerThread(ledger) as served:
        client = RemoteLedgerClient(*served.address)
        try:
            for jsn in range(ledger.size):
                remote, local = client.get_journal(jsn), ledger.get_journal(jsn)
                rebuilt = dataclasses.replace(remote)
                assert vars(remote).keys() > vars(local).keys()  # the memo is there
                for twin in (local, rebuilt):
                    assert remote == twin and hash(remote) == hash(twin)
                    assert remote.to_bytes() == twin.to_bytes()
                    assert remote.tx_hash() == twin.tx_hash()
        finally:
            client.close()


# --------------------------------------------------------------- lifecycle


def test_close_closes_every_read_socket():
    """Eight threads share the pool with a thread switch likely anywhere:
    every reply is its own request's, and close() leaves no socket behind."""
    ledger = golden_ledger()
    with ServerThread(ledger) as served:
        observer = RemoteLedgerClient(*served.address)
        try:
            before = observer.stats()["connections"]
            client = RemoteLedgerClient(*served.address)
            start = threading.Barrier(8)
            errors: list[BaseException] = []

            def read(index: int) -> None:
                try:
                    start.wait(10.0)
                    for round_ in range(25):
                        jsn = 1 + (index + round_) % (ledger.size - 1)
                        local = ledger.get_journal(jsn).to_bytes()
                        assert client.get_journal(jsn).to_bytes() == local
                except BaseException as exc:
                    errors.append(exc)

            readers = [threading.Thread(target=read, args=(index,)) for index in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for reader in readers:
                    reader.start()
                for reader in readers:
                    reader.join(60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(reader.is_alive() for reader in readers)
            assert not errors, errors
            assert observer.stats()["connections"] >= before + 2  # main + read sockets
            client.close()
            deadline = time.monotonic() + 10.0
            while observer.stats()["connections"] != before:
                assert time.monotonic() < deadline, "a read socket outlived close()"
                time.sleep(0.01)
        finally:
            observer.close()


class StallingServer(LedgerServer):
    """Never answers ``list_tx``; ``asked`` is set once one is waiting."""

    async def start(self):
        self.asked = threading.Event()
        self.never = asyncio.get_running_loop().create_future()
        return await super().start()

    async def _op_list_tx(self, message: dict) -> dict:
        self.asked.set()
        await self.never

    async def close(self, *, drain: bool = True) -> None:
        self.never.cancel()
        await super().close(drain=drain)


def test_a_read_in_flight_when_close_runs_fails_typed():
    with ServerThread(golden_ledger(), server_cls=StallingServer) as served:
        client = RemoteLedgerClient(*served.address)  # the default 30 s timeout
        outcome: list[BaseException] = []

        def read() -> None:
            try:
                client.list_tx("GOLDEN")
            except BaseException as exc:
                outcome.append(exc)

        reader = threading.Thread(target=read)
        reader.start()
        try:
            assert served.server.asked.wait(10.0)
            started = time.monotonic()
            client.close()
            reader.join(10.0)
            assert not reader.is_alive(), "the read hung through close()"
            assert time.monotonic() - started < 5.0
        finally:
            client.close()
            reader.join(10.0)
        (error,) = outcome
        assert isinstance(error, RemoteLedgerError)
