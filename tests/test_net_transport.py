"""The frame transport under hostile and heavy use.

The server owns the :class:`FrameDecoder` now (``data_received`` feeds it),
so the chunkings that fuzz the decoder alone in ``test_net_protocol.py`` are
replayed here against a *running* server: every complete valid frame is
answered exactly once — in arrival order for loop-answered ops — a violation
earns one typed ``ProtocolError`` frame and a hang-up, and other connections
never notice.  Plus the three properties the Protocol rewrite must keep: one
``transport.write`` per loop tick of replies, byte-identical answers for
eight threads sharing one client, and TCP backpressure against a peer that
stops reading.
"""

from __future__ import annotations

import asyncio
import select
import socket
import statistics
import struct
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Ledger, LedgerConfig
from repro.crypto import KeyPair, Role
from repro.encoding import decode, encode
from repro.net import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    LedgerServer,
    RemoteLedgerClient,
    ServerThread,
    encode_frame,
)
from repro.net.server import _LOOP_OPS, _Connection
from repro.timeauth import SimClock

USER = "transport-user"
EPOCH = 16  # fractal_height=4
SEEDED = 2 * EPOCH + 5


def make_ledger(uri: str = "ledger://transport") -> tuple[Ledger, KeyPair]:
    ledger = Ledger(LedgerConfig(uri=uri, fractal_height=4, block_size=4), clock=SimClock())
    user = KeyPair.generate(seed="transport:user")
    ledger.registry.register(USER, Role.USER, user.public)
    return ledger, user


def connect(served: ServerThread, user: KeyPair) -> RemoteLedgerClient:
    host, port = served.address
    return RemoteLedgerClient(host, port, member_id=USER, keypair=user)


@pytest.fixture(scope="module")
def world():
    """A seeded ledger behind a running server, plus a bystander client."""
    ledger, user = make_ledger()
    with ServerThread(ledger) as served:
        bystander = connect(served, user)
        for index in range(SEEDED):
            bystander.session.append(b"seed %d" % index, clues=("SEED",))
        try:
            yield ledger, served, bystander
        finally:
            bystander.close()


def raw_peer(served: ServerThread) -> socket.socket:
    peer = socket.create_connection(served.address)
    peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    peer.settimeout(30.0)
    return peer


def request(request_id: int, op: str, **fields) -> bytes:
    """A request frame, written by the generic encoder: any op, any fields."""
    return encode_frame(encode({**fields, "id": request_id, "op": op}))


def replies_in(decoder: FrameDecoder, data: bytes) -> list[dict]:
    return [decode(payload) for payload in decoder.feed(data)]


def read_replies(peer: socket.socket, count: int | None) -> list[dict]:
    """``count`` replies, or with ``count=None`` everything up to EOF."""
    decoder = FrameDecoder()
    replies: list[dict] = []
    while count is None or len(replies) < count:
        data = peer.recv(65536)
        if not data:
            assert count is None, f"server hung up after {len(replies)} of {count} replies"
            break
        replies.extend(replies_in(decoder, data))
    return replies


# ---------------------------------------------------------- live-server fuzz

#: Loop-answered requests an anonymous peer may send, and whether they succeed.
_requests = st.one_of(
    st.just(("ping", {}, True)),
    st.just(
        (
            "fam_extension",
            {"old_epoch": 0, "old_live_size": 1, "new_epoch": None, "new_live_size": None},
            True,
        )
    ),
    st.just(("get_root", {}, True)),
    st.builds(lambda jsn: ("get_journal", {"jsn": jsn}, True), st.integers(0, SEEDED - 1)),
    st.builds(
        lambda jsn: ("get_proof", {"jsn": jsn, "anchored": True}, True),
        st.integers(0, SEEDED - 1),
    ),
    st.builds(lambda jsn: ("receipt_for", {"jsn": jsn}, True), st.integers(0, SEEDED - 1)),
    st.just(("get_journal", {"jsn": 10**9}, False)),  # typed error, connection survives
    st.just(("get_proof", {"jsn": "seven", "anchored": True}, False)),
    st.just(("no_such_op", {}, False)),
    st.just(("ping", {"ok": True}, False)),  # a request with a reply's key: refused
)


def _framed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


_violations = st.sampled_from(
    [
        struct.pack(">I", 0),  # zero-length frame
        struct.pack(">I", MAX_FRAME_BYTES + 1),  # oversized length prefix
        _framed(b"\xff\xff\xff"),  # undecodable payload
        _framed(encode([1, 2])),  # decodes, but not to a message
        _framed(encode({"id": "x", "op": "ping"})),  # no integer id
    ]
)

#: How the stream is cut into segments: a byte at a time, inside a length
#: prefix, a few frames at once, everything in one segment.
_chunk_sizes = st.sampled_from([1, 2, 3, 5, 61, 1024, 1 << 20])


class TestLiveServerFuzz:
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        requests=st.one_of(
            st.lists(_requests, min_size=1, max_size=12),
            st.lists(_requests, min_size=200, max_size=400),  # hundreds in one segment
        ),
        violation=st.one_of(st.none(), _violations),
        chunk=_chunk_sizes,
    )
    def test_every_chunking_is_answered_once_in_order(self, world, requests, violation, chunk):
        ledger, served, bystander = world
        stream = b"".join(
            request(index + 1, op, **fields) for index, (op, fields, _ok) in enumerate(requests)
        )
        if violation is not None:
            # Last on the wire: bytes the server has not read when it hangs up
            # would turn its FIN into a RST and could take the error frame along.
            stream += violation
        peer = raw_peer(served)
        try:
            for start in range(0, len(stream), chunk):
                peer.sendall(stream[start : start + chunk])
            replies = read_replies(peer, None if violation is not None else len(requests))
        finally:
            peer.close()
        answered = replies[: len(requests)]
        assert [reply["id"] for reply in answered] == list(range(1, len(requests) + 1))
        assert [reply["ok"] for reply in answered] == [ok for _op, _fields, ok in requests]
        for reply, (op, fields, ok) in zip(answered, requests):
            if ok and op == "get_journal":
                journal = ledger.get_journal(fields["jsn"])
                assert bytes(reply["result"]["journal"]) == journal.to_bytes()
        if violation is None:
            assert len(replies) == len(requests)
        else:
            (refusal,) = replies[len(requests) :]
            assert refusal["ok"] is False and refusal["error"]["type"] == "ProtocolError"
        # Whatever that peer did, everyone else is still being served.
        assert bystander.ping() == ledger.size

    def test_nothing_after_a_violation_is_answered(self, world):
        """Framing is lost at the violation, even inside one segment."""
        _ledger, served, _bystander = world
        peer = raw_peer(served)
        try:
            peer.sendall(request(1, "ping") + struct.pack(">I", 0) + request(2, "ping"))
            first, refusal = read_replies(peer, None)
        finally:
            peer.close()
        assert (first["id"], first["ok"]) == (1, True)
        assert (refusal["id"], refusal["error"]["type"]) == (0, "ProtocolError")

    def test_every_fuzzed_op_is_a_loop_op(self):
        """The in-order guarantee above holds for loop-answered ops only."""
        fuzzed = {"ping", "fam_extension", "get_root", "get_journal", "get_proof", "receipt_for"}
        assert fuzzed <= _LOOP_OPS


# ------------------------------------------------------- writes per tick


class RecordingTransport(asyncio.Transport):
    def __init__(self) -> None:
        super().__init__()
        self.writes: list[bytes] = []
        self.closed = False

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True

    def pause_reading(self) -> None: ...

    def resume_reading(self) -> None: ...


class GatedServer(LedgerServer):
    """Every ``list_tx`` (a task op) completes when the gate opens — the way
    a group commit settles a window of receipts in one tick."""

    async def _op_list_tx(self, message: dict) -> dict:
        await self.gate
        return {"jsns": []}


def test_replies_of_one_tick_leave_in_one_write():
    """A segment of 50 loop-answered requests is one ``transport.write``, and
    so are 16 task replies that complete in the same loop tick."""
    ledger, _user = make_ledger("ledger://one-write")

    async def scenario() -> tuple[list[bytes], list[bytes]]:
        server = GatedServer(ledger)
        server.gate = asyncio.get_running_loop().create_future()
        conn = _Connection(server)
        transport = RecordingTransport()
        conn.connection_made(transport)
        conn.data_received(b"".join(request(index + 1, "ping") for index in range(50)))
        loop_replies, transport.writes = transport.writes, []
        conn.data_received(
            b"".join(request(100 + index, "list_tx", clue="c") for index in range(16))
        )
        await asyncio.sleep(0)
        assert len(conn.inflight) == 16 and not transport.writes
        server.gate.set_result(None)
        while conn.inflight:
            await asyncio.sleep(0)
        await asyncio.sleep(0)  # the tick's flush
        task_replies = transport.writes
        conn.connection_lost(None)
        await server.close()
        return loop_replies, task_replies

    loop_replies, task_replies = asyncio.run(scenario())
    assert len(loop_replies) == 1
    assert [reply["id"] for reply in replies_in(FrameDecoder(), loop_replies[0])] == list(
        range(1, 51)
    )
    assert len(task_replies) == 1
    assert sorted(reply["id"] for reply in replies_in(FrameDecoder(), task_replies[0])) == list(
        range(100, 116)
    )


def _signed(ledger: Ledger, user: KeyPair, payload: bytes, nonce: int):
    from repro import ClientRequest

    return ClientRequest.build(
        ledger.config.uri,
        USER,
        payload,
        clues=(),
        nonce=nonce.to_bytes(8, "big"),
        client_timestamp=1.0,
    ).signed_by(user)


# ------------------------------------------------- one client, many threads


def test_eight_threads_share_one_client_byte_identically(world):
    """submit() futures (run on the client's loop) mixed with reads and
    verifies (driven on the callers' threads) over one connection: every
    receipt, journal and proof equals the in-process ledger's, byte for byte."""
    ledger, served, _bystander = world
    user = KeyPair.generate(seed="transport:user")
    client = connect(served, user)
    live_epoch = ledger.get_proof(ledger.size - 1).epoch_index
    sealed = [  # journals of sealed epochs: their proofs no longer move
        jsn for jsn in range(1, ledger.size) if ledger.get_proof(jsn).epoch_index < live_epoch
    ]
    assert len(sealed) >= EPOCH
    errors: list[BaseException] = []
    checked = [0] * 8

    def work(index: int) -> None:
        try:
            window = []
            for round_ in range(12):
                nonce = (index << 16) | round_
                window.append(
                    client.submit(_signed(ledger, user, b"shared %d" % nonce, 10**6 + nonce))
                )
                jsn = sealed[(index * 5 + round_ * 3) % len(sealed)]
                journal = client.get_journal(jsn)
                assert journal.to_bytes() == ledger.get_journal(jsn).to_bytes()
                proof = client.get_proof(jsn, anchored=True)
                local = ledger.get_proof(jsn, anchored=True)
                # num_epochs moves with the appends beside us; the sealed
                # epoch's proof itself does not.
                assert (proof.jsn, proof.epoch_index) == (local.jsn, local.epoch_index)
                assert proof.epoch_proof.to_bytes() == local.epoch_proof.to_bytes()
                assert client.session.verify_journal(journal, proof)
                assert client.session.verify_journal(journal)
                checked[index] += 1
            for future in window:
                receipt = future.result(30.0)
                assert receipt.to_bytes() == ledger.receipt_for(receipt.jsn).to_bytes()
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(index,)) for index in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert checked == [12] * 8
        assert client._remote._pending == {}
    finally:
        client.close()


# ------------------------------------------------------------ backpressure


def test_a_peer_that_stops_reading_is_not_read_from():
    """The peer pipelines requests — server-side verifies of a journal
    carrying 4 KiB (tasks) and single proofs (loop-answered) — and reads
    nothing, until TCP stops
    taking them.  The server stops reading *from it*: its tasks stay at
    ``max_inflight``, its write buffer and backlog stay bounded, the sender
    stalls on TCP, and a second client is served as fast as before.  Once
    the peer reads, every request it sent is answered.

    The sender keeps generating frames until it makes no progress, so the
    stall does not depend on how much the host's socket buffers hold; the
    byte cap makes a server that never pushes back fail instead."""
    ledger, user = make_ledger("ledger://backpressure")
    cap = 256 << 20
    with ServerThread(ledger, max_inflight=4) as served:
        healthy = connect(served, user)
        jsns = [healthy.session.append(b"bp %d" % index).jsn for index in range(EPOCH + 4)]
        padded = ledger.get_journal(healthy.session.append(b"x" * 4096).jsn).to_bytes()

        def frame(index: int) -> bytes:
            return (
                request(index + 1, "verify_journal", journal=padded)
                if index % 2
                else request(index + 1, "get_proof", jsn=jsns[index % len(jsns)], anchored=True)
            )

        peer = socket.socket()
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        peer.connect(served.address)
        peer.settimeout(60.0)
        sent = [0, 0]  # frames, bytes handed to the kernel
        stop = threading.Event()
        errors: list[BaseException] = []

        def send_until_stopped() -> None:
            try:
                while not stop.is_set() and sent[1] < cap:
                    data = frame(sent[0])
                    peer.sendall(data)
                    sent[0] += 1
                    sent[1] += len(data)
            except BaseException as exc:
                errors.append(exc)

        def ping_ms(rounds: int = 30) -> float:
            samples = []
            for _ in range(rounds):
                started = time.perf_counter()
                healthy.ping()
                samples.append((time.perf_counter() - started) * 1e3)
            return statistics.median(samples)

        sender = threading.Thread(target=send_until_stopped)
        try:
            calm = ping_ms()
            sender.start()
            # Wait for the sender to stall: no progress for half a second.
            deadline = time.monotonic() + 60
            mark, since = -1, time.monotonic()
            while time.monotonic() - since < 0.5:
                assert time.monotonic() < deadline, "the sender never stalled"
                if sent[0] != mark:
                    mark, since = sent[0], time.monotonic()
                time.sleep(0.02)
            assert not errors, errors
            assert sent[0] > 0 and sent[1] < cap, "TCP backpressure never reached the sender"
            (conn,) = [
                c
                for c in served.server._connections
                if c.transport.get_extra_info("peername") == peer.getsockname()
            ]
            assert len(conn.inflight) <= 4
            assert not conn.writable and not conn.transport.is_reading()
            assert conn.transport.get_write_buffer_size() < 1 << 20
            assert len(conn.backlog) < 1000
            assert ping_ms() < 10 * calm + 20, "a stalled peer slowed its neighbour"
            # The peer starts reading: the server reads on, the sender
            # finishes the frame it is blocked in and stops, and exactly the
            # frames sent are answered.
            stop.set()
            decoder = FrameDecoder()
            replies: list[dict] = []
            deadline = time.monotonic() + 60
            while sender.is_alive() or len(replies) < sent[0]:
                assert time.monotonic() < deadline, f"{len(replies)} of {sent[0]} replies"
                if not select.select([peer], [], [], 0.2)[0]:
                    continue  # nothing yet: look at the sender again
                data = peer.recv(65536)
                assert data, f"server hung up after {len(replies)} of {sent[0]} replies"
                replies.extend(replies_in(decoder, data))
            assert not errors, errors
            assert sorted(reply["id"] for reply in replies) == list(range(1, sent[0] + 1))
            assert all(reply["ok"] for reply in replies)
            singles = [reply["id"] for reply in replies if reply["id"] % 2]
            assert singles == sorted(singles), "loop-answered replies left out of order"
        finally:
            stop.set()
            peer.close()
            sender.join(10)
            healthy.close()
