"""Hostile requests into the live server's dispatch, hostile replies into the client.

Each op's request and reply is one record of the op table, and both ends
decode through it.  So for every op:

* a request with one field replaced by a value of another kind, dropped, or
  joined by an extra key is refused with a typed ``ProtocolError`` frame
  carrying its id, and the connection keeps serving;
* any reply frame — bytes, a reply of any shape, an op's reply with a
  field broken the same ways — makes the client's call return or raise
  ``VerificationFailure`` / ``RemoteLedgerError``, never another type.
"""

from __future__ import annotations

import itertools
import socket

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from test_net_protocol import SAMPLES, wire

from repro.core import Ledger, LedgerConfig
from repro.core.errors import VerificationFailure
from repro.encoding import EncodingError, decode, encode
from repro.net import FrameDecoder, LedgerServer, RemoteLedgerError, ServerThread, encode_frame
from repro.net.client import AsyncRemoteLedger
from repro.net.protocol import ERROR, MAX_FRAME_BYTES, OPS
from repro.timeauth import SimClock

#: One well-formed request and reply of every op, typed and on the wire.
TYPED: dict[str, tuple[dict, dict]] = {}
for _op, _fields, _result in SAMPLES:
    TYPED.setdefault(_op, (_fields, _result))
WIRE = {op: (wire(fields), wire(result)) for op, (fields, result) in TYPED.items()}

_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.binary(max_size=8)
    | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


def _broken(fields: dict, data) -> dict:
    """``fields`` with one field of another kind (never None), one dropped,
    or an extra key no message of the table has."""
    moves = ["extra"] + (["replace", "drop"] if fields else [])
    move, key = data.draw(st.sampled_from(moves)), None
    if move != "extra":
        key = data.draw(st.sampled_from(sorted(fields)))
    if move == "drop":
        return {name: value for name, value in fields.items() if name != key}
    if move == "extra":
        return {**fields, data.draw(st.text(max_size=4)) + "~": data.draw(_values)}
    kind = type(fields[key])
    other = _values.filter(lambda value: value is not None and type(value) is not kind)
    return {**fields, key: data.draw(other)}


# ------------------------------------------------------------ the server


@pytest.fixture(scope="module")
def served():
    ledger = Ledger(LedgerConfig(uri="ledger://dispatch", fractal_height=2), clock=SimClock())
    with ServerThread(ledger) as server:
        yield server


def _exchange(peer: socket.socket, message: dict) -> dict:
    peer.sendall(encode_frame(encode(message)))
    decoder, payloads = FrameDecoder(), []
    while not payloads:
        data = peer.recv(65536)
        assert data, "the server hung up"
        payloads = decoder.feed(data)
    (payload,) = payloads
    return decode(payload)


def test_every_op_of_the_table_has_a_handler():
    assert all(callable(getattr(LedgerServer, f"_op_{op}", None)) for op in OPS)


HOSTILE = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@HOSTILE
@given(op=st.sampled_from(sorted(WIRE)), request_id=st.integers(0, 2**62), data=st.data())
def test_a_broken_request_is_refused_with_its_id_and_the_connection_serves_on(
    served, op, request_id, data
):
    fields = _broken(WIRE[op][0], data)
    with socket.create_connection(served.address, timeout=30.0) as peer:
        reply = _exchange(peer, {**fields, "id": request_id, "op": op})
        assert (reply["id"], reply["ok"]) == (request_id, False), reply
        assert reply["error"]["type"] == "ProtocolError"
        assert op in reply["error"]["message"]
        pong = _exchange(peer, {"id": request_id + 1, "op": "ping"})
        assert (pong["id"], pong["ok"]) == (request_id + 1, True)


# ------------------------------------------------------------ the client


_REQUEST = TYPED["append"][0]["request"]
_JOURNAL = TYPED["get_journal"][1]["journal"]
_HEAD = TYPED["get_sth"][1]["sth"]

#: Every op's client call, by op.
CALLS = {
    "hello": lambda remote: remote._hello(None),
    "ping": lambda remote: remote.ping(),
    "append": lambda remote: remote.append(_REQUEST),
    "append_batch": lambda remote: remote.append_batch([_REQUEST]),
    "register": lambda remote: remote.register("v", "user", TYPED["hello"][1]["ca_public_key"]),
    "get_journal": lambda remote: remote.get_journal(3),
    "list_tx": lambda remote: remote.list_tx("C"),
    "get_proof": lambda remote: remote.get_proof(3),
    "get_proofs": lambda remote: remote.get_proofs([3]),
    "prove_clue": lambda remote: remote.prove_clue("C"),
    "get_root": lambda remote: remote.get_root(),
    "receipt_for": lambda remote: remote.receipt_for(2),
    "fam_extension": lambda remote: remote.fam_extension(0, 1),
    "verify_journal": lambda remote: remote.verify_journal_remote(_JOURNAL),
    "shard_info": lambda remote: remote.shard_info(),
    "get_sth": lambda remote: remote.get_sth(),
    "get_sth_range": lambda remote: remote.get_sth_range(0, 1),
    "get_consistency": lambda remote: remote.get_consistency(_HEAD, _HEAD),
    "export": lambda remote: remote.export(),
    "stats": lambda remote: remote.stats(),
}


def _answering(payload: bytes) -> AsyncRemoteLedger:
    """A client whose every read gets ``payload`` back off its one round trip."""
    remote = object.__new__(AsyncRemoteLedger)
    remote._closed, remote._conn_error, remote._loop_thread = False, None, None
    remote._ids, remote.max_bytes = itertools.count(1), MAX_FRAME_BYTES
    remote.lsp_public_key, remote.ledger_uri = None, ""
    remote._read_socket = lambda: None
    remote._release = remote._discard = lambda _sock: None
    remote._exchange = lambda _sock, _op, _request_id, _frame: payload
    return remote


def test_every_op_has_a_call():
    assert set(CALLS) == set(WIRE)


@HOSTILE
@given(op=st.sampled_from(sorted(CALLS)), data=st.data())
def test_any_reply_frame_is_a_result_or_a_typed_refusal(op, data):
    shape = data.draw(st.sampled_from(["bytes", "any result", "broken result", "any error"]))
    if shape == "bytes":
        payload = data.draw(st.binary(max_size=64))
    elif shape == "any error":
        payload = encode({"id": 1, "ok": False, "error": data.draw(_values)})
    else:
        result = data.draw(_values) if shape == "any result" else _broken(WIRE[op][1], data)
        payload = encode({"id": 1, "ok": True, "result": result})
    try:
        ERROR.decode(payload)
    except EncodingError:
        pass
    else:
        assume(False)  # a well-formed refusal raises the error it names
    coroutine = CALLS[op](_answering(payload))
    try:
        coroutine.send(None)  # the blocking round trip never suspends
    except StopIteration:
        pass  # a reply its record accepts, and the call's checks pass
    except (VerificationFailure, RemoteLedgerError):
        pass
    finally:
        coroutine.close()
