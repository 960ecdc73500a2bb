"""Wire-protocol fuzz: framing must round-trip or raise ProtocolError.

The server's read loop trusts :mod:`repro.net.protocol` to be total over
arbitrary peer bytes: every input either yields whole frame payloads and
well-formed requests or raises a typed :class:`ProtocolError` — never a
hang, never a stray exception type that would crash the connection
handler's error mapping.  Hypothesis drives both directions: encoded
messages through the framing (under every stream chunking), and
adversarial byte soup (truncated, oversized, garbage, zero-length) through
the decoder.  The op table writes exactly the bytes the generic encoder
gives the same message, for a request and a reply of every op.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding import encode
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    OPS,
    FrameDecoder,
    ProtocolError,
    decode_message,
    decode_reply,
    encode_frame,
    read_frame,
    reply_frame,
    reply_id,
    request_frame,
)

# Values the canonical encoding supports (tuples come back as lists, NaN
# breaks equality — both excluded so round-trip can assert ==).
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.binary(max_size=64),
    st.text(max_size=32),
    st.floats(allow_nan=False),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)
_messages = st.one_of(
    st.builds(
        lambda rid, op, fields: {**fields, "id": rid, "op": op},
        st.integers(min_value=0, max_value=2**62),
        st.text(min_size=1, max_size=16),
        st.dictionaries(
            st.text(min_size=1, max_size=8).filter(lambda k: k not in ("id", "op", "ok")),
            _values,
            max_size=4,
        ),
    ),
    st.builds(
        lambda rid, result: {"id": rid, "ok": True, "result": result},
        st.integers(min_value=0, max_value=2**62),
        st.dictionaries(st.text(max_size=8), _values, max_size=4),
    ),
    st.builds(
        lambda rid, kind, text: {"id": rid, "ok": False, "error": {"type": kind, "message": text}},
        st.integers(min_value=0, max_value=2**62),
        st.text(max_size=16),
        st.text(max_size=32),
    ),
).map(encode)


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(message=_messages)
    def test_encode_decode_identity(self, message):
        frame = encode_frame(message)
        (length,) = struct.unpack_from(">I", frame)
        assert length == len(frame) - 4
        assert FrameDecoder().feed(frame) == [message]

    @settings(max_examples=60, deadline=None)
    @given(
        messages=st.lists(_messages, min_size=1, max_size=5),
        data=st.data(),
    )
    def test_decoder_is_chunking_invariant(self, messages, data):
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        out = []
        position = 0
        while position < len(stream):
            step = data.draw(st.integers(min_value=1, max_value=len(stream) - position))
            out.extend(decoder.feed(stream[position : position + step]))
            position += step
        assert out == messages
        assert decoder.pending_bytes == 0


class TestMalformedInput:
    @settings(max_examples=120, deadline=None)
    @given(garbage=st.binary(min_size=4, max_size=256))
    def test_arbitrary_bytes_never_escape_protocolerror(self, garbage):
        """Any byte soup either decodes to messages or raises ProtocolError."""
        decoder = FrameDecoder(max_bytes=1024)
        try:
            decoder.feed(garbage)
        except ProtocolError:
            pass

    @settings(max_examples=60, deadline=None)
    @given(message=_messages)
    def test_truncated_payload_is_held_not_decoded(self, message):
        """A partial frame yields nothing and stays buffered — no guessing."""
        frame = encode_frame(message)
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending_bytes == len(frame) - 1
        assert decoder.feed(frame[-1:]) == [message]

    def test_zero_length_frame_rejected(self):
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(struct.pack(">I", 0))

    def test_oversized_length_prefix_rejected_before_payload(self):
        """The hostile length alone must trip the cap — no allocation wait."""
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_oversized_message_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame(encode({"id": 1, "ok": True, "result": {"blob": b"x" * 2048}}),
                         max_bytes=1024)

    @pytest.mark.parametrize(
        "payload_value",
        [
            b"not a dict at all",
            [1, 2, 3],
            {"op": "ping"},                      # no id
            {"id": True, "op": "ping"},          # bool id
            {"id": 1},                           # neither op nor ok
            {"id": 1, "op": "ping", "ok": True}, # both op and ok
            {"id": 1, "op": 7},                  # non-str op
            {"id": 1, "ok": 1},                  # non-bool ok
        ],
    )
    def test_shape_violations_are_typed(self, payload_value):
        with pytest.raises(ProtocolError):
            decode_message(encode(payload_value))

    def test_undecodable_payload_is_typed(self):
        with pytest.raises(ProtocolError):
            decode_message(b"\xff\xfe\xfd")

    def test_decoder_poisons_after_error(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            decoder.feed(struct.pack(">I", 0))
        with pytest.raises(ProtocolError):
            decoder.feed(encode_frame(encode({"id": 1, "op": "ping"})))

    @settings(max_examples=60, deadline=None)
    @given(messages=st.lists(_messages, min_size=0, max_size=5))
    def test_frames_whole_before_a_violation_are_handed_over(self, messages):
        """The peer is owed answers to what it sent before it broke framing:
        the error carries those messages, in order."""
        stream = b"".join(encode_frame(m) for m in messages) + struct.pack(">I", 0)
        with pytest.raises(ProtocolError) as caught:
            FrameDecoder().feed(stream + encode_frame(encode({"id": 9, "op": "ping"})))
        assert list(caught.value.completed) == messages
        assert ProtocolError("raised elsewhere").completed == ()

    def test_read_frame_cuts_one_message_and_leaves_the_rest(self):
        one, two = encode({"id": 1, "op": "ping"}), encode({"id": 2, "op": "ping"})
        first, second = encode_frame(one), encode_frame(two)
        buffer = bytearray(first + second[:-1])
        assert read_frame(buffer) == one
        assert read_frame(buffer) is None and bytes(buffer) == second[:-1]
        buffer += second[-1:]
        assert read_frame(buffer) == two
        assert read_frame(buffer) is None and not buffer


# ------------------------------------------------------------------ op table


def _samples() -> list[tuple[str, dict, dict]]:
    """A request and a reply of every op, over a small real ledger: typed
    values, None where a key that is only sometimes present is left out."""
    from repro.core import ClientRequest, Ledger, LedgerConfig
    from repro.crypto import KeyPair, Role
    from repro.merkle.shrubs import ShrubsAccumulator
    from repro.timeauth import SimClock

    uri = "ledger://op-table"
    ledger = Ledger(LedgerConfig(uri=uri, fractal_height=2, block_size=2), clock=SimClock())
    user = KeyPair.generate(seed="op-table:user")
    ledger.registry.register("u", Role.USER, user.public)
    requests = [
        ClientRequest.build(uri, "u", b"p%d" % i, clues=("C",), nonce=b"n%d" % i).signed_by(user)
        for i in range(6)
    ]
    receipts = [ledger.append(request) for request in requests]
    old = ledger.get_sth()
    ledger.append(ClientRequest.build(uri, "u", b"late", nonce=b"late").signed_by(user))
    new = ledger.get_sth()
    bundle, assertion = ledger.get_consistency(old, new)
    old_root, new_root, extension = ledger.fam_extension(0, 1)
    clue_proof = ledger.prove_clue("C", root=ledger.head.state_root)
    shard_map = ShrubsAccumulator()
    shard_map.extend([ledger.head.root])
    key, journal, proof = user.public, ledger.get_journal(3), ledger.get_proof(3)
    head = ledger.head
    stats = dict.fromkeys("submitted committed rejected batches salvaged_batches queued".split(), 2)
    return [
        ("hello", {"protocol": 1}, {
            "protocol": 1, "ledger_uri": uri, "size": 7, "fractal_height": 2,
            "lsp_public_key": key, "ca_public_key": key,
        }),
        ("ping", {}, {"size": 7}),
        ("append", {"request": requests[0], "want_ack": None, "ack_deadline": None},
         {"receipt": receipts[0], "ack": None}),
        ("append", {"request": requests[1], "want_ack": True, "ack_deadline": None},
         {"receipt": receipts[1], "ack": ledger.issue_ack(requests[1])}),
        ("append", {"request": requests[2], "want_ack": True, "ack_deadline": 3},
         {"receipt": receipts[2], "ack": ledger.issue_ack(requests[2], 3)}),
        ("append_batch", {"requests": requests[:3]}, {"receipts": receipts[:3]}),
        ("register", {"member_id": "v", "role": Role.USER, "public_key": key},
         {"member_id": "v", "role": "user"}),
        ("get_journal", {"jsn": 3}, {"journal": journal, "proof": proof.to_bytes()}),
        ("get_journal", {"jsn": 3}, {"journal": journal, "proof": None}),
        ("list_tx", {"clue": "C"}, {"jsns": [1, 2, 300]}),
        ("get_proof", {"jsn": 3, "anchored": True}, {"proof": proof}),
        ("get_proofs", {"jsns": [3, 4], "anchored": False},
         {"proofs": ledger.get_proofs([3, 4], anchored=False)}),
        ("prove_clue", {"clue": "C"}, {"proof": clue_proof, "state_root": head.state_root}),
        ("get_root", {}, {
            "root": head.root, "state_root": head.state_root, "size": head.size,
            "latest_receipt": head.receipt,
        }),
        ("receipt_for", {"jsn": 2}, {"receipt": receipts[1]}),
        ("fam_extension",
         {"old_epoch": 0, "old_live_size": 1, "new_epoch": 1, "new_live_size": 2},
         {"old_root": old_root, "new_root": new_root, "bundle": extension}),
        ("verify_journal", {"journal": journal}, {"ok": True}),
        ("shard_info", {}, {
            "shard_index": 0, "num_shards": 1, "shard_root": head.root,
            "composite_root": shard_map.root(), "link": shard_map.prove(0),
        }),
        ("get_sth", {"composite": False}, {"sth": new}),
        ("get_sth_range", {"start": 0, "end": 2}, {"sths": [old, new]}),
        ("get_consistency", {"old": old, "new": new}, {"bundle": bundle, "assertion": assertion}),
        ("export", {"clues": ["C"]}, {"bundle": b"LDBBNDL1..."}),
        ("stats", {}, {**stats, "mean_batch_size": 1.5, "ledger_size": 7, "connections": 1}),
    ]


def wire(value):
    """A typed value as the generic encoder's input: records as their bytes,
    enums as their values, and keys whose value is None left out."""
    if isinstance(value, dict):
        return {key: wire(item) for key, item in value.items() if item is not None}
    if isinstance(value, (list, tuple)):
        return [wire(item) for item in value]
    if hasattr(value, "to_bytes") and not isinstance(value, int):
        return value.to_bytes()
    return getattr(value, "value", value)


SAMPLES = _samples()


class TestOpTable:
    def test_every_op_has_a_sample(self):
        assert {op for op, _request, _result in SAMPLES} == set(OPS)

    @pytest.mark.parametrize(
        "op, fields, result", SAMPLES, ids=[f"{op}-{i}" for i, (op, _f, _r) in enumerate(SAMPLES)]
    )
    def test_the_table_writes_the_generic_bytes_and_reads_them_back(self, op, fields, result):
        request = request_frame(op, 7, dict(fields))
        assert request[4:] == encode({**wire(fields), "id": 7, "op": op})
        assert decode_message(request[4:]) == {**fields, "id": 7, "op": op}
        reply = reply_frame(op, 7, result)
        assert reply[4:] == encode({"id": 7, "ok": True, "result": wire(result)})
        assert reply_id(reply[4:]) == 7
        assert decode_reply(op, reply[4:]) == (True, result)

    def test_an_empty_optional_record_is_the_empty_bytes(self):
        reply = reply_frame("receipt_for", 1, {"receipt": None})
        assert reply[4:] == encode({"id": 1, "ok": True, "result": {"receipt": b""}})
        assert decode_reply("receipt_for", reply[4:]) == (True, {"receipt": None})
