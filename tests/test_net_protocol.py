"""Wire-protocol fuzz: framing must round-trip or raise ProtocolError.

The server's read loop trusts :mod:`repro.net.protocol` to be total over
arbitrary peer bytes: every input either yields well-formed messages or
raises a typed :class:`ProtocolError` — never a hang, never a stray
exception type that would crash the connection handler's error mapping.
Hypothesis drives both directions: structured messages through
encode/decode (under every stream chunking), and adversarial byte soup
(truncated, oversized, garbage, zero-length) through the decoder.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding import encode
from repro.net.protocol import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    ProtocolError,
    decode_message,
    encode_frame,
    read_frame,
    request,
    response_error,
    response_ok,
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
        lambda rid, op, fields: request(rid, op, **fields),
        st.integers(min_value=0, max_value=2**62),
        st.text(min_size=1, max_size=16),
        st.dictionaries(
            st.text(min_size=1, max_size=8).filter(lambda k: k not in ("id", "op", "ok")),
            _values,
            max_size=4,
        ),
    ),
    st.builds(
        response_ok,
        st.integers(min_value=0, max_value=2**62),
        st.dictionaries(st.text(max_size=8), _values, max_size=4),
    ),
    st.builds(
        response_error,
        st.integers(min_value=0, max_value=2**62),
        st.text(max_size=16),
        st.text(max_size=32),
    ),
)


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(message=_messages)
    def test_encode_decode_identity(self, message):
        frame = encode_frame(message)
        (length,) = struct.unpack_from(">I", frame)
        assert length == len(frame) - 4
        assert decode_message(frame[4:]) == message

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
            encode_frame({"id": 1, "ok": True, "result": {"blob": b"x" * 2048}},
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
            decoder.feed(encode_frame({"id": 1, "op": "ping"}))

    @settings(max_examples=60, deadline=None)
    @given(messages=st.lists(_messages, min_size=0, max_size=5))
    def test_frames_whole_before_a_violation_are_handed_over(self, messages):
        """The peer is owed answers to what it sent before it broke framing:
        the error carries those messages, in order."""
        stream = b"".join(encode_frame(m) for m in messages) + struct.pack(">I", 0)
        with pytest.raises(ProtocolError) as caught:
            FrameDecoder().feed(stream + encode_frame({"id": 9, "op": "ping"}))
        assert list(caught.value.completed) == messages
        assert ProtocolError("raised elsewhere").completed == ()

    def test_read_frame_cuts_one_message_and_leaves_the_rest(self):
        first, second = encode_frame({"id": 1, "op": "ping"}), encode_frame({"id": 2, "op": "ping"})
        buffer = bytearray(first + second[:-1])
        assert read_frame(buffer) == {"id": 1, "op": "ping"}
        assert read_frame(buffer) is None and bytes(buffer) == second[:-1]
        buffer += second[-1:]
        assert read_frame(buffer) == {"id": 2, "op": "ping"}
        assert read_frame(buffer) is None and not buffer
