"""The record codecs: golden bytes, strictness, compiled vs oracle, hostile input.

``tests/data/golden/*.hex`` pins the wire form of every fixed-schema record
(journals, requests, receipts, proofs, MPT nodes, clue values, signed tree
heads, submission acks); the files were written by :func:`golden_records`
before the codec was compiled (heads and acks: before the commit path was
folded), so both the compiled encoders and the generic oracle must still
produce them.
"""

from __future__ import annotations

import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import encoding
from repro.core import journal as journal_module
from repro.core.journal import ClientRequest, Journal, JournalType
from repro.core.receipt import Receipt
from repro.crypto.hashing import leaf_hash, sha256
from repro.crypto.keys import KeyPair
from repro.encoding import EncodingError, decode, encode
from repro.merkle import cmtree, fam, mpt, proofs
from repro.merkle.cmtree import decode_clue_value, encode_clue_value
from repro.merkle.consistency import ConsistencyBundle
from repro.merkle.fam import FamAccumulator, FamProof
from repro.merkle.mpt import _serialize
from repro.merkle.proofs import MembershipProof, PathStep
from repro.transparency.censorship import SubmissionAck
from repro.transparency.sth import SignedTreeHead

GOLDEN = Path(__file__).parent / "data" / "golden"


def golden_objects() -> dict[str, object]:
    """One deterministic instance of every fixed-schema record."""
    user = KeyPair.generate(seed="golden-user")
    lsp = KeyPair.generate(seed="golden-lsp")
    request = ClientRequest.build(
        "ledger://golden",
        "golden-user",
        b"golden payload \x00\xff",
        clues=("GLD", "béta"),
        nonce=b"\x00nonce\xff",
        client_timestamp=1.25,
    ).signed_by(user)
    signed = Journal(
        jsn=300,
        journal_type=JournalType.NORMAL,
        client_id=request.client_id,
        payload=request.payload,
        clues=request.clues,
        timestamp=2.5,
        nonce=request.nonce,
        request_hash=request.request_hash(),
        client_signature=request.signature,
    )
    unsigned = Journal(
        jsn=0,
        journal_type=JournalType.GENESIS,
        client_id="__lsp__",
        payload=b"",
        clues=(),
        timestamp=0.0,
        nonce=b"",
        request_hash=sha256(b"genesis"),
        client_signature=None,
    )
    receipt = Receipt(
        ledger_uri="ledger://golden",
        jsn=300,
        request_hash=signed.request_hash,
        tx_hash=signed.tx_hash(),
        block_hash=sha256(b"block"),
        block_height=3,
        ledger_root=sha256(b"root"),
        timestamp=2.5,
    ).signed_by(lsp)
    sth = SignedTreeHead(
        ledger_uri="ledger://golden",
        epoch=3,
        tree_size=10,
        live_size=2,
        root=sha256(b"head root"),
        timestamp=4.75,
        fractal_height=2,
        shard_index=1,
    ).signed_by(lsp)
    ack = SubmissionAck(
        ledger_uri="ledger://golden",
        request_hash=request.request_hash(),
        epoch=3,
        tree_size=10,
        deadline_epochs=2,
        timestamp=4.5,
    ).signed_by(lsp)
    fam = FamAccumulator(2)
    for index in range(11):
        fam.append(leaf_hash(b"j%d" % index))
    children = [None] * 16
    children[2], children[9] = sha256(b"child 2"), sha256(b"child 9")
    return {
        "record.journal_signed": signed,
        "record.journal_unsigned": unsigned,
        "record.client_request": request,
        "record.receipt": receipt,
        "record.fam_proof": fam.get_proof(1, anchored=False),
        "record.mpt_leaf": ("leaf", bytes([1, 2, 15]), b"leaf value"),
        "record.mpt_ext": ("ext", bytes([3, 0, 7]), sha256(b"ext child")),
        "record.mpt_branch": ("branch", list(children), None),
        "record.mpt_branch_value": ("branch", list(children), b""),
        "record.clue_value": (5, [sha256(b"peak 0"), sha256(b"peak 1")]),
        "record.sth": sth,
        "record.ack": ack,
    }


def to_bytes(name: str, obj) -> bytes:
    if name.startswith("record.mpt_"):
        return _serialize(obj)
    if name == "record.clue_value":
        return encode_clue_value(*obj)
    return obj.to_bytes()


def golden_records() -> dict[str, bytes]:
    return {name: to_bytes(name, obj) for name, obj in golden_objects().items()}


def golden(name: str) -> bytes:
    return bytes.fromhex((GOLDEN / f"{name}.hex").read_text())


def write_golden() -> None:
    """Rewrite the record golden files (only ever on purpose: they are the fixed point)."""
    for name, data in golden_records().items():
        text = data.hex()
        lines = [text[i : i + 96] for i in range(0, len(text), 96)]
        (GOLDEN / f"{name}.hex").write_text("\n".join(lines) + "\n")


def test_records_produce_the_golden_bytes():
    for name, data in golden_records().items():
        assert data == golden(name), name


# ------------------------------------------------------------------ oracle


def oracle_encode(value) -> bytes:
    out = bytearray()
    encoding._encode_into(value, out)
    return bytes(out)


def oracle_decode(data: bytes):
    value, pos = encoding._read_value(bytes(data), 0)
    if pos != len(data):
        raise EncodingError("trailing bytes after value")
    return value


def test_oracle_and_generic_encoder_reproduce_the_golden_bytes():
    for name in golden_records():
        data = golden(name)
        assert oracle_encode(oracle_decode(data)) == data, name
        assert encode(decode(data)) == data, name


# ------------------------------------------------------------- strictness


@pytest.mark.parametrize(
    "data",
    [
        b"i\x02\x00\x05",  # zero-padded magnitude
        b"b\x01\x00",  # zero-padded length (of an empty string)
        b"b\x02\x00\x01x",  # zero-padded length of a 1-byte string
        b"j\x00",  # negative zero
        b"m\x01\x02s\x01\x01bNs\x01\x01aN",  # unsorted keys
        b"m\x01\x02s\x01\x01aNs\x01\x01aN",  # duplicate keys
        b"s\x01\x01\xff",  # invalid UTF-8
        b"m\x01\x01i\x00N",  # non-str key
    ],
)
def test_non_canonical_encodings_rejected(data):
    with pytest.raises(EncodingError):
        decode(data)


def test_deep_nesting_is_a_typed_error():
    with pytest.raises(EncodingError):
        decode(b"l\x01\x01" * 100_000 + b"N")


def test_bytes_like_values_encode_as_bytes():
    for value in (bytearray(b"xyz"), memoryview(b"xyz")):
        assert encode(value) == oracle_encode(value) == encode(b"xyz")


values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.binary(max_size=300)
    | st.text(max_size=32)
    | st.floats(),
    lambda children: st.lists(children, max_size=6)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=8), children, max_size=6),
    max_leaves=24,
)


@st.composite
def mutated(draw, encoded):
    """A valid encoding with one byte replaced, inserted or deleted."""
    data = bytearray(draw(encoded))
    at = draw(st.integers(min_value=0, max_value=len(data)))
    action = draw(st.sampled_from(["replace", "insert", "delete"]))
    byte = draw(st.integers(min_value=0, max_value=255))
    if action == "insert":
        data.insert(at, byte)
    elif at < len(data):
        if action == "replace":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


candidate_bytes = st.binary(max_size=48) | mutated(values.map(encode))


@given(values)
def test_compiled_encoder_matches_oracle(value):
    assert encode(value) == oracle_encode(value)


@settings(max_examples=400)
@given(candidate_bytes)
def test_accepted_input_reencodes_byte_identically(data):
    try:
        value = decode(data)
    except EncodingError:
        return
    assert encode(value) == data


# ------------------------------------------------------- per-schema codecs


def outcome(function, data):
    """What ``function(data)`` gives: its value, or its error's type and text."""
    try:
        return "value", function(data)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return "error", type(exc), str(exc)


def same(a, b) -> bool:
    """``a == b``, except that two NaNs in the same place count as equal."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


# (compiled, reference) decoder pairs that must agree on every input.
DECODERS = {
    "journal": (journal_module._JOURNAL.decode, decode),
    "fam_proof": (fam._FAM_PROOF.decode, decode),
    "membership": (proofs._MEMBERSHIP.decode, decode),
    "clue_value": (cmtree._CLUE_VALUE.decode, decode),
    "mpt_node": (mpt._deserialize, mpt._deserialize_generic),
}


def schema_of(name: str) -> str:
    kind = name.removeprefix("record.").split(".")[0]
    if kind.startswith("journal"):
        return "journal"
    if kind.startswith("mpt"):
        return "mpt_node"
    return kind


def corpus() -> dict[str, bytes]:
    """Golden bytes per decoder, including the proofs a FamProof carries."""
    blobs = {name: golden(name) for name in golden_records() if schema_of(name) in DECODERS}
    fam_obj = decode(golden("record.fam_proof"))
    for index, blob in enumerate([fam_obj["epoch_proof"], *fam_obj["link_proofs"]]):
        blobs[f"record.membership.{index}"] = blob
    return blobs


def hostile(data: bytes):
    """Every truncation and every single-bit flip of ``data``."""
    for end in range(len(data)):
        yield data[:end]
    for index in range(len(data)):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[index] ^= 1 << bit
            yield bytes(flipped)


def test_schema_decoders_agree_with_generic_decoder_on_hostile_input():
    for name, data in corpus().items():
        compiled, reference = DECODERS[schema_of(name)]
        assert compiled(data) == reference(data), name
        for candidate in hostile(data):
            assert outcome(compiled, candidate) == outcome(reference, candidate), (name, candidate)


digests = st.binary(min_size=1, max_size=40)
ints = st.integers(min_value=-(2**80), max_value=2**80)

journal_fields = st.fixed_dictionaries(
    {
        "jsn": ints,
        "journal_type": st.sampled_from([kind.value for kind in JournalType]) | st.text(),
        "client_id": st.text(max_size=16),
        "payload": st.binary(max_size=300),
        "clues": st.lists(st.text(max_size=8), max_size=4),
        "timestamp": st.floats() | ints,
        "nonce": st.binary(max_size=20),
        "request_hash": digests,
        "client_signature": st.binary(max_size=70),
    }
)


@given(journal_fields)
@example(
    {
        "jsn": 0,
        "journal_type": "genesis",
        "client_id": "",
        "payload": b"",
        "clues": [],
        "timestamp": math.nan,
        "nonce": b"",
        "request_hash": b"\x00",
        "client_signature": b"",
    }
)
def test_journal_codec_matches_oracle(fields):
    data = journal_module._JOURNAL.encode(fields)
    assert data == oracle_encode(fields)
    assert same(outcome(journal_module._JOURNAL.decode, data), outcome(oracle_decode, data))


steps = st.builds(PathStep, digests, st.booleans())
membership_proofs = st.builds(
    MembershipProof,
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**40),
    st.lists(steps, max_size=12),
    st.lists(digests, max_size=4),
    st.lists(digests, max_size=4),
)


def membership_obj(proof: MembershipProof) -> dict:
    return {
        "leaf_index": proof.leaf_index,
        "tree_size": proof.tree_size,
        "path": [step.to_obj() for step in proof.path],
        "peaks_left": list(proof.peaks_left),
        "peaks_right": list(proof.peaks_right),
    }


@given(membership_proofs, st.lists(membership_proofs, max_size=3), ints)
def test_proof_codecs_match_oracle(epoch_proof, link_proofs, jsn):
    data = epoch_proof.to_bytes()
    assert data == oracle_encode(membership_obj(epoch_proof))
    assert MembershipProof.from_bytes(data) == epoch_proof
    proof = FamProof(jsn, 3, 4, epoch_proof, link_proofs)
    data = proof.to_bytes()
    assert data == oracle_encode(
        {
            "jsn": jsn,
            "epoch_index": 3,
            "num_epochs": 4,
            "epoch_proof": epoch_proof.to_bytes(),
            "link_proofs": [link.to_bytes() for link in link_proofs],
        }
    )
    assert FamProof.from_bytes(data) == proof


@given(st.integers(min_value=0, max_value=2**70), st.lists(digests, max_size=10))
def test_clue_value_codec_matches_oracle(size, frontier):
    data = encode_clue_value(size, frontier)
    assert data == oracle_encode({"size": size, "frontier": frontier})
    assert decode_clue_value(data) == (size, frontier)


mpt_nodes = (
    st.tuples(st.sampled_from(["leaf", "ext"]), st.binary(max_size=64), st.binary(max_size=300))
    | st.tuples(
        st.just("branch"),
        st.lists(st.none() | digests, min_size=16, max_size=16),
        st.none() | st.binary(max_size=300),
    )
)


def mpt_obj(node: tuple) -> list:
    """The generic list ``_serialize`` writes for ``node``."""
    if node[0] == "branch":
        children = [child or b"" for child in node[1]]
        return [mpt._BRANCH, children, node[2] or b"", node[2] is not None]
    return [mpt._LEAF if node[0] == "leaf" else mpt._EXT, node[1], node[2]]


@given(mpt_nodes)
def test_mpt_node_codec_matches_oracle(node):
    data = _serialize(node)
    assert data == oracle_encode(mpt_obj(node))
    assert mpt._deserialize(data) == mpt._deserialize_generic(data) == node


# Loaders of every golden record, and the errors malformed input may raise:
# the same set the server maps to a protocol error.
LOADERS = {
    "journal": Journal.from_bytes,
    "client_request": ClientRequest.from_bytes,
    "receipt": Receipt.from_bytes,
    "fam_proof": FamProof.from_bytes,
    "mpt_node": mpt._deserialize,
    "clue_value": decode_clue_value,
    "sth": SignedTreeHead.from_bytes,
    "ack": SubmissionAck.from_bytes,
}
MALFORMED = (EncodingError, KeyError, TypeError, ValueError)


def test_loaders_give_a_typed_error_or_a_value_on_hostile_input():
    for name in golden_records():
        load = LOADERS[schema_of(name)]
        data = golden(name)
        load(data)
        for candidate in hostile(data):
            try:
                load(candidate)
            except MALFORMED:
                pass


def test_golden_records_load_to_their_objects():
    objects = golden_objects()
    for name, obj in objects.items():
        loaded = LOADERS[schema_of(name)](golden(name))
        if name.startswith("record.mpt_") or name == "record.clue_value":
            assert tuple(loaded) == tuple(obj), name
        else:
            assert loaded == obj, name


# The decoders on the write path and the anchor tracker's read: each must
# refuse an integer where a byte string belongs before converting it.
BYTES_FIELD_DECODERS = (ClientRequest.from_bytes, Journal.from_bytes, ConsistencyBundle.from_bytes)


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[st.integers(min_value=0, max_value=2_000_000)] * 3))
@example((2_000_000, 2_000_000, 2_000_000))
def test_an_integer_where_bytes_belong_is_refused_without_allocating(sizes):
    signature, client_signature, live = sizes
    data = encode({"signature": signature, "client_signature": client_signature, "live": live})
    for load in BYTES_FIELD_DECODERS:
        tracemalloc.start()
        try:
            with pytest.raises(EncodingError):
                load(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (load.__qualname__, peak)
