"""The record codecs: golden bytes, strictness, compiled vs oracle, hostile input.

``tests/data/golden/*.hex`` pins the wire form of every fixed-schema record
(journals, requests, receipts, proofs, MPT nodes, clue values, signed tree
heads, submission acks); the files were written by :func:`golden_records`
before the codec was compiled (heads and acks: before the commit path was
folded; receipts: when a receipt became its statement plus a batch path),
so both the compiled encoders and the generic oracle must still produce
them.  Every other record type is exercised through
:func:`sample_records` and the golden export bundle.

Each record type has one strict decoder (its ``Record``): on any input it
either raises :class:`EncodingError` or returns a value that writes back to
exactly those bytes, and every input it accepts the generic ``decode``
accepts too.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import encoding
from repro.artifacts import Finding, VerifyResult
from repro.core import LedgerConfig, journal as journal_module, snapshot as snapshot_module
from repro.core.blocks import Block
from repro.core.journal import ClientRequest, Journal, JournalType
from repro.core.occult import OccultMode, OccultRecord
from repro.core.purge import PseudoGenesis, PurgeRecord
from repro.core.receipt import Receipt
from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import leaf_hash, sha256
from repro.crypto.keys import KeyPair
from repro.crypto.multisig import MultiSignature
from repro.encoding import EncodingError, decode, encode
from repro.export import bundle as bundle_module
from repro.export.bundle import ExportBundle
from repro.export.rebuild import RebuildReport
from repro.merkle import cmtree, fam, mpt, proofs
from repro.merkle.cmtree import ClueProof, CMTree, decode_clue_value, encode_clue_value
from repro.merkle.consistency import ConsistencyBundle, ConsistencyProof, prove_consistency
from repro.merkle.fam import FamAccumulator, FamProof
from repro.merkle.mpt import MPTProof, _serialize
from repro.merkle.proofs import BatchProof, MembershipProof, PathStep
from repro.merkle.shrubs import ShrubsAccumulator
from repro.shard.sharded import ShardProof
from repro.timeauth.pegging import TimeBound
from repro.timeauth.tledger import NotaryReceipt
from repro.timeauth.tsa import TimeStampToken
from repro.transparency.censorship import CensorshipEvidence, SubmissionAck
from repro.transparency.sth import ConsistencyAssertion, EquivocationEvidence, SignedTreeHead
from repro.verify.checks import parse_time_journal, time_payload

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
    batch = Receipt.sign_batch(
        [
            dataclasses.replace(receipt, jsn=300 + index, timestamp=2.5 + index)
            for index in range(5)
        ],
        lsp,
    )
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
        "record.receipt_batch": batch[2],
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


def same(a, b) -> bool:
    """``a == b``, except that two NaNs in the same place count as equal."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return a == b


def mpt_generic(data: bytes) -> tuple:
    """The node the generic decoder reads, if it has a shape ``_serialize`` writes
    (the oracle of the strict MPT node codec)."""
    obj = decode(data)
    if type(obj) is not list:
        raise EncodingError("MPT node must decode to a list")
    if len(obj) == 3 and obj[0] in (mpt._LEAF, mpt._EXT) and type(obj[1]) is type(obj[2]) is bytes:
        return ("leaf" if obj[0] == mpt._LEAF else "ext", obj[1], obj[2])
    if (
        len(obj) == 4
        and obj[0] == mpt._BRANCH
        and type(obj[1]) is list
        and len(obj[1]) == 16
        and all(type(child) is bytes for child in obj[1])
        and type(obj[2]) is bytes
        and type(obj[3]) is bool
    ):
        return ("branch", [child or None for child in obj[1]], obj[2] if obj[3] else None)
    raise EncodingError("malformed MPT node")


def plain_journal(fields: dict) -> dict:
    signature = fields["client_signature"]
    return {
        **fields,
        "journal_type": fields["journal_type"].value,
        "clues": list(fields["clues"]),
        "client_signature": signature.to_bytes() if signature else b"",
    }


def plain_fam_proof(fields: dict) -> dict:
    return {
        **fields,
        "epoch_proof": fields["epoch_proof"].to_bytes(),
        "link_proofs": [proof.to_bytes() for proof in fields["link_proofs"]],
    }


def plain_membership(fields: dict) -> dict:
    return {**fields, "path": [[step.digest, step.sibling_on_left] for step in fields["path"]]}


# (strict decoder, writer, the generic decoder's reading of the same bytes)
# per schema: the writer takes what the decoder returns and must give back
# the bytes it read; the third lowers typed values (enums, signatures,
# nested proofs) to the primitives ``decode`` yields.
SCHEMAS = {
    "journal": (journal_module._JOURNAL.decode, journal_module._JOURNAL.encode, plain_journal),
    "fam_proof": (fam._FAM_PROOF.decode, fam._FAM_PROOF.encode, plain_fam_proof),
    "membership": (proofs._MEMBERSHIP.decode, proofs._MEMBERSHIP.encode, plain_membership),
    "clue_value": (cmtree._CLUE_VALUE.decode, cmtree._CLUE_VALUE.encode, dict),
    "mpt_node": (mpt._deserialize, _serialize, lambda node: mpt_obj(node)),
}


def schema_of(name: str) -> str:
    kind = name.removeprefix("record.").split(".")[0]
    if kind.startswith("journal"):
        return "journal"
    if kind.startswith("mpt"):
        return "mpt_node"
    if kind.startswith("receipt"):
        return "receipt"
    return kind


def corpus() -> dict[str, bytes]:
    """Golden bytes per decoder, including the proofs a FamProof carries."""
    blobs = {name: golden(name) for name in golden_records() if schema_of(name) in SCHEMAS}
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


def check_strict(strict, write, data: bytes) -> None:
    """``strict`` refuses ``data`` with EncodingError, or accepts it as a value
    that ``write`` gives back byte for byte and the generic decoder accepts
    too (so both read one value: the bytes are its one encoding)."""
    try:
        value = strict(data)
    except EncodingError:
        return
    assert write(value) == data
    decode(data)


def test_schema_decoders_agree_with_generic_decoder_on_hostile_input():
    """The strict decoders accept a subset of the generic decoder's inputs:
    a golden record reads to the generic decoder's value, and a hostile one
    is refused with EncodingError or reads to the value of exactly its
    bytes, which the generic decoder accepts too."""
    for name, data in corpus().items():
        strict, write, plain = SCHEMAS[schema_of(name)]
        assert plain(strict(data)) == decode(data), name
        assert write(strict(data)) == data, name
        for candidate in hostile(data):
            check_strict(strict, write, candidate)


digests = st.binary(min_size=1, max_size=40)

uints = st.integers(min_value=0, max_value=2**80)
scalars = st.integers(min_value=0, max_value=2**256 - 1)
signatures = st.none() | st.builds(Signature, scalars, scalars)
journals = st.builds(
    Journal,
    jsn=uints,
    journal_type=st.sampled_from(list(JournalType)),
    client_id=st.text(max_size=16),
    payload=st.binary(max_size=300),
    clues=st.lists(st.text(max_size=8), max_size=4).map(tuple),
    timestamp=st.floats(),
    nonce=st.binary(max_size=20),
    request_hash=digests,
    client_signature=signatures,
)


def journal_obj(journal: Journal) -> dict:
    """The generic dict a journal's bytes hold."""
    signature = journal.client_signature
    return {
        "jsn": journal.jsn,
        "journal_type": journal.journal_type.value,
        "client_id": journal.client_id,
        "payload": journal.payload,
        "clues": list(journal.clues),
        "timestamp": journal.timestamp,
        "nonce": journal.nonce,
        "request_hash": journal.request_hash,
        "client_signature": signature.to_bytes() if signature else b"",
    }


@given(journals)
@example(
    Journal(0, JournalType.GENESIS, "", b"", (), math.nan, b"", b"\x00", None)
)
def test_journal_codec_matches_oracle(journal):
    data = journal.to_bytes()
    assert data == oracle_encode(journal_obj(journal))
    assert same(journal_obj(Journal.from_bytes(data)), oracle_decode(data))


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
        "path": [[step.digest, step.sibling_on_left] for step in proof.path],
        "peaks_left": list(proof.peaks_left),
        "peaks_right": list(proof.peaks_right),
    }


@given(membership_proofs, st.lists(membership_proofs, max_size=3), uints)
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
    assert mpt._deserialize(data) == mpt_generic(data) == node


# ------------------------------------------------------ every record type


def sample_objects() -> dict[str, list]:
    """Deterministic instances of every record type without a golden file."""
    lsp = KeyPair.generate(seed="golden-lsp")
    golden_by_name = golden_objects()
    sth, ack = golden_by_name["record.sth"], golden_by_name["record.ack"]
    other = SignedTreeHead(
        ledger_uri=sth.ledger_uri,
        epoch=sth.epoch,
        tree_size=sth.tree_size,
        live_size=sth.live_size,
        root=sha256(b"other root"),
        timestamp=5.0,
        fractal_height=sth.fractal_height,
        shard_index=sth.shard_index,
    ).signed_by(lsp)
    composite = SignedTreeHead(
        ledger_uri=sth.ledger_uri,
        epoch=-1,
        tree_size=20,
        live_size=2,
        root=sha256(b"composite"),
        timestamp=6.0,
        fractal_height=2,
        shard_heads=((0, 3, 10, 2, sha256(b"s0")), (1, 3, 10, 2, sha256(b"s1"))),
    ).signed_by(lsp)
    assertion = ConsistencyAssertion(
        ledger_uri=sth.ledger_uri,
        shard_index=-1,
        fractal_height=2,
        old_epoch=1,
        old_tree_size=5,
        old_live_size=2,
        old_root=sha256(b"old"),
        new_epoch=3,
        new_tree_size=10,
        new_live_size=2,
        new_root=sha256(b"new"),
        timestamp=7.5,
    ).signed_by(lsp)
    accumulator = FamAccumulator(2)
    shrubs = ShrubsAccumulator()
    for index in range(11):
        accumulator.append(leaf_hash(b"j%d" % index))
        shrubs.append_leaf(leaf_hash(b"j%d" % index))
    fam_proof = accumulator.get_proof(1, anchored=False)
    tree = CMTree()
    for index in range(5):
        tree.add("GLD", leaf_hash(b"c%d" % index))
    tree.add("other", leaf_hash(b"o"))
    clue_proof = tree.prove_clue("GLD", 1, 4)
    absent = dataclasses.replace(
        clue_proof, mpt_proof=MPTProof(clue_proof.mpt_proof.key, None, clue_proof.mpt_proof.nodes)
    )
    root = sha256(b"anchored")
    token = TimeStampToken(digest=root, timestamp=8.25, tsa_id="tsa-main", signature=lsp.sign(root))
    return {
        "block": [
            Block(2, sha256(b"prev"), 8, 12, sha256(b"journals"), sha256(b"state"), 3.5)
        ],
        "occult": [
            OccultRecord(4, sha256(b"kept"), OccultMode.ASYNC, "gdpr", ("GLD", "béta")),
            OccultRecord(5, sha256(b"kept"), OccultMode.SYNC, ""),
        ],
        "purge": [PurgeRecord(5, sha256(b"pseudo genesis"), True, "retention")],
        "pseudo_genesis": [
            PseudoGenesis(
                purge_point=5,
                fam_root=sha256(b"fam"),
                state_root=sha256(b"state"),
                member_ids=("alice", "bob"),
                related_member_ids=("alice",),
                survivor_jsns=(2, 3),
                original_genesis_hash=sha256(b"genesis"),
                created_at=9.0,
                fam_epoch_roots=(sha256(b"e0"),),
                fam_live_epoch=(2, (sha256(b"p0"),)),
                clue_snapshot=(("GLD", 2, (sha256(b"c"),)),),
            )
        ],
        "time": [
            {"mode": "tsa", "anchored_root": root, "as_of_jsn": 7, "token": token},
            {
                "mode": "tledger",
                "anchored_root": root,
                "as_of_jsn": 7,
                "seq": 3,
                "notary_timestamp": 6.25,
            },
        ],
        "sth": [composite],
        "assertion": [assertion],
        "equivocation": [
            EquivocationEvidence("fork-heads", sth, second=other, detail="two roots"),
            EquivocationEvidence("fork-assertion", sth, assertion=assertion),
        ],
        "censorship": [CensorshipEvidence(ack=ack, sth=sth)],
        "consistency_proof": [prove_consistency(shrubs, 3, 11)],
        "consistency_bundle": [
            ConsistencyBundle.build(accumulator, 1, 2),
            ConsistencyBundle.build(accumulator, accumulator.num_epochs - 1, 1),
        ],
        "membership": [fam_proof.epoch_proof],
        "batch_proof": [clue_proof.batch],
        "clue_proof": [clue_proof, absent],
        "shard_proof": [ShardProof(1, 3, fam_proof, shrubs.prove(1, 3))],
        "verify_result": [
            VerifyResult(
                ok=False,
                target="tx",
                level="client",
                what=True,
                when=False,
                when_bound=TimeBound(1.0, 2.5),
                proof=fam_proof,
                trusted_root=sha256(b"root"),
                jsn=4,
                detail="ceiling anchor fails",
                findings=(
                    Finding(
                        "when",
                        "time-evidence",
                        "time journal 5 fails verification",
                        shard=0,
                        jsn=5,
                        expected=sha256(b"root"),
                    ),
                ),
            ),
            VerifyResult(
                ok=True,
                target="bundle",
                level="standalone",
                findings=(Finding("when", "time-evidence", "no evidence", absent=True),),
            ),
        ],
        "rebuild_report": [
            RebuildReport(
                ok=False,
                source="bundle",
                ledger_uri="ledger://golden",
                num_shards=2,
                journals=9,
                checks=("root", "sth"),
                divergences=(
                    Finding("what", "root", "epoch 1", expected=sha256(b"a"), actual=sha256(b"b")),
                ),
            )
        ],
        "snapshot": [_snapshot_with_an_occult(lsp)],
        "ledger_config": [vars(LedgerConfig(uri="ledger://golden", node_store="paged"))],
    }


def _snapshot_with_an_occult(lsp: KeyPair) -> dict:
    """A checkpoint body with what the golden one lacks: an occult record
    with its approvals, an erased fam epoch, an erased leaf and MPT nodes."""
    record = OccultRecord(4, sha256(b"kept"), OccultMode.ASYNC, "gdpr", ("GLD",))
    approvals = MultiSignature(record.approval_digest())
    for member in ("dba", "regulator"):
        approvals.add(member, lsp.sign(record.approval_digest()))
    return {
        "uri": "ledger://golden",
        "jsn_count": 6,
        "pending_start": 6,
        "genesis_start": 0,
        "fam": {
            "fractal_height": 2,
            "size": 6,
            "epoch_roots": [sha256(b"e0")],
            "erased_epochs": [0],
            "epochs": [[[sha256(b"l0"), None], [sha256(b"n")]]],
        },
        "cmtree": {"root": sha256(b"root"), "clues": [{"name": "GLD", "levels": [[sha256(b"c")]]}]},
        "cluesl": [("GLD", [1, 4])],
        "blocks": [Block(0, sha256(b"prev"), 0, 6, sha256(b"j"), sha256(b"s"), 1.5)],
        "time_journals": [5],
        "occult_bits": [4],
        "occult_records": [(5, record, approvals)],
        "erase_queue": [4],
        "page_manifest": [("page-00000000.pg", 3, 7)],
        "mpt_nodes": [(sha256(b"node"), b"node")],
    }


def _time_journal(payload: bytes) -> Journal:
    return Journal(9, JournalType.TIME, "__lsp__", payload, (), 0.0, b"", sha256(b"t"), None)


def _time_payload_of(info: dict) -> bytes:
    if info["mode"] == "tsa":
        evidence = info["token"]
    else:
        evidence = NotaryReceipt(info["seq"], info["notary_timestamp"])
    return time_payload(info["anchored_root"], info["as_of_jsn"], evidence)


def _codec(cls):
    return cls.from_bytes, lambda value: value.to_bytes()


# Every record type's loader and the writer that gives its bytes back.  A
# loader raises only EncodingError on malformed input.
LOADERS = {
    "journal": _codec(Journal),
    "client_request": _codec(ClientRequest),
    "receipt": _codec(Receipt),
    "block": (Block.from_bytes, Block.header_bytes),
    "occult": _codec(OccultRecord),
    "purge": _codec(PurgeRecord),
    "pseudo_genesis": _codec(PseudoGenesis),
    "time": (lambda data: parse_time_journal(_time_journal(data)), _time_payload_of),
    "sth": _codec(SignedTreeHead),
    "assertion": _codec(ConsistencyAssertion),
    "equivocation": _codec(EquivocationEvidence),
    "ack": _codec(SubmissionAck),
    "censorship": _codec(CensorshipEvidence),
    "consistency_proof": _codec(ConsistencyProof),
    "consistency_bundle": _codec(ConsistencyBundle),
    "membership": _codec(MembershipProof),
    "batch_proof": _codec(BatchProof),
    "fam_proof": _codec(FamProof),
    "clue_proof": _codec(ClueProof),
    "clue_value": (decode_clue_value, lambda value: encode_clue_value(*value)),
    "shard_proof": _codec(ShardProof),
    "mpt_node": (mpt._deserialize, _serialize),
    "bundle_payload": (
        lambda data: ExportBundle(**bundle_module._PAYLOAD.decode(data)),
        lambda bundle: bundle_module._PAYLOAD.encode(vars(bundle)),
    ),
    "verify_result": _codec(VerifyResult),
    "rebuild_report": _codec(RebuildReport),
    "snapshot": (snapshot_module.SNAPSHOT.decode, snapshot_module.SNAPSHOT.encode),
    "ledger_config": (snapshot_module.CONFIG.decode, snapshot_module.CONFIG.encode),
}
MALFORMED = (EncodingError,)


def golden_bundle_payload() -> bytes:
    return golden("bundle.ldb")[len(bundle_module.BUNDLE_MAGIC) + 4 :]


def sample_records() -> dict[str, list[bytes]]:
    """Bytes of every record type: golden files, then :func:`sample_objects`."""
    samples: dict[str, list[bytes]] = {}
    for name, data in golden_records().items():
        samples.setdefault(schema_of(name), []).append(data)
    for name, objects in sample_objects().items():
        dump = LOADERS[name][1]
        samples.setdefault(name, []).extend(dump(obj) for obj in objects)
    samples["bundle_payload"] = [golden_bundle_payload()]
    samples["snapshot"].append(golden("snapshot.ckpt")[len(snapshot_module.SNAPSHOT_MAGIC) + 4 :])
    return samples


SAMPLES = sample_records()


def test_every_record_type_has_a_loader_and_samples():
    assert set(SAMPLES) == set(LOADERS)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_samples_round_trip_through_their_one_record(name):
    load, dump = LOADERS[name]
    for data in SAMPLES[name]:
        assert dump(load(data)) == data
        assert encode(decode(data)) == data


def test_golden_bundle_reads_strictly_to_the_generic_value():
    payload = golden_bundle_payload()
    bundle = ExportBundle.from_bytes(golden("bundle.ldb"))
    assert decode(bundle_module._PAYLOAD.encode(vars(bundle))) == decode(payload)
    for section in bundle.shards:
        for entry in section.entries:
            if entry.data is not None:
                assert Journal.from_bytes(entry.data).to_bytes() == entry.data
        for blob in [section.latest_receipt] * bool(section.latest_receipt):
            assert Receipt.from_bytes(blob).to_bytes() == blob
        for _jsn, blob in section.proofs:
            assert FamProof.from_bytes(blob).to_bytes() == blob
        for blob in section.blocks:
            assert Block.from_bytes(blob).header_bytes() == blob
        for blob in section.sths:
            assert SignedTreeHead.from_bytes(blob).to_bytes() == blob
        for _old, _new, bundle_blob, assertion_blob in section.consistency:
            assert ConsistencyBundle.from_bytes(bundle_blob).to_bytes() == bundle_blob
            assert ConsistencyAssertion.from_bytes(assertion_blob).to_bytes() == assertion_blob
        for clue_section in section.clue_proofs:
            assert ClueProof.from_bytes(clue_section.proof).to_bytes() == clue_section.proof


def test_loaders_give_a_typed_error_or_a_value_on_hostile_input():
    for name, blobs in SAMPLES.items():
        if name == "bundle_payload":
            continue  # ~8 KB: the hypothesis test below mutates it instead
        load, dump = LOADERS[name]
        for data in blobs:
            for candidate in hostile(data):
                try:
                    value = load(candidate)
                except MALFORMED:
                    continue
                assert dump(value) == candidate, (name, candidate)


def test_golden_records_load_to_their_objects():
    objects = golden_objects()
    for name, obj in objects.items():
        loaded = LOADERS[schema_of(name)][0](golden(name))
        if name.startswith("record.mpt_") or name == "record.clue_value":
            assert tuple(loaded) == tuple(obj), name
        else:
            assert loaded == obj, name


@st.composite
def hostile_records(draw):
    """(record type, bytes): arbitrary bytes, or a sample with a few edits —
    a byte replaced, inserted or deleted, or a span replaced by the encoding
    of a bounded integer (an integer where a length or byte string belongs)."""
    name = draw(st.sampled_from(sorted(SAMPLES)))
    if draw(st.booleans()):
        return name, draw(st.binary(max_size=256))
    data = bytearray(draw(st.sampled_from(SAMPLES[name])))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data)))
        action = draw(st.sampled_from(["replace", "insert", "delete", "integer"]))
        if action == "insert":
            data.insert(at, draw(st.integers(min_value=0, max_value=255)))
        elif action == "integer":
            span = draw(st.integers(min_value=1, max_value=40))
            data[at : at + span] = encode(draw(st.integers(min_value=0, max_value=2_000_000)))
        elif at < len(data):
            if action == "replace":
                data[at] = draw(st.integers(min_value=0, max_value=255))
            else:
                del data[at]
    return name, bytes(data)


@settings(max_examples=300, deadline=None)
@given(hostile_records())
def test_every_loader_refuses_or_round_trips_hostile_bytes(case):
    name, data = case
    load, dump = LOADERS[name]
    tracemalloc.start()
    try:
        try:
            value = load(data)
        except MALFORMED:
            value = None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if value is not None:
        assert dump(value) == data
        decode(data)  # the generic decoder accepts what the strict one does
    if len(data) <= 256:
        assert peak < 64 * 1024, (name, peak)


def integer_for_bytes_cases(size: int):
    """Each sample with one top-level byte-string field set to ``size``."""
    for name, blobs in sorted(SAMPLES.items()):
        value = decode(blobs[0])
        fields = value if isinstance(value, dict) else dict(enumerate(value))
        for key, field in fields.items():
            if isinstance(field, bytes):
                swapped = dict(value) if isinstance(value, dict) else list(value)
                swapped[key] = size
                yield name, key, encode(swapped)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2_000_000))
@example(2_000_000)
def test_an_integer_where_bytes_belong_is_refused_without_allocating(size):
    for name, key, data in integer_for_bytes_cases(size):
        load = LOADERS[name][0]
        tracemalloc.start()
        try:
            with pytest.raises(EncodingError):
                load(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (name, key, peak)


def test_a_signed_tree_head_with_an_integer_signature_is_refused_without_allocating():
    head = decode(golden("record.sth"))
    head["lsp_signature"] = 2_000_000
    data = encode(head)
    assert len(data) <= 256
    tracemalloc.start()
    try:
        with pytest.raises(EncodingError):
            SignedTreeHead.from_bytes(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_a_consistency_proof_with_an_integer_peak_is_refused():
    proof = {"old_size": 1, "new_size": 2, "old_peaks": [2_000_000]}
    data = encode({**proof, "complement": [[0, 1, sha256(b"x")]]})
    assert len(data) <= 256
    with pytest.raises(EncodingError):
        ConsistencyProof.from_bytes(data)
