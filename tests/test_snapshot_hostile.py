"""Hostile ``snapshot.ckpt`` and ``ledger.cfg`` bodies that pass their CRC.

A checksum only says the bytes are the ones written; a body of the wrong
shape must still never crash ``Ledger.open``.  A snapshot is derived state,
so a refused one falls back to the full replay and the reopened ledger is
the one the stream alone determines; a refused config is a typed
:class:`SnapshotError`.  Bodies here are written with the generic encoder
and framed by hand, the way a writer other than ``write_snapshot`` would.
A body of the right shape with wrong values is beyond what a checksum and
a schema can see.  The mutation lists (occult records and bits, the erase
queue, time journals) are held to the stream's slots, so wrong values there
fall back too; other values (a digest swapped for another) only a full
replay vouches for, and these tests do not claim it.
"""

from __future__ import annotations

import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import ClientRequest, Ledger, LedgerConfig, OccultMode
from repro.core.errors import JournalOccultedError, SnapshotError
from repro.core.members import MemberRegistry
from repro.core.snapshot import SNAPSHOT_MAGIC
from repro.crypto import KeyPair, MultiSignature, Role
from repro.encoding import decode, encode
from repro.storage.checksum import crc32c
from repro.timeauth import SimClock, TimeStampAuthority

URI = "ledger://hostile"
HEADER = len(SNAPSHOT_MAGIC) + 4


def _build(directory: Path) -> None:
    """A checkpointed ledger with an occult of each mode, time journals,
    clues and a suffix past the checkpoint, then a crash."""
    clock = SimClock()
    registry, lsp = MemberRegistry(), KeyPair.generate(seed="hostile-lsp")
    config = LedgerConfig(uri=URI, fractal_height=3, block_size=4, data_dir=str(directory))
    ledger = Ledger(config, clock=clock, registry=registry, lsp_keypair=lsp)
    ledger.attach_tsa(TimeStampAuthority("hostile-tsa", clock))
    keys = {name: KeyPair.generate(seed=f"hostile-{name}") for name in ("user", "dba", "reg")}
    for name, role in (("user", Role.USER), ("dba", Role.DBA), ("reg", Role.REGULATOR)):
        registry.register(name, role, keys[name].public)

    def append(index: int) -> None:
        ledger.append(
            ClientRequest.build(
                URI, "user", b"hostile-%03d" % index,
                clues=("HCLUE",) if index % 3 == 0 else (),
                nonce=index.to_bytes(4, "big"), client_timestamp=clock.now(),
            ).signed_by(keys["user"])
        )
        clock.advance(0.25)

    for index in range(10):
        append(index)
        if index % 4 == 3:
            ledger.anchor_time()
    for target, mode in ((2, OccultMode.SYNC), (6, OccultMode.ASYNC)):
        record = ledger.prepare_occult(target, mode, reason="hostile")
        approvals = MultiSignature(digest=record.approval_digest())
        for name in ("dba", "reg"):
            approvals.add(name, keys[name].sign(record.approval_digest()))
        ledger.execute_occult(record, approvals)
    ledger.checkpoint()
    for index in range(10, 13):
        append(index)
    ledger.close(checkpoint=False)


def _keys() -> tuple[MemberRegistry, KeyPair]:
    return MemberRegistry(), KeyPair.generate(seed="hostile-lsp")


def _state(ledger: Ledger) -> tuple:
    readable = []
    for jsn in range(ledger.size):
        try:
            readable.append(ledger.get_journal(jsn).to_bytes())
        except JournalOccultedError:
            readable.append(None)
    return (
        ledger.size,
        ledger.current_root(),
        ledger.state_root(),
        [jsn for jsn in range(ledger.size) if ledger.is_occulted(jsn)],
        list(ledger._erase_queue),
        ledger.time_journals,
        ledger.list_tx("HCLUE"),
        readable,
    )


def _open(directory: Path, **kwargs) -> tuple:
    ledger = Ledger.open(str(directory), *_keys(), clock=SimClock(), **kwargs)
    try:
        return _state(ledger)
    finally:
        ledger.close(checkpoint=False)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pristine")
    _build(directory)
    replayed = _open(_copy(directory, tmp_path_factory.mktemp("replay")), force_rebuild=True)
    body = decode((directory / "snapshot.ckpt").read_bytes()[HEADER:])
    config = decode((directory / "ledger.cfg").read_bytes())
    return directory, replayed, body, config


def _copy(source: Path, target: Path) -> Path:
    shutil.copytree(source, target, dirs_exist_ok=True)
    return target


def _framed(body) -> bytes:
    payload = encode(body)
    return SNAPSHOT_MAGIC + struct.pack(">I", crc32c(payload)) + payload


_KEEP = object()


def _open_with(pristine, *, snapshot=_KEEP, config=_KEEP) -> tuple:
    """Open a copy of the pristine directory with either body replaced
    (any value, None included, is a body)."""
    directory = pristine[0]
    with tempfile.TemporaryDirectory() as scratch:
        target = _copy(directory, Path(scratch))
        if snapshot is not _KEEP:
            (target / "snapshot.ckpt").write_bytes(_framed(snapshot))
        if config is not _KEEP:
            (target / "ledger.cfg").write_bytes(encode(config))
        return _open(target)


def test_the_genuine_snapshot_restores_the_full_replays_state(pristine):
    _directory, replayed, body, _config = pristine
    assert replayed[3] == [2, 6] and replayed[4] == [6]  # both occults, one queued
    assert _open_with(pristine) == replayed
    assert _open_with(pristine, snapshot=body) == replayed  # framing by hand is faithful


@pytest.mark.parametrize(
    "field,value",
    [
        ("jsn_count", "seven"),
        ("cluesl", 5),
        ("blocks", [1]),
        ("occult_bits", ["a"]),
        # The right shape, but the nodes under the CM-Tree1 root are gone:
        # the suffix's clue write finds that out.
        ("mpt_nodes", []),
        # The right shape, with values only the stream can refute: intact
        # jsn 1 occulted, a normal journal listed as a time journal, and
        # intact jsn 3 queued for erasure (the genuine queue is [6]).
        ("occult_bits", [1, 2, 6]),
        ("time_journals", [3]),
        ("erase_queue", [3]),
    ],
)
def test_a_hostile_snapshot_field_falls_back_to_the_full_replay(pristine, field, value):
    _directory, replayed, body, _config = pristine
    assert _open_with(pristine, snapshot={**body, field: value}) == replayed


@pytest.mark.parametrize(
    "config",
    [[1, 2], {"uri": URI}, "ledger.cfg"],
    ids=["list", "missing-fields", "str"],
)
def test_a_hostile_config_is_a_typed_refusal(pristine, config):
    with pytest.raises(SnapshotError):
        _open_with(pristine, config=config)


def test_a_config_without_a_shard_count_is_refused(pristine):
    legacy = {key: value for key, value in pristine[3].items() if key != "shards"}
    with pytest.raises(SnapshotError):
        _open_with(pristine, config=legacy)


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.binary(max_size=8)
    | st.text(max_size=4)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
#: No list field of either body holds None, a bool, a float or a str.
WRONG_ITEMS = st.lists(
    st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=4),
    min_size=1, max_size=3,
)


def _misshapen(genuine) -> st.SearchStrategy:
    """Values of a shape the field ``genuine`` came from never has."""
    if isinstance(genuine, bool):
        return VALUES.filter(lambda value: not isinstance(value, bool))
    if isinstance(genuine, int):
        return VALUES.filter(lambda value: type(value) is not int)
    if isinstance(genuine, str):
        return VALUES.filter(lambda value: not isinstance(value, str))
    if isinstance(genuine, list):
        return VALUES.filter(lambda value: not isinstance(value, list)) | WRONG_ITEMS
    # Every dict field has a key longer than four characters: never drawn.
    return VALUES.filter(lambda value: not isinstance(value, dict)) | st.dictionaries(
        st.text(max_size=4), VALUES, max_size=3
    )


def _hostile_body(data, body: dict):
    move = data.draw(st.sampled_from(["replace", "drop", "extra", "body"]))
    if move == "body":
        return data.draw(VALUES.filter(lambda value: not isinstance(value, dict)))
    key = data.draw(st.sampled_from(sorted(body)))
    if move == "drop":
        return {name: value for name, value in body.items() if name != key}
    if move == "extra":
        return {**body, key + "~": data.draw(VALUES)}
    return {**body, key: data.draw(_misshapen(body[key]))}


HOSTILE = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@HOSTILE
@given(data=st.data())
def test_any_misshapen_snapshot_ends_in_the_full_replays_state(pristine, data):
    _directory, replayed, body, _config = pristine
    assert _open_with(pristine, snapshot=_hostile_body(data, body)) == replayed


@HOSTILE
@given(data=st.data())
def test_any_misshapen_config_is_a_typed_refusal(pristine, data):
    with pytest.raises(SnapshotError):
        _open_with(pristine, config=_hostile_body(data, pristine[3]))
