"""CRC32C by folding (``repro.storage.checksum``): the fold is the CRC.

Known-answer vectors, the fold against the byte loop it replaced, chaining,
input types, every ladder rung proven a multiple of the generator, golden
files of the four checksummed formats written by the commit *before* the
fold existed, and the ``storage.crc32c.*`` counters that give the checksum a
name in ``python -m repro stats``.
"""

from __future__ import annotations

import mmap
import random
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.api import LedgerSession
from repro.core import Ledger, LedgerConfig
from repro.core.snapshot import load_snapshot, write_snapshot
from repro.crypto import KeyPair, Role
from repro.export.bundle import ExportBundle, export_bundle
from repro.export.verifier import verify_bundle
from repro.storage import checksum
from repro.storage.checksum import _BLOCK, _CROSSOVER, _LADDER, _crc32c_pure, crc32c
from repro.storage.pagestore import PagedNodeStore
from repro.storage.stream import FileStream
from repro.timeauth import SimClock, TimeStampAuthority

GOLDEN = Path(__file__).parent / "data" / "golden"

# RFC 3720 appendix B.4.
ISCSI_READ_PDU = bytes.fromhex(
    "01c00000 00000000 00000000 00000000 14000000 00000400"
    "00000014 00000018 28000000 00000000 02000000 00000000"
)
VECTORS = [
    (b"", 0x00000000),
    (b"123456789", 0xE3069283),
    (b"\x00" * 32, 0x8A9136AA),
    (b"\xff" * 32, 0x62A8AB43),
    (bytes(range(32)), 0x46DD794E),
    (bytes(range(31, -1, -1)), 0x113FDB5C),
    (ISCSI_READ_PDU, 0xD9963A56),
]


@pytest.mark.parametrize("data,expected", VECTORS)
def test_known_answers(data, expected):
    assert crc32c(data) == expected
    assert _crc32c_pure(data) == expected
    # Long enough to fold whatever the crossover: the same vector reached by chaining.
    padding = b"\xa5" * (4 * _CROSSOVER)
    assert crc32c(data, crc32c(padding)) == _crc32c_pure(padding + data)


EDGES = sorted(
    {
        edge + delta
        for edge in (_CROSSOVER, _BLOCK, 2 * _BLOCK)
        for delta in (-2, -1, 0, 1, 2)
    }
    | {(k - 32) // 8 + delta for k, _lows in _LADDER[6:] for delta in (0, 1)}
)
LENGTHS = st.one_of(st.integers(0, 200_000), st.integers(0, 600), st.sampled_from(EDGES))


def _bytes(seed: int, length: int) -> bytes:
    return random.Random(seed).randbytes(length)


@settings(deadline=None)
@given(LENGTHS, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_fold_is_the_byte_loop(length, seed, value):
    data = _bytes(seed, length)
    assert crc32c(data, value) == _crc32c_pure(data, value)


@pytest.mark.parametrize("length", EDGES)
def test_fold_is_the_byte_loop_at_every_edge(length):
    for fill in (b"\x00", b"\xff", None):
        data = _bytes(length, length) if fill is None else fill * length
        assert crc32c(data) == _crc32c_pure(data)


@settings(deadline=None)
@given(LENGTHS, st.integers(0, 2**32 - 1), st.data())
def test_chaining_at_any_split(length, seed, data):
    whole = _bytes(seed, length)
    marks = [mark for mark in (1, _CROSSOVER - 1, _BLOCK - 1, _BLOCK + 7) if mark <= length]
    split = data.draw(st.one_of(st.integers(0, length), st.sampled_from(marks or [0])))
    assert crc32c(whole[split:], crc32c(whole[:split])) == crc32c(whole)


@pytest.mark.parametrize("length", [0, 9, _CROSSOVER - 1, _CROSSOVER, 1100, _BLOCK + 4097])
def test_every_buffer_type_gives_the_same_value(length, tmp_path):
    data = _bytes(7, length)
    expected = _crc32c_pure(data)
    assert crc32c(data) == expected
    assert crc32c(bytearray(data)) == expected
    assert crc32c(memoryview(data)) == expected
    framed = b"xyz" + data + b"tail"
    assert crc32c(memoryview(framed)[3 : 3 + length]) == expected
    assert crc32c(memoryview(bytearray(framed))[3 : 3 + length]) == expected
    if length:
        path = tmp_path / "buffer"
        path.write_bytes(framed)
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        with mapped, memoryview(mapped) as view:
            assert crc32c(view[3 : 3 + length]) == expected


def test_non_contiguous_buffers_are_refused():
    with pytest.raises((TypeError, BufferError, ValueError)):
        crc32c(memoryview(bytes(256))[::2])


# ----------------------------------------------------------------- the ladder

GENERATOR = 0x11EDC6F41


def _x_power_mod(exponent: int) -> int:
    """``x^exponent mod GENERATOR``, square-and-multiply over bitwise products:
    an oracle that shares no code with the fold."""

    def multiply(a: int, b: int) -> int:
        product = 0
        while b:
            if b & 1:
                product ^= a
            a <<= 1
            if a >> 32:
                a ^= GENERATOR
            b >>= 1
        return product

    result, base = 1, 2
    while exponent:
        if exponent & 1:
            result = multiply(result, base)
        base = multiply(base, base)
        exponent >>= 1
    return result


def test_generator_matches_the_reflected_table_constant():
    reflected = int(f"{GENERATOR & 0xFFFFFFFF:032b}"[::-1], 2)
    assert reflected == checksum._CASTAGNOLI_POLY


@pytest.mark.parametrize("k,lows", _LADDER)
def test_every_rung_is_a_multiple_of_the_generator(k, lows):
    total = _x_power_mod(k)
    for exponent in lows:
        total ^= _x_power_mod(exponent)
    assert total == 0
    assert lows == tuple(sorted(set(lows), reverse=True)) and lows[-1] == 0
    assert lows[0] < k  # a fold always makes progress


def test_ladder_shape():
    ks = [k for k, _lows in _LADDER]
    assert ks == sorted(ks, reverse=True)
    # One fold takes a full block down to the first rung, and each rung to the next.
    sizes = [8 * _BLOCK + 32, *ks]
    for above, (k, lows) in zip(sizes, _LADDER):
        assert above - k <= k - lows[0]
    assert ks[-1] % 8 == 0  # whole bytes are left for the table
    assert 8 * _CROSSOVER + 32 > ks[-1]  # every folded input reaches the last rung


# --------------------------------------------------------------- golden files


def _golden_deployment(directory: Path) -> dict[str, bytes]:
    """A deterministic three-journal paged ledger, checkpointed and exported:
    every file it leaves behind plus the bundle.  ``tests/data/golden/*.hex``
    is this function's output at commit 0e9ce24 (the byte-loop checksum);
    ``sth.log``, its epoch-close heads, was pinned later by the code before
    single appends and system journals became batches of one, and
    ``bundle.ldb`` was re-recorded when the bundle became ``LDBBNDL2``
    (batch-signed receipts)."""
    clock = SimClock()
    tsa = TimeStampAuthority("golden-tsa", clock)
    ledger = Ledger(
        LedgerConfig(
            uri="ledger://golden",
            fractal_height=2,
            block_size=2,
            node_store="paged",
            data_dir=str(directory),
        ),
        clock=clock,
    )
    ledger.attach_tsa(tsa)
    user = KeyPair.generate(seed="golden-user")
    ledger.registry.register("golden-user", Role.USER, user.public)
    session = LedgerSession(ledger, client_id="golden-user", keypair=user)
    for index in range(3):
        session.append(b"golden %d" % index, clues=("GLD",))
        clock.advance(0.25)
    ledger.anchor_time()
    ledger.commit_block()
    ledger.checkpoint()
    files = {"bundle.ldb": export_bundle(ledger, clues=("GLD",)).to_bytes()}
    ledger.close()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            files[path.relative_to(directory).as_posix()] = path.read_bytes()
    return files


def _golden(name: str) -> bytes:
    return bytes.fromhex((GOLDEN / (name.replace("/", "__") + ".hex")).read_text())


GOLDEN_NAMES = [
    "bundle.ldb",
    "journal.stream",
    "nodes/page-00000000.pg",
    "nodes/page-00000001.pg",
    "snapshot.ckpt",
    "sth.log",
]


def test_todays_writers_produce_the_parents_bytes(tmp_path):
    written = _golden_deployment(tmp_path)
    for name in GOLDEN_NAMES:
        assert written[name] == _golden(name), name


def test_golden_stream_opens_and_reserialises(tmp_path):
    raw = _golden("journal.stream")
    (tmp_path / "old.stream").write_bytes(raw)
    old = FileStream(tmp_path / "old.stream")
    new = FileStream(tmp_path / "new.stream")
    # Re-append in the commit groups the headers record (flag 0x02 = COMMIT).
    position, group = 8, []
    for offset in range(len(old)):
        length, flags, _pcrc, _hcrc = struct.unpack_from(">IBII", raw, position)
        position += 13 + length
        group.append(old.read(offset))
        assert len(group[-1]) == length >= _CROSSOVER  # these payloads are folded
        if flags & 0x02:
            new.append(group[0]) if len(group) == 1 else new.append_many(group)
            group = []
    assert position == len(raw) and not group
    old.close()
    new.close()
    assert (tmp_path / "new.stream").read_bytes() == raw


@pytest.mark.parametrize("name", ["nodes/page-00000000.pg", "nodes/page-00000001.pg"])
def test_golden_page_opens_and_reserialises(name, tmp_path):
    raw = _golden(name)
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    old_dir.mkdir()
    (old_dir / "page-00000000.pg").write_bytes(raw)
    with PagedNodeStore(old_dir) as old, PagedNodeStore(new_dir) as new:
        keys = list(old.keys())
        assert keys
        for key in keys:
            new.put(key, old.get(key))  # get() faults the page: blob CRC checked
        assert new.flush() == 1
    assert (new_dir / "page-00000000.pg").read_bytes() == raw


def test_golden_snapshot_opens_and_reserialises(tmp_path):
    (tmp_path / "old.ckpt").write_bytes(_golden("snapshot.ckpt"))
    write_snapshot(tmp_path / "new.ckpt", load_snapshot(tmp_path / "old.ckpt"))
    assert (tmp_path / "new.ckpt").read_bytes() == _golden("snapshot.ckpt")


def test_golden_bundle_opens_verifies_and_reserialises():
    raw = _golden("bundle.ldb")
    bundle = ExportBundle.from_bytes(raw)
    assert bundle.to_bytes() == raw
    assert ExportBundle.from_bytes(bytearray(raw)).to_bytes() == raw
    assert verify_bundle(bundle).ok


# ------------------------------------------------------------------- counters


def _counts(registry) -> tuple[int, int]:
    counters = registry.snapshot()["counters"]
    return counters.get("storage.crc32c.calls", 0), counters.get("storage.crc32c.bytes", 0)


def test_counters_are_silent_when_observability_is_off():
    assert not obs.is_enabled()
    crc32c(b"x" * 100)
    with obs.scoped() as registry:
        assert _counts(registry) == (0, 0)
        crc32c(b"x" * 100)
        crc32c(memoryview(b"y" * 9))
        assert _counts(registry) == (2, 109)


def test_a_page_flush_checksums_each_index_and_blob_once(tmp_path):
    with PagedNodeStore(tmp_path, page_bytes=4096) as store:
        for index in range(40):
            store.put(b"key-%04d" % index, bytes([index]) * 300)
        with obs.scoped() as registry:
            pages = store.flush()
            calls, checksummed = _counts(registry)
    assert pages == 4  # 13 values of 300 bytes fit a 4 KiB page
    files = sorted(tmp_path.glob("page-*.pg"))
    # Per page: the index, the blob, and the 32 header bytes before the header CRC.
    assert calls == 3 * pages
    assert checksummed == sum(path.stat().st_size - 4 for path in files)


def test_bytes_checksummed_per_journal_is_pinned(tmp_path):
    """append 64 -> checkpoint -> reopen -> export -> decode, counted: the number
    a later PR moves when it makes the storage layer checksum less (or more)."""
    clock = SimClock()
    config = LedgerConfig(
        uri="ledger://counted",
        fractal_height=3,
        block_size=8,
        node_store="paged",
        data_dir=str(tmp_path),
    )
    lsp = KeyPair.generate(seed="lsp:ledger://counted")
    user = KeyPair.generate(seed="counted-user")
    stages = {}

    def stage(name, registry, before=(0, 0)):
        now = _counts(registry)
        stages[name] = (now[0] - before[0], now[1] - before[1])
        return now

    with obs.scoped() as registry:
        ledger = Ledger(config, clock=clock, lsp_keypair=lsp)
        ledger.registry.register("counted-user", Role.USER, user.public)
        session = LedgerSession(ledger, client_id="counted-user", keypair=user)
        for index in range(64):
            session.append(b"counted record %04d" % index, clues=(f"CNT-{index % 4}",))
        ledger.commit_block()
        seen = stage("append", registry)
        ledger.checkpoint()
        members = ledger.registry
        ledger.close(checkpoint=False)
        seen = stage("checkpoint", registry, seen)
        ledger = Ledger.open(str(tmp_path), members, lsp, clock=SimClock())
        seen = stage("reopen", registry, seen)
        blob = export_bundle(ledger).to_bytes()
        seen = stage("export", registry, seen)
        ExportBundle.from_bytes(blob)
        stage("decode", registry, seen)
        ledger.close(checkpoint=False)
    assert stages["decode"] == (1, len(blob) - 12)  # magic + crc are not checksummed
    assert stages == PINNED_STAGES


#: (calls, bytes) per stage of the scenario above: 6.9 calls and 5.5 kB
#: checksummed per journal end to end, 2.1 kB of it the bundle being written
#: (every journal read back, then the container) and 1.8 kB being read.
PINNED_STAGES = {
    "append": (157, 49051),
    "checkpoint": (1, 12647),
    "reopen": (149, 39295),
    "export": (131, 136321),
    "decode": (1, 114789),
}
