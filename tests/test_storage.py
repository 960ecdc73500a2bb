"""Streams (memory + file) and KV stores."""

import errno
import os
import struct

import pytest
from hypothesis import given, strategies as st

from repro.storage import (
    FileStream,
    KeyNotFoundError,
    MemoryKVStore,
    MemoryStream,
    RecordErasedError,
    StreamCorruptionError,
    StreamError,
    crc32c,
)
from repro.storage.stream import _HEADER, _MAGIC


class TestMemoryStream:
    def test_append_read_round_trip(self):
        stream = MemoryStream()
        offsets = [stream.append(b"rec-%d" % i) for i in range(5)]
        assert offsets == [0, 1, 2, 3, 4]
        for i in offsets:
            assert stream.read(i) == b"rec-%d" % i

    def test_out_of_range_read(self):
        stream = MemoryStream()
        with pytest.raises(StreamError):
            stream.read(0)
        stream.append(b"x")
        with pytest.raises(StreamError):
            stream.read(1)
        with pytest.raises(StreamError):
            stream.read(-1)

    def test_erase_keeps_offsets_stable(self):
        stream = MemoryStream()
        for i in range(4):
            stream.append(b"r%d" % i)
        stream.erase(1)
        assert stream.is_erased(1)
        with pytest.raises(RecordErasedError):
            stream.read(1)
        assert stream.read(2) == b"r2"
        assert len(stream) == 4

    def test_erase_is_idempotent(self):
        stream = MemoryStream()
        stream.append(b"x")
        stream.erase(0)
        stream.erase(0)
        assert stream.is_erased(0)

    def test_iter_records_skips_erased(self):
        stream = MemoryStream()
        for i in range(6):
            stream.append(b"%d" % i)
        stream.erase(2)
        stream.erase(4)
        live = dict(stream.iter_records())
        assert set(live) == {0, 1, 3, 5}
        ranged = dict(stream.iter_records(1, 4))
        assert set(ranged) == {1, 3}


class TestFileStream:
    def test_round_trip_and_reopen(self, tmp_path):
        path = tmp_path / "journal.stream"
        with FileStream(path) as stream:
            for i in range(10):
                stream.append(b"record-%d" % i * (i + 1))
            stream.erase(3)
        with FileStream(path) as reopened:
            assert len(reopened) == 10
            assert reopened.read(0) == b"record-0"
            assert reopened.read(9) == b"record-9" * 10
            assert reopened.is_erased(3)
            with pytest.raises(RecordErasedError):
                reopened.read(3)

    def test_erase_overwrites_payload_bytes(self, tmp_path):
        path = tmp_path / "s"
        with FileStream(path) as stream:
            stream.append(b"SENSITIVE-PERSONAL-DATA")
            stream.erase(0)
        raw = path.read_bytes()
        assert b"SENSITIVE" not in raw  # physically gone, not just flagged

    def test_empty_record(self, tmp_path):
        with FileStream(tmp_path / "s") as stream:
            stream.append(b"")
            assert stream.read(0) == b""

    def test_readers_beside_a_writer_share_no_offset(self, tmp_path):
        """4 readers + 1 writer on one stream: every ``read(i)`` returns
        record *i*, and the file reopens clean with every record intact.
        (A shared seek-then-read offset hands readers each other's records
        and lands the writer's batches in the middle of the file.)"""
        import sys
        import threading
        import time

        def record(i: int) -> bytes:
            return b"record-%06d|" % i * (1 + i % 7)

        path = tmp_path / "shared.stream"
        total, failures = 1500, []
        stop = threading.Event()
        stream = FileStream(path)
        stream.append_many([record(i) for i in range(64)])

        def writer():
            try:
                i = len(stream)
                while i < total:
                    batch = [record(j) for j in range(i, min(total, i + 1 + i % 5))]
                    assert stream.append_many(batch) == list(range(i, i + len(batch)))
                    i += len(batch)
            except BaseException as exc:
                failures.append(repr(exc))
            finally:
                stop.set()

        def reader(seed: int):
            i = seed
            try:
                while not stop.is_set():
                    i = (i * 7919 + 13) % len(stream)
                    if stream.read(i) != record(i):
                        failures.append(f"read({i}) returned another record")
                        return
            except BaseException as exc:
                failures.append(repr(exc))

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader, args=(seed,)) for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 60
            for thread in threads:
                thread.join(max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        stream.close()
        with FileStream(path) as reopened:
            assert reopened.open_report.clean
            assert len(reopened) == total
            assert all(reopened.read(i) == record(i) for i in range(total))

    @given(st.lists(st.binary(max_size=200), min_size=1, max_size=30))
    def test_matches_memory_stream(self, records):
        import tempfile, os

        memory = MemoryStream()
        fd, path = tempfile.mkstemp()
        os.close(fd)
        os.unlink(path)
        try:
            with FileStream(path) as disk:
                for record in records:
                    assert memory.append(record) == disk.append(record)
                for offset in range(len(records)):
                    assert memory.read(offset) == disk.read(offset)
        finally:
            if os.path.exists(path):
                os.unlink(path)


class TestCrc32c:
    def test_known_vectors(self):
        # RFC 3720 appendix B.4 test patterns.
        assert crc32c(b"") == 0x00000000
        assert crc32c(b"123456789") == 0xE3069283
        assert crc32c(b"\x00" * 32) == 0x8A9136AA
        assert crc32c(b"\xff" * 32) == 0x62A8AB43

    def test_chaining_matches_one_shot(self):
        data = bytes(range(256))
        assert crc32c(data[100:], crc32c(data[:100])) == crc32c(data)


class TestFileStreamCrashConsistency:
    """The §9 contract: torn tails roll back, corruption is refused."""

    @staticmethod
    def _build(path, records=(b"alpha", b"bravo", b"charlie")):
        with FileStream(path, durable=True) as stream:
            for record in records:
                stream.append(record)
        return os.path.getsize(path)

    def test_open_report_clean_on_healthy_file(self, tmp_path):
        path = tmp_path / "s"
        self._build(path)
        with FileStream(path) as stream:
            assert stream.open_report.clean
            assert stream.open_report.records == 3

    def test_truncated_header_rolls_back_not_struct_error(self, tmp_path):
        """Regression: a header cut short used to escape as struct.error."""
        path = tmp_path / "s"
        size = self._build(path)
        os.truncate(path, size - len(b"charlie") - 2)  # mid-header of rec 2
        with FileStream(path) as stream:
            assert len(stream) == 2
            assert stream.read(1) == b"bravo"
            report = stream.open_report
            assert not report.clean
            assert "torn record header" in report.truncation_reason

    def test_truncated_payload_rolls_back(self, tmp_path):
        path = tmp_path / "s"
        size = self._build(path)
        os.truncate(path, size - 3)
        with FileStream(path) as stream:
            assert len(stream) == 2
            assert "torn record payload" in stream.open_report.truncation_reason
        # The rollback is durable: a second open sees a clean file.
        with FileStream(path) as stream:
            assert stream.open_report.clean

    def test_truncation_under_open_stream_raises_not_struct_error(self, tmp_path):
        """Regression: reads off a shrunk file used to raise struct.error."""
        path = tmp_path / "s"
        with FileStream(path) as stream:
            stream.append(b"first")
            stream.append(b"second-record")
            os.truncate(path, os.path.getsize(path) - 8)
            with pytest.raises(StreamCorruptionError):
                stream.read(1)

    def test_bad_magic_refused(self, tmp_path):
        path = tmp_path / "s"
        self._build(path)
        with open(path, "r+b") as handle:
            handle.write(b"NOTMAGIC")
        with pytest.raises(StreamCorruptionError, match="superblock"):
            FileStream(path)

    def test_flipped_payload_byte_refused(self, tmp_path):
        path = tmp_path / "s"
        size = self._build(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 1)
            original = handle.read(1)[0]
            handle.seek(size - 1)
            handle.write(bytes([original ^ 0x10]))
        with pytest.raises(StreamCorruptionError, match="payload checksum"):
            FileStream(path)

    def test_flipped_length_cannot_fake_torn_tail(self, tmp_path):
        """A corrupted length field must fail the header CRC, not silently
        truncate the committed records behind it."""
        path = tmp_path / "s"
        self._build(path)
        with FileStream(path) as stream:
            position = stream._positions[0]
        with open(path, "r+b") as handle:
            handle.seek(position)
            original = handle.read(1)[0]
            handle.seek(position)
            handle.write(bytes([original ^ 0x80]))  # length += 2**31
        with pytest.raises(StreamCorruptionError, match="header checksum"):
            FileStream(path)

    def test_unknown_flag_bits_refused(self, tmp_path):
        """Even a header whose CRC validates is refused on unknown flags
        (format-version safety: future bits must not be misread as today's)."""
        path = tmp_path / "s"
        self._build(path)
        with FileStream(path) as stream:
            position = stream._positions[1]
            length = stream._lengths[1]
        with open(path, "r+b") as handle:
            handle.seek(position + _HEADER.size)
            payload = handle.read(length)
            flags = 0x04 | 0x02
            pcrc = crc32c(payload)
            hcrc = crc32c(struct.pack(">IBI", length, flags, pcrc))
            handle.seek(position)
            handle.write(_HEADER.pack(length, flags, pcrc, hcrc))
        with pytest.raises(StreamCorruptionError, match="unknown flag"):
            FileStream(path)

    def test_uncommitted_suffix_rolls_back(self, tmp_path):
        """Records after the last commit epilogue vanish on reopen: the
        group-commit batch is all-or-nothing."""
        path = tmp_path / "s"
        self._build(path, records=(b"keep-me",))
        # Forge a batch whose final (committing) record never made it: two
        # intact records, neither carrying the COMMIT flag.
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            for payload in (b"uncommitted-1", b"uncommitted-2"):
                pcrc = crc32c(payload)
                hcrc = crc32c(struct.pack(">IBI", len(payload), 0, pcrc))
                handle.write(_HEADER.pack(len(payload), 0, pcrc, hcrc) + payload)
        with FileStream(path) as stream:
            assert len(stream) == 1
            assert stream.read(0) == b"keep-me"
            report = stream.open_report
            assert report.truncated_records == 2
            assert "uncommitted batch tail" in report.truncation_reason

    def test_interrupted_erase_is_completed_on_open(self, tmp_path):
        """Erase writes its header before scrubbing; a crash between the two
        recovers as an erased record whose payload open() re-zeroes."""
        path = tmp_path / "s"
        self._build(path, records=(b"SENSITIVE-BYTES", b"tail"))
        with FileStream(path) as stream:
            position = stream._positions[0]
            length = stream._lengths[0]
        with open(path, "r+b") as handle:  # the erase header, payload intact
            flags = 0x01 | 0x02  # ERASED | COMMIT
            hcrc = crc32c(struct.pack(">IBI", length, flags, 0))
            handle.seek(position)
            handle.write(_HEADER.pack(length, flags, 0, hcrc))
        with FileStream(path) as stream:
            assert stream.open_report.scrubbed_records == (0,)
            assert stream.is_erased(0)
            assert stream.read(1) == b"tail"
        assert b"SENSITIVE" not in (tmp_path / "s").read_bytes()

    def test_is_erased_is_a_bool_through_erase_rollback_and_a_torn_tail(self, tmp_path):
        """The offset index is flat arrays; ``is_erased`` still answers bool."""

        def erased(stream):
            flags = [stream.is_erased(offset) for offset in range(len(stream))]
            assert all(type(flag) is bool for flag in flags)
            return flags

        path = tmp_path / "s"
        self._build(path)
        with open(path, "ab") as handle:
            handle.write(_HEADER.pack(9, 0x02, 0, 0)[:5])  # a torn header
        with FileStream(path, durable=True) as stream:
            assert stream.open_report.truncated_bytes == 5
            stream.erase(1)
            assert erased(stream) == [False, True, False]
            stream.append_many([b"delta", b"echo"])
            assert erased(stream) == [False, True, False, False, False]
        with open(path, "r+b") as handle:  # an intact record past the last commit
            handle.seek(0, os.SEEK_END)
            pcrc = crc32c(b"foxtrot")
            hcrc = crc32c(struct.pack(">IBI", 7, 0, pcrc))
            handle.write(_HEADER.pack(7, 0, pcrc, hcrc) + b"foxtrot")
        with FileStream(path) as stream:
            assert stream.open_report.truncated_records == 1
            assert erased(stream) == [False, True, False, False, False]

    def test_fresh_file_gets_superblock(self, tmp_path):
        with FileStream(tmp_path / "s") as stream:
            assert len(stream) == 0
        assert (tmp_path / "s").read_bytes() == _MAGIC

    def test_crash_before_superblock_durable_recreates_it(self, tmp_path):
        path = tmp_path / "s"
        path.write_bytes(_MAGIC[:3])  # torn superblock write
        with FileStream(path) as stream:
            assert len(stream) == 0
            stream.append(b"first")
        with FileStream(path) as stream:
            assert stream.read(0) == b"first"


class _FlakyFile:
    """A stream file whose next fsync, write or truncate raises ``OSError``
    once, as a full disk or a failing device does; a failing write first
    persists ``write_prefix`` bytes of its data."""

    def __init__(self, raw):
        self._raw = raw
        self.fail_fsync = False
        self.fail_truncate = False
        self.write_prefix = None

    def write(self, data):
        if self.write_prefix is not None:
            keep, self.write_prefix = self.write_prefix, None
            self._raw.write(data[:keep])
            self._raw.flush()
            raise OSError(errno.ENOSPC, "injected: no space left on device")
        return self._raw.write(data)

    def fsync(self):
        if self.fail_fsync:
            self.fail_fsync = False
            raise OSError(errno.EIO, "injected: fsync failed")
        self._raw.flush()
        os.fsync(self._raw.fileno())

    def truncate(self, size=None):
        if self.fail_truncate:
            self.fail_truncate = False
            raise OSError(errno.EIO, "injected: truncate failed")
        return self._raw.truncate(size)

    def __getattr__(self, name):
        return getattr(self._raw, name)


def _flaky_stream(path):
    files = []

    def wrap(raw):
        files.append(_FlakyFile(raw))
        return files[-1]

    stream = FileStream(path, durable=True, file_factory=wrap)
    return stream, files[0]


class TestFailedAppend:
    """A write or fsync that raises ``OSError`` leaves no bytes behind: the
    next append lands where the failed one began, so a reopen sees exactly
    the acknowledged records."""

    @staticmethod
    def _fail_then_append(path, arm):
        stream, file = _flaky_stream(path)
        assert stream.append_many([b"zero", b"one"]) == [0, 1]
        arm(file)
        with pytest.raises(OSError, match="injected"):
            stream.append_many([b"lost-a", b"lost-b"])
        assert len(stream) == 2
        assert stream.append_many([b"two"]) == [2]
        assert stream.read(2) == b"two"
        stream.close()
        with FileStream(path) as reopened:
            assert reopened.open_report.clean
            assert [reopened.read(i) for i in range(len(reopened))] == [b"zero", b"one", b"two"]

    def test_fsync_failure_leaves_no_orphan_record(self, tmp_path):
        self._fail_then_append(tmp_path / "s", lambda file: setattr(file, "fail_fsync", True))

    def test_write_failure_after_a_prefix_leaves_no_torn_bytes(self, tmp_path):
        self._fail_then_append(tmp_path / "s", lambda file: setattr(file, "write_prefix", 17))

    def test_unremovable_failed_write_stops_every_later_append(self, tmp_path):
        path = tmp_path / "s"
        stream, file = _flaky_stream(path)
        stream.append_many([b"zero"])
        file.fail_fsync = file.fail_truncate = True
        with pytest.raises(OSError, match="fsync failed"):
            stream.append_many([b"lost"])
        for _ in range(2):
            with pytest.raises(StreamError, match="fsync failed"):
                stream.append_many([b"refused"])
        assert len(stream) == 1
        assert stream.read(0) == b"zero"
        stream.close()

    def test_ledger_keeps_jsns_dense_across_a_failed_commit(self, tmp_path):
        from repro.core import ClientRequest, Ledger, LedgerConfig
        from repro.crypto import KeyPair, Role

        uri = "ledger://failed-write"
        stream, file = _flaky_stream(tmp_path / "journal.stream")
        ledger = Ledger(LedgerConfig(uri=uri, data_dir=str(tmp_path)), journal_stream=stream)
        user = KeyPair.generate(seed="failed-write-user")
        ledger.registry.register("user", Role.USER, user.public)
        requests = [
            ClientRequest.build(uri, "user", b"tx %d" % i, nonce=bytes([i]) * 8).signed_by(user)
            for i in range(3)
        ]
        assert ledger.append_batch(requests[:1])[0].jsn == 1
        file.fail_fsync = True
        with pytest.raises(OSError):
            ledger.append_batch(requests[1:2])
        receipt = ledger.append_batch(requests[2:])[0]
        assert receipt.jsn == 2
        members = ledger.registry
        ledger.close(checkpoint=False)
        reopened = Ledger.open(str(tmp_path), members, KeyPair.generate(seed=f"lsp:{uri}"))
        try:
            assert reopened.size == 3
            assert reopened.get_journal(2).payload == b"tx 2"
            assert reopened.current_root() == receipt.ledger_root
        finally:
            reopened.close(checkpoint=False)


class TestKVStores:
    def test_memory_kv_basics(self):
        kv = MemoryKVStore()
        kv.put(b"k", b"v")
        assert kv.get(b"k") == b"v"
        assert b"k" in kv and len(kv) == 1
        kv.put(b"k", b"v2")
        assert kv.get(b"k") == b"v2"
        kv.delete(b"k")
        assert b"k" not in kv
        with pytest.raises(KeyNotFoundError):
            kv.get(b"k")
        with pytest.raises(KeyNotFoundError):
            kv.delete(b"k")
