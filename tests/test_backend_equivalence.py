"""Memory vs paged node-store equivalence, snapshot reopen, §9 fault recovery.

The paged backend is pure placement: every trusted artifact — fam roots,
CM-Tree roots, proofs, audit reports — must be byte-identical to the
in-memory backend, including after an injected crash and reopen.  Reopening
from a checkpoint must cost O(delta-since-snapshot) stream reads, and any
damage to derived state (snapshot or pages) must degrade to the always-safe
full replay, never to wrong answers.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ClientRequest,
    Ledger,
    LedgerConfig,
    OccultMode,
    dasein_audit,
)
from repro.core.errors import SnapshotError, UsageError
from repro.core.ledger import LSP_MEMBER_ID
from repro.core.members import MemberRegistry
from repro.crypto import KeyPair, MultiSignature, Role
from repro.storage.faults import (
    FaultPlan,
    FaultyPagedStore,
    InjectedCrash,
    flip_byte,
)
from repro.storage.pagestore import PageCorruptionError
from repro.storage.stream import FileStream
from repro.timeauth import SimClock

URI = "ledger://equiv"

CLUES = ["A", "B", "C", "D"]


def make_world():
    registry = MemberRegistry()
    lsp = KeyPair.generate(seed="equiv-lsp")
    keys = {
        "user": KeyPair.generate(seed="equiv-user"),
        "dba": KeyPair.generate(seed="equiv-dba"),
        "reg": KeyPair.generate(seed="equiv-reg"),
    }
    registry.register("user", Role.USER, keys["user"].public)
    registry.register("dba", Role.DBA, keys["dba"].public)
    registry.register("reg", Role.REGULATOR, keys["reg"].public)
    return registry, lsp, keys


def reregister(registry):
    fresh = MemberRegistry()
    for member in ("user", "dba", "reg"):
        cert = registry.certificate(member)
        fresh.register(member, cert.role, cert.public_key)
    return fresh


def drive(ledger, clock, keys, ops):
    """Apply one scripted workload: (clues, commit_after) per append."""
    for i, (clues, commit_after) in enumerate(ops):
        request = ClientRequest.build(
            ledger.config.uri, "user", b"equiv-%04d" % i,
            clues=tuple(clues), nonce=i.to_bytes(4, "big"),
            client_timestamp=clock.now(),
        ).signed_by(keys["user"])
        ledger.append(request)
        clock.advance(0.25)
        if commit_after:
            ledger.commit_block()
    ledger.commit_block()


def fingerprint(ledger):
    """Every byte-comparable trusted artifact of a ledger."""
    proofs = [ledger.get_proof(jsn).to_bytes() for jsn in range(ledger.size)]
    unanchored = [
        ledger.get_proof(jsn, anchored=False).to_bytes() for jsn in range(ledger.size)
    ]
    clue_proofs = {
        clue: ledger.prove_clue(clue).to_bytes()
        for clue in CLUES
        if ledger.clue_entry_count(clue)
    }
    return {
        "size": ledger.size,
        "journal_root": ledger.current_root(),
        "state_root": ledger.state_root(),
        "proofs": proofs,
        "unanchored": unanchored,
        "clue_proofs": clue_proofs,
        "block_hashes": [block.hash() for block in ledger.blocks],
    }


def paged_config(data_dir, **kwargs):
    return LedgerConfig(
        uri=URI, fractal_height=3, block_size=4,
        node_store="paged", cache_pages=4, data_dir=str(data_dir), **kwargs
    )


workloads = st.lists(
    st.tuples(
        st.lists(st.sampled_from(CLUES), max_size=2, unique=True),
        st.booleans(),
    ),
    min_size=1,
    max_size=24,
)


class TestBackendEquivalence:
    @given(ops=workloads)
    @settings(max_examples=25, deadline=None)
    def test_roots_proofs_identical_for_any_workload(self, ops):
        registry_m, lsp, keys = make_world()
        clock_m = SimClock()
        memory = Ledger(
            LedgerConfig(uri=URI, fractal_height=3, block_size=4),
            clock=clock_m, registry=registry_m, lsp_keypair=lsp,
        )
        drive(memory, clock_m, keys, ops)
        with tempfile.TemporaryDirectory(prefix="equiv-") as tmp:
            registry_p, lsp_p, keys_p = make_world()
            clock_p = SimClock()
            paged = Ledger(
                paged_config(tmp), clock=clock_p,
                registry=registry_p, lsp_keypair=lsp_p,
            )
            drive(paged, clock_p, keys_p, ops)
            assert fingerprint(paged) == fingerprint(memory)
            paged.close(checkpoint=False)

    def test_audit_reports_byte_identical(self, tmp_path):
        ops = [((CLUES[i % 3],), i % 5 == 4) for i in range(22)]
        registry_m, lsp, keys = make_world()
        clock_m = SimClock()
        memory = Ledger(
            LedgerConfig(uri=URI, fractal_height=3, block_size=4),
            clock=clock_m, registry=registry_m, lsp_keypair=lsp,
        )
        drive(memory, clock_m, keys, ops)
        registry_p, lsp_p, keys_p = make_world()
        clock_p = SimClock()
        paged = Ledger(
            paged_config(tmp_path), clock=clock_p,
            registry=registry_p, lsp_keypair=lsp_p,
        )
        drive(paged, clock_p, keys_p, ops)
        report_m = dasein_audit(memory.export_view(), tsa_keys={})
        report_p = dasein_audit(paged.export_view(), tsa_keys={})
        assert report_m.passed, report_m.failures()
        assert report_p.canonical() == report_m.canonical()
        paged.close(checkpoint=False)

    def test_occult_equivalence(self, tmp_path):
        ops = [((CLUES[i % 2],), False) for i in range(10)]

        def build(config, registry, lsp, keys):
            clock = SimClock()
            ledger = Ledger(config, clock=clock, registry=registry, lsp_keypair=lsp)
            drive(ledger, clock, keys, ops)
            record = ledger.prepare_occult(3, OccultMode.SYNC, reason="equiv")
            approvals = MultiSignature(digest=record.approval_digest())
            approvals.add("dba", keys["dba"].sign(record.approval_digest()))
            approvals.add("reg", keys["reg"].sign(record.approval_digest()))
            ledger.execute_occult(record, approvals)
            ledger.commit_block()
            return ledger

        registry_m, lsp, keys = make_world()
        memory = build(
            LedgerConfig(uri=URI, fractal_height=3, block_size=4),
            registry_m, lsp, keys,
        )
        registry_p, lsp_p, keys_p = make_world()
        paged = build(paged_config(tmp_path), registry_p, lsp_p, keys_p)
        assert fingerprint(paged) == fingerprint(memory)
        assert paged.is_occulted(3) and memory.is_occulted(3)
        paged.close(checkpoint=False)


class TestSnapshotReopen:
    def _build(self, tmp_path, appends=30):
        registry, lsp, keys = make_world()
        clock = SimClock()
        ledger = Ledger(
            paged_config(tmp_path), clock=clock, registry=registry, lsp_keypair=lsp
        )
        drive(ledger, clock, keys, [((CLUES[i % 4],), False) for i in range(appends)])
        return ledger, registry, lsp, keys, clock

    def test_snapshot_restore_matches_original(self, tmp_path):
        ledger, registry, lsp, keys, clock = self._build(tmp_path)
        ledger.checkpoint()
        # Post-snapshot delta, including an occult of a pre-snapshot target.
        drive(ledger, clock, keys, [((CLUES[i % 2],), False) for i in range(9)])
        record = ledger.prepare_occult(5, OccultMode.SYNC, reason="delta")
        approvals = MultiSignature(digest=record.approval_digest())
        approvals.add("dba", keys["dba"].sign(record.approval_digest()))
        approvals.add("reg", keys["reg"].sign(record.approval_digest()))
        ledger.execute_occult(record, approvals)
        ledger.commit_block()
        expected = fingerprint(ledger)
        ledger.close(checkpoint=False)

        reopened = Ledger.open(str(tmp_path), reregister(registry), lsp, clock=SimClock())
        got = fingerprint(reopened)
        # Delta-replayed blocks are re-stamped by the recovery clock (exactly
        # like Ledger.recover); every other artifact is byte-identical.
        assert {k: v for k, v in got.items() if k != "block_hashes"} == {
            k: v for k, v in expected.items() if k != "block_hashes"
        }
        assert reopened.is_occulted(5)
        assert reopened.latest_receipt.verify(lsp.public)
        reopened.close(checkpoint=False)

    def test_snapshot_taken_at_close_makes_blocks_identical(self, tmp_path):
        ledger, registry, lsp, _keys, _clock = self._build(tmp_path)
        expected = fingerprint(ledger)
        ledger.close()  # checkpoints: snapshot covers the whole stream
        reopened = Ledger.open(str(tmp_path), reregister(registry), lsp, clock=SimClock())
        cold = fingerprint(reopened)  # the first reads fault every page in
        assert cold == expected  # blocks included
        assert fingerprint(reopened) == cold  # warm cache, same bytes
        jsns = list(range(reopened.size))
        for anchored, singles in ((True, cold["proofs"]), (False, cold["unanchored"])):
            bulk = reopened.get_proofs(jsns, anchored=anchored)
            assert [proof.to_bytes() for proof in bulk] == singles
        reopened.close(checkpoint=False)

    def test_reopen_reads_only_the_delta(self, tmp_path):
        class CountingStream(FileStream):
            def __init__(self, path):
                self.record_reads = 0
                super().__init__(path, durable=True)

            def read(self, offset):
                self.record_reads += 1
                return super().read(offset)

        ledger, registry, lsp, keys, clock = self._build(tmp_path, appends=40)
        ledger.checkpoint()
        delta = 6
        drive(ledger, clock, keys, [((), False) for _ in range(delta)])
        total = ledger.size
        ledger.close(checkpoint=False)

        stream = CountingStream(tmp_path / "journal.stream")
        reopened = Ledger.open(
            str(tmp_path), reregister(registry), lsp,
            clock=SimClock(), journal_stream=stream,
        )
        assert reopened.size == total
        # Two replay passes over the suffix only — not O(ledger size).
        assert stream.record_reads <= 2 * delta + 2
        assert stream.record_reads < total
        reopened.close(checkpoint=False)

    def test_corrupt_snapshot_falls_back_to_full_replay(self, tmp_path):
        ledger, registry, lsp, _keys, _clock = self._build(tmp_path)
        expected_root = ledger.current_root()
        ledger.close()
        flip_byte(tmp_path / "snapshot.ckpt", 40)
        reopened = Ledger.open(str(tmp_path), reregister(registry), lsp, clock=SimClock())
        assert reopened.current_root() == expected_root
        reopened.close(checkpoint=False)

    def test_foreign_snapshot_rejected(self, tmp_path, monkeypatch):
        ledger, registry, lsp, _keys, _clock = self._build(tmp_path)
        expected_root = ledger.current_root()
        ledger.close()
        # Swap in a snapshot from a different ledger uri.
        from repro.core import snapshot as snapshot_mod

        state = snapshot_mod.load_snapshot(tmp_path / "snapshot.ckpt")
        state["uri"] = "ledger://someone-else"
        snapshot_mod.write_snapshot(tmp_path / "snapshot.ckpt", state)
        reopened = Ledger.open(str(tmp_path), reregister(registry), lsp, clock=SimClock())
        assert reopened.current_root() == expected_root  # full replay won
        reopened.close(checkpoint=False)

    def test_checkpoint_requires_data_dir(self):
        registry, lsp, _keys = make_world()
        ledger = Ledger(
            LedgerConfig(uri=URI, fractal_height=3, block_size=4),
            clock=SimClock(), registry=registry, lsp_keypair=lsp,
        )
        with pytest.raises(UsageError):
            ledger.checkpoint()

    def test_create_refuses_existing_data_dir(self, tmp_path):
        ledger, registry, lsp, _keys, _clock = self._build(tmp_path, appends=4)
        ledger.close()
        with pytest.raises(UsageError, match="existing"):
            Ledger(paged_config(tmp_path), clock=SimClock(),
                   registry=reregister(registry), lsp_keypair=lsp)


class TestCrashRecovery:
    """§9 applied to the node-store path: a crash mid page-flush must never
    lose committed state, and the reopened paged ledger must be byte-identical
    to a pure-memory recovery of the same journal stream."""

    def _crashed_ledger(self, tmp_path, crash_op=2, checkpoint_first=False):
        registry, lsp, keys = make_world()
        clock = SimClock()
        plan = FaultPlan()
        store = FaultyPagedStore(Path(tmp_path) / "nodes", plan)
        ledger = Ledger(
            paged_config(tmp_path), clock=clock, registry=registry,
            lsp_keypair=lsp, node_store=store,
        )
        drive(ledger, clock, keys, [((CLUES[i % 4],), False) for i in range(20)])
        if checkpoint_first:
            ledger.checkpoint()
        plan.reset()
        crashed = False
        for i in range(20, 40):
            request = ClientRequest.build(
                URI, "user", b"equiv-%04d" % i,
                clues=(CLUES[i % 4],), nonce=i.to_bytes(4, "big"),
                client_timestamp=clock.now(),
            ).signed_by(keys["user"])
            if not crashed and len(plan.crash_points()) > crash_op:
                plan.arm(crash_op)
            try:
                ledger.append(request)
            except InjectedCrash:
                crashed = True
                break
            clock.advance(0.25)
        assert crashed, "workload never reached the armed crash point"
        return registry, lsp

    def test_crash_then_reopen_equals_memory_recovery(self, tmp_path):
        registry, lsp = self._crashed_ledger(tmp_path)
        # No snapshot -> both sides take the full-replay path.
        stream = FileStream(tmp_path / "journal.stream", durable=True)
        comparator = Ledger.recover(
            LedgerConfig(uri=URI, fractal_height=3, block_size=4),
            stream, reregister(registry), lsp, clock=SimClock(),
        )
        expected = fingerprint(comparator)
        report_m = dasein_audit(comparator.export_view(), tsa_keys={})
        stream.close()

        reopened = Ledger.open(str(tmp_path), reregister(registry), lsp, clock=SimClock())
        assert fingerprint(reopened) == expected
        report_p = dasein_audit(reopened.export_view(), tsa_keys={})
        assert report_p.passed, report_p.failures()
        assert report_p.canonical() == report_m.canonical()
        reopened.close(checkpoint=False)

    def test_crash_after_checkpoint_recovers_via_snapshot(self, tmp_path):
        registry, lsp = self._crashed_ledger(tmp_path, checkpoint_first=True)
        stream = FileStream(tmp_path / "journal.stream", durable=True)
        comparator = Ledger.recover(
            LedgerConfig(uri=URI, fractal_height=3, block_size=4),
            stream, reregister(registry), lsp, clock=SimClock(),
        )
        expected = fingerprint(comparator)
        stream.close()

        reopened = Ledger.open(str(tmp_path), reregister(registry), lsp, clock=SimClock())
        got = fingerprint(reopened)
        # Snapshot-restored blocks keep their original timestamps; roots and
        # proofs must still be byte-identical to the memory recovery.
        assert {k: v for k, v in got.items() if k != "block_hashes"} == {
            k: v for k, v in expected.items() if k != "block_hashes"
        }
        reopened.close(checkpoint=False)

    def test_page_index_rot_triggers_rebuild(self, tmp_path):
        registry, lsp, keys = make_world()
        clock = SimClock()
        ledger = Ledger(
            paged_config(tmp_path), clock=clock, registry=registry, lsp_keypair=lsp
        )
        drive(ledger, clock, keys, [((CLUES[i % 4],), False) for i in range(24)])
        expected_root = ledger.current_root()
        expected_clue = ledger.prove_clue("A").to_bytes()
        ledger.close()
        victim = sorted((tmp_path / "nodes").glob("page-*.pg"))[0]
        flip_byte(victim, 33)  # index section: detected at open
        reopened = Ledger.open(str(tmp_path), reregister(registry), lsp, clock=SimClock())
        assert reopened.current_root() == expected_root
        assert reopened.prove_clue("A").to_bytes() == expected_clue
        reopened.close(checkpoint=False)

    def test_page_blob_rot_detected_then_force_rebuild(self, tmp_path):
        registry, lsp, keys = make_world()
        clock = SimClock()
        ledger = Ledger(
            paged_config(tmp_path), clock=clock, registry=registry, lsp_keypair=lsp
        )
        drive(ledger, clock, keys, [((CLUES[i % 4],), False) for i in range(24)])
        expected_root = ledger.current_root()
        expected_clue = ledger.prove_clue("A").to_bytes()
        ledger.close()
        for page in (tmp_path / "nodes").glob("page-*.pg"):
            flip_byte(page, page.stat().st_size - 1)  # blob rot: lazy check
        reopened = Ledger.open(str(tmp_path), reregister(registry), lsp, clock=SimClock())
        with pytest.raises(PageCorruptionError):
            for clue in CLUES:
                reopened.prove_clue(clue)
        reopened.close(checkpoint=False)
        rebuilt = Ledger.open(
            str(tmp_path), reregister(registry), lsp,
            clock=SimClock(), force_rebuild=True,
        )
        assert rebuilt.current_root() == expected_root
        assert rebuilt.prove_clue("A").to_bytes() == expected_clue
        rebuilt.close(checkpoint=False)
