"""Parallel audit engine: byte-identical reports, deterministic failures,
and crash-safe checkpoint resume.

The contract under test is the tentpole invariant: for any worker count,
chunk size, and scheduling, ``dasein_audit`` produces an ``AuditReport``
whose ``canonical()`` bytes equal the sequential engine's — for passing
*and* failing ledgers.  Checkpoint crash tests reuse the fault-injection
harness from :mod:`repro.storage.faults`.
"""

import dataclasses

import pytest

from repro.audit import CheckpointStore, dasein_audit
from repro.core.journal import Journal
from repro.crypto import KeyPair
from repro.storage.faults import FaultPlan, FaultyFile, InjectedCrash, flip_byte

from conftest import Deployment

# The grid deliberately includes chunk sizes that split the workload into
# many small chunks (worst case for merge ordering) and a chunk size larger
# than the ledger (single-chunk degenerate case).
GRID = [(1, 3), (2, 5), (4, 8), (4, 256), (3, 1)]


def _audit(deployment, view=None, **kwargs):
    view = view if view is not None else deployment.ledger.export_view()
    kwargs.setdefault("pool", "thread")  # deterministic + cheap under pytest
    return dasein_audit(view, tsa_keys=deployment.tsa_keys, **kwargs)


def _forge_signature(view, jsn, seed="mallory"):
    """Replace jsn's client signature with a stranger's (digest kept valid,
    so the *signature* check is what must fail — the parallelised path)."""
    entry = view.entry(jsn)
    journal = Journal.from_bytes(entry.data)
    mallory = KeyPair.generate(seed=seed)
    forged = dataclasses.replace(
        journal, client_signature=mallory.sign(journal.request_hash)
    )
    view.entries[jsn - view.genesis_start] = dataclasses.replace(
        entry, data=forged.to_bytes(), retained_hash=forged.tx_hash()
    )


class TestByteIdenticalReports:
    def test_honest_ledger_all_worker_counts(self, populated):
        deployment, _receipts = populated
        baseline = _audit(deployment)
        assert baseline.passed
        for workers, chunk_size in GRID:
            report = _audit(deployment, workers=workers, chunk_size=chunk_size)
            assert report.canonical() == baseline.canonical(), (workers, chunk_size)

    def test_tampered_ledger_all_worker_counts(self, populated):
        deployment, receipts = populated
        view = deployment.ledger.export_view()
        _forge_signature(view, receipts[10].jsn)
        baseline = _audit(deployment, view=view)
        assert not baseline.passed
        assert any(
            f"jsn {receipts[10].jsn}" in step.detail for step in baseline.failures()
        )
        for workers, chunk_size in GRID:
            report = _audit(
                deployment, view=view, workers=workers, chunk_size=chunk_size
            )
            assert report.canonical() == baseline.canonical(), (workers, chunk_size)

    def test_process_pool_matches_sequential(self, populated):
        # One fork-pool run: same bytes as inline, through real processes
        # (falls back to threads automatically where fork is unavailable).
        deployment, _receipts = populated
        baseline = _audit(deployment)
        report = _audit(deployment, workers=2, chunk_size=8, pool="auto")
        assert report.canonical() == baseline.canonical()

    def test_collect_all_failures_matches(self, populated):
        # early_terminate=False exercises the non-short-circuit merge.
        deployment, receipts = populated
        view = deployment.ledger.export_view()
        _forge_signature(view, receipts[4].jsn)
        baseline = _audit(deployment, view=view, early_terminate=False)
        report = _audit(
            deployment, view=view, early_terminate=False, workers=4, chunk_size=2
        )
        assert report.canonical() == baseline.canonical()


class TestDeterministicFirstFailure:
    def test_earliest_tampered_jsn_wins_regardless_of_scheduling(self, populated):
        """Two forged journals in different chunks: the failure must always
        name the earlier jsn, even when a later chunk finishes first."""
        deployment, receipts = populated
        view = deployment.ledger.export_view()
        early, late = receipts[3].jsn, receipts[16].jsn
        _forge_signature(view, late, seed="mallory-late")
        _forge_signature(view, early, seed="mallory-early")
        baseline = _audit(deployment, view=view)
        details = " ".join(step.detail for step in baseline.failures())
        assert f"jsn {early}" in details
        assert f"jsn {late}" not in details  # early termination at the first
        for workers, chunk_size in GRID:
            report = _audit(
                deployment, view=view, workers=workers, chunk_size=chunk_size
            )
            assert report.canonical() == baseline.canonical(), (workers, chunk_size)

    def test_counters_stop_at_first_failure(self, populated):
        deployment, receipts = populated
        view = deployment.ledger.export_view()
        target = receipts[8].jsn
        _forge_signature(view, target)
        for workers in (0, 4):
            report = _audit(deployment, view=view, workers=workers, chunk_size=3)
            assert report.journals_replayed == target - view.genesis_start
            assert not report.passed


@pytest.fixture(scope="module")
def long_ledger():
    """160 journals from two members: a 256-journal chunk holds two
    same-key groups of 80, above BUCKET_MIN, so pi_c goes through the bucket
    sum on the inline and on the pool path."""
    deployment = Deployment()
    receipts = deployment.populate(count=160, anchor_every=40)
    return deployment, [receipt.jsn for receipt in receipts]


class TestForgedSignaturePositions:
    """Sequential (chunks verified inline) against pool runs, with forged
    client signatures at the ledger's edges and on both sides of a chunk
    boundary: the report bytes must not depend on where the who-check ran."""

    @pytest.mark.parametrize(
        "picks",
        [(0,), (63,), (64,), (159,), (63, 64), (0, 80, 159)],
        ids=lambda picks: "+".join(map(str, picks)),
    )
    def test_sequential_matches_pools(self, long_ledger, picks):
        deployment, jsns = long_ledger
        view = deployment.ledger.export_view()
        for pick in picks:
            _forge_signature(view, jsns[pick], seed=f"mallory-{pick}")
        baseline = _audit(deployment, view=view)
        assert not baseline.passed
        assert f"jsn {jsns[picks[0]]}: invalid issuer signature" in " ".join(
            step.detail for step in baseline.failures()
        )
        for workers, chunk_size in ((0, 256), (1, 64), (2, 256), (3, 5)):
            report = _audit(deployment, view=view, workers=workers, chunk_size=chunk_size)
            assert report.canonical() == baseline.canonical(), (workers, chunk_size)
        collected = _audit(deployment, view=view, early_terminate=False)
        pooled = _audit(
            deployment, view=view, early_terminate=False, workers=2, chunk_size=256
        )
        assert pooled.canonical() == collected.canonical()

    def test_honest_long_ledger(self, long_ledger):
        deployment, _jsns = long_ledger
        baseline = _audit(deployment)
        assert baseline.passed
        for workers in (0, 2):
            report = _audit(deployment, workers=workers, chunk_size=256)
            assert report.canonical() == baseline.canonical()


class TestCheckpointResume:
    def test_resume_after_injected_crash(self, populated, tmp_path):
        """Kill the audit mid-save (power-loss model); the previous durable
        checkpoint survives and a resumed audit reproduces the baseline
        report byte for byte."""
        deployment, _receipts = populated
        view = deployment.ledger.export_view()
        baseline = _audit(deployment, view=view)

        path = tmp_path / "audit.ckpt"
        plan = FaultPlan()
        faulty = CheckpointStore(path, file_factory=lambda raw: FaultyFile(raw, plan))
        # A save is write+flush+fsync = 3 ops; op 5 is the *second* save's
        # fsync — its os.replace never runs, so slot 1 must survive intact.
        plan.arm(crash_op=5)
        with pytest.raises(InjectedCrash):
            _audit(
                deployment,
                view=view,
                workers=2,
                chunk_size=4,
                checkpoint=faulty,
                checkpoint_every=1,
            )

        survivor = CheckpointStore(path).load()
        assert survivor is not None
        assert view.genesis_start < survivor.next_jsn < view.genesis_start + len(
            view.entries
        )

        resumed = _audit(
            deployment,
            view=view,
            workers=2,
            chunk_size=4,
            checkpoint=CheckpointStore(path),
            resume=True,
        )
        assert resumed.canonical() == baseline.canonical()

    def test_torn_checkpoint_write_keeps_old_slot(self, populated, tmp_path):
        deployment, _receipts = populated
        view = deployment.ledger.export_view()
        path = tmp_path / "audit.ckpt"
        plan = FaultPlan()
        faulty = CheckpointStore(path, file_factory=lambda raw: FaultyFile(raw, plan))
        # Crash inside the second save's *write* with a torn prefix: the tmp
        # file is garbage but the rename never happened.
        plan.arm(crash_op=3, partial_bytes=11)
        with pytest.raises(InjectedCrash):
            _audit(
                deployment,
                view=view,
                checkpoint=faulty,
                checkpoint_every=1,
            )
        first = CheckpointStore(path).load()
        assert first is not None  # slot holds the first, fully-durable save
        resumed = _audit(
            deployment, view=view, checkpoint=CheckpointStore(path), resume=True
        )
        assert resumed.canonical() == _audit(deployment, view=view).canonical()

    def test_corrupt_checkpoint_falls_back_to_full_audit(self, populated, tmp_path):
        deployment, _receipts = populated
        view = deployment.ledger.export_view()
        path = tmp_path / "audit.ckpt"
        baseline = _audit(deployment, view=view, checkpoint=CheckpointStore(path))
        assert path.exists()
        flip_byte(path, 40)  # bit rot inside the envelope
        assert CheckpointStore(path).load() is None
        report = _audit(
            deployment, view=view, checkpoint=CheckpointStore(path), resume=True
        )
        assert report.canonical() == baseline.canonical()

    def test_resume_skips_already_verified_prefix(self, populated, tmp_path):
        """A checkpoint from a completed run fast-forwards the whole fold;
        tampering *below* the checkpoint is (by design) not re-checked,
        tampering above it still fails."""
        deployment, receipts = populated
        view = deployment.ledger.export_view()
        path = tmp_path / "audit.ckpt"
        _audit(deployment, view=view, checkpoint=CheckpointStore(path))
        checkpoint = CheckpointStore(path).load()
        assert checkpoint is not None

        resumed = _audit(
            deployment, view=view, checkpoint=CheckpointStore(path), resume=True
        )
        assert resumed.passed
        # Counters carry over from the checkpoint rather than re-replaying.
        assert resumed.journals_replayed == checkpoint.journals_replayed

    def test_session_audit_resume_roundtrip(self, populated, tmp_path):
        from repro.api import LedgerSession

        deployment, _receipts = populated
        session = LedgerSession(deployment.ledger)
        path = tmp_path / "session.ckpt"
        first = session.audit(tsa_keys=deployment.tsa_keys, checkpoint=path)
        again = session.audit(
            tsa_keys=deployment.tsa_keys, checkpoint=path, resume=True
        )
        assert first.passed and again.passed
        assert again.canonical() == first.canonical()
