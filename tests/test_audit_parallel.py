"""Parallel audit engine: byte-identical reports, deterministic failures,
and crash-safe checkpoint resume.

The contract under test: for any worker count, chunk size, and scheduling,
``dasein_audit`` produces an ``AuditReport`` whose ``canonical()`` bytes
equal the ``workers=0`` run's — for passing *and* failing ledgers.  Chunk
size and checkpoint interval are module constants of the engine, patched
per run; the pool is a thread pool (``_schedulable_cpus`` patched to one)
except where a test asks for forked workers.  Checkpoint crash tests reuse
the fault-injection harness from :mod:`repro.storage.faults`.
"""

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import obs
from repro.audit import AuditCheckpoint, CheckpointStore, dasein_audit, engine
from repro.core.journal import Journal
from repro.crypto import KeyPair
from repro.storage.faults import FaultPlan, FaultyFile, InjectedCrash, flip_byte

from conftest import Deployment

# The grid deliberately includes chunk sizes that split the workload into
# many small chunks (worst case for merge ordering) and a chunk size larger
# than the ledger (single-chunk degenerate case).
GRID = [(1, 3), (2, 5), (4, 8), (4, 256), (3, 1)]


#: The engine's own CPU probe, for the test that wants forked workers.
SCHEDULABLE_CPUS = engine._schedulable_cpus


@pytest.fixture(autouse=True)
def thread_pool(monkeypatch):
    """Thread pools: deterministic and cheap under pytest."""
    monkeypatch.setattr(engine, "_schedulable_cpus", lambda: 1)


def _audit(
    deployment,
    view=None,
    chunk_size=engine.CHUNK_SIZE,
    checkpoint_every=engine.CHECKPOINT_EVERY,
    **kwargs,
):
    view = view if view is not None else deployment.ledger.export_view()
    with (
        mock.patch.object(engine, "CHUNK_SIZE", chunk_size),
        mock.patch.object(engine, "CHECKPOINT_EVERY", checkpoint_every),
    ):
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

    def test_process_pool_matches_sequential(self, populated, monkeypatch):
        # One fork-pool run: same bytes as inline, through real processes
        # (falls back to threads automatically where fork is unavailable).
        monkeypatch.setattr(engine, "_schedulable_cpus", SCHEDULABLE_CPUS)
        deployment, _receipts = populated
        baseline = _audit(deployment)
        report = _audit(deployment, workers=2, chunk_size=8)
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


# ----------------------------------------------------- hostile checkpoints
#
# The envelope's SHA-256 is unkeyed: anyone who can write the file can
# re-compute it.  A body whose fields have the wrong type or range must then
# cost the resume, never the audit: the report is the full audit's.


@pytest.fixture(scope="module")
def mid_audit_checkpoint():
    """(deployment, view, full-audit report, a checkpoint body saved after
    the first verified block of an audit killed before its second save)."""
    deployment = Deployment()
    deployment.populate()
    view = deployment.ledger.export_view()
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "audit.ckpt"
        plan = FaultPlan()
        plan.arm(crash_op=5)  # the second save's fsync
        faulty = CheckpointStore(path, file_factory=lambda raw: FaultyFile(raw, plan))
        with pytest.raises(InjectedCrash):
            _audit(deployment, view=view, checkpoint=faulty, checkpoint_every=1)
        body = json.loads(json.loads(path.read_bytes())["payload"])
    assert view.genesis_start < body["next_jsn"] < view.genesis_start + len(view.entries)
    return deployment, view, _audit(deployment, view=view), body


def _resume_from(deployment, view, body):
    """Resume an audit from ``body`` (a dict, or the payload's text), stored
    with a re-computed checksum."""
    payload = body if isinstance(body, str) else json.dumps(body, sort_keys=True)
    envelope = {"sha256": hashlib.sha256(payload.encode()).hexdigest(), "payload": payload}
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "audit.ckpt"
        path.write_text(json.dumps(envelope))
        return _audit(deployment, view=view, checkpoint=CheckpointStore(path), resume=True)


def test_an_untouched_checkpoint_body_resumes(mid_audit_checkpoint):
    deployment, view, baseline, body = mid_audit_checkpoint
    with obs.scoped() as registry:
        resumed = _resume_from(deployment, view, body)
    assert registry.snapshot()["counters"].get("audit.resumes") == 1
    assert resumed.canonical() == baseline.canonical()


@pytest.mark.parametrize(
    "field, value",
    [("next_jsn", "5"), ("fam_live_size", "x"), ("time_jsns", [10**9])],
)
def test_a_hostile_checkpoint_field_falls_back_to_a_full_audit(mid_audit_checkpoint, field, value):
    deployment, view, baseline, body = mid_audit_checkpoint
    with pytest.raises(ValueError):
        AuditCheckpoint.from_dict({**body, field: value})
    report = _resume_from(deployment, view, {**body, field: value})
    assert report.canonical() == baseline.canonical()


def test_a_deeply_nested_checkpoint_body_falls_back_to_a_full_audit(mid_audit_checkpoint):
    deployment, view, baseline, _body = mid_audit_checkpoint
    report = _resume_from(deployment, view, "[" * 100_000 + "]" * 100_000)
    assert report.canonical() == baseline.canonical()


#: JSON values of the wrong type or range for every checkpoint field (a
#: string is no hex digest and no other ledger's uri; no count is negative
#: or 2**40; no list or object of them is empty).
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False),
    st.integers(max_value=-1),
    st.integers(min_value=2**40),
    st.text(max_size=6).map(lambda text: "z" + text),
    st.lists(st.text(max_size=3).map(lambda text: "z" + text), min_size=1, max_size=3),
    st.dictionaries(st.text(max_size=3), st.none(), min_size=1, max_size=2),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_hostile_checkpoint_field_gives_the_full_audit_report(mid_audit_checkpoint, data):
    deployment, view, baseline, body = mid_audit_checkpoint
    field = data.draw(st.sampled_from(sorted(body)))
    value = data.draw(_JUNK)
    # None is a well-typed receipt cursor; a later receipt jsn is one too
    # (then ignored, as the receipt lies past the checkpoint).
    assume(not (field in ("receipt_jsn", "receipt_root") and value is None))
    report = _resume_from(deployment, view, {**body, field: value})
    assert report.canonical() == baseline.canonical()
