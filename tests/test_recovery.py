"""Ledger recovery: rebuilding every derived structure from the journal stream."""

import pytest

from repro.core import (
    ClientRequest,
    JournalOccultedError,
    Ledger,
    LedgerConfig,
    OccultMode,
    dasein_audit,
)
from repro.core.errors import LedgerError, RecoveryError, UsageError
from repro.core.ledger import LSP_MEMBER_ID
from repro.core.members import MemberRegistry
from repro.crypto import KeyPair, MultiSignature, Role
from repro.storage import FileStream, MemoryStream
from repro.timeauth import SimClock, TimeLedger, TimeStampAuthority

from conftest import LEDGER_URI, Deployment

URI = "ledger://recovery"


def build_original(journal_stream, clock, tledger, with_occult=True):
    registry = MemberRegistry()
    lsp = KeyPair.generate(seed="recovery-lsp")
    config = LedgerConfig(uri=URI, fractal_height=3, block_size=4)
    ledger = Ledger(
        config, clock=clock, registry=registry, lsp_keypair=lsp, journal_stream=journal_stream
    )
    ledger.attach_time_ledger(tledger)
    user = KeyPair.generate(seed="recovery-user")
    dba = KeyPair.generate(seed="recovery-dba")
    regulator = KeyPair.generate(seed="recovery-reg")
    ledger.registry.register("user", Role.USER, user.public)
    ledger.registry.register("dba", Role.DBA, dba.public)
    ledger.registry.register("reg", Role.REGULATOR, regulator.public)
    for i in range(14):
        request = ClientRequest.build(
            URI, "user", b"record-%03d" % i,
            clues=("RCLUE",) if i % 3 == 0 else (),
            nonce=bytes([i]), client_timestamp=clock.now(),
        ).signed_by(user)
        ledger.append(request)
        clock.advance(0.2)
        if i % 5 == 4:
            ledger.anchor_time()
    clock.advance(2.0)
    ledger.collect_time_evidence()
    if with_occult:
        record = ledger.prepare_occult(4, OccultMode.SYNC, reason="test")
        approvals = MultiSignature(digest=record.approval_digest())
        approvals.add("dba", dba.sign(record.approval_digest()))
        approvals.add("reg", regulator.sign(record.approval_digest()))
        ledger.execute_occult(record, approvals)
    return ledger, registry, lsp, user


@pytest.fixture()
def world():
    clock = SimClock()
    tsa = TimeStampAuthority("rec-tsa", clock)
    tledger = TimeLedger(clock, tsa, finalize_interval=1.0, admission_tolerance=2.0)
    return clock, tsa, tledger


class TestRecovery:
    def test_recovered_state_matches_original(self, world):
        clock, _tsa, tledger = world
        stream = MemoryStream()
        original, registry, lsp, _user = build_original(stream, clock, tledger)
        recovered = Ledger.recover(
            original.config, stream, registry, lsp, clock=clock
        )
        assert recovered.size == original.size
        assert recovered.current_root() == original.current_root()
        assert recovered.state_root() == original.state_root()
        assert recovered.time_journals == original.time_journals
        assert recovered.list_tx("RCLUE") == original.list_tx("RCLUE")
        assert recovered.is_occulted(4)

    def test_recovered_journals_verify(self, world):
        clock, _tsa, tledger = world
        stream = MemoryStream()
        original, registry, lsp, _user = build_original(stream, clock, tledger)
        recovered = Ledger.recover(original.config, stream, registry, lsp, clock=clock)
        for jsn in range(recovered.size):
            if recovered.is_occulted(jsn):
                with pytest.raises(JournalOccultedError):
                    recovered.get_journal(jsn)
                continue
            journal = recovered.get_journal(jsn)
            assert recovered.verify_journal(journal), jsn

    def test_recovered_ledger_audits(self, world):
        clock, tsa, tledger = world
        stream = MemoryStream()
        original, registry, lsp, _user = build_original(stream, clock, tledger)
        recovered = Ledger.recover(original.config, stream, registry, lsp, clock=clock)
        recovered.attach_time_ledger(tledger)
        assert recovered.refresh_time_evidence() == len(recovered.time_journals)
        # Occult approvals were off-stream: re-attach from operational records
        # (a real deployment persists them; here the original still has them).
        recovered._occult_records = original._occult_records
        report = dasein_audit(
            recovered.export_view(), tsa_keys={"rec-tsa": tsa.public_key}
        )
        assert report.passed, report.failures()

    def test_recovered_ledger_accepts_new_appends(self, world):
        clock, _tsa, tledger = world
        stream = MemoryStream()
        original, registry, lsp, user = build_original(stream, clock, tledger)
        recovered = Ledger.recover(original.config, stream, registry, lsp, clock=clock)
        request = ClientRequest.build(
            URI, "user", b"post-recovery", nonce=b"pr", client_timestamp=clock.now()
        ).signed_by(user)
        receipt = recovered.append(request)
        journal = recovered.get_journal(receipt.jsn)
        assert recovered.verify_journal(journal)

    def test_recovery_from_file_stream(self, world, tmp_path):
        """Full durability loop: build over a file, reopen, recover."""
        clock, _tsa, tledger = world
        path = tmp_path / "journal.stream"
        stream = FileStream(path)
        original, registry, lsp, _user = build_original(stream, clock, tledger)
        expected_root = original.current_root()
        stream.close()
        with FileStream(path) as reopened:
            # PKI state lives outside the stream: rebuild the member set.
            registry2 = MemberRegistry()
            for member in ("user", "dba", "reg"):
                cert = registry.certificate(member)
                registry2.register(member, cert.role, cert.public_key)
            recovered = Ledger.recover(original.config, reopened, registry2, lsp, clock=clock)
            assert recovered.current_root() == expected_root

    def test_fresh_receipt_issued(self, world):
        clock, _tsa, tledger = world
        stream = MemoryStream()
        original, registry, lsp, _user = build_original(stream, clock, tledger)
        recovered = Ledger.recover(original.config, stream, registry, lsp, clock=clock)
        receipt = recovered.latest_receipt
        assert receipt is not None
        assert receipt.ledger_root == recovered.current_root()
        assert receipt.verify(lsp.public)

    def test_empty_stream_rejected(self, world):
        clock, _tsa, _tledger = world
        with pytest.raises(LedgerError, match="empty"):
            Ledger.recover(
                LedgerConfig(uri=URI), MemoryStream(), MemberRegistry(),
                KeyPair.generate(seed="x"), clock=clock,
            )

    def test_empty_stream_raises_recovery_error(self, world):
        clock, _tsa, _tledger = world
        with pytest.raises(RecoveryError):
            Ledger.recover(
                LedgerConfig(uri=URI), MemoryStream(), MemberRegistry(),
                KeyPair.generate(seed="x"), clock=clock,
            )

    def test_purged_stream_rejected(self, world):
        clock, _tsa, tledger = world
        stream = MemoryStream()
        original, registry, lsp, user = build_original(stream, clock, tledger, with_occult=False)
        original.commit_block()
        boundary = original.blocks[0].end_jsn
        pseudo, record = original.prepare_purge(boundary)
        approvals = MultiSignature(digest=record.approval_digest())
        keys = {
            "user": user,
            "dba": KeyPair.generate(seed="recovery-dba"),  # deterministic fixture key
            LSP_MEMBER_ID: lsp,
        }
        for member in original.purge_required_signers(boundary):
            approvals.add(member, keys[member].sign(record.approval_digest()))
        original.execute_purge(pseudo, record, approvals)
        with pytest.raises(LedgerError, match="purged"):
            Ledger.recover(original.config, stream, MemberRegistry(), lsp, clock=clock)


class TestFileStreamBatchMutationRecovery:
    """Recovery after ``append_batch`` interleaved with physical erasures
    (occult SYNC/ASYNC, purge) on a durable ``FileStream`` — the group-commit
    write path and the in-place erase path exercising one on-disk file."""

    URI = "ledger://batch-recovery"

    def _build(self, path, clock, with_occults=True):
        registry = MemberRegistry()
        lsp = KeyPair.generate(seed="batchrec-lsp")
        keys = {
            "user": KeyPair.generate(seed="batchrec-user"),
            "dba": KeyPair.generate(seed="batchrec-dba"),
            "reg": KeyPair.generate(seed="batchrec-reg"),
        }
        config = LedgerConfig(uri=self.URI, fractal_height=4, block_size=4)
        stream = FileStream(path, durable=True)
        ledger = Ledger(
            config, clock=clock, registry=registry,
            lsp_keypair=lsp, journal_stream=stream,
        )
        ledger.registry.register("user", Role.USER, keys["user"].public)
        ledger.registry.register("dba", Role.DBA, keys["dba"].public)
        ledger.registry.register("reg", Role.REGULATOR, keys["reg"].public)

        def batch(start, count):
            return [
                ClientRequest.build(
                    self.URI, "user", b"batch-%03d" % i,
                    clues=("BCLUE",) if i % 2 == 0 else (),
                    nonce=i.to_bytes(4, "big"), client_timestamp=clock.now(),
                ).signed_by(keys["user"])
                for i in range(start, start + count)
            ]

        ledger.append_batch(batch(0, 7))
        if with_occults:
            # One synchronous erase and one deferred to reorganize(): both
            # rewrite record headers in place between the two batch writes.
            for target, mode in ((2, OccultMode.SYNC), (5, OccultMode.ASYNC)):
                record = ledger.prepare_occult(target, mode, reason="erasure-mix")
                approvals = MultiSignature(digest=record.approval_digest())
                approvals.add("dba", keys["dba"].sign(record.approval_digest()))
                approvals.add("reg", keys["reg"].sign(record.approval_digest()))
                ledger.execute_occult(record, approvals)
            assert ledger.pending_erasures == 1
            ledger.reorganize()
        ledger.append_batch(batch(100, 6))
        return ledger, stream, registry, lsp, keys

    @staticmethod
    def _reregister(registry):
        fresh = MemberRegistry()
        for member in ("user", "dba", "reg"):
            cert = registry.certificate(member)
            fresh.register(member, cert.role, cert.public_key)
        return fresh

    def test_batch_and_occult_interleaving_recovers(self, tmp_path):
        clock = SimClock()
        path = tmp_path / "batch.stream"
        ledger, stream, registry, lsp, _keys = self._build(path, clock)
        expected = (
            ledger.size,
            ledger.current_root(),
            ledger.state_root(),
            ledger.list_tx("BCLUE"),
        )
        stream.close()
        with FileStream(path) as reopened:
            assert reopened.open_report.clean
            recovered = Ledger.recover(
                ledger.config, reopened, self._reregister(registry), lsp, clock=clock
            )
            assert (
                recovered.size,
                recovered.current_root(),
                recovered.state_root(),
                recovered.list_tx("BCLUE"),
            ) == expected
            for jsn in (2, 5):  # the two occult targets
                assert recovered.is_occulted(jsn)
                with pytest.raises(JournalOccultedError):
                    recovered.get_journal(jsn)
            for jsn in range(recovered.size):
                if recovered.is_occulted(jsn):
                    continue
                assert recovered.verify_journal(recovered.get_journal(jsn)), jsn

    def test_recovered_batch_ledger_accepts_new_batches(self, tmp_path):
        clock = SimClock()
        path = tmp_path / "batch.stream"
        ledger, stream, registry, lsp, keys = self._build(path, clock)
        stream.close()
        with FileStream(path) as reopened:
            recovered = Ledger.recover(
                ledger.config, reopened, self._reregister(registry), lsp, clock=clock
            )
            follow_up = [
                ClientRequest.build(
                    self.URI, "user", b"post-recovery-%d" % i,
                    nonce=(1000 + i).to_bytes(4, "big"),
                    client_timestamp=clock.now(),
                ).signed_by(keys["user"])
                for i in range(3)
            ]
            receipts = recovered.append_batch(follow_up)
            for receipt in receipts:
                journal = recovered.get_journal(receipt.jsn)
                assert recovered.verify_journal(journal)

    def test_purged_file_stream_raises_recovery_error(self, tmp_path):
        clock = SimClock()
        path = tmp_path / "purged.stream"
        ledger, stream, registry, lsp, keys = self._build(
            path, clock, with_occults=False
        )
        pseudo, record = ledger.prepare_purge(4)
        approvals = MultiSignature(digest=record.approval_digest())
        signer_keys = {"user": keys["user"], "dba": keys["dba"], LSP_MEMBER_ID: lsp}
        for member in ledger.purge_required_signers(4):
            approvals.add(member, signer_keys[member].sign(record.approval_digest()))
        ledger.execute_purge(pseudo, record, approvals)
        stream.close()
        with FileStream(path) as reopened:
            with pytest.raises(RecoveryError, match="purged"):
                Ledger.recover(
                    ledger.config, reopened, self._reregister(registry), lsp,
                    clock=clock,
                )


class TestReopenIsTheLiveLedger:
    """Both reopen routes build the live ledger's state through the one
    apply step: an ASYNC occult stays occulted and queued, and a registry
    certifying another LSP key is refused as a create refuses it."""

    @staticmethod
    def _async_occult(ledger, keys, jsn):
        record = ledger.prepare_occult(jsn, OccultMode.ASYNC, reason="async")
        approvals = MultiSignature(digest=record.approval_digest())
        approvals.add("dba", keys["dba"].sign(record.approval_digest()))
        approvals.add("regulator", keys["regulator"].sign(record.approval_digest()))
        ledger.execute_occult(record, approvals)

    @staticmethod
    def _assert_async_occulted(ledger, jsn=3):
        assert ledger.is_occulted(jsn)
        with pytest.raises(JournalOccultedError):
            ledger.get_journal(jsn)
        assert ledger.pending_erasures == 1

    def test_async_occult_survives_recover(self):
        deployment = Deployment()
        deployment.populate(count=8)
        live = deployment.ledger
        self._async_occult(live, deployment.keys, 3)
        self._assert_async_occulted(live)
        recovered = Ledger.recover(
            live.config, live._stream, live.registry, deployment.lsp_key(),
            clock=deployment.clock,
        )
        self._assert_async_occulted(recovered)
        assert recovered.current_root() == live.current_root()
        assert recovered.reorganize() == 1
        assert recovered.pending_erasures == 0 and recovered.is_occulted(3)

    def test_async_occult_after_the_checkpoint_survives_open(self, tmp_path):
        deployment = Deployment()
        config = LedgerConfig(uri=LEDGER_URI, fractal_height=3, block_size=4, data_dir=str(tmp_path))
        live = Ledger(
            config, clock=deployment.clock, registry=deployment.ledger.registry,
            lsp_keypair=deployment.lsp_key(),
        )
        deployment.ledger = live
        deployment.populate(count=8, anchor_every=0)
        live.checkpoint()
        self._async_occult(live, deployment.keys, 3)
        self._assert_async_occulted(live)
        expected = live.current_root()
        live.close(checkpoint=False)
        reopened = Ledger.open(
            str(tmp_path), live.registry, live._lsp_keypair, clock=SimClock(),
        )
        self._assert_async_occulted(reopened)
        assert reopened.current_root() == expected
        reopened.close(checkpoint=False)

    @staticmethod
    def _foreign_lsp_registry(registry):
        foreign = MemberRegistry()
        foreign.register(LSP_MEMBER_ID, Role.LSP, KeyPair.generate(seed="another-lsp").public)
        for member in ("user", "dba", "reg"):
            cert = registry.certificate(member)
            foreign.register(member, cert.role, cert.public_key)
        return foreign

    def test_recover_refuses_a_registry_certifying_another_lsp_key(self, world):
        clock, _tsa, tledger = world
        stream = MemoryStream()
        original, registry, lsp, _user = build_original(stream, clock, tledger)
        foreign = self._foreign_lsp_registry(registry)
        with pytest.raises(UsageError, match="different LSP key"):
            Ledger(LedgerConfig(uri="ledger://other"), registry=foreign, lsp_keypair=lsp)
        with pytest.raises(UsageError, match="different LSP key"):
            Ledger.recover(original.config, stream, foreign, lsp, clock=clock)

    def test_open_refuses_a_registry_certifying_another_lsp_key(self, world, tmp_path):
        clock, _tsa, tledger = world
        config = LedgerConfig(uri=URI, fractal_height=3, block_size=4, data_dir=str(tmp_path))
        registry, lsp = MemberRegistry(), KeyPair.generate(seed="recovery-lsp")
        ledger = Ledger(config, clock=clock, registry=registry, lsp_keypair=lsp)
        for member, role in (("user", Role.USER), ("dba", Role.DBA), ("reg", Role.REGULATOR)):
            registry.register(member, role, KeyPair.generate(seed=f"recovery-{member}").public)
        ledger.close()
        foreign = self._foreign_lsp_registry(registry)
        for force_rebuild in (False, True):
            with pytest.raises(UsageError, match="different LSP key"):
                Ledger.open(str(tmp_path), foreign, lsp, clock=clock, force_rebuild=force_rebuild)
