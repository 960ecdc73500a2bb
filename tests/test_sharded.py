"""Sharded deployments (DESIGN.md §15): routing, proofs, service, isolation.

The property suite pins the §15 equivalence contract:

* every cross-shard proof folds to the deployment's single composite root;
* tampering any one shard is detectable from that root alone;
* a 1-shard deployment is byte-identical to a plain :class:`Ledger` fed the
  same requests under the same clock and LSP keypair.

Plus the PR's regression satellites: per-instance service metrics with two
live writer loops, and module-level-state isolation between two in-process
ledgers.
"""

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.api as api
from repro import obs
from repro.core.errors import UsageError
from repro.core.journal import ClientRequest
from repro.core.ledger import Ledger, LedgerConfig
from repro.core.members import MemberRegistry
from repro.crypto.ca import Role
from repro.crypto.keys import KeyPair
from repro.export.bundle import export_bundle
from repro.merkle.fam import FamProof
from repro.service import LedgerService, ServiceConfig
from repro.transparency import Witness
from repro.transparency.sth import SOLO_SHARD
from repro.shard import (
    ShardClueProof,
    ShardProof,
    ShardedLedger,
    ShardedLedgerService,
    shard_of_key,
)

URI = "ledger://test/sharded"
USER = KeyPair.generate(seed="sharded:alice")


def build_sharded(shards: int, **config_kwargs) -> ShardedLedger:
    ledger = ShardedLedger(LedgerConfig(uri=URI, shards=shards, **config_kwargs))
    ledger.registry.register("alice", Role.USER, USER.public)
    return ledger


def request(i: int, clue: str | None, *, uri: str = URI) -> ClientRequest:
    clues = (clue,) if clue else ()
    return ClientRequest.build(
        uri, "alice", f"payload-{i}".encode(), clues=clues,
        nonce=i.to_bytes(8, "big"), client_timestamp=1.0 + i,
    ).signed_by(USER)


# ---------------------------------------------------------------- routing


class TestRouting:
    @settings(max_examples=60, deadline=None)
    @given(
        key=st.text(max_size=64),
        shards=st.integers(min_value=1, max_value=16),
    )
    def test_shard_of_key_deterministic_and_in_range(self, key, shards):
        first = shard_of_key(key, shards)
        assert 0 <= first < shards
        assert shard_of_key(key, shards) == first

    @settings(max_examples=60, deadline=None)
    @given(
        shards=st.integers(min_value=1, max_value=9),
        shard_index=st.integers(min_value=0, max_value=8),
        local=st.integers(min_value=0, max_value=10_000),
    )
    def test_gsn_bijection(self, shards, shard_index, local):
        if shard_index >= shards:
            return
        ledger = ShardedLedger(LedgerConfig(uri=URI, shards=shards))
        gsn = ledger.global_jsn(shard_index, local)
        assert ledger.locate(gsn) == (shard_index, local)
        ledger.close()

    def test_routes_by_first_clue_then_client_id(self):
        ledger = build_sharded(4)
        clued = request(0, "clue-A")
        assert ledger.shard_of_request(clued) == ledger.shard_of_key("clue-A")
        bare = request(1, None)
        assert ledger.shard_of_request(bare) == ledger.shard_of_key("alice")
        ledger.close()

    def test_same_clue_always_lands_on_one_shard(self):
        ledger = build_sharded(4)
        for i in range(8):
            ledger.append(request(i, "sticky"))
        populated = [shard for shard in ledger.shards if shard.size > 1]
        assert len(populated) == 1  # genesis journal aside, one shard owns it
        ledger.close()


# ------------------------------------------------------- proof equivalence


class TestCompositeProofs:
    @settings(max_examples=15, deadline=None)
    @given(
        shards=st.integers(min_value=2, max_value=5),
        clue_ids=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=24),
    )
    def test_every_proof_folds_to_composite_root(self, shards, clue_ids):
        ledger = build_sharded(shards)
        for i, clue_id in enumerate(clue_ids):
            ledger.append(request(i, f"clue-{clue_id}"))
        composite = ledger.composite_root()
        roots = ledger.shard_roots()
        for shard_index in range(shards):
            link = ledger.shard_link(shard_index, roots)
            assert link.verify(roots[shard_index], composite)
        for clue_id in set(clue_ids):
            for gsn in ledger.list_tx(f"clue-{clue_id}"):
                journal = ledger.get_journal(gsn)
                proof = ledger.get_proof(gsn)
                assert isinstance(proof, ShardProof)
                assert proof.verify(journal.tx_hash(), composite)
                assert ledger.verify_journal(journal, proof)
        ledger.close()

    @settings(max_examples=15, deadline=None)
    @given(
        shards=st.integers(min_value=2, max_value=5),
        count=st.integers(min_value=1, max_value=20),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_tampered_journal_detected_from_composite_root_alone(
        self, shards, count, flip
    ):
        ledger = build_sharded(shards)
        for i in range(count):
            ledger.append(request(i, f"clue-{i}"))
        composite = ledger.composite_root()
        gsn = ledger.list_tx("clue-0")[0]
        journal = ledger.get_journal(gsn)
        proof = ledger.get_proof(gsn)
        assert proof.verify(journal.tx_hash(), composite)
        payload = bytearray(journal.payload)
        payload[0] ^= flip
        tampered = dataclasses.replace(journal, payload=bytes(payload))
        assert not proof.verify(tampered.tx_hash(), composite)
        ledger.close()

    def test_tampering_any_single_shard_changes_composite_root(self):
        ledger = build_sharded(4)
        for i in range(16):
            ledger.append(request(i, f"clue-{i}"))
        composite = ledger.composite_root()
        roots = ledger.shard_roots()
        for shard_index in range(4):
            # A rewritten shard presents a different live root; its old link
            # no longer folds into the trusted composite root.
            link = ledger.shard_link(shard_index, roots)
            forged_root = bytes(32)
            assert not link.verify(forged_root, composite)
        ledger.close()

    def test_proof_cross_shard_substitution_fails(self):
        ledger = build_sharded(3)
        for i in range(12):
            ledger.append(request(i, f"clue-{i}"))
        composite = ledger.composite_root()
        gsns = sorted(
            gsn for i in range(12) for gsn in ledger.list_tx(f"clue-{i}")
        )
        proofs = {gsn: ledger.get_proof(gsn) for gsn in gsns}
        a, b = next(
            (x, y)
            for x in gsns
            for y in gsns
            if proofs[x].shard_index != proofs[y].shard_index
        )
        # Re-binding a proof to another shard's index must fail the link.
        forged = dataclasses.replace(proofs[a], shard_index=proofs[b].shard_index)
        assert not forged.verify(ledger.get_journal(a).tx_hash(), composite)
        ledger.close()

    def test_clue_proof_folds_to_composite_state_root(self):
        ledger = build_sharded(3)
        for i in range(12):
            ledger.append(request(i, f"clue-{i % 4}"))
        proof = ledger.prove_clue("clue-1")
        assert isinstance(proof, ShardClueProof)
        journals = [ledger.get_journal(gsn) for gsn in ledger.list_tx("clue-1")]
        digests = {i: j.tx_hash() for i, j in enumerate(journals)}
        assert proof.verify(digests, ledger.state_root())
        digests[0] = bytes(32)
        assert not proof.verify(digests, ledger.state_root())
        ledger.close()


class TestReadsBesideWriters:
    def test_proofs_fold_to_the_heads_they_were_cut_at(self):
        """A writer keeps committing on both shards of a 2-shard deployment.
        Every clue proof verifies its own shard leg against the state root
        its link commits, and every bulk proof folds, leg and link, to one
        composite root per call — no retry, no LedgerError."""
        ledger = build_sharded(2, fractal_height=3, block_size=4)
        ledger.append_batch([request(i, "FIXED") for i in range(5)])
        fixed = ledger.list_tx("FIXED")
        digests = {i: ledger.get_journal(gsn).tx_hash() for i, gsn in enumerate(fixed)}
        gsns = [0, 1, *fixed]  # both genesis journals, and the FIXED lineage
        leaves = [ledger.retained_hash(gsn) for gsn in gsns]
        sizes = [shard.size for shard in ledger.shards]
        stop = threading.Event()
        errors: list[BaseException] = []

        def write() -> None:
            index = 100
            try:
                while not stop.is_set():
                    ledger.append_batch([request(index + k, f"MOVING-{k}") for k in range(4)])
                    index += 4
            except BaseException as exc:
                errors.append(exc)

        torn_clue = torn_proofs = 0
        writer = threading.Thread(target=write)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # make a switch inside any two reads likely
        writer.start()
        try:
            for _round in range(400):
                clue_proof = ledger.prove_clue("FIXED")
                composite = clue_proof.link.computed_root(clue_proof.shard_state_root)
                torn_clue += not clue_proof.verify(digests, composite)
                proofs = ledger.get_proofs(gsns)
                composites = {
                    proof.link.computed_root(proof.shard_root(leaf))
                    for proof, leaf in zip(proofs, leaves)
                }
                torn_proofs += len(composites) != 1
        finally:
            stop.set()
            writer.join(30)
            sys.setswitchinterval(interval)
        assert not writer.is_alive() and not errors, errors
        assert all(shard.size > size for shard, size in zip(ledger.shards, sizes))
        assert torn_clue == 0 and torn_proofs == 0
        ledger.close()


class TestShardProofWire:
    def test_round_trip_preserves_verification(self):
        ledger = build_sharded(4)
        for i in range(10):
            ledger.append(request(i, f"clue-{i}"))
        composite = ledger.composite_root()
        gsn = ledger.list_tx("clue-3")[0]
        journal = ledger.get_journal(gsn)
        proof = ledger.get_proof(gsn)
        decoded = ShardProof.from_bytes(proof.to_bytes())
        assert decoded.shard_index == proof.shard_index
        assert decoded.num_shards == proof.num_shards
        assert decoded.jsn == proof.jsn
        assert decoded.verify(journal.tx_hash(), composite)
        ledger.close()

    def test_truncated_bytes_rejected(self):
        ledger = build_sharded(2)
        ledger.append(request(0, "clue"))
        blob = ledger.get_proof(ledger.list_tx("clue")[0]).to_bytes()
        with pytest.raises(Exception):
            ShardProof.from_bytes(blob[: len(blob) // 2])
        ledger.close()


# --------------------------------------------------- shards=1 equivalence


class TestSingleShardEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        clue_ids=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=12),
    )
    def test_shards1_byte_identical_to_unsharded(self, clue_ids):
        lsp = KeyPair.generate(seed="sharded:lsp")

        def registry() -> MemberRegistry:
            reg = MemberRegistry()
            reg.register("alice", Role.USER, USER.public)
            return reg

        plain = Ledger(
            LedgerConfig(uri=URI), registry=registry(), lsp_keypair=lsp
        )
        sharded = ShardedLedger(
            LedgerConfig(uri=URI, shards=1), registry=registry(), lsp_keypair=lsp
        )
        for i, clue_id in enumerate(clue_ids):
            plain_receipt = plain.append(request(i, f"clue-{clue_id}"))
            shard_receipt = sharded.append(request(i, f"clue-{clue_id}"))
            assert plain_receipt.to_bytes() == shard_receipt.to_bytes()
        # On the wire and on paper, a one-shard facade is the solo ledger:
        # its heads, acks and bundles carry the solo stamp and no composite.
        assert sharded.get_sth().to_bytes() == plain.get_sth().to_bytes()
        probe = request(len(clue_ids), "clue-ack")
        assert sharded.issue_ack(probe).to_bytes() == plain.issue_ack(probe).to_bytes()
        assert export_bundle(sharded).to_bytes() == export_bundle(plain).to_bytes()
        # A 1-leaf shard map bags to its only leaf: composite == shard root.
        assert sharded.composite_root() == plain.current_root()
        assert sharded.shard_roots() == [plain.current_root()]
        assert sharded.state_root() == plain.state_root()
        for clue_id in set(clue_ids):
            gsns = sharded.list_tx(f"clue-{clue_id}")
            assert gsns == plain.list_tx(f"clue-{clue_id}")  # gsn == jsn at N=1
            for gsn in gsns:
                assert (
                    sharded.get_journal(gsn).to_bytes()
                    == plain.get_journal(gsn).to_bytes()
                )
                shard_proof = sharded.get_proof(gsn)
                assert (
                    shard_proof.fam.to_bytes()
                    == plain.get_proof(gsn, anchored=False).to_bytes()
                )
        plain.close()
        sharded.close()

    def test_witness_sees_one_solo_stream(self):
        """Every head a one-shard deployment signs (live, per-shard, stored
        epoch heads) is on the one solo stream: a witness fed all of them
        stays clean, and still convicts a forged head on that stream."""
        ledger = build_sharded(1, fractal_height=3)
        session = api.LedgerSession(ledger, client_id="alice", keypair=USER)
        witness = Witness(ledger.lsp_public_key)
        heads = []
        for i in range(20):
            ledger.append(request(i, f"clue-{i % 3}"))
            if i % 5 == 4:
                assert witness.audit(session).clean
                heads += [ledger.get_sth(), ledger.get_sth_shard(0)]
        heads += ledger.get_sth_range(0, 100)
        assert len(heads) >= 10 and {head.shard_index for head in heads} == {SOLO_SHARD}
        assert all(witness.ingest(head) is None for head in heads)
        assert witness.audit(session).clean and not witness.evidence
        forged = dataclasses.replace(heads[-1], root=b"\x13" * 32).signed_by(
            KeyPair.generate(seed=f"lsp:{URI}")
        )
        evidence = witness.ingest(forged)
        assert evidence is not None and evidence.kind == "fork-heads"
        ledger.close()


# ------------------------------------------------------- service + metrics


class TestShardedService:
    def test_submit_many_commits_across_shards_in_order(self):
        ledger = build_sharded(4)
        service = ShardedLedgerService(ledger, ServiceConfig(max_batch=8))
        requests = [request(i, f"clue-{i}") for i in range(24)]
        futures = service.submit_many(requests)
        receipts = [future.result(timeout=30.0) for future in futures]
        assert len(receipts) == 24
        composite = ledger.composite_root()
        for i in range(24):
            gsns = ledger.list_tx(f"clue-{i}")
            assert len(gsns) == 1
            journal = ledger.get_journal(gsns[0])
            assert ledger.get_proof(gsns[0]).verify(journal.tx_hash(), composite)
        stats = service.stats()
        assert stats["committed"] == 24
        assert len(stats["shards"]) == 4
        # Group commit is scheduling, not semantics: a twin fed the same
        # requests one append at a time lands on the same composite root.
        twin = build_sharded(4)
        for one in requests:
            twin.append(one)
        assert twin.composite_root() == composite
        assert twin.state_root() == ledger.state_root()
        service.close()
        assert service.closed
        ledger.close()
        twin.close()

    def test_two_live_services_keep_separate_metric_families(self):
        """Regression: queue/batch metrics were process-global across N
        LedgerService instances — shard-1's writer clobbered shard-0's
        gauge and their histograms merged."""
        with obs.scoped() as registry:
            ledger = build_sharded(2)
            service = ShardedLedgerService(ledger)
            futures = [service.submit(request(i, f"clue-{i}")) for i in range(12)]
            for future in futures:
                future.result(timeout=30.0)
            service.close()
            ledger.close()
            snapshot = registry.snapshot()
        committed = {
            name: value
            for name, value in snapshot["counters"].items()
            if ".journals" in name and name.startswith("service.commit")
        }
        assert "service.commit{name=shard-0}.journals" in committed
        assert "service.commit{name=shard-1}.journals" in committed
        # Per-instance families carry only their own shard's journals.
        assert sum(committed.values()) == 12
        assert all(value < 12 for value in committed.values())
        gauges = [
            name
            for name in snapshot["gauges"]
            if name.startswith("service.queue.depth")
        ]
        assert sorted(gauges) == [
            "service.queue.depth{name=shard-0}",
            "service.queue.depth{name=shard-1}",
        ]

    def test_unnamed_service_keeps_bare_metric_names(self):
        with obs.scoped() as registry:
            ledger = Ledger(LedgerConfig(uri=URI))
            ledger.registry.register("alice", Role.USER, USER.public)
            service = LedgerService(ledger)
            service.append(request(0, "clue"), timeout=30.0)
            service.close()
            snapshot = registry.snapshot()
        assert "service.queue.depth" in snapshot["gauges"]
        assert "service.commit.journals" in snapshot["counters"]


# ------------------------------------------- in-process isolation (PR 8)


class TestInProcessIsolation:
    def test_two_ledgers_do_not_share_state(self):
        a = Ledger(LedgerConfig(uri="ledger://iso-a"))
        b = Ledger(LedgerConfig(uri="ledger://iso-b"))
        a.registry.register("alice", Role.USER, USER.public)
        b.registry.register("alice", Role.USER, USER.public)
        a.append(request(0, "iso", uri="ledger://iso-a"))
        assert a.size == 2 and b.size == 1  # genesis + append vs genesis only
        assert a.current_root() != b.current_root()
        # Registries are instance state: dropping a member from one ledger
        # must not affect the other (they only share the process).
        assert a.registry is not b.registry
        a.close()
        b.close()

    def test_shared_registry_requires_shared_lsp_keypair(self):
        registry = MemberRegistry()
        keypair = KeyPair.generate(seed="iso:lsp")
        Ledger(LedgerConfig(uri="ledger://iso-a"), registry=registry, lsp_keypair=keypair)
        # Same registry + same LSP keypair: fine (the sharded layout).
        Ledger(LedgerConfig(uri="ledger://iso-b"), registry=registry, lsp_keypair=keypair)
        # Same registry + a different LSP keypair: the registry would
        # certify two keys under one member id — refused.
        with pytest.raises(UsageError):
            Ledger(LedgerConfig(uri="ledger://iso-c"), registry=registry)

    def test_ledger_kernel_rejects_sharded_config(self):
        with pytest.raises(UsageError):
            Ledger(LedgerConfig(uri=URI, shards=4))


# ----------------------------------------------------------- api surface


class TestApiSurface:
    def test_create_routes_sharded_config(self):
        with api.scoped_ledger(
            "ledger://api-sharded-t",
            config=LedgerConfig(uri="ledger://api-sharded-t", shards=3),
        ) as session:
            assert isinstance(session.ledger, ShardedLedger)
            assert session.ledger.num_shards == 3

    def test_session_service_true_builds_sharded_service(self):
        with api.scoped_ledger(
            "ledger://api-sharded-svc",
            config=LedgerConfig(uri="ledger://api-sharded-svc", shards=2),
            service=True,
            client_id="alice",
            keypair=USER,
        ) as session:
            assert isinstance(session.service, ShardedLedgerService)
            session.ledger.registry.register("alice", Role.USER, USER.public)
            receipt = session.append(b"payload", clue="api-clue")
            assert receipt is not None
            report = session.audit()
            assert report.passed and len(report.reports) == 2

    def test_sharded_audit_report_stamps_each_finding_with_its_shard(self):
        from repro.artifacts import Finding
        from repro.audit import AuditReport, AuditStep
        from repro.shard import ShardedAuditReport

        finding = Finding("who", "signature", "jsn 3: invalid issuer signature", jsn=3)
        failed = AuditReport(passed=False, steps=[AuditStep("replay", False, str(finding), finding)])
        report = ShardedAuditReport(passed=False, reports=[AuditReport(passed=True), failed])
        assert [(f.shard, f.jsn, str(f)) for f in report.findings] == [
            (1, 3, "shard 1: jsn 3: invalid issuer signature")
        ]
        assert failed.findings == [finding]  # the shard's own report is not stamped

    def test_connect_malformed_remote_uri_names_the_uri(self):
        """Regression: ``ledger://host`` (no port) fell through to a
        misleading "unknown ledger" instead of naming the malformed URI."""
        with pytest.raises(UsageError, match="malformed ledger uri"):
            api.connect("ledger://somehost")
        with pytest.raises(UsageError, match="somehost"):
            api.connect("ledger://somehost")
        # Non-address ids keep the old unknown-ledger diagnosis.
        with pytest.raises(UsageError, match="unknown ledger"):
            api.connect("no-scheme-at-all")


# ------------------------------------------------------------ persistence


class TestPersistence:
    def test_reopen_preserves_composite_root(self, tmp_path):
        lsp = KeyPair.generate(seed="sharded:lsp")
        registry = MemberRegistry()
        registry.register("alice", Role.USER, USER.public)
        config = LedgerConfig(
            uri=URI, shards=3, data_dir=str(tmp_path / "deployment"),
            node_store="paged",
        )
        ledger = ShardedLedger(config, registry=registry, lsp_keypair=lsp)
        for i in range(9):
            ledger.append(request(i, f"clue-{i}"))
        composite = ledger.composite_root()
        state = ledger.state_root()
        ledger.close()

        reopened = ShardedLedger.open(
            str(tmp_path / "deployment"), registry, lsp
        )
        assert reopened.composite_root() == composite
        assert reopened.state_root() == state
        for i in range(9):
            gsns = reopened.list_tx(f"clue-{i}")
            journal = reopened.get_journal(gsns[0])
            assert reopened.get_proof(gsns[0]).verify(journal.tx_hash(), composite)
        reopened.close()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_every_shard_count_reopens_and_only_as_sharded(self, tmp_path, shards):
        """Regression: a persisted 1-shard deployment could not be reopened
        at all — ``ShardedLedger.open`` refused it by its ``shards=1``
        config, and ``Ledger.open`` failed on the empty stream it created."""
        lsp = KeyPair.generate(seed="sharded:lsp")
        registry = MemberRegistry()
        registry.register("alice", Role.USER, USER.public)
        data_dir = tmp_path / "deployment"
        ledger = ShardedLedger(
            LedgerConfig(uri=URI, shards=shards, data_dir=str(data_dir)),
            registry=registry, lsp_keypair=lsp,
        )
        for i in range(6):
            ledger.append(request(i, f"clue-{i}"))
        composite = ledger.composite_root()
        ledger.close()

        layout = sorted(data_dir.rglob("*"))
        with pytest.raises(UsageError, match="ShardedLedger.open"):
            Ledger.open(str(data_dir), registry, lsp)
        assert sorted(data_dir.rglob("*")) == layout  # the refusal wrote nothing

        reopened = ShardedLedger.open(str(data_dir), registry, lsp)
        assert reopened.num_shards == shards
        assert reopened.composite_root() == composite
        reopened.close()

    def test_sharded_open_refuses_a_plain_ledger(self, tmp_path):
        lsp = KeyPair.generate(seed="sharded:lsp")
        registry = MemberRegistry()
        Ledger(
            LedgerConfig(uri=URI, data_dir=str(tmp_path)),
            registry=registry, lsp_keypair=lsp,
        ).close()
        with pytest.raises(UsageError, match="single ledger"):
            ShardedLedger.open(str(tmp_path), registry, lsp)
        Ledger.open(str(tmp_path), registry, lsp).close()

    def test_a_one_shard_log_stamped_0_reopens_as_one_solo_stream(self, tmp_path):
        """A one-shard deployment persisted before the solo stamp rule holds
        epoch heads stamped ``0``.  Reopening re-signs its log under
        SOLO_SHARD, and the old heads its clients hold stay answerable."""
        from repro.core.ledger import STH_FILE
        from repro.export.rebuild import rebuild_from_bundle
        from repro.export.verifier import verify_bundle
        from repro.transparency.sth import SthStore

        lsp = KeyPair.generate(seed="sharded:lsp")
        registry = MemberRegistry()
        registry.register("alice", Role.USER, USER.public)
        data_dir = tmp_path / "deployment"
        ledger = ShardedLedger(
            LedgerConfig(uri=URI, shards=1, fractal_height=2, data_dir=str(data_dir)),
            registry=registry, lsp_keypair=lsp,
        )
        for i in range(12):
            ledger.append(request(i, f"clue-{i % 3}"))
        ledger.close()
        log = data_dir / "shard-00" / STH_FILE
        SthStore(log).restamp(0, lsp)  # what the older build wrote
        legacy = SthStore(log).heads()
        assert len(legacy) >= 3 and {head.shard_index for head in legacy} == {0}

        reopened = ShardedLedger.open(str(data_dir), registry, lsp)
        try:
            stored = reopened.get_sth_range(0, 1 << 20)
            assert {head.shard_index for head in stored} == {SOLO_SHARD}
            assert [head.coords for head in stored] == [head.coords for head in legacy]
            assert [head.root for head in stored] == [head.root for head in legacy]
            assert all(head.verify(lsp.public) for head in stored)
            assert SthStore(log).heads() == stored  # migrated on disk, once
            cbundle, _assertion = reopened.get_consistency(legacy[0], legacy[-1])
            assert cbundle.verify(legacy[0], legacy[-1])

            bundle = export_bundle(reopened)
            assert verify_bundle(bundle, lsp_public_key=lsp.public).ok
            _rebuilt, report = rebuild_from_bundle(
                bundle, lsp_keypair=lsp, live=reopened, pinned_heads=legacy
            )
            assert report.ok, report.divergences

            witness = Witness(lsp.public)
            for head in [*legacy, *stored, reopened.get_sth()]:
                assert witness.ingest(head) is None
            assert not witness.alarms and not witness.evidence
        finally:
            reopened.close()
