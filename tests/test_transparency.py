"""The non-equivocation layer: signed tree heads, witness gossip, acks.

Covers the transparency primitives offline (serialization, signatures,
conflict detection), the ledger-side surface (epoch-close emission, STH
persistence across reopen, consistency edge cases including spans that
cross a snapshot reopen), the sharded composite head, and the unified
:class:`~repro.session.Session` — identical signatures on
both transports, typed per-transport kwarg rejection, structured
VerifyResult on remote verify paths.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
from dataclasses import replace

import pytest

import repro.api as api
from repro import ClientRequest, KeyPair, Ledger, LedgerConfig, Role, SimClock
from repro.core.errors import UsageError
from repro.core.ledger import DEFAULT_ACK_DEADLINE_EPOCHS
from repro.artifacts import VerifyResult
from repro.net import ServerThread
from repro.net.client import RemoteLedgerSession
from repro.session import Session
from repro.shard.sharded import ShardedLedger
from repro.transparency import (
    CensorshipEvidence,
    ConsistencyBundle,
    EquivocationEvidence,
    SignedTreeHead,
    SthStore,
    SubmissionAck,
    Witness,
    refute_censorship,
    verify_equivocation,
)

H = 2  # epoch capacity 4: epochs roll fast enough to exercise everything
CAP = 2**H

_URIS = itertools.count()


def make_ledger(uri: str | None = None, tmp=None, **config_kwargs):
    uri = uri or f"ledger://transparency-{next(_URIS)}"
    config = LedgerConfig(
        uri=uri,
        fractal_height=H,
        data_dir=str(tmp) if tmp is not None else None,
        **config_kwargs,
    )
    ledger = Ledger(config, clock=SimClock())
    keypair = KeyPair.generate(seed="transparency:alice")
    ledger.registry.register("alice", Role.USER, keypair.public)
    return ledger, keypair


def make_session(ledger, keypair=None):
    return api.LedgerSession(
        ledger,
        lgid=ledger.config.uri,
        client_id="alice" if keypair is not None else None,
        keypair=keypair,
    )


def fill(session, count: int, clue: str = "FILL", tag: str = "x"):
    for index in range(count):
        session.append(f"{tag}:{index}".encode(), clue=clue)


# ---------------------------------------------------------------- primitives


class TestSignedTreeHead:
    def test_round_trip_and_signature(self):
        ledger, keypair = make_ledger()
        with make_session(ledger, keypair) as session:
            fill(session, 3, clue="STH")
            head = session.get_sth()
        assert head.verify(ledger.lsp_public_key)
        decoded = SignedTreeHead.from_bytes(head.to_bytes())
        assert decoded == head
        assert decoded.verify(ledger.lsp_public_key)
        assert not decoded.is_composite

    def test_tampered_head_fails_signature(self):
        ledger, _ = make_ledger()
        head = ledger.get_sth()
        forged = replace(head, tree_size=head.tree_size + 1)
        assert not forged.verify(ledger.lsp_public_key)

    def test_sth_cache_serves_identical_head_until_append(self):
        ledger, _ = make_ledger()
        first = ledger.get_sth()
        assert ledger.get_sth() == first  # cached: same coords, same bytes

    def test_epoch_close_heads_emitted_at_expected_coords(self):
        ledger, keypair = make_ledger()
        with make_session(ledger, keypair) as session:
            fill(session, 3 * CAP)
        heads = ledger.get_sth_range(0, ledger._fam.num_epochs)
        assert heads, "epoch rolls must mint close heads"
        assert [head.epoch for head in heads] == list(
            range(1, ledger._fam.num_epochs)
        )
        for head in heads:
            # Epoch k becomes live at CAP + (k-1)*(CAP-1) journals, with the
            # merged leaf as its only live leaf.
            assert head.tree_size == CAP + (head.epoch - 1) * (CAP - 1)
            assert head.live_size == 1
            assert head.verify(ledger.lsp_public_key)

    def test_get_sth_range_validates(self):
        ledger, _ = make_ledger()
        with pytest.raises(UsageError):
            ledger.get_sth_range(-1, 2)
        with pytest.raises(UsageError):
            ledger.get_sth_range(3, 1)


class TestSthStore:
    def test_persists_across_ledger_reopen(self, tmp_path):
        ledger, keypair = make_ledger(tmp=tmp_path / "led")
        with make_session(ledger, keypair) as session:
            fill(session, 2 * CAP + 1)
        stored = [h.coords for h in ledger.get_sth_range(0, 100)]
        assert stored
        registry, lsp = ledger.registry, ledger._lsp_keypair
        ledger.close()
        reopened = Ledger.open(str(tmp_path / "led"), registry, lsp)
        assert [h.coords for h in reopened.get_sth_range(0, 100)] == stored
        # New epochs after reopen extend the same store, no duplicates.
        with make_session(reopened, keypair) as session:
            fill(session, 2 * CAP)
        grown = reopened.get_sth_range(0, 100)
        assert len(grown) > len(stored)
        assert len({h.epoch for h in grown}) == len(grown)

    def test_file_backed_store_round_trips_and_drops_torn_tail(self, tmp_path):
        ledger, keypair = make_ledger()
        with make_session(ledger, keypair) as session:
            fill(session, 2 * CAP)
        path = tmp_path / "sth.log"
        store = SthStore(path)
        for head in ledger.get_sth_range(0, 100):
            store.append(head)
        assert len(store) >= 1
        reloaded = SthStore(path)
        assert reloaded.heads() == store.heads()
        assert reloaded.latest() == store.latest()
        assert reloaded.for_epoch(1) is not None
        # A crash mid-append loses at most the in-flight record.
        with open(path, "ab") as fh:
            fh.write((1 << 20).to_bytes(4, "big") + b"torn")
        salvaged = SthStore(path)
        assert salvaged.heads() == store.heads()

    def test_a_corrupt_record_keeps_the_good_prefix(self, tmp_path):
        ledger, keypair = make_ledger(tmp=tmp_path / "led")
        with make_session(ledger, keypair) as session:
            fill(session, 3 * CAP)
        heads = ledger.get_sth_range(0, 100)
        assert len(heads) >= 3
        registry, lsp = ledger.registry, ledger._lsp_keypair
        ledger.close()
        path = tmp_path / "led" / "sth.log"
        data = bytearray(path.read_bytes())
        second = 4 + int.from_bytes(data[:4], "big")
        assert data[second + 4 : second + 5] == b"m"  # the second record's dict tag
        data[second + 4] = ord("?")
        path.write_bytes(bytes(data))
        assert SthStore(path).heads() == heads[:1]
        reopened = Ledger.open(str(tmp_path / "led"), registry, lsp)
        assert reopened.get_sth_range(0, 100)[:1] == heads[:1]

    @pytest.mark.parametrize("damage", ["flipped tag", "torn tail"])
    def test_a_head_appended_after_a_damaged_load_survives_the_next(self, tmp_path, damage):
        ledger, keypair = make_ledger()
        with make_session(ledger, keypair) as session:
            fill(session, 4 * CAP)
        first, second, third, fourth = ledger.get_sth_range(0, 100)[:4]
        path = tmp_path / "sth.log"
        store = SthStore(path)
        for head in (first, second, third):
            store.append(head)
        data = bytearray(path.read_bytes())
        if damage == "flipped tag":
            at = 4 + int.from_bytes(data[:4], "big")
            data[at + 4] = ord("?")  # the second record's dict tag
            kept = [first]
        else:
            data += (1 << 20).to_bytes(4, "big") + b"torn"
            kept = [first, second, third]
        path.write_bytes(bytes(data))
        loaded = SthStore(path)
        assert loaded.heads() == kept
        assert path.read_bytes() == data  # a load never writes
        loaded.append(fourth)
        assert SthStore(path).heads() == [*kept, fourth]
        loaded.append(first)
        assert SthStore(path).heads() == [*kept, fourth, first]


# ------------------------------------------------------- consistency proofs


class TestConsistencyEdgeCases:
    def make(self):
        ledger, keypair = make_ledger()
        return ledger, make_session(ledger, keypair)

    def test_size_equal_heads_verify(self):
        ledger, session = self.make()
        fill(session, 3)
        head = session.get_sth()
        bundle, assertion = session.get_consistency(head, head)
        assert bundle.verify(head, head)
        assert assertion.verify(ledger.lsp_public_key)

    def test_same_epoch_growth(self):
        ledger, session = self.make()
        fill(session, 1)
        old = session.get_sth()
        fill(session, 1)
        new = session.get_sth()
        bundle, _ = session.get_consistency(old, new)
        assert bundle.verify(old, new)
        # The bundle is bound to exactly those endpoints.
        fill(session, CAP)
        newer = session.get_sth()
        assert not bundle.verify(old, newer)

    def test_cross_epoch_non_aligned_boundaries(self):
        ledger, session = self.make()
        fill(session, 2)  # mid epoch 0
        old = session.get_sth()
        fill(session, 2 * CAP + 1)  # several rolls later, mid-epoch again
        new = session.get_sth()
        assert old.epoch != new.epoch
        bundle, assertion = session.get_consistency(old, new)
        assert bundle.verify(old, new)
        assert assertion.old_root == old.root and assertion.new_root == new.root

    def test_epoch_close_head_connects_both_ways(self):
        ledger, session = self.make()
        fill(session, 2)
        early = session.get_sth()
        fill(session, 2 * CAP)
        late = session.get_sth()
        for stored in session.get_sth_range(1, 100):
            bundle, _ = session.get_consistency(early, stored)
            assert bundle.verify(early, stored)
            bundle, _ = session.get_consistency(stored, late)
            assert bundle.verify(stored, late)

    def test_reversed_heads_rejected(self):
        ledger, session = self.make()
        fill(session, 1)
        old = session.get_sth()
        fill(session, CAP)
        new = session.get_sth()
        with pytest.raises(UsageError):
            session.get_consistency(new, old)

    def test_empty_old_head_rejected(self):
        ledger, session = self.make()
        fill(session, 1)
        head = session.get_sth()
        hollow = replace(head, live_size=0, tree_size=0)
        with pytest.raises(UsageError):
            session.get_consistency(hollow, head)

    def test_fabricated_coords_rejected_not_crash(self):
        ledger, session = self.make()
        fill(session, 2)
        head = session.get_sth()
        beyond = replace(head, epoch=7, live_size=3, tree_size=999)
        with pytest.raises(UsageError):
            session.get_consistency(head, beyond)

    def test_span_across_snapshot_reopen(self, tmp_path):
        ledger, keypair = make_ledger(tmp=tmp_path / "led")
        with make_session(ledger, keypair) as session:
            fill(session, CAP + 1)
            old = session.get_sth()
        ledger.checkpoint()
        registry, lsp = ledger.registry, ledger._lsp_keypair
        ledger.close()
        reopened = Ledger.open(str(tmp_path / "led"), registry, lsp)
        with make_session(reopened, keypair) as session:
            fill(session, CAP + 2)
            new = session.get_sth()
            bundle, assertion = session.get_consistency(old, new)
        assert bundle.verify(old, new)
        assert assertion.verify(reopened.lsp_public_key)

    def test_bundle_bytes_round_trip(self):
        ledger, session = self.make()
        fill(session, 2)
        old = session.get_sth()
        fill(session, 2 * CAP)
        new = session.get_sth()
        bundle, _ = session.get_consistency(old, new)
        assert ConsistencyBundle.from_bytes(bundle.to_bytes()).verify(old, new)


# ------------------------------------------------------------------ sharded


class TestShardedTransparency:
    def make_sharded(self, shards: int = 2):
        sharded = ShardedLedger(
            LedgerConfig(
                uri=f"ledger://sharded-sth-{next(_URIS)}",
                fractal_height=H,
                shards=shards,
            )
        )
        keypair = KeyPair.generate(seed="transparency:alice")
        sharded.registry.register("alice", Role.USER, keypair.public)
        session = api.LedgerSession(
            sharded, lgid=sharded.config.uri, client_id="alice", keypair=keypair
        )
        return sharded, session

    def test_composite_head_refolds(self):
        sharded, session = self.make_sharded()
        with session:
            fill(session, 6, clue="S")
            head = session.get_sth()
        assert head.is_composite
        assert head.composite_consistent()
        assert head.verify(sharded.lsp_public_key)
        assert len(head.shard_heads) == sharded.num_shards
        decoded = SignedTreeHead.from_bytes(head.to_bytes())
        assert decoded.composite_consistent()
        forged = replace(head, root=b"\x13" * 32)
        assert not forged.composite_consistent()

    def test_composite_head_rejected_for_consistency(self):
        sharded, session = self.make_sharded()
        with session:
            fill(session, 4, clue="S")
            head = session.get_sth()
            with pytest.raises(UsageError):
                session.get_consistency(head, head)

    def test_per_shard_streams_stay_consistent(self):
        sharded, session = self.make_sharded()
        with session:
            fill(session, 3 * CAP * sharded.num_shards, clue="S")
        for index in range(sharded.num_shards):
            head = sharded.get_sth_shard(index)
            assert head.shard_index == index
            bundle, assertion = sharded.get_consistency(head, head)
            assert bundle.verify(head, head)
            assert assertion.shard_index == index

    def test_sibling_shards_are_not_forks(self):
        sharded, session = self.make_sharded()
        with session:
            fill(session, 4 * sharded.num_shards, clue="S")
        witness = Witness(sharded.lsp_public_key)
        for index in range(sharded.num_shards):
            assert witness.ingest(sharded.get_sth_shard(index)) is None
        assert not witness.evidence and not witness.alarms

    def test_composite_cross_check_catches_forged_shard_entry(self):
        sharded, session = self.make_sharded()
        with session:
            fill(session, 8, clue="S")
        witness = Witness(sharded.lsp_public_key)
        composite = sharded.get_sth()
        assert witness.ingest(composite) is None
        shard_head = sharded.get_sth_shard(0)
        assert witness.ingest(shard_head) is None  # agrees with composite
        # The shard later equivocates against the composite it rolled into:
        forged = replace(
            shard_head, root=b"\x13" * 32, lsp_signature=None
        ).signed_by(sharded.shards[0]._lsp_keypair)
        conflict = witness.ingest(forged)
        assert conflict is not None
        assert conflict.kind in ("fork-composite", "fork-heads")
        assert verify_equivocation(conflict, sharded.lsp_public_key)


# ------------------------------------------------------------------ witness


class TestWitness:
    def test_audit_is_clean_and_incremental_on_honest_stream(self):
        ledger, keypair = make_ledger()
        witness = Witness(ledger.lsp_public_key)
        with make_session(ledger, keypair) as session:
            fill(session, 2)
            report1 = witness.audit(session)  # first head: nothing to pair yet
            fill(session, 2 * CAP)
            report2 = witness.audit(session)  # new head: the gap gets proven
            report3 = witness.audit(session)  # no growth: nothing new to prove
        assert report1.clean and report2.clean and report3.clean
        assert report1.pairs_checked == 0
        assert report2.pairs_checked > 0
        assert report3.pairs_checked == 0
        assert witness.head_count > 0
        assert witness.heads(ledger.config.uri)

    def test_bad_signature_is_alarm_not_evidence(self):
        ledger, _ = make_ledger()
        other = KeyPair.generate(seed="not-the-lsp")
        witness = Witness(ledger.lsp_public_key)
        head = ledger.get_sth()
        forged = replace(head, lsp_signature=None).signed_by(other)
        assert witness.ingest(forged) is None
        assert witness.alarms and not witness.evidence

    def test_duplicate_heads_dedupe(self):
        ledger, _ = make_ledger()
        witness = Witness(ledger.lsp_public_key)
        head = ledger.get_sth()
        assert witness.ingest(head) is None
        before = witness.head_count
        assert witness.ingest(head) is None
        assert witness.head_count == before

    def test_fork_heads_evidence_round_trips(self):
        ledger, _ = make_ledger()
        witness = Witness(ledger.lsp_public_key)
        head = ledger.get_sth()
        fork = replace(head, root=b"\x42" * 32, lsp_signature=None).signed_by(
            ledger._lsp_keypair
        )
        assert witness.ingest(head) is None
        evidence = witness.ingest(fork)
        assert evidence is not None and evidence.kind == "fork-heads"
        assert verify_equivocation(evidence, ledger.lsp_public_key)
        decoded = EquivocationEvidence.from_bytes(evidence.to_bytes())
        assert verify_equivocation(decoded, ledger.lsp_public_key)
        # Evidence is stream-bound: the wrong key refutes it.
        wrong = KeyPair.generate(seed="wrong").public
        assert not verify_equivocation(decoded, wrong)

    def test_contradictory_assertion_is_evidence(self):
        ledger, keypair = make_ledger()
        witness = Witness(ledger.lsp_public_key)
        with make_session(ledger, keypair) as session:
            fill(session, 2)
            head = session.get_sth()
            witness.ingest(head)
            fill(session, 1)
            new = session.get_sth()
            _, assertion = session.get_consistency(head, new)
        # Honest assertion agrees with the stored head: no evidence.
        assert witness.observe_assertion(assertion) is None
        lying = replace(
            assertion, old_root=b"\x66" * 32, lsp_signature=None
        ).signed_by(ledger._lsp_keypair)
        evidence = witness.observe_assertion(lying)
        assert evidence is not None and evidence.kind == "fork-assertion"
        assert verify_equivocation(evidence, ledger.lsp_public_key)


# --------------------------------------------------------------- censorship


class TestCensorship:
    def test_ack_round_trip_and_deadline_maturity(self):
        ledger, keypair = make_ledger()
        with make_session(ledger, keypair) as session:
            receipt, ack = session.append_acked(b"promise me", clue="ACK")
            assert receipt.verify(ledger.lsp_public_key)
            assert ack.verify(ledger.lsp_public_key)
            assert ack.deadline_epochs == DEFAULT_ACK_DEADLINE_EPOCHS
            decoded = SubmissionAck.from_bytes(ack.to_bytes())
            assert decoded == ack
            # Before the deadline epoch the evidence bundle does not verify.
            young = CensorshipEvidence(ack=ack, sth=session.get_sth())
            assert not young.verify(ledger.lsp_public_key)
            fill(session, (ack.deadline_epochs + 1) * CAP)
            mature = CensorshipEvidence(ack=ack, sth=session.get_sth())
            assert mature.verify(ledger.lsp_public_key)
            # ...but the honest server refutes it with an inclusion proof.
            journal = session.list_tx("ACK")[0]
            proof = ledger.get_proof(journal.jsn, anchored=False)
            assert refute_censorship(mature, journal, proof)

    def test_ack_validates_deadline_and_uri(self):
        ledger, keypair = make_ledger()
        with make_session(ledger, keypair) as session:
            with pytest.raises(UsageError):
                session.append_acked(b"x", deadline_epochs=0)
        foreign = ClientRequest.build(
            "ledger://elsewhere", "alice", b"x", nonce=b"1", client_timestamp=1.0
        ).signed_by(keypair)
        with pytest.raises(UsageError):
            ledger.issue_ack(foreign)

    def test_refutation_requires_matching_request(self):
        ledger, keypair = make_ledger()
        with make_session(ledger, keypair) as session:
            _, ack = session.append_acked(b"mine", clue="A", deadline_epochs=1)
            session.append(b"other", clue="B")
            fill(session, (ack.deadline_epochs + 1) * CAP)
            evidence = CensorshipEvidence(ack=ack, sth=session.get_sth())
            assert evidence.verify(ledger.lsp_public_key)
            wrong_journal = session.list_tx("B")[0]
            proof = ledger.get_proof(wrong_journal.jsn, anchored=False)
            assert not refute_censorship(evidence, wrong_journal, proof)


# ------------------------------------------------- heads beside a commit


def epoch_of(tree_size: int, cap: int = CAP) -> tuple[int, int]:
    """``(epoch, live_size)`` of a fam with epoch capacity ``cap`` right
    after ``tree_size`` journals."""
    if tree_size < cap:
        return 0, tree_size
    return 1 + (tree_size - cap) // (cap - 1), 1 + (tree_size - cap) % (cap - 1)


@contextlib.contextmanager
def commit_inside(ledger, keypair):
    """Make one ``append_batch`` of ``CAP`` journals (at least one epoch roll)
    land inside the next read: right after the first read of the ledger's
    fam returns, or when its clock is first read, whichever comes first.
    Yields the list the pending commit is popped from."""
    requests = [
        ClientRequest.build(
            ledger.config.uri,
            "alice",
            b"inside %d" % index,
            nonce=b"inside %d" % index,
            client_timestamp=1.0,
        ).signed_by(keypair)
        for index in range(CAP)
    ]
    pending = [lambda: ledger.append_batch(requests)]

    def trip() -> None:
        if pending:
            pending.pop()()

    fam, clock = ledger._fam, ledger.clock
    fam_cls, clock_cls = type(fam), type(clock)

    class TrippingFam(fam_cls):
        def __getattribute__(self, name):
            value = fam_cls.__getattribute__(self, name)
            if not name.startswith("_"):  # a read from outside, answered
                trip()
            return value

    class TrippingClock(clock_cls):
        def now(self):
            trip()
            return clock_cls.now(self)

    fam.__class__, clock.__class__ = TrippingFam, TrippingClock
    try:
        yield pending
    finally:
        fam.__class__, clock.__class__ = fam_cls, clock_cls


class TestHeadsBesideCommits:
    """A signed head or ack describes one commit, even when another commit
    lands in the middle of minting it."""

    def test_commit_inside_get_sth(self):
        ledger, keypair = make_ledger()
        with make_session(ledger, keypair) as session:
            fill(session, CAP + 1)
        before = ledger.size
        with commit_inside(ledger, keypair) as pending:
            head = ledger.get_sth()
        assert not pending and ledger.size == before + CAP  # the commit landed
        assert head.verify(ledger.lsp_public_key)
        assert (head.epoch, head.live_size) == epoch_of(head.tree_size)
        assert head.root == ledger._fam.head_root(head.epoch, head.live_size)

    def test_commit_inside_issue_ack(self):
        ledger, keypair = make_ledger()
        with make_session(ledger, keypair) as session:
            fill(session, CAP + 1)
        request = ClientRequest.build(
            ledger.config.uri, "alice", b"ack me", nonce=b"ack", client_timestamp=1.0
        ).signed_by(keypair)
        before = ledger.size
        with commit_inside(ledger, keypair) as pending:
            ack = ledger.issue_ack(request)
        assert not pending and ledger.size == before + CAP
        assert ack.verify(ledger.lsp_public_key)
        assert ack.epoch == epoch_of(ack.tree_size)[0]

    def test_witness_finds_no_fork_beside_a_saturating_appender(self):
        from test_net_readpath import _beside_a_saturating_appender

        witnesses: list[Witness] = []

        def check(reader, ledger) -> None:
            if not witnesses:
                witnesses.append(Witness(ledger.lsp_public_key))
            for head in (reader.get_sth(), ledger.get_sth()):
                assert witnesses[0].ingest(head) is None
                cap = 1 << head.fractal_height
                assert (head.epoch, head.live_size) == epoch_of(head.tree_size, cap)

        _beside_a_saturating_appender(check)
        witness = witnesses[0]
        assert witness.head_count > 1
        assert not witness.evidence and not witness.alarms


# ----------------------------------------------------- protocol conformance


#: Methods whose *signatures* must be identical on both transports.
PROTOCOL_METHODS = [
    "append",
    "append_batch",
    "append_acked",
    "list_tx",
    "get_proof",
    "get_proofs",
    "get_sth",
    "get_sth_range",
    "get_consistency",
    "verify",
    "export",
    "close",
]


class TestVerifyingSessionProtocol:
    def test_local_session_satisfies_protocol(self):
        ledger, keypair = make_ledger()
        with make_session(ledger, keypair) as session:
            assert isinstance(session, Session)

    def test_remote_session_satisfies_protocol(self):
        ledger, _ = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            with api.connect(f"ledger://{host}:{port}") as session:
                assert isinstance(session, Session)
                assert isinstance(session, RemoteLedgerSession)

    def test_signatures_identical_across_transports(self):
        for name in PROTOCOL_METHODS:
            local = inspect.signature(getattr(api.LedgerSession, name))
            remote = inspect.signature(getattr(RemoteLedgerSession, name))
            assert list(local.parameters) == list(remote.parameters), name
            for parameter in local.parameters.values():
                twin = remote.parameters[parameter.name]
                assert parameter.kind == twin.kind, (name, parameter.name)
                assert parameter.default == twin.default, (name, parameter.name)

    def test_no_silently_swallowed_kwargs(self):
        """Neither transport's append path accepts ``**kwargs`` any more."""
        for cls in (api.LedgerSession, RemoteLedgerSession):
            for name in ("append", "append_batch", "append_acked"):
                signature = inspect.signature(getattr(cls, name))
                kinds = {p.kind for p in signature.parameters.values()}
                assert inspect.Parameter.VAR_KEYWORD not in kinds, (cls, name)

    def test_local_rejects_remote_only_kwargs(self):
        uri = f"ledger://kwargs-{next(_URIS)}"
        api.create(uri)
        try:
            with pytest.raises(UsageError, match="local transport"):
                api.connect(uri, timeout=5.0)
            with pytest.raises(UsageError, match="local transport"):
                api.connect(uri, expected_lsp_key=b"\x00" * 33)
        finally:
            api.drop_ledger(uri)

    def test_remote_rejects_service_kwarg(self):
        ledger, _ = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            with pytest.raises(UsageError, match="remote transport"):
                api.connect(f"ledger://{host}:{port}", service=True)

    def test_remote_verify_returns_structured_result(self):
        ledger, keypair = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            with api.connect(
                f"ledger://{host}:{port}", client_id="alice", keypair=keypair
            ) as session:
                session.append(b"structured", clue="VR")
                journal = session.list_tx("VR")[0]
                for level in ("server", "client"):
                    result = session.verify("tx", txdata=[journal], level=level)
                    assert isinstance(result, VerifyResult) and result
                clue_result = session.verify(
                    "clue", key="VR", txdata=[journal], level="client"
                )
                assert isinstance(clue_result, VerifyResult) and clue_result
                assert isinstance(session.verify_journal(journal), VerifyResult)
                assert isinstance(session.verify_clue("VR"), VerifyResult)

    def test_per_call_identity_on_remote(self):
        ledger, _ = make_ledger()
        bob = KeyPair.generate(seed="transparency:bob")
        ledger.registry.register("bob", Role.USER, bob.public)
        with ServerThread(ledger) as served:
            host, port = served.address
            with api.connect(f"ledger://{host}:{port}") as session:
                with pytest.raises(UsageError, match="identity"):
                    session.append(b"anon")
                receipt = session.append(b"as bob", client_id="bob", keypair=bob)
                assert receipt.jsn > 0

    def test_witness_is_transport_blind(self):
        """One witness audits local and remote sessions of the same ledger
        with zero branches and zero false positives."""
        ledger, keypair = make_ledger()
        witness = Witness(ledger.lsp_public_key)
        with make_session(ledger, keypair) as local:
            fill(local, CAP + 1)
            assert witness.audit(local).clean
        with ServerThread(ledger) as served:
            host, port = served.address
            with api.connect(f"ledger://{host}:{port}") as remote:
                assert witness.audit(remote).clean
        assert not witness.evidence and not witness.alarms

    def test_remote_sth_surface_checks_signatures(self):
        ledger, keypair = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            with api.connect(
                f"ledger://{host}:{port}", client_id="alice", keypair=keypair
            ) as session:
                fill(session, 2 * CAP)
                head = session.get_sth()
                assert head.verify(ledger.lsp_public_key)
                stored = session.get_sth_range(0, 100)
                assert stored == ledger.get_sth_range(0, 100)
                bundle, assertion = session.get_consistency(stored[0], head)
                assert bundle.verify(stored[0], head)
                assert assertion.verify(ledger.lsp_public_key)

    def test_remote_append_acked_end_to_end(self):
        ledger, keypair = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            with api.connect(
                f"ledger://{host}:{port}", client_id="alice", keypair=keypair
            ) as session:
                receipt, ack = session.append_acked(b"remote ack", clue="RA")
                assert receipt.verify(ledger.lsp_public_key)
                assert ack.verify(ledger.lsp_public_key)
                assert ack.deadline_epochs == DEFAULT_ACK_DEADLINE_EPOCHS
                _, custom = session.append_acked(b"again", deadline_epochs=5)
                assert custom.deadline_epochs == 5

    def test_remote_composite_sth_requires_sharded_backend(self):
        ledger, _ = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            with api.connect(f"ledger://{host}:{port}") as session:
                with pytest.raises(UsageError):
                    session.client.get_sth(composite=True)


# ------------------------------------------- capability table & remote export


class TestTransportCapabilities:
    """The declarative capability table behind every kwarg rejection."""

    def test_every_capability_names_a_known_transport(self):
        from repro.session import CAPABILITIES

        for name, capability in CAPABILITIES.items():
            assert capability.kwarg == name
            assert capability.transports <= {"local", "remote"}
            assert capability.reason

    def test_check_skips_none_values(self):
        from repro.session import check_transport_kwargs

        check_transport_kwargs("local", "ledger://x", timeout=None)
        check_transport_kwargs("remote", "ledger://x", service=None)

    def test_check_raises_on_unsupported_transport(self):
        from repro.session import check_transport_kwargs

        with pytest.raises(UsageError, match="local transport"):
            check_transport_kwargs("local", "ledger://x", timeout=5.0)
        with pytest.raises(UsageError, match="remote transport"):
            check_transport_kwargs("remote", "ledger://x", service=True)

    def test_unknown_kwargs_pass_through(self):
        from repro.session import check_transport_kwargs

        check_transport_kwargs("local", "ledger://x", not_a_capability=1)


class TestRemoteExport:
    def test_export_over_the_wire_verifies_standalone(self, tmp_path):
        from repro.export.verifier import verify_bundle

        ledger, keypair = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            with api.connect(
                f"ledger://{host}:{port}", client_id="alice", keypair=keypair
            ) as session:
                for i in range(10):
                    session.append(b"wire-%02d" % i, clue="WIRE")
                path = tmp_path / "wire.bundle"
                bundle = session.export(path, clues=("WIRE",))
        assert path.exists()
        assert bundle.ledger_uri == ledger.config.uri
        assert bundle.journal_count == ledger.size
        result = verify_bundle(bundle)
        assert result, result.detail
        local = api.LedgerSession(ledger).export(clues=("WIRE",))
        assert bundle.to_bytes() == local.to_bytes()

    def test_scoped_ledger_scopes_a_remote_uri(self):
        ledger, keypair = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            address = f"ledger://{host}:{port}"
            with api.scoped_ledger(
                address, client_id="alice", keypair=keypair
            ) as session:
                assert session.transport == "remote"
                session.append(b"scoped-remote", clue="SC")
            with pytest.raises(UsageError, match="remote scope"):
                with api.scoped_ledger(address, config=LedgerConfig(uri="x")):
                    pass
