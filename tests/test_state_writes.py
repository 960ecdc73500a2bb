"""CM-Tree1 takes one MPT write per state-root read, and loses no root anyone reads.

The audit fold, the snapshot replay and the commit path gather a block's clue
updates and write them as one ``MPT.put_many`` just before a state root is
read (a block's state-root check, a block seal, a published head).  Counted
here: the node writes of the 1 024-journal end-to-end fixture's audit fold
and reopen.  Checked here: after a snapshot reopen and after a full
``recover``, every block's state root and the head's still prove every clue
from the node store.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.audit import dasein_audit
from repro.core import ClientRequest, Ledger, LedgerConfig, OccultMode
from repro.core.members import MemberRegistry
from repro.crypto import KeyPair, MultiSignature, Role
from repro.merkle.mpt import MPT
from repro.timeauth import SimClock

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: MPT nodes the fold wrote with one ``put`` per clue per journal, over the
#: 1 024-journal fixture whose snapshot covers the first 512.
PER_CLUE_AUDIT_WRITES = 7456
PER_CLUE_REOPEN_WRITES = 3847


@pytest.fixture(scope="module")
def e2e_fixture(tmp_path_factory):
    import sys

    sys.path.insert(0, str(E2E))
    try:
        import fixture
    finally:
        sys.path.remove(str(E2E))
    # build() refuses to return a fixture whose roots or stream drifted.
    built = fixture.build(
        tmp_path_factory.mktemp("e2e") / "fixture", fixture.identities(), 1024, checkpoint_at=512
    )
    return fixture, built


@pytest.fixture
def node_writes(monkeypatch):
    count = [0]
    save = MPT._save

    def counting(self, node):
        count[0] += 1
        return save(self, node)

    monkeypatch.setattr(MPT, "_save", counting)
    return count


def test_the_fold_and_the_reopen_write_each_block_once(e2e_fixture, node_writes):
    fixture, built = e2e_fixture
    ledger = fixture.reopen(built)
    try:
        assert node_writes[0] <= PER_CLUE_REOPEN_WRITES // 2
        node_writes[0] = 0
        report = dasein_audit(ledger.export_view(), tsa_keys=built.tsa_keys)
        assert report.passed, report.failures()
        assert report.journals_replayed == ledger.size
        assert node_writes[0] <= PER_CLUE_AUDIT_WRITES // 3
    finally:
        ledger.close(checkpoint=False)


URI = "ledger://state-writes"
CLUES = ("A", "B", "C", "D", "E")


def _world():
    registry = MemberRegistry()
    keys = {name: KeyPair.generate(seed=f"state-writes-{name}") for name in ("user", "dba", "reg")}
    for name, role in (("user", Role.USER), ("dba", Role.DBA), ("reg", Role.REGULATOR)):
        registry.register(name, role, keys[name].public)
    return registry, KeyPair.generate(seed="state-writes-lsp"), keys


def _batch(ledger, clock, keys, start, count):
    requests = [
        ClientRequest.build(
            URI,
            "user",
            b"state %04d" % index,
            clues=tuple(CLUES[(index + step) % len(CLUES)] for step in range(index % 3 + 1)),
            nonce=index.to_bytes(4, "big"),
            client_timestamp=clock.now(),
        ).signed_by(keys["user"])
        for index in range(start, start + count)
    ]
    ledger.append_batch(requests)
    clock.advance(1.0)


def _occult(ledger, keys, jsn):
    record = ledger.prepare_occult(jsn, OccultMode.SYNC, reason="state-writes")
    approvals = MultiSignature(digest=record.approval_digest())
    for name in ("dba", "reg"):
        approvals.add(name, keys[name].sign(record.approval_digest()))
    ledger.execute_occult(record, approvals)


def _roots(ledger):
    """(end jsn, state root) of every block and of the head."""
    blocks = [(block.end_jsn, block.state_root) for block in ledger.blocks]
    return blocks + [(ledger.size, ledger.state_root())]


@pytest.mark.parametrize("force_rebuild", [False, True], ids=["snapshot-suffix", "recover"])
def test_every_published_state_root_proves_every_clue_after_reopen(tmp_path, force_rebuild):
    registry, lsp, keys = _world()
    clock = SimClock()
    config = LedgerConfig(
        uri=URI,
        fractal_height=3,
        block_size=4,
        node_store="paged",
        cache_pages=2,
        data_dir=str(tmp_path),
    )
    ledger = Ledger(config, clock=clock, registry=registry, lsp_keypair=lsp)
    _batch(ledger, clock, keys, 0, 6)
    _occult(ledger, keys, 5)  # mid-block, before the snapshot
    _batch(ledger, clock, keys, 6, 7)
    ledger.checkpoint()
    _batch(ledger, clock, keys, 13, 9)
    _occult(ledger, keys, 18)  # mid-block, in the replayed suffix
    _batch(ledger, clock, keys, 22, 5)  # leaves an unsealed tail
    lineage = {clue: ledger.list_tx(clue) for clue in CLUES}
    head = (ledger.size, ledger.state_root())
    ledger.close(checkpoint=False)

    reopened = Ledger.open(
        str(tmp_path), registry, lsp, clock=SimClock(), force_rebuild=force_rebuild
    )
    try:
        assert reopened.is_occulted(5) and reopened.is_occulted(18)
        assert {clue: reopened.list_tx(clue) for clue in CLUES} == lineage
        roots = _roots(reopened)
        # A replay re-seals every block_size journals after the last seal,
        # so its blocks may be cut where the live ledger's were not.
        assert roots[-1] == head
        for end_jsn, root in roots:
            for clue, jsns in lineage.items():
                digests = {
                    version: reopened.retained_hash(jsn)
                    for version, jsn in enumerate(j for j in jsns if j < end_jsn)
                }
                if not digests:
                    continue
                proof = reopened.prove_clue(clue, root=root)
                assert proof.entry_count == len(digests), (end_jsn, clue)
                assert proof.verify(digests, root), (end_jsn, clue)
    finally:
        reopened.close(checkpoint=False)
