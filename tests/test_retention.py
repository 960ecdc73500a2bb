"""The memory node store keeps only the CM-Tree1 versions a read can ask for.

At each epoch roll a ledger on the memory node store sweeps CM-Tree1 down to
the nodes reachable from the root at the previous roll, the nodes written
since that roll, and the nodes of roots pinned by a read in progress (an
export cut at a head).  Every read a client can make at a head must answer
byte for byte as on the paged store, which keeps every version; a proof
asked against a root two rolls old is a typed error, never a wrong answer.
"""

import sys
import threading

import pytest

from repro.core import ClientRequest, Ledger, LedgerConfig
from repro.core.errors import UsageError
from repro.core.members import MemberRegistry
from repro.crypto import KeyPair, Role
from repro.export.bundle import export_bundle
from repro.export.verifier import verify_bundle
from repro.merkle.mpt import MPT
from repro.shard import ShardedLedger
from repro.shard.shape import shard_of_key
from repro.timeauth import SimClock

URI = "ledger://retention"
CLUES = ("A", "B", "C", "D")


def build(tmp_path, node_store):
    registry = MemberRegistry()
    lsp = KeyPair.generate(seed="retention-lsp")
    user = KeyPair.generate(seed="retention-user")
    registry.register("user", Role.USER, user.public)
    config = LedgerConfig(
        uri=URI, fractal_height=3, block_size=4,
        node_store=node_store, data_dir=str(tmp_path / node_store),
    )
    clock = SimClock()
    ledger = Ledger(config, clock=clock, registry=registry, lsp_keypair=lsp)
    return ledger, clock, user


def append(ledger, clock, user, index):
    request = ClientRequest.build(
        URI, "user", b"retained-%04d" % index,
        clues=(CLUES[index % len(CLUES)],) if index % 5 else (),
        nonce=index.to_bytes(4, "big"), client_timestamp=clock.now(),
    ).signed_by(user)
    ledger.append(request)
    clock.advance(0.25)


def answers(ledger):
    """The bytes of every read a client can make at the ledger's head."""
    clue_reads = {}
    for clue in CLUES:
        if ledger.clue_entry_count(clue):
            proof, root = ledger.clue_evidence(clue)
            clue_reads[clue] = (ledger.prove_clue(clue).to_bytes(), proof.to_bytes(), root)
    return {
        "state_root": ledger.state_root(),
        "clues": clue_reads,
        "proofs": [proof.to_bytes() for proof in ledger.get_proofs(list(range(ledger.size)))],
        "single": ledger.get_proof(ledger.size - 1).to_bytes(),
    }


def swept_store(ledger):
    return ledger._cmtree._swept


def test_memory_store_answers_as_the_paged_store_across_rolls(tmp_path):
    memory, clock_m, user_m = build(tmp_path, "memory")
    paged, clock_p, user_p = build(tmp_path, "paged")
    rolls, epoch = 0, memory.head.epoch
    for index in range(48):
        append(memory, clock_m, user_m, index)
        append(paged, clock_p, user_p, index)
        if memory.head.epoch == epoch:
            continue
        rolls, epoch = rolls + 1, memory.head.epoch
        assert answers(memory) == answers(paged)
        bundle = export_bundle(memory, clues=CLUES)
        assert bundle.to_bytes() == export_bundle(paged, clues=CLUES).to_bytes()
        assert verify_bundle(bundle).ok
    assert rolls >= 5
    assert len(swept_store(memory)) < len(paged.node_store)

    expected = answers(memory)
    assert answers(paged) == expected
    reopened = {}
    for ledger in (memory, paged):
        ledger.checkpoint()
        ledger.close(checkpoint=False)
        registry = MemberRegistry()
        registry.register("user", Role.USER, user_m.public)
        reopened[ledger.config.node_store] = Ledger.open(
            ledger.config.data_dir, registry, KeyPair.generate(seed="retention-lsp"),
            clock=SimClock(),
        )
    # The reopened ledgers re-sign a receipt for the last journal; every
    # proof and root is the live ledgers'.
    for ledger in reopened.values():
        assert answers(ledger) == expected
    assert (
        export_bundle(reopened["memory"], clues=CLUES).to_bytes()
        == export_bundle(reopened["paged"], clues=CLUES).to_bytes()
    )
    for ledger in reopened.values():
        ledger.close(checkpoint=False)


def roll_once(ledger, clock, user, index):
    """Append until the epoch rolls; returns the next append index."""
    epoch = ledger.head.epoch
    while ledger.head.epoch == epoch:
        append(ledger, clock, user, index)
        index += 1
    return index


def test_a_root_retired_two_rolls_ago_is_a_typed_error(tmp_path):
    memory, clock_m, user = build(tmp_path, "memory")
    index = 0
    for _ in range(2):
        index = roll_once(memory, clock_m, user, index)
    old_root = memory.state_root()
    old_proof = memory.prove_clue("A", root=old_root).to_bytes()
    while memory.state_root() == old_root:
        append(memory, clock_m, user, index)
        index += 1
    pinned_root = memory.state_root()
    pinned_proof = memory.prove_clue("A", root=pinned_root).to_bytes()

    index = roll_once(memory, clock_m, user, index)
    # One roll later both roots are still whole.
    assert memory.prove_clue("A", root=old_root).to_bytes() == old_proof
    assert memory.prove_clue("A", root=pinned_root).to_bytes() == pinned_proof
    with memory.retaining(pinned_root):
        for _ in range(3):
            index = roll_once(memory, clock_m, user, index)
        with pytest.raises(UsageError, match="not retained"):
            memory.prove_clue("A", root=old_root)
        with pytest.raises(UsageError, match="not retained"):
            memory.retaining(old_root).__enter__()
        # A pinned root outlives every roll while its read runs.
        assert memory.prove_clue("A", root=pinned_root).to_bytes() == pinned_proof
    for _ in range(2):
        index = roll_once(memory, clock_m, user, index)
    with pytest.raises(UsageError, match="not retained"):
        memory.prove_clue("A", root=pinned_root)
    # The head's reads are unaffected, and the paged store keeps every root.
    lineage = {v: memory.get_journal(jsn).tx_hash() for v, jsn in enumerate(memory.list_tx("A"))}
    proof, root = memory.clue_evidence("A")
    assert proof.verify(lineage, root)
    paged, clock_p, user_p = build(tmp_path, "paged")
    for step in range(index):
        append(paged, clock_p, user_p, step)
    assert paged.prove_clue("A", root=old_root).to_bytes() == old_proof
    assert paged.prove_clue("A", root=pinned_root).to_bytes() == pinned_proof
    for ledger in (memory, paged):
        ledger.close(checkpoint=False)


def test_node_count_is_the_live_trie_plus_two_epochs_of_writes(tmp_path):
    memory, clock, user = build(tmp_path, "memory")
    store = swept_store(memory)
    written = set()
    put = store.put

    def spy(key, value):
        written.add(key)
        put(key, value)

    store.put = spy
    roll_root, epoch, rolls = memory.state_root(), memory.head.epoch, 0
    kept = MPT(store, root=roll_root).reachable()
    for index in range(60):
        append(memory, clock, user, index)
        if memory.head.epoch == epoch:
            continue
        # The sweep at this roll kept exactly the trie at the previous roll
        # and what was written since, and the decode memo no other node.
        assert set(store.keys()) == kept | written
        assert set(memory._cmtree._mpt._node_cache) <= kept | written
        roll_root, epoch, rolls = memory.state_root(), memory.head.epoch, rolls + 1
        kept = MPT(store, root=roll_root).reachable()
        written.clear()
    assert rolls >= 6
    live = MPT(store, root=memory.state_root()).reachable()
    assert live <= set(store.keys())
    memory.close(checkpoint=False)


def test_the_decode_memo_holds_no_node_the_store_dropped(tmp_path):
    memory, clock, user = build(tmp_path, "memory")
    store, trie = swept_store(memory), memory._cmtree._mpt
    index = 0
    for _ in range(6):
        index = roll_once(memory, clock, user, index)
        assert set(trie._node_cache) <= set(store.keys())
    # Reads at the head still decode through the memo.
    proof, root = memory.clue_evidence("A")
    lineage = {v: memory.get_journal(jsn).tx_hash() for v, jsn in enumerate(memory.list_tx("A"))}
    assert proof.verify(lineage, root)
    memory.close(checkpoint=False)


def test_exports_and_clue_proofs_beside_a_saturating_two_shard_writer():
    """Two writer threads saturate both shards of a memory-store deployment
    while a reader cuts clue proofs and exports at the heads; every read
    succeeds and verifies, across many epoch rolls of both shards."""
    registry = MemberRegistry()
    lsp = KeyPair.generate(seed="retention-lsp")
    user = KeyPair.generate(seed="retention-user")
    registry.register("user", Role.USER, user.public)
    sharded = ShardedLedger(
        LedgerConfig(uri=URI, fractal_height=5, block_size=8, shards=2),
        registry=registry, lsp_keypair=lsp,
    )
    clues = [f"S{index}" for index in range(12)]
    batches = [[], []]
    for index in range(1600):
        clue = clues[index % len(clues)]
        shard = shard_of_key(clue, 2)
        request = ClientRequest.build(
            URI, "user", b"stress-%05d" % index, clues=(clue,),
            nonce=index.to_bytes(4, "big"), client_timestamp=0.0,
        ).signed_by(user)
        if not batches[shard] or len(batches[shard][-1]) == 8:
            batches[shard].append([])
        batches[shard][-1].append(request)
    for clue in clues:  # every clue has an entry before the reader starts
        sharded.append(batches[shard_of_key(clue, 2)][0].pop())
    start_epochs = [shard.head.epoch for shard in sharded.shards]
    errors = []

    def write(index):
        try:
            for batch in batches[index]:
                sharded.shards[index].append_batch(batch)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    writers = [threading.Thread(target=write, args=(index,)) for index in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave sweeps, pins and proof walks finely
    for thread in writers:
        thread.start()
    proofs = exports = 0
    bundles = []
    try:
        while any(thread.is_alive() for thread in writers):
            for clue in clues:
                proof, root = sharded.clue_evidence(clue)
                shard = sharded.shards[proof.shard_index]
                lineage = shard.list_tx(clue)[: proof.clue_proof.entry_count]
                digests = {v: shard.get_journal(jsn).tx_hash() for v, jsn in enumerate(lineage)}
                assert proof.verify(digests, root)
                proofs += 1
            # Each export spans more epoch rolls than the last: its clue
            # proofs are cut at roots it must keep pinned.
            bundles = [*bundles[-1:], export_bundle(sharded, clues=tuple(clues))]
            exports += 1
    finally:
        for thread in writers:
            thread.join(60)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers)
    assert not errors, errors
    rolled = [shard.head.epoch - start for shard, start in zip(sharded.shards, start_epochs)]
    assert min(rolled) >= 8, rolled
    assert exports >= 3 and proofs > len(clues)
    for bundle in bundles:
        assert verify_bundle(bundle).ok
