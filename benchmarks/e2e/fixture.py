"""Deterministic on-disk ledger fixture for the read-side workloads.

One single-threaded builder (``append_batch(64)``, SimClock, seeded keys, a
TSA anchor every 512 journals, paged node store) produces the same bytes on
every run: the fam root, the CM-Tree root and the journal stream's hash are
pinned in ``PINNED`` so a byte-level drift in the program fails loudly
instead of silently shifting every number measured over the fixture.

The fixture's inputs come from a fixed internal seed, not from ``--seed``:
``--seed`` varies the *operations* a workload issues, never the data they
run over.  Build time is part of every fixture workload's ``setup_s``.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass
from pathlib import Path

import gen
from repro.core import ClientRequest, Ledger, LedgerConfig
from repro.core.ledger import JOURNAL_FILE
from repro.core.members import MemberRegistry
from repro.crypto import KeyPair, PublicKey, Role
from repro.timeauth import SimClock, TimeStampAuthority

URI = "ledger://e2e"
USER_ID = "e2e-user"
FRACTAL_HEIGHT = 8
BLOCK_SIZE = 32
BATCH = 64
ANCHOR_EVERY = 512
FIXTURE_SEED = 20220501

#: (journals, checkpoint_at) -> sha256(fam root || state root || stream hash).
PINNED: dict[tuple[int, int], str] = {
    (4096, 0): "a7786d3ffab6fb1adde5d9acb510440364d032c2cce4fb60da56bfa4f9e02b34",
    (1024, 512): "7c706f08cebbb38af37112beffb25325db0844de1b900ffe6c45ae942f8e1eeb",
    (512, 0): "7e0f197be6fd4dabf7c41577855bee055c8f53330a02cb55b9847350f850b2ae",
    (256, 128): "34e6ab4cd73c2704c74a340d278b7355290b8b51364d68bdfd91f7bdd2923c5e",
}


@dataclass
class Identities:
    """The seeded keys every deployment of the benchmark shares."""

    registry: MemberRegistry
    user: KeyPair
    lsp: KeyPair


def identities() -> Identities:
    registry = MemberRegistry()
    user = KeyPair.generate(seed="e2e:user")
    registry.register(USER_ID, Role.USER, user.public)
    return Identities(registry, user, KeyPair.generate(seed="e2e:lsp"))


def ledger_config(data_dir: Path, **overrides) -> LedgerConfig:
    """The benchmark's one ledger shape (epoch = 256 journals, 32 per block)."""
    return LedgerConfig(
        uri=URI,
        fractal_height=FRACTAL_HEIGHT,
        block_size=BLOCK_SIZE,
        data_dir=str(data_dir),
        **overrides,
    )


def sign_request(ids: Identities, payload: bytes, clues: tuple[str, ...], nonce: int, now: float):
    return ClientRequest.build(
        URI, USER_ID, payload, clues=clues, nonce=nonce.to_bytes(8, "big"), client_timestamp=now
    ).signed_by(ids.user)


@dataclass
class Fixture:
    data_dir: Path
    ids: Identities
    tsa_keys: dict[str, PublicKey]
    journals: int
    #: jsn of every user journal, in append order (time anchors interleave).
    user_jsns: list[int]
    #: jsn -> sha256(payload): what ``get_journal`` must hand back.
    payload_digest: dict[int, bytes]
    #: clue -> jsns carrying it: what ``list_tx`` must hand back.
    lineage: dict[str, list[int]]
    build_s: float
    digest: str
    #: Layer costs only the build exercises: checkpoint time, TSA anchor cost.
    facts: dict[str, float]

    @property
    def user_bytes(self) -> int:
        return self.journals * gen.PAYLOAD_BYTES


def build(
    data_dir: Path,
    ids: Identities,
    journals: int,
    *,
    cache_pages: int = 8,
    checkpoint_at: int | None = None,
) -> Fixture:
    """Build the fixture under ``data_dir`` and close it.

    ``cache_pages`` is the page-cache size every later ``Ledger.open`` of the
    directory gets (it is persisted with the ledger and changes no byte of
    what is pinned).  With ``checkpoint_at`` the snapshot is taken after that
    many journals and the rest is left as an un-snapshotted stream suffix, so
    a reopen pays snapshot restore plus suffix replay; otherwise the close
    checkpoints.
    """
    if journals % BATCH or (checkpoint_at or 0) % BATCH:
        raise ValueError(f"fixture sizes are multiples of {BATCH}")
    started = time.perf_counter()
    clock = SimClock()
    tsa = TimeStampAuthority("e2e-tsa", clock)
    ledger = Ledger(
        ledger_config(data_dir, node_store="paged", cache_pages=cache_pages),
        clock=clock,
        registry=ids.registry,
        lsp_keypair=ids.lsp,
    )
    ledger.attach_tsa(tsa)
    bodies = gen.request_bodies(FIXTURE_SEED, "fixture")
    user_jsns: list[int] = []
    payload_digest: dict[int, bytes] = {}
    lineage: dict[str, list[int]] = {}
    anchor_s: list[float] = []
    checkpoint_s = 0.0
    # Every journal needs a time ceiling above it, so small (smoke) fixtures
    # anchor more often and all of them anchor last.
    anchor_every = min(ANCHOR_EVERY, journals // 2)
    for done in range(0, journals, BATCH):
        batch = list(itertools.islice(bodies, BATCH))
        requests = [
            sign_request(ids, payload, clues, done + index, clock.now())
            for index, (payload, clues) in enumerate(batch)
        ]
        for (payload, clues), receipt in zip(batch, ledger.append_batch(requests)):
            user_jsns.append(receipt.jsn)
            payload_digest[receipt.jsn] = hashlib.sha256(payload).digest()
            for clue in clues:
                lineage.setdefault(clue, []).append(receipt.jsn)
        clock.advance(1.0)
        if (done + BATCH) % anchor_every == 0:
            mark = time.perf_counter()
            ledger.anchor_time()
            anchor_s.append(time.perf_counter() - mark)
        if done + BATCH == checkpoint_at:
            mark = time.perf_counter()
            ledger.checkpoint()
            checkpoint_s = time.perf_counter() - mark
    ledger.commit_block()
    roots = ledger.current_root() + ledger.state_root()
    mark = time.perf_counter()
    ledger.close(checkpoint=checkpoint_at is None)
    if checkpoint_at is None:
        checkpoint_s = time.perf_counter() - mark
    stream_hash = hashlib.sha256((data_dir / JOURNAL_FILE).read_bytes()).digest()
    digest = hashlib.sha256(roots + stream_hash).hexdigest()
    pinned = PINNED.get((journals, checkpoint_at or 0))
    if pinned is not None and digest != pinned:
        raise SystemExit(
            f"fixture drift: {journals}-journal fixture hashes to {digest}, pinned {pinned}"
        )
    return Fixture(
        data_dir=data_dir,
        ids=ids,
        tsa_keys={tsa.tsa_id: tsa.public_key},
        journals=journals,
        user_jsns=user_jsns,
        payload_digest=payload_digest,
        lineage=lineage,
        build_s=time.perf_counter() - started,
        digest=digest,
        facts={
            "checkpoint_s": checkpoint_s,
            "anchor_us_per_call": sum(anchor_s) / len(anchor_s) * 1e6 if anchor_s else 0.0,
        },
    )


def reopen(
    fixture: Fixture, data_dir: Path | None = None, *, force_rebuild: bool = False
) -> Ledger:
    return Ledger.open(
        str(data_dir or fixture.data_dir),
        fixture.ids.registry,
        fixture.ids.lsp,
        clock=SimClock(),
        force_rebuild=force_rebuild,
    )
