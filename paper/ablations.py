"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. **Trusted anchors** (fam-aoa vs full-chain fam vs tim vs boa): what does
   each anchor scheme cost per verification, and what client-side storage
   does it require?

2. **Mutation modes**: sync vs async occult on the execution path, and
   purge with vs without fam-node erasure on storage.

3. **T-Ledger anchoring interval** Δτ: evidence window width vs TSA load —
   the trade Protocol 3/4 navigates.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from repro.core import ClientRequest, Ledger, LedgerConfig, OccultMode
from repro.crypto import KeyPair, MultiSignature, Role
from repro.crypto.ecdsa import PUBKEY_CACHE_THRESHOLD
from repro.crypto.hashing import leaf_hash
from repro.merkle.fam import AnchorStore, FamAccumulator
from repro.timeauth.clock import SimClock
from repro.timeauth.tledger import TimeLedger
from repro.timeauth.tsa import TimeStampAuthority
from paper.merkle.bim import BimLedger, LightClient
from paper.merkle.tim import TimAccumulator
from paper.timing import measure, render_table

__all__ = ["AblationResult", "run", "render"]

LEDGER_SIZE = 1 << 13
SAMPLES = 400


@dataclass
class AblationResult:
    anchor_rows: list[list[str]]
    mutation_rows: list[list[str]]
    interval_rows: list[list[str]]


def _anchor_ablation() -> list[list[str]]:
    digests = [leaf_hash(i.to_bytes(4, "big")) for i in range(LEDGER_SIZE)]
    rng = random.Random(3)
    jsns = [rng.randrange(LEDGER_SIZE) for _ in range(SAMPLES)]

    fam = FamAccumulator(6)
    for digest in digests:
        fam.append(digest)
    anchors = AnchorStore()
    for epoch in range(fam.num_epochs - 1):
        anchors.add(epoch, fam.epoch_root(epoch))

    def fam_anchored() -> None:
        for jsn in jsns:
            proof = fam.get_proof(jsn, anchored=True)
            fam.verify_with_anchors(digests[jsn], proof, anchors)

    def fam_full() -> None:
        for jsn in jsns:
            proof = fam.get_proof(jsn, anchored=False)
            FamAccumulator.verify_full(digests[jsn], proof, fam.current_root())

    tim = TimAccumulator()
    for digest in digests:
        tim.append_digest(digest)
    tim_root = tim.root()

    def tim_verify() -> None:
        for jsn in jsns:
            tim.get_proof(jsn).verify(digests[jsn], tim_root)

    bim = BimLedger(block_capacity=64)
    positions = [bim.append(b"tx-%d" % i) for i in range(LEDGER_SIZE)]
    bim.commit_block()
    client = LightClient()
    client.sync_headers(bim.headers())

    def bim_verify() -> None:
        for jsn in jsns:
            height, index = positions[jsn]
            client.verify(b"tx-%d" % jsn, bim.get_proof(height, index))

    rows = []
    anchored_t = measure(fam_anchored, operations=SAMPLES, repeat=2)
    full_t = measure(fam_full, operations=SAMPLES, repeat=2)
    tim_t = measure(tim_verify, operations=SAMPLES, repeat=2)
    bim_t = measure(bim_verify, operations=SAMPLES, repeat=2)
    sample_full = fam.get_proof(jsns[0], anchored=False)
    rows.append(
        ["fam-aoa (epoch anchors)", f"{anchored_t.per_op_ms * 1000:.1f}",
         f"{len(anchors)} epoch roots (32 B each)",
         f"{fam.get_proof(jsns[0], anchored=True).anchored_cost}"]
    )
    rows.append(
        ["fam full-chain (no anchors)", f"{full_t.per_op_ms * 1000:.1f}",
         "current root only", f"{sample_full.full_cost}"]
    )
    rows.append(
        ["tim (global accumulator)", f"{tim_t.per_op_ms * 1000:.1f}",
         "current root only", f"{len(tim.get_proof(jsns[0]).path)}"]
    )
    rows.append(
        ["bim boa (light client)", f"{bim_t.per_op_ms * 1000:.1f}",
         f"{client.storage_bytes():,} B of headers",
         f"{len(bim.get_proof(*positions[jsns[0]]).path)}"]
    )
    return rows


#: Timed occults per mode; the ablation reports their median.
OCCULT_REPEATS = 5


def _build_mutation_ledger() -> tuple:
    ledger = Ledger(LedgerConfig(uri="ledger://ablate", fractal_height=4, block_size=8))
    user = KeyPair.generate(seed="ablate-user")
    dba = KeyPair.generate(seed="ablate-dba")
    regulator = KeyPair.generate(seed="ablate-reg")
    ledger.registry.register("user", Role.USER, user.public)
    ledger.registry.register("dba", Role.DBA, dba.public)
    ledger.registry.register("reg", Role.REGULATOR, regulator.public)
    for i in range(64):
        request = ClientRequest.build(
            "ledger://ablate", "user", b"payload-%03d" % i, nonce=bytes([i])
        ).signed_by(user)
        ledger.append(request)
    ledger.commit_block()
    return ledger, user, dba, regulator


def _occult_ms(mode) -> float:
    """Median ``execute_occult`` time in ``mode``, one journal per call.

    The approvals' ECDSA keys get their window tables on their
    ``PUBKEY_CACHE_THRESHOLD``-th verification, so that many untimed occults
    run first: otherwise the table builds land inside whichever mode is
    timed second, and the row measures the warm-up, not the mode.
    """
    ledger, _user, dba, regulator = _build_mutation_ledger()

    def prepared(jsn: int) -> tuple:
        record = ledger.prepare_occult(jsn, mode, reason="ablation")
        approvals = MultiSignature(digest=record.approval_digest())
        approvals.add("dba", dba.sign(record.approval_digest()))
        approvals.add("reg", regulator.sign(record.approval_digest()))
        return record, approvals

    jsns = iter(range(1, 64))
    for _ in range(PUBKEY_CACHE_THRESHOLD):
        ledger.execute_occult(*prepared(next(jsns)))
    samples = []
    for _ in range(OCCULT_REPEATS):
        record, approvals = prepared(next(jsns))
        timing = measure(lambda: ledger.execute_occult(record, approvals), repeat=1)
        samples.append(timing.per_op_ms)
    return statistics.median(samples)


def _mutation_ablation() -> list[list[str]]:
    sync_ms = _occult_ms(OccultMode.SYNC)
    async_ms = _occult_ms(OccultMode.ASYNC)

    def purge_storage(erase_fam: bool) -> tuple[int, int]:
        ledger, user, dba, _regulator = _build_mutation_ledger()
        before = ledger._fam.num_nodes()
        boundary = ledger.blocks[1].end_jsn
        pseudo, record = ledger.prepare_purge(boundary, erase_fam_nodes=erase_fam)
        approvals = MultiSignature(digest=record.approval_digest())
        for member in ledger.purge_required_signers(boundary):
            keypair = {"user": user, "dba": dba}.get(member) or ledger._lsp_keypair
            approvals.add(member, keypair.sign(record.approval_digest()))
        ledger.execute_purge(pseudo, record, approvals)
        return before, ledger._fam.num_nodes()

    keep_before, keep_after = purge_storage(erase_fam=False)
    erase_before, erase_after = purge_storage(erase_fam=True)

    return [
        ["occult SYNC (erase inline)", f"{sync_ms:.2f} ms", "payload gone at return"],
        [
            "occult ASYNC (reorganize later)",
            f"{async_ms:.2f} ms",
            "payload gone after reorganize()",
        ],
        [
            "purge, fam retained",
            f"{keep_before:,} -> {keep_after:,} nodes",
            "all digests still provable",
        ],
        [
            "purge, fam erased",
            f"{erase_before:,} -> {erase_after:,} nodes",
            "pre-purge epochs unprovable",
        ],
    ]


def _interval_ablation() -> list[list[str]]:
    rows = []
    for interval in (0.25, 1.0, 5.0):
        clock = SimClock()
        tsa = TimeStampAuthority("tsa", clock)
        tledger = TimeLedger(
            clock, tsa, finalize_interval=interval, admission_tolerance=2 * interval
        )
        # One simulated minute at 10 submissions/second.
        seqs = []
        for i in range(600):
            clock.advance(0.1)
            seqs.append(tledger.submit("ledger", leaf_hash(b"%d" % i), clock.now()).seq)
        clock.advance(interval)
        tledger.tick()
        widths = []
        for seq in seqs[:100]:
            evidence = tledger.get_evidence(seq)
            bound = evidence.time_bound()
            if bound.lower > float("-inf"):
                widths.append(bound.width)
        average_width = sum(widths) / len(widths) if widths else float("nan")
        rows.append(
            [
                f"{interval:.2f}",
                f"{tsa.stamps_issued}",
                f"{average_width:.2f}",
                f"{2 * interval:.2f}",
            ]
        )
    return rows


def run(quick: bool = True) -> AblationResult:
    return AblationResult(
        anchor_rows=_anchor_ablation(),
        mutation_rows=_mutation_ablation(),
        interval_rows=_interval_ablation(),
    )


def render(result: AblationResult) -> str:
    parts = [
        render_table(
            "Ablation 1 — anchor schemes: per-verification cost and client storage",
            ["scheme", "verify (µs)", "client-side storage", "path nodes"],
            result.anchor_rows,
        ),
        "",
        render_table(
            "Ablation 2 — mutation modes",
            ["operation", "cost", "effect"],
            result.mutation_rows,
        ),
        "",
        render_table(
            "Ablation 3 — T-Ledger anchoring interval Δτ (60 s @ 10 subs/s)",
            ["Δτ (s)", "TSA stamps", "avg evidence window (s)", "bound 2·Δτ"],
            result.interval_rows,
        ),
    ]
    return "\n".join(parts)
