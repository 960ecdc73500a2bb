"""Figure 8 — write and verification performance: fam vs tim.

Paper setup: fam-δ for δ in {5,10,15,20,25} (epoch thresholds 2^δ) against
the tim single-accumulator baseline, over ledger volumes 32 KB … 32 GB.

Scaling substitution: ledger volume becomes *journal count* and the fractal
heights are scaled down (δ in {2,4,6,8,10}, i.e. epoch thresholds 4…1024) so
every fam variant still crosses its epoch threshold within laptop-sized
runs — the paper's observation that "fam models only get stable performance
once accumulated journals reach their own thresholds" reproduces exactly.

* Figure 8(a): Append TPS.  tim publishes a fresh global root per append
  (O(log n) bagging, degrading with size); fam only bags its live epoch
  (bounded by δ).
* Figure 8(b): GetProof TPS on random jsns.  tim builds O(log n) paths;
  fam-aoa builds O(δ) in-epoch paths against trusted anchors.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.hashing import leaf_hash
from repro.merkle.fam import FamAccumulator
from paper.merkle.bamt import BamtAccumulator
from paper.merkle.tim import TimAccumulator
from paper.timing import Timing, measure, render_table

__all__ = ["Fig8Result", "run", "render", "build_fam", "build_tim", "build_bamt"]

QUICK_SIZES = (1 << 8, 1 << 11, 1 << 14)
FULL_SIZES = (1 << 8, 1 << 11, 1 << 14, 1 << 17)
HEIGHTS = (2, 4, 6, 8, 10)  # scaled stand-ins for fam-5 … fam-25
APPEND_BATCH = 1024
PROOF_SAMPLES = 512


def _digests(count: int, seed: int = 0) -> list[bytes]:
    return [leaf_hash(seed.to_bytes(2, "big") + i.to_bytes(8, "big")) for i in range(count)]


def build_fam(height: int, size: int) -> FamAccumulator:
    fam = FamAccumulator(height)
    for digest in _digests(size):
        fam.append(digest)
    return fam


def build_tim(size: int) -> TimAccumulator:
    tim = TimAccumulator()
    for digest in _digests(size):
        tim.append_digest(digest)
    return tim


def build_bamt(size: int, batch_size: int = 64) -> BamtAccumulator:
    bamt = BamtAccumulator(batch_size=batch_size)
    for digest in _digests(size):
        bamt.append_digest(digest)
    return bamt


def append_tps_bamt(bamt: BamtAccumulator, batch: int = APPEND_BATCH) -> Timing:
    extra = _digests(batch, seed=7)

    def work() -> None:
        for digest in extra:
            bamt.append_digest(digest)
            bamt.root()  # per-transaction commitment publication

    return measure(work, operations=batch, repeat=3)


def proof_tps_bamt(bamt: BamtAccumulator, samples: int = PROOF_SAMPLES) -> Timing:
    rng = random.Random(13)
    sequences = [rng.randrange(bamt.size) for _ in range(samples)]
    all_digests = _digests(bamt.size)
    digests = {s: all_digests[s] for s in set(sequences)}
    root = bamt.root()

    def work() -> None:
        for sequence in sequences:
            proof = bamt.get_proof(sequence)
            bamt.verify(digests[sequence], proof, root)

    return measure(work, operations=samples, repeat=2)


def append_tps_fam(fam: FamAccumulator, batch: int = APPEND_BATCH) -> Timing:
    extra = _digests(batch, seed=7)

    def work() -> None:
        for digest in extra:
            fam.append(digest)
            fam.current_root()  # publish the per-journal commitment

    return measure(work, operations=batch, repeat=3)


def append_tps_tim(tim: TimAccumulator, batch: int = APPEND_BATCH) -> Timing:
    extra = _digests(batch, seed=7)

    def work() -> None:
        for digest in extra:
            tim.append_digest(digest)  # publishes the global root internally

    return measure(work, operations=batch, repeat=3)


def proof_tps_fam(fam: FamAccumulator, samples: int = PROOF_SAMPLES) -> Timing:
    rng = random.Random(13)
    jsns = [rng.randrange(fam.size) for _ in range(samples)]

    def work() -> None:
        for jsn in jsns:
            proof = fam.get_proof(jsn, anchored=True)  # fam-aoa fast path
            proof.epoch_proof.computed_root(fam.leaf_digest(jsn))

    return measure(work, operations=samples, repeat=2)


def proof_tps_tim(tim: TimAccumulator, samples: int = PROOF_SAMPLES) -> Timing:
    rng = random.Random(13)
    jsns = [rng.randrange(tim.size) for _ in range(samples)]
    root = tim.root()

    def work() -> None:
        for jsn in jsns:
            proof = tim.get_proof(jsn)
            proof.verify(tim.leaf(jsn), root)

    return measure(work, operations=samples, repeat=2)


@dataclass
class Fig8Result:
    sizes: tuple[int, ...]
    # rows: model name -> {size: tps}
    append_tps: dict[str, dict[int, float]]
    proof_tps: dict[str, dict[int, float]]


def run(quick: bool = True) -> Fig8Result:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    append_tps: dict[str, dict[int, float]] = {}
    proof_tps: dict[str, dict[int, float]] = {}
    for height in HEIGHTS:
        name = f"fam-{height}"
        append_tps[name] = {}
        proof_tps[name] = {}
        for size in sizes:
            fam = build_fam(height, size)
            # Proofs first (non-mutating), then the append batch.
            proof_tps[name][size] = proof_tps_fam(fam).ops_per_s
            append_tps[name][size] = append_tps_fam(fam).ops_per_s
    append_tps["tim"] = {}
    proof_tps["tim"] = {}
    append_tps["bamt"] = {}
    proof_tps["bamt"] = {}
    for size in sizes:
        tim = build_tim(size)
        proof_tps["tim"][size] = proof_tps_tim(tim).ops_per_s
        append_tps["tim"][size] = append_tps_tim(tim).ops_per_s
        bamt = build_bamt(size)
        proof_tps["bamt"][size] = proof_tps_bamt(bamt).ops_per_s
        append_tps["bamt"][size] = append_tps_bamt(bamt).ops_per_s
    return Fig8Result(sizes=tuple(sizes), append_tps=append_tps, proof_tps=proof_tps)


def render(result: Fig8Result) -> str:
    headers = ["model"] + [f"n={size}" for size in result.sizes]

    def table(title: str, series: dict[str, dict[int, float]]) -> str:
        rows = []
        for model in sorted(series, key=lambda m: (m in ("tim", "bamt"), m)):
            rows.append(
                [model] + [f"{series[model][size]:,.0f}" for size in result.sizes]
            )
        return render_table(title, headers, rows)

    parts = [
        table("Figure 8(a) — Append throughput (ops/s)", result.append_tps),
        "",
        table("Figure 8(b) — GetProof throughput (ops/s)", result.proof_tps),
        "",
        "Expected shape: tim degrades as n grows; fam-δ stabilises once its",
        "epoch threshold 2^δ is crossed, and smaller δ verifies faster.",
    ]
    return "\n".join(parts)
