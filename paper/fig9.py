"""Figure 9 — clue verification performance: CM-Tree vs ccMPT.

Paper setup: multiple clue keys, 1–100 journals randomly assigned to each
(~1 KB journals); measure clue-oriented verification throughput as the
ledger grows (Fig 9(a)) and latency versus the clue's entry count on a
fixed ledger (Fig 9(b), entries 10 / 100 / 1000 / 10000).

The asymptotics under test: ccMPT must prove each of the clue's m journals
against the *global* accumulator — O(m·log n), growing with ledger size —
while CM-Tree2 is an independent per-clue accumulator, so CM-Tree
verification is O(m + log |clues|) and stays flat as the ledger grows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.crypto.hashing import leaf_hash
from repro.merkle.cmtree import CMTree
from paper.merkle.ccmpt import ClueCounterMPT
from paper.merkle.tim import TimAccumulator
from paper.timing import measure, render_table

__all__ = ["Fig9Result", "run", "render", "build_world"]

QUICK_SIZES = (512, 2048, 8192)
FULL_SIZES = (512, 2048, 8192, 32768)
QUICK_ENTRY_COUNTS = (10, 100, 1000)
FULL_ENTRY_COUNTS = (10, 100, 1000, 10000)
VERIFY_ROUNDS = 30


@dataclass
class _World:
    tim: TimAccumulator
    cmtree: CMTree
    ccmpt: ClueCounterMPT
    digests: dict[int, bytes]  # jsn -> digest
    clue_jsns: dict[str, list[int]]
    forced_clues: list[tuple[str, int]]  # (name, entry count)


def build_world(
    total_journals: int, seed: int = 5, forced_clue_sizes: tuple[int, ...] = ()
) -> _World:
    """A ledger of ``total_journals`` whose clues hold 1–100 entries each.

    ``forced_clue_sizes`` additionally creates clues with exactly those
    entry counts, so measurements compare identical clue shapes across
    different ledger sizes (Fig 9(a)) and a controlled entry-count sweep
    (Fig 9(b)).
    """
    rng = random.Random(seed)
    tim = TimAccumulator()
    cmtree = CMTree()
    ccmpt = ClueCounterMPT(tim)
    digests: dict[int, bytes] = {}
    clue_jsns: dict[str, list[int]] = {}
    forced_clues: list[tuple[str, int]] = []

    plan: list[str] = []
    clue_index = 0
    remaining = total_journals
    for index, size in enumerate(forced_clue_sizes):
        name = f"forced-{index}-{size}"
        taken = min(size, remaining)
        forced_clues.append((name, taken))
        plan.extend([name] * taken)
        remaining -= taken
    while remaining > 0:
        name = f"clue-{clue_index:05d}"
        clue_index += 1
        count = min(rng.randint(1, 100), remaining)
        plan.extend([name] * count)
        remaining -= count
    rng.shuffle(plan)

    for jsn, clue in enumerate(plan):
        digest = leaf_hash(b"journal-%d" % jsn)  # stands in for a 1 KB payload
        tim.append_digest(digest)
        cmtree.add(clue, digest)
        ccmpt.add(clue, jsn)
        digests[jsn] = digest
        clue_jsns.setdefault(clue, []).append(jsn)
    return _World(
        tim=tim,
        cmtree=cmtree,
        ccmpt=ccmpt,
        digests=digests,
        clue_jsns=clue_jsns,
        forced_clues=forced_clues,
    )


def verify_cmtree_once(world: _World, clue: str) -> bool:
    proof = world.cmtree.prove_clue(clue)
    jsns = world.clue_jsns[clue]
    leaf_map = {version: world.digests[jsn] for version, jsn in enumerate(jsns)}
    return proof.verify(leaf_map, world.cmtree.root)


def verify_ccmpt_once(world: _World, clue: str) -> bool:
    proof = world.ccmpt.prove_clue(clue)
    leaf_digests = [world.digests[jsn] for jsn in proof.jsns]
    return ClueCounterMPT.verify_clue(
        proof, leaf_digests, world.ccmpt.root, world.tim.root()
    )


def modeled_latency_ms(model: str, ledger_size: int, entries: int) -> float:
    """Modelled verification latency including disk I/O (the paper's regime).

    On the paper's 32 GB ledgers the dominant cost is fetching proof nodes
    from disk.  ccMPT walks the *global* accumulator m times — O(m·log n)
    cold random reads — while CM-Tree2 is a small per-clue accumulator whose
    nodes fit the cache, leaving only the CM-Tree1 path (top layers cached,
    bottom ~2 levels on disk) plus O(m) hashing.
    """
    import math

    from paper.costmodel import LEDGERDB_PROFILE

    profile = LEDGERDB_PROFILE
    hash_ms = profile.hash_us / 1000.0
    read_ms = profile.disk_read_us / 1000.0
    cold_fraction = 0.25  # share of proof-node fetches missing the cache
    cached_read_ms = 0.0125  # a page-cache hit
    depth = max(math.log2(max(ledger_size, 2)), 1.0)
    if model == "ccMPT":
        # m global-accumulator path walks (partially cached) + 2 cold MPT reads.
        per_node = cold_fraction * read_ms + hash_ms
        return entries * depth * per_node + 2 * read_ms
    # CM-Tree: m cache-resident CM-Tree2 reads + log2(m) proof cells + 2 cold
    # CM-Tree1 bottom-layer reads (top layers are the in-memory cache, §IV-B2).
    return (
        entries * cached_read_ms
        + max(math.log2(max(entries, 2)), 1.0) * hash_ms
        + 2 * read_ms
    )


@dataclass
class Fig9Result:
    sizes: tuple[int, ...]
    entry_counts: tuple[int, ...]
    throughput: dict[str, dict[int, float]]  # model -> {ledger size: TPS}
    latency_ms: dict[str, dict[int, float]]  # model -> {entry count: ms}


def run(quick: bool = True) -> Fig9Result:
    sizes = QUICK_SIZES if quick else FULL_SIZES
    entry_counts = QUICK_ENTRY_COUNTS if quick else FULL_ENTRY_COUNTS

    # ---- (a) verification throughput vs ledger size ----------------------
    # Verify the same clue *shape* (fixed 50-entry clues) at every ledger
    # size so the measured trend isolates the ledger-size dependence.
    throughput: dict[str, dict[int, float]] = {"CM-Tree": {}, "ccMPT": {}}
    for size in sizes:
        world = build_world(size, forced_clue_sizes=(50,) * 8)
        clues = [name for name, _count in world.forced_clues]

        def run_cmtree() -> None:
            for clue in clues:
                assert verify_cmtree_once(world, clue)

        def run_ccmpt() -> None:
            for clue in clues:
                assert verify_ccmpt_once(world, clue)

        throughput["CM-Tree"][size] = measure(run_cmtree, operations=len(clues), repeat=3).ops_per_s
        throughput["ccMPT"][size] = measure(run_ccmpt, operations=len(clues), repeat=3).ops_per_s

    # ---- (b) verification latency vs clue entry count --------------------
    fixed_size = sizes[-1] * 2  # the paper's "fixed 1 GB ledger accumulator"
    world = build_world(fixed_size, forced_clue_sizes=entry_counts)
    latency: dict[str, dict[int, float]] = {"CM-Tree": {}, "ccMPT": {}}
    for (clue, _taken), count in zip(world.forced_clues, entry_counts):
        latency["CM-Tree"][count] = measure(
            lambda: verify_cmtree_once(world, clue), operations=1, repeat=3
        ).per_op_ms
        latency["ccMPT"][count] = measure(
            lambda: verify_ccmpt_once(world, clue), operations=1, repeat=3
        ).per_op_ms

    return Fig9Result(
        sizes=tuple(sizes),
        entry_counts=tuple(entry_counts),
        throughput=throughput,
        latency_ms=latency,
    )


def render(result: Fig9Result) -> str:
    tps_rows = [
        [model] + [f"{result.throughput[model][size]:,.0f}" for size in result.sizes]
        for model in ("CM-Tree", "ccMPT")
    ]
    speedups = [
        f"{result.throughput['CM-Tree'][size] / result.throughput['ccMPT'][size]:.1f}x"
        for size in result.sizes
    ]
    tps_rows.append(["speedup"] + speedups)
    lat_rows = [
        [model] + [f"{result.latency_ms[model][count]:.2f}" for count in result.entry_counts]
        for model in ("CM-Tree", "ccMPT")
    ]
    lat_rows.append(
        ["speedup"]
        + [
            f"{result.latency_ms['ccMPT'][count] / result.latency_ms['CM-Tree'][count]:.1f}x"
            for count in result.entry_counts
        ]
    )
    # Modelled-I/O projection at the paper's scale (32 KB … 32 GB ledgers,
    # i.e. 2^5 … 2^25 x 1 KB journals), 50-entry clues.
    paper_sizes = (1 << 5, 1 << 12, 1 << 18, 1 << 25)
    model_rows = []
    for model in ("CM-Tree", "ccMPT"):
        model_rows.append(
            [model]
            + [f"{1000.0 / modeled_latency_ms(model, size, 50):,.0f}" for size in paper_sizes]
        )
    model_rows.append(
        ["speedup"]
        + [
            "{:.0f}x".format(
                modeled_latency_ms("ccMPT", size, 50) / modeled_latency_ms("CM-Tree", size, 50)
            )
            for size in paper_sizes
        ]
    )
    parts = [
        render_table(
            "Figure 9(a) — clue verification throughput (ops/s), measured in-memory",
            ["model"] + [f"n={size}" for size in result.sizes],
            tps_rows,
        ),
        "",
        render_table(
            "Figure 9(a') — modelled with disk I/O at paper scale (50-entry clues)",
            ["model"] + [f"n={size}" for size in paper_sizes],
            model_rows,
        ),
        "",
        render_table(
            "Figure 9(b) — clue verification latency (ms) on a fixed ledger",
            ["model"] + [f"m={count}" for count in result.entry_counts],
            lat_rows,
        ),
        "",
        "Expected shape: CM-Tree throughput is flat in ledger size and its",
        "speedup over ccMPT grows with both ledger size and entry count",
        "(paper: 16x -> 33x across sizes; 7.6x -> 24x across entry counts).",
        "The measured tables isolate the CPU-side asymptotics; the modelled",
        "table adds the disk-I/O regime the paper's 32 GB ledgers run in.",
    ]
    return "\n".join(parts)
