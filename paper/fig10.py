"""Figure 10 — application-level comparison: LedgerDB vs Hyperledger Fabric.

Paper setup (§VI-D): data notarization (256 B payloads for TPS, 4 KB for
latency) and data lineage (entire-clue verification, varying entry count),
on an in-house two-node cluster.

Reproduction strategy (repro band: "throughput benchmarks unrepresentative"):

* Fabric numbers come from the behavioural simulator — real ECDSA
  endorsements plus the calibrated ordering/batching cost model;
* LedgerDB *latencies* combine the cost model's intra-cluster environment
  (0.25 ms RTT, ESSD-class random reads) with per-operation work counts;
* LedgerDB *throughput* is modelled from per-append operation counts at
  native crypto speeds with a documented server concurrency factor, because
  pure-Python ECDSA (~4 ms/op vs ~0.08 ms native) would otherwise invert
  the comparison; the honest in-process Python append rate is reported
  alongside.

Calibration constants (documented in EXPERIMENTS.md):
``_SERVER_CONCURRENCY`` = 6 parallel commit lanes,
``_COMMIT_OVERHEAD_MS`` = 2.2 ms server-side commit path,
``_LINEAGE_IOPS`` = 30_000 random-read budget for lineage verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import ClientRequest, Ledger, LedgerConfig
from repro.crypto.ca import Role
from repro.crypto.keys import KeyPair
from paper.baselines.fabric import FabricNetwork
from paper.costmodel import LEDGERDB_PROFILE
from paper.timing import measure, render_table

__all__ = ["Fig10Result", "run", "render"]

VOLUMES = tuple(1 << e for e in (5, 10, 15, 20, 25, 30))  # bytes, as in the paper
ENTRY_COUNTS = (1, 5, 10, 25, 50, 100)

_SERVER_CONCURRENCY = 6
_COMMIT_OVERHEAD_MS = 2.2
_LINEAGE_IOPS = 30_000.0


# --------------------------------------------------------------------------
# LedgerDB application models.
# --------------------------------------------------------------------------


def ledgerdb_write_tps(volume_bytes: int, payload_size: int = 256) -> float:
    """Modelled sustained append throughput at native crypto speeds.

    Per-append critical path: one receipt signature + journal hashing +
    one appending write; fam bagging is O(delta) and amortised.  Volume
    growth erodes throughput slightly (paper: 52K -> 50K over 2^5..2^30 B).
    """
    profile = LEDGERDB_PROFILE
    per_append_ms = (
        profile.sign_us / 1000.0
        + profile.hash_us / 1000.0 * 3  # leaf + request + receipt digests
        + profile.disk_write_us / 1000.0
        + payload_size / 1024.0 * profile.per_kb_transfer_us / 1000.0
    )
    base = _SERVER_CONCURRENCY / (per_append_ms / 1000.0)
    doublings = max(math.log2(max(volume_bytes / 32, 1)), 0.0)
    return base * (1.0 - 0.0016 * doublings)


def ledgerdb_write_latency_ms(payload_size: int = 4096) -> float:
    """End-to-end append latency inside the cluster (paper: ~2.5 ms)."""
    profile = LEDGERDB_PROFILE
    return (
        profile.net_rtt_ms
        + _COMMIT_OVERHEAD_MS
        + payload_size / 1024.0 * profile.per_kb_transfer_us / 1000.0
        + profile.disk_write_us / 1000.0
    )


def ledgerdb_lineage_latency_ms(entries: int) -> float:
    """Entire-clue verification latency: one random I/O per entry (§VI-D)."""
    profile = LEDGERDB_PROFILE
    return (
        profile.net_rtt_ms
        + 1.5  # proof assembly + CM-Tree1 path
        + entries * profile.disk_read_us / 1000.0
        + entries * profile.hash_us / 1000.0 * 2
    )


def ledgerdb_lineage_tps(entries: int) -> float:
    """Lineage verification throughput, bounded by the random-read budget."""
    io_bound = _LINEAGE_IOPS / max(entries, 1)
    latency_bound = _SERVER_CONCURRENCY / (ledgerdb_lineage_latency_ms(entries) / 1000.0)
    return min(io_bound, latency_bound)


def fabric_lineage_latency_ms(fabric: FabricNetwork, entries: int) -> float:
    """Fabric lineage verification routed through a chaincode transaction.

    The paper implements verification "within a smart contract using
    GetState", whose results are gathered through the consensus workflow —
    so the commit path's batching delay applies, plus near-flat per-entry
    streaming."""
    return (
        fabric.profile.consensus_batch_ms
        + fabric.profile.service_overhead_ms
        + fabric.profile.disk_read_us / 1000.0
        + entries * 0.012  # streaming + hashing per entry
    )


def fabric_lineage_tps(fabric: FabricNetwork, entries: int) -> float:
    """Fabric lineage throughput: single-I/O reads, capped by chaincode eval."""
    per_read_ms = (
        fabric.profile.service_overhead_ms / 10.0  # pipelined chaincode eval
        + fabric.endorser_count * fabric.profile.verify_sig_us / 1000.0
        + fabric.profile.disk_read_us / 1000.0
        + entries * 0.004
    )
    return 4.0 / (per_read_ms / 1000.0)


# --------------------------------------------------------------------------


def measured_python_append_tps(count: int = 60) -> float:
    """Honest in-process rate of real appends (pure-Python ECDSA)."""
    ledger = Ledger(LedgerConfig(uri="ledger://fig10", fractal_height=8, block_size=64))
    user = KeyPair.generate(seed="fig10-user")
    ledger.registry.register("u", Role.USER, user.public)
    requests = [
        ClientRequest.build(
            "ledger://fig10", "u", b"x" * 256, nonce=i.to_bytes(4, "big")
        ).signed_by(user)
        for i in range(count)
    ]

    def work() -> None:
        for request in requests:
            ledger.append(request)

    timing = measure(work, operations=count, repeat=1)
    return timing.ops_per_s


@dataclass
class Fig10Result:
    volumes: tuple[int, ...]
    entry_counts: tuple[int, ...]
    notarization_tps: dict[str, dict[int, float]]
    notarization_latency_ms: dict[str, float]
    lineage_tps: dict[str, dict[int, float]]
    lineage_latency_ms: dict[str, dict[int, float]]
    measured_python_tps: float
    fabric_invoke_measured_ms: float


def run(quick: bool = True) -> Fig10Result:
    fabric = FabricNetwork()
    notarization_tps = {
        "LedgerDB": {v: ledgerdb_write_tps(v) for v in VOLUMES},
        "Fabric": {v: fabric.estimate_write_tps(v) for v in VOLUMES},
    }
    fabric_invoke = fabric.invoke("bench-key", b"x" * 4096)
    notarization_latency = {
        "LedgerDB": ledgerdb_write_latency_ms(4096),
        "Fabric": fabric_invoke.latency_ms,
    }
    lineage_tps = {
        "LedgerDB": {m: ledgerdb_lineage_tps(m) for m in ENTRY_COUNTS},
        "Fabric": {m: fabric_lineage_tps(fabric, m) for m in ENTRY_COUNTS},
    }
    lineage_latency = {
        "LedgerDB": {m: ledgerdb_lineage_latency_ms(m) for m in ENTRY_COUNTS},
        "Fabric": {m: fabric_lineage_latency_ms(fabric, m) for m in ENTRY_COUNTS},
    }
    return Fig10Result(
        volumes=VOLUMES,
        entry_counts=ENTRY_COUNTS,
        notarization_tps=notarization_tps,
        notarization_latency_ms=notarization_latency,
        lineage_tps=lineage_tps,
        lineage_latency_ms=lineage_latency,
        measured_python_tps=measured_python_append_tps(20 if quick else 60),
        fabric_invoke_measured_ms=fabric_invoke.latency_ms,
    )


def render(result: Fig10Result) -> str:
    def volume_label(volume: int) -> str:
        return f"2^{volume.bit_length() - 1}B"

    tps_rows = [
        [system] + [f"{result.notarization_tps[system][v]:,.0f}" for v in result.volumes]
        for system in ("LedgerDB", "Fabric")
    ]
    tps_rows.append(
        ["ratio"]
        + [
            f"{result.notarization_tps['LedgerDB'][v] / result.notarization_tps['Fabric'][v]:.0f}x"
            for v in result.volumes
        ]
    )
    lat_rows = [
        ["LedgerDB", f"{result.notarization_latency_ms['LedgerDB']:.2f}"],
        ["Fabric", f"{result.notarization_latency_ms['Fabric']:.1f}"],
        [
            "ratio",
            "{:.0f}x".format(
                result.notarization_latency_ms["Fabric"]
                / result.notarization_latency_ms["LedgerDB"]
            ),
        ],
    ]
    lineage_tps_rows = [
        [system] + [f"{result.lineage_tps[system][m]:,.0f}" for m in result.entry_counts]
        for system in ("LedgerDB", "Fabric")
    ]
    lineage_lat_rows = [
        [system] + [f"{result.lineage_latency_ms[system][m]:,.1f}" for m in result.entry_counts]
        for system in ("LedgerDB", "Fabric")
    ]
    ratios = [
        result.lineage_latency_ms["Fabric"][m] / result.lineage_latency_ms["LedgerDB"][m]
        for m in result.entry_counts
    ]
    lineage_lat_rows.append(["ratio"] + [f"{r:.0f}x" for r in ratios])
    crossover = next(
        (
            m
            for m in result.entry_counts
            if result.lineage_tps["LedgerDB"][m] <= result.lineage_tps["Fabric"][m] * 1.2
        ),
        None,
    )
    parts = [
        render_table(
            "Figure 10(a) — notarization throughput (TPS), 256 B payloads",
            ["system"] + [volume_label(v) for v in result.volumes],
            tps_rows,
        ),
        "",
        render_table(
            "Figure 10(b) — notarization latency (ms), 4 KB payloads",
            ["system", "latency"],
            lat_rows,
        ),
        "",
        render_table(
            "Figure 10(c) — lineage verification throughput (TPS)",
            ["system"] + [f"m={m}" for m in result.entry_counts],
            lineage_tps_rows,
        ),
        "",
        render_table(
            "Figure 10(d) — lineage verification latency (ms)",
            ["system"] + [f"m={m}" for m in result.entry_counts],
            lineage_lat_rows,
        ),
        "",
        f"lineage TPS crossover near m={crossover} (paper: ~50);"
        f" average lineage latency ratio {sum(ratios) / len(ratios):.0f}x (paper: ~300x)",
        f"measured in-process Python append rate: {result.measured_python_tps:,.0f} TPS "
        "(pure-Python ECDSA; see module docstring)",
    ]
    return "\n".join(parts)
