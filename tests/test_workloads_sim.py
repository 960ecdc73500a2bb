"""Workload generators and the cost model."""

from paper.costmodel import FABRIC_PROFILE, LEDGERDB_PROFILE, QLDB_PROFILE, CostMeter
from paper.workloads import LineageWorkload, NotarizationWorkload, payload_bytes

import random


class TestWorkloads:
    def test_notarization_determinism(self):
        a = list(NotarizationWorkload(10, payload_size=64, seed=3))
        b = list(NotarizationWorkload(10, payload_size=64, seed=3))
        assert a == b
        c = list(NotarizationWorkload(10, payload_size=64, seed=4))
        assert a != c

    def test_notarization_sizes_and_ids_unique(self):
        docs = list(NotarizationWorkload(50, payload_size=256, seed=1))
        assert all(len(d.data) == 256 for d in docs)
        assert len({d.doc_id for d in docs}) == 50

    def test_lineage_entry_counts_in_range(self):
        workload = LineageWorkload(20, min_entries=1, max_entries=100, seed=5)
        counts = workload.entry_counts()
        assert len(counts) == 20
        assert all(1 <= c <= 100 for c in counts.values())

    def test_lineage_versions_sequential_per_clue(self):
        workload = LineageWorkload(8, min_entries=2, max_entries=10, seed=9)
        seen = {}
        for op in workload:
            assert op.version == seen.get(op.clue, 0)
            seen[op.clue] = op.version + 1
        assert seen == workload.entry_counts()

    def test_total_entries_matches_iteration(self):
        workload = LineageWorkload(10, seed=2)
        assert sum(1 for _ in workload) == workload.total_entries()

    def test_payload_bytes_exact_size(self):
        rng = random.Random(0)
        for size in (0, 1, 7, 256):
            assert len(payload_bytes(rng, size)) == size


class TestCostModel:
    def test_meter_accumulates(self):
        meter = CostMeter(LEDGERDB_PROFILE)
        meter.api_rtts(2).hashes(100).signs(1)
        assert meter.elapsed_ms > 50  # 2 x 25ms RTT dominates
        breakdown = meter.breakdown()
        assert breakdown["api_rtt"] == 50.0
        assert meter.counts()["hash"] == 100

    def test_reset(self):
        meter = CostMeter(LEDGERDB_PROFILE)
        meter.api_rtts(1)
        meter.reset()
        assert meter.elapsed_ms == 0 and meter.breakdown() == {}

    def test_profiles_encode_paper_magnitudes(self):
        # QLDB's opaque verify overhead and Fabric's batching dominate.
        assert QLDB_PROFILE.service_overhead_ms > 1000
        assert FABRIC_PROFILE.consensus_batch_ms > 1000
        assert LEDGERDB_PROFILE.api_rtt_ms < 30

    def test_transfer_scales_with_kilobytes(self):
        meter = CostMeter(LEDGERDB_PROFILE)
        meter.transfer_kb(256.0)
        small = CostMeter(LEDGERDB_PROFILE)
        small.transfer_kb(0.25)
        assert meter.elapsed_ms > small.elapsed_ms * 100
