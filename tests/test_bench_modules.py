"""Regression tests for the paper-figure reproduction modules.

These do not re-run the full sweeps (``python -m paper --full`` does); they run
the cheap modules end-to-end and assert the *shapes* EXPERIMENTS.md claims,
so a refactor that silently breaks a reproduced result fails CI.
"""

import pytest

from paper import fig5, fig10, table1, table2
from paper.fig9 import modeled_latency_ms
from paper.fig10 import (
    fabric_lineage_latency_ms,
    fabric_lineage_tps,
    ledgerdb_lineage_latency_ms,
    ledgerdb_lineage_tps,
    ledgerdb_write_latency_ms,
    ledgerdb_write_tps,
)
from paper.baselines.fabric import FabricNetwork


class TestTable1Module:
    def test_runs_and_renders(self):
        result = table1.run()
        text = table1.render(result)
        assert "LedgerDB" in text and "Factom" in text
        purged = result.storage_nodes["fam after purge (erased epochs)"]
        assert purged < result.storage_nodes["fam (LedgerDB)"]
        assert purged < result.storage_nodes["tim (QLDB/Diem)"]  # the "Lowest" cell


class TestTable2Module:
    def test_shapes(self):
        result = table2.run()
        rows = {op: (qldb, ledger) for _s, op, qldb, ledger in result.rows}
        # Verify is the dominant gap; lineage is linear in versions.
        assert rows["Verify"][0] > 1.0  # QLDB verify is seconds-scale
        assert rows["Verify"][1] < 0.1  # LedgerDB stays tens of ms
        v5, v100 = rows["Verify (5 versions)"][0], rows["Verify (100 versions)"][0]
        assert 15 < v100 / v5 < 25  # ~20x: linear in version count
        l5, l100 = rows["Verify (5 versions)"][1], rows["Verify (100 versions)"][1]
        assert l100 / l5 < 2  # LedgerDB flat


class TestFig5Module:
    def test_one_way_unbounded_two_way_bounded(self):
        result = fig5.run()
        one_way = [result.one_way_windows[d] for d in result.delays]
        assert one_way == sorted(one_way)  # grows with delay
        assert one_way[-1] > 600_000
        assert all(w <= result.bound + 1e-9 for w in result.two_way_windows.values())
        assert result.tledger_acceptance[0.2] and not result.tledger_acceptance[60.0]


class TestFig9Model:
    def test_cmtree_flat_ccmpt_grows(self):
        cm = [modeled_latency_ms("CM-Tree", n, 50) for n in (1 << 5, 1 << 25)]
        cc = [modeled_latency_ms("ccMPT", n, 50) for n in (1 << 5, 1 << 25)]
        assert cm[0] == pytest.approx(cm[1])  # flat in ledger size
        assert cc[1] > cc[0] * 3  # grows with ledger size
        # The paper's band: speedup between ~9x and ~45x across scales.
        assert 5 < cc[0] / cm[0] < 20
        assert 25 < cc[1] / cm[1] < 60


class TestFig10Model:
    def test_notarization_ratio_near_23x(self):
        fabric = FabricNetwork()
        for volume in (1 << 5, 1 << 30):
            ratio = ledgerdb_write_tps(volume) / fabric.estimate_write_tps(volume)
            assert 18 < ratio < 30  # paper: 23x

    def test_notarization_latency_ratio(self):
        fabric = FabricNetwork()
        invoke_ms = fabric.invoke("k", b"x" * 4096).latency_ms
        ratio = invoke_ms / ledgerdb_write_latency_ms(4096)
        assert 300 < ratio < 700  # paper: ~500x

    def test_lineage_crossover_near_50(self):
        fabric = FabricNetwork()
        # LedgerDB dominates at m=1, Fabric wins by m=100: crossover between.
        assert ledgerdb_lineage_tps(1) > 3 * fabric_lineage_tps(fabric, 1)
        assert ledgerdb_lineage_tps(100) < fabric_lineage_tps(fabric, 100)
        assert ledgerdb_lineage_tps(50) == pytest.approx(
            fabric_lineage_tps(fabric, 50), rel=0.35
        )

    def test_lineage_latency_ratio_near_300x(self):
        fabric = FabricNetwork()
        ratios = [
            fabric_lineage_latency_ms(fabric, m) / ledgerdb_lineage_latency_ms(m)
            for m in (1, 5, 10, 25, 50, 100)
        ]
        average = sum(ratios) / len(ratios)
        assert 200 < average < 450  # paper: ~300x

    def test_run_quick_executes(self):
        result = fig10.run(quick=True)
        assert result.measured_python_tps > 0
        text = fig10.render(result)
        assert "crossover" in text


class TestMutationAblation:
    def test_every_timed_occult_finds_both_approver_tables_built(self, monkeypatch):
        """The occult rows time the mode, not ECDSA warm-up: both approvers'
        public-key window tables are in the LRU before each timed call."""
        from paper import ablations
        from repro.core import OccultMode
        from repro.crypto import KeyPair, ecdsa

        approvers = [KeyPair.generate(seed=seed).public for seed in ("ablate-dba", "ablate-reg")]
        keys = [(pk.curve.name, pk.point.x, pk.point.y) for pk in approvers]
        real_measure = ablations.measure
        warm = []

        def checked_measure(fn, *args, **kwargs):
            warm.append(all(key in ecdsa._PUBKEY_TABLES for key in keys))
            return real_measure(fn, *args, **kwargs)

        monkeypatch.setattr(ablations, "measure", checked_measure)
        ecdsa.clear_fast_path_caches()  # start cold, as a fresh process does
        for mode in (OccultMode.SYNC, OccultMode.ASYNC):
            assert ablations._occult_ms(mode) > 0
        assert warm == [True] * (2 * ablations.OCCULT_REPEATS)
