"""Comparator simulators: QLDB, Fabric, ProvenDB — behaviour and shapes."""

import pytest

from paper.baselines.fabric import FabricNetwork
from paper.baselines.provendb import ProvenDBSimulator
from paper.baselines.qldb import QLDBSimulator
from repro.timeauth import SimClock


class TestQLDB:
    def test_insert_retrieve_round_trip(self):
        qldb = QLDBSimulator()
        qldb.insert("docs", "k1", b"hello")
        result = qldb.retrieve("docs", "k1")
        assert result.value.data == b"hello"

    def test_versions_accumulate(self):
        qldb = QLDBSimulator()
        for i in range(5):
            qldb.insert("docs", "k", b"v%d" % i)
        assert qldb.retrieve("docs", "k").value.version == 4
        assert qldb.retrieve("docs", "k", version=2).value.data == b"v2"

    def test_get_revision_produces_valid_proof(self):
        qldb = QLDBSimulator()
        for i in range(20):
            qldb.insert("docs", "k%d" % (i % 4), b"data-%d" % i)
        result = qldb.get_revision("docs", "k1", 0)
        revision, proof = result.value
        assert proof.verify(
            __import__("repro.crypto.hashing", fromlist=["leaf_hash"]).leaf_hash(
                qldb._revision_bytes[revision.sequence]
            ),
            qldb.ledger_digest(),
        )

    def test_verify_latency_dominated_by_service(self):
        qldb = QLDBSimulator()
        qldb.insert("docs", "k", b"x" * 32768)
        verify = qldb.get_revision("docs", "k", 0)
        insert = qldb.insert("docs", "k2", b"x" * 32768)
        # Table II shape: verify >> insert (1.56 s vs 65 ms).
        assert verify.latency_ms > 10 * insert.latency_ms
        assert 1000 < verify.latency_ms < 3000

    def test_lineage_scales_linearly(self):
        qldb = QLDBSimulator()
        for i in range(100):
            qldb.insert("docs", "lineage-key", b"v%d" % i)
        for i in range(5):
            qldb.insert("docs", "short-key", b"v%d" % i)
        long_result = qldb.verify_lineage("docs", "lineage-key")
        short_result = qldb.verify_lineage("docs", "short-key")
        ratio = long_result.latency_ms / short_result.latency_ms
        assert 15 < ratio < 25  # ~100/5 = 20x, as in Table II (155.9/7.79)

    def test_missing_keys_raise(self):
        qldb = QLDBSimulator()
        with pytest.raises(KeyError):
            qldb.retrieve("docs", "ghost")
        with pytest.raises(KeyError):
            qldb.get_revision("docs", "ghost", 0)
        with pytest.raises(KeyError):
            qldb.verify_lineage("docs", "ghost")


class TestFabric:
    def test_invoke_commits_state(self):
        fabric = FabricNetwork()
        fabric.invoke("asset", b"v1")
        fabric.invoke("asset", b"v2")
        assert fabric.get_state("asset").value.value == b"v2"
        assert fabric.tx_count == 2

    def test_commit_latency_dominated_by_ordering(self):
        fabric = FabricNetwork()
        result = fabric.invoke("a", b"v")
        assert result.latency_ms > 1000  # the ~1.2 s batching cost
        assert result.breakdown["consensus_batch"] > 0.8 * result.latency_ms

    def test_endorsements_are_real_signatures(self):
        fabric = FabricNetwork(endorsers=3)
        entry = fabric.invoke("a", b"v").value
        assert len(entry.endorsements) == 3
        keys = {pid: kp.public for pid, kp in fabric._endorsers}
        for endorsement in entry.endorsements:
            assert keys[endorsement.peer_id].verify(endorsement.digest, endorsement.signature)

    def test_read_latency_flat_in_history_length(self):
        fabric = FabricNetwork()
        for i in range(100):
            fabric.invoke("long", b"v%d" % i)
        fabric.invoke("short", b"v")
        long_read = fabric.verify_history("long")
        short_read = fabric.verify_history("short")
        # "nearly a single random I/O for the entire clue": far sub-linear.
        assert long_read.latency_ms < short_read.latency_ms * 2

    def test_throughput_magnitude_and_decline(self):
        fabric = FabricNetwork()
        small = fabric.estimate_write_tps(2**5)
        large = fabric.estimate_write_tps(2**30)
        assert 2000 < small < 3000  # paper: 2386
        assert 1700 < large < small  # paper: 1978
        assert (small - large) / small < 0.25

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            FabricNetwork().get_state("ghost")


class TestProvenDB:
    def test_versions_and_existence_verification(self):
        clock = SimClock()
        prov = ProvenDBSimulator(clock)
        for i in range(4):
            prov.insert("doc", b"v%d" % i)
        assert prov.latest("doc").version == 3
        assert len(prov.history("doc")) == 4
        for version in range(4):
            assert prov.verify_version("doc", version)
        assert not prov.verify_version("doc", 9)
        assert not prov.verify_version("ghost", 0)

    def test_honest_pegging_produces_evidence(self):
        clock = SimClock()
        prov = ProvenDBSimulator(clock, peg_interval=60.0)
        prov.insert("doc", b"data")
        clock.advance(60.0 + 600.0)  # peg due + notary block mined
        prov.tick()
        bound = prov.time_bound_for_root(prov._accumulator.root())
        assert bound is not None
        assert bound.lower == float("-inf")  # one-way: no lower bound

    def test_malicious_delay_amplifies_anchor_gap(self):
        def gap_with_delay(delay):
            clock = SimClock()
            prov = ProvenDBSimulator(clock, peg_interval=60.0, malicious_delay=delay)
            record = prov.insert("doc", b"data")
            clock.advance(60.0 + delay + 1200.0)
            prov.tick()
            return prov.effective_anchor_delay(record)

        honest = gap_with_delay(0.0)
        delayed = gap_with_delay(5000.0)
        assert honest is not None and delayed is not None
        assert delayed > honest + 4000.0  # amplification grows with the delay
