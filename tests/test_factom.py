"""Factom-like baseline: rigorous what, non-judicial when, unrigorous who."""

import pytest

from paper.baselines.factom import FactomSimulator
from repro.crypto import KeyPair
from repro.timeauth import SimClock


@pytest.fixture()
def factom():
    clock = SimClock()
    simulator = FactomSimulator(clock, block_interval=600.0)
    return clock, simulator


class TestEntryLifecycle:
    def test_entries_seal_into_directory_blocks(self, factom):
        clock, simulator = factom
        entries = [simulator.add_entry("chain-A", b"doc-%d" % i) for i in range(5)]
        assert simulator.height == 0
        clock.advance(600.0)
        simulator.tick()
        assert simulator.height == 1
        for entry in entries:
            proof = simulator.prove_entry(entry)
            assert FactomSimulator.verify_entry(entry, proof)

    def test_multiple_chains_in_one_block(self, factom):
        clock, simulator = factom
        a = simulator.add_entry("chain-A", b"a")
        b = simulator.add_entry("chain-B", b"b")
        clock.advance(600.0)
        simulator.tick()
        assert FactomSimulator.verify_entry(a, simulator.prove_entry(a))
        assert FactomSimulator.verify_entry(b, simulator.prove_entry(b))

    def test_unsealed_entry_not_provable(self, factom):
        _clock, simulator = factom
        entry = simulator.add_entry("chain-A", b"fresh")
        with pytest.raises(KeyError):
            simulator.prove_entry(entry)

    def test_sequence_numbers_per_chain(self, factom):
        clock, simulator = factom
        first = simulator.add_entry("c", b"1")
        clock.advance(600.0)
        simulator.tick()
        second = simulator.add_entry("c", b"2")
        assert first.sequence == 0 and second.sequence == 1


class TestWhat:
    def test_tampered_content_fails(self, factom):
        import dataclasses

        clock, simulator = factom
        entry = simulator.add_entry("chain-A", b"original")
        clock.advance(600.0)
        simulator.tick()
        proof = simulator.prove_entry(entry)
        forged = dataclasses.replace(entry, content=b"tampered")
        assert not FactomSimulator.verify_entry(forged, proof)


class TestWhen:
    def test_anchor_gives_upper_bound_only(self, factom):
        clock, simulator = factom
        entry = simulator.add_entry("chain-A", b"doc")
        clock.advance(600.0)
        simulator.tick()
        clock.advance(600.0)  # Bitcoin block mined
        proof = simulator.prove_entry(entry)
        bound = FactomSimulator.time_bound(proof)
        assert bound is not None
        assert bound.upper < float("inf")
        assert bound.lower == float("-inf")  # non-judicial when: no floor

    def test_no_bound_before_anchor_mined(self):
        # Directory blocks every 300 s, Bitcoin blocks every 600 s: in the
        # gap the entry is sealed but its anchor is not yet mined.
        clock = SimClock()
        simulator = FactomSimulator(clock, block_interval=300.0)
        entry = simulator.add_entry("chain-A", b"doc")
        clock.advance(300.0)
        simulator.tick()
        proof = simulator.prove_entry(entry)
        assert FactomSimulator.verify_entry(entry, proof)  # what: provable
        assert FactomSimulator.time_bound(proof) is None  # when: not yet


class TestWho:
    def test_self_signed_entry_verifies_key_possession(self, factom):
        _clock, simulator = factom
        keypair = KeyPair.generate(seed="anon")
        entry = simulator.add_entry("chain-A", b"signed doc", keypair=keypair)
        assert entry.verify_signature()

    def test_who_is_unrigorous_no_identity_binding(self, factom):
        # Any freshly generated key works — no CA, no registration: the
        # signature proves key possession, not a real-world identity.
        _clock, simulator = factom
        throwaway = KeyPair.generate(seed="burner-key")
        entry = simulator.add_entry("chain-A", b"doc", keypair=throwaway)
        assert entry.verify_signature()
        assert entry.public_key is not None  # but bound to nothing

    def test_unsigned_entry_has_no_who(self, factom):
        _clock, simulator = factom
        entry = simulator.add_entry("chain-A", b"anonymous doc")
        assert not entry.verify_signature()


class TestStorage:
    def test_highest_overhead_rating(self, factom):
        clock, simulator = factom
        for block in range(4):
            for i in range(8):
                simulator.add_entry(f"chain-{i % 2}", b"e%d" % i)
            clock.advance(600.0)
            simulator.tick()
        units = simulator.storage_units()
        # Every layer retained: strictly more objects than entries alone.
        assert units["total"] > units["entries"]
        assert units["directory_blocks"] >= 4
        assert units["entry_blocks"] == 8  # 2 chains x 4 blocks
