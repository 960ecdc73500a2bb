"""Clocks, TSA, pegging protocols, T-Ledger, and Fig 5's attack scenarios."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import leaf_hash
from repro.timeauth import (
    PublicChainNotary,
    OneWayPegger,
    SimClock,
    SkewedClock,
    StaleRequestError,
    TimeLedger,
    TimeStampAuthority,
    TSAPool,
    TSAUnavailableError,
    TwoWayPegger,
)
from repro.timeauth.pegging import TimeBound

from paper.fig5 import (
    run_one_way_amplification,
    run_tledger_stale_submission,
    run_two_way_window,
)


class TestClocks:
    def test_sim_clock_advances(self):
        clock = SimClock(10.0)
        assert clock.now() == 10.0
        clock.advance(5.0)
        assert clock.now() == 15.0

    def test_sim_clock_rejects_backwards(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_is_monotone(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)  # no-op
        assert clock.now() == 10.0
        clock.advance_to(20.0)
        assert clock.now() == 20.0

    def test_skewed_clock(self):
        base = SimClock(100.0)
        skewed = SkewedClock(base, offset=-3.5)
        assert skewed.now() == 96.5
        base.advance(1.0)
        assert skewed.now() == 97.5


class TestTSA:
    def test_token_verifies(self):
        clock = SimClock(42.0)
        tsa = TimeStampAuthority("ntsc", clock)
        token = tsa.stamp(leaf_hash(b"digest"))
        assert token.timestamp == 42.0
        assert token.verify(tsa.public_key)

    def test_token_rejects_other_key(self):
        clock = SimClock()
        tsa1 = TimeStampAuthority("a", clock)
        tsa2 = TimeStampAuthority("b", clock)
        token = tsa1.stamp(leaf_hash(b"d"))
        assert not token.verify(tsa2.public_key)

    def test_tampered_timestamp_detected(self):
        import dataclasses

        clock = SimClock(5.0)
        tsa = TimeStampAuthority("a", clock)
        token = tsa.stamp(leaf_hash(b"d"))
        forged = dataclasses.replace(token, timestamp=1.0)  # backdate attempt
        assert not forged.verify(tsa.public_key)

    def test_unavailable_tsa_raises(self):
        tsa = TimeStampAuthority("a", SimClock())
        tsa.available = False
        with pytest.raises(TSAUnavailableError):
            tsa.stamp(leaf_hash(b"d"))

    def test_pool_round_robin_and_failover(self):
        clock = SimClock()
        members = [TimeStampAuthority(f"t{i}", clock) for i in range(3)]
        pool = TSAPool(members)
        ids = {pool.stamp(leaf_hash(b"%d" % i)).tsa_id for i in range(3)}
        assert ids == {"t0", "t1", "t2"}  # rotation spreads load
        members[0].available = False
        members[1].available = False
        token = pool.stamp(leaf_hash(b"x"))
        assert token.tsa_id == "t2"
        members[2].available = False
        with pytest.raises(TSAUnavailableError):
            pool.stamp(leaf_hash(b"y"))

    def test_pool_verify_dispatches_by_id(self):
        clock = SimClock()
        pool = TSAPool([TimeStampAuthority("t0", clock), TimeStampAuthority("t1", clock)])
        token = pool.stamp(leaf_hash(b"z"))
        assert pool.verify(token)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            TSAPool([])


class TestOneWayPegging:
    def test_evidence_appears_after_block(self):
        clock = SimClock()
        notary = PublicChainNotary(clock, block_interval=100.0)
        pegger = OneWayPegger(notary)
        digest = leaf_hash(b"d")
        pegger.peg(digest)
        assert pegger.time_bound_for(digest) is None  # not yet mined
        clock.advance(100.0)
        bound = pegger.time_bound_for(digest)
        assert bound is not None and bound.upper == 100.0

    def test_lower_bound_is_unknowable(self):
        # The structural weakness: one-way pegging cannot lower-bound time.
        clock = SimClock()
        notary = PublicChainNotary(clock, block_interval=10.0)
        pegger = OneWayPegger(notary)
        digest = leaf_hash(b"d")
        pegger.peg(digest)
        clock.advance(10.0)
        assert pegger.time_bound_for(digest).lower == float("-inf")

    def test_blocks_mine_on_schedule(self):
        clock = SimClock()
        notary = PublicChainNotary(clock, block_interval=10.0)
        clock.advance(35.0)
        notary.tick()
        assert notary.height == 3


class TestTwoWayPegging:
    def test_anchor_callback_invoked(self):
        clock = SimClock()
        tsa = TimeStampAuthority("t", clock)
        anchored = []
        pegger = TwoWayPegger(tsa, anchor_callback=anchored.append)
        token = pegger.peg(leaf_hash(b"root"))
        assert anchored == [token]
        assert token.verify(tsa.public_key)

    def test_bracket_bounds(self):
        clock = SimClock()
        tsa = TimeStampAuthority("t", clock)
        pegger = TwoWayPegger(tsa, anchor_callback=lambda t: None)
        for advance in (10.0, 10.0, 10.0):
            pegger.peg(leaf_hash(b"r"))
            clock.advance(advance)
        bound = TwoWayPegger.bracket(pegger.tokens, anchored_at=15.0)
        assert bound.lower == 10.0 and bound.upper == 20.0


class TestTimeLedger:
    def make(self, finalize=1.0, tolerance=1.0):
        clock = SimClock()
        tsa = TimeStampAuthority("t", clock)
        return clock, tsa, TimeLedger(clock, tsa, finalize, tolerance)

    def test_submit_and_evidence(self):
        clock, tsa, tledger = self.make()
        clock.advance(0.25)
        receipt = tledger.submit("ledger-A", leaf_hash(b"root"), clock.now())
        clock.advance(1.0)
        evidence = tledger.get_evidence(receipt.seq)
        assert evidence.verify(tsa)
        assert evidence.verify({"t": tsa.public_key})
        bound = evidence.time_bound()
        assert bound.upper >= 0.25

    def test_stale_submission_rejected(self):
        clock, _tsa, tledger = self.make(tolerance=0.5)
        stamped_at = clock.now()
        clock.advance(2.0)  # adversary sat on the request
        with pytest.raises(StaleRequestError):
            tledger.submit("ledger-A", leaf_hash(b"r"), stamped_at)
        assert tledger.rejected_count == 1

    def test_future_timestamp_rejected(self):
        clock, _tsa, tledger = self.make(tolerance=0.5)
        with pytest.raises(StaleRequestError):
            tledger.submit("ledger-A", leaf_hash(b"r"), clock.now() + 100.0)

    def test_finalizations_run_on_schedule(self):
        clock, _tsa, tledger = self.make(finalize=1.0)
        clock.advance(3.5)
        assert tledger.tick() == 3
        assert len(tledger.finalizations) == 3

    def test_evidence_needs_covering_finalization(self):
        clock, _tsa, tledger = self.make()
        receipt = tledger.submit("l", leaf_hash(b"r"), clock.now())
        with pytest.raises(LookupError):
            tledger.get_evidence(receipt.seq)

    def test_evidence_bounds_tighten_with_interval(self):
        for interval in (2.0, 0.5):
            clock = SimClock()
            tsa = TimeStampAuthority("t", clock)
            tledger = TimeLedger(clock, tsa, interval, admission_tolerance=5.0)
            clock.advance(interval)
            tledger.tick()
            clock.advance(interval / 4)
            receipt = tledger.submit("l", leaf_hash(b"r"), clock.now())
            clock.advance(interval)
            evidence = tledger.get_evidence(receipt.seq)
            assert evidence.time_bound().width <= 2 * interval + 1e-9

    def test_tampered_evidence_fails(self):
        import dataclasses

        clock, tsa, tledger = self.make()
        clock.advance(0.2)
        receipt = tledger.submit("l", leaf_hash(b"r"), clock.now())
        clock.advance(1.0)
        evidence = tledger.get_evidence(receipt.seq)
        forged_entry = dataclasses.replace(evidence.entry, digest=leaf_hash(b"other"))
        forged = dataclasses.replace(evidence, entry=forged_entry)
        assert not forged.verify(tsa)

    def test_higher_tps_amortises_tsa_stamps(self):
        clock, tsa, tledger = self.make()
        for i in range(10):  # 10 submissions within one interval
            clock.advance(0.05)
            tledger.submit("l", leaf_hash(b"%d" % i), clock.now())
        clock.advance(1.0)
        tledger.tick()
        covering = [f for f in tledger.finalizations if f.covered_size >= 10]
        assert covering  # one TSA signature covers all ten entries
        assert tsa.stamps_issued <= 2


class TestAttacks:
    def test_one_way_window_grows_unbounded(self):
        windows = [
            run_one_way_amplification(delay).malicious_window
            for delay in (10.0, 1000.0, 100000.0)
        ]
        assert windows[0] < windows[1] < windows[2]
        assert windows[2] > 100000.0

    def test_two_way_window_is_bounded(self):
        for delay in (0.1, 10.0, 1e6):
            result = run_two_way_window(delay, peg_interval=1.0)
            assert result.bounded
            assert result.malicious_window <= 2.0 + 1e-9

    def test_two_way_window_approaches_bound(self):
        result = run_two_way_window(1e9, peg_interval=1.0)
        assert result.malicious_window > 1.5  # adversary gets close to 2Δτ

    def test_tledger_rejects_held_requests(self):
        assert run_tledger_stale_submission(hold_back=0.1)
        assert not run_tledger_stale_submission(hold_back=3.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.01, max_value=1e6))
    def test_two_way_bound_property(self, delay):
        result = run_two_way_window(delay, peg_interval=1.0)
        assert result.malicious_window <= result.theoretical_bound + 1e-9


class TestTimeBound:
    def test_contains(self):
        bound = TimeBound(1.0, 3.0)
        assert bound.contains(2.0) and bound.contains(1.0)
        assert not bound.contains(3.5)
        assert bound.width == 2.0
