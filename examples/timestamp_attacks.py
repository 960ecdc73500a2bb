#!/usr/bin/env python3
"""Timestamp attacks (§III-B) against the T-Ledger, end-to-end.

Two scenes on the product's T-Ledger (Protocol 4):

1. **Held-back submissions are refused**: an adversary that sits on a
   stamped request makes the freshness check (tau_t < tau_c + tau_Delta)
   fail, and ``TimeLedger.submit`` raises ``StaleRequestError``.

2. **Honest operation**: many ledger digests share one TSA finalization per
   second, and each gets a tight, offline-verifiable time window.

The pegging windows of Figure 5 (one-way amplification, the two-way
2.Delta-tau cap) are measured by ``python -m paper fig5``.

Run: python examples/timestamp_attacks.py
"""

from repro.crypto.hashing import leaf_hash
from repro.timeauth import SimClock, StaleRequestError, TimeLedger, TimeStampAuthority


def scene_stale_submission() -> None:
    print("== scene 1: T-Ledger freshness check (Protocol 4) ==")
    for hold_back in (0.2, 0.8, 1.5, 30.0):
        clock = SimClock()
        tledger = TimeLedger(
            clock, TimeStampAuthority("ntsc", clock), finalize_interval=1.0, admission_tolerance=1.0
        )
        clock.advance(5.0)
        client_timestamp = clock.now()  # tau_c, stamped into the request
        clock.advance(hold_back)  # the adversary sits on the request
        try:
            tledger.submit("ledger-1", leaf_hash(b"common ledger digest"), client_timestamp)
            verdict = "accepted"
        except StaleRequestError:
            verdict = "REJECTED (stale: tau_t >= tau_c + tau_Delta)"
        print(f"  request held back {hold_back:>5.1f}s -> {verdict}")
    print("-> a held-back request cannot buy itself an earlier time\n")


def scene_honest() -> None:
    print("== scene 2: honest T-Ledger operation ==")
    print("  10 ledger digests/second, one TSA round:")
    clock = SimClock()
    tsa = TimeStampAuthority("ntsc", clock)
    tledger = TimeLedger(clock, tsa, finalize_interval=1.0, admission_tolerance=1.0)
    clock.advance(1.0)
    tledger.tick()  # a baseline finalization so entries get a lower bound too
    receipts = []
    for i in range(10):
        clock.advance(0.1)
        receipts.append(
            tledger.submit(f"ledger-{i % 3}", leaf_hash(b"digest-%d" % i), clock.now())
        )
    clock.advance(1.0)
    tledger.tick()
    for receipt in receipts[:3]:
        evidence = tledger.get_evidence(receipt.seq)
        assert evidence.verify(tsa)
        bound = evidence.time_bound()
        print(f"    entry {receipt.seq}: window ({bound.lower:.1f}, {bound.upper:.1f}) "
              f"width<={bound.upper - max(bound.lower, 0):.1f}s, TSA signature OK")
    print(f"  TSA stamps issued for 10 entries: {tsa.stamps_issued} "
          f"(amortised by the T-Ledger)")
    print("\nFigure 5's pegging windows: python -m paper fig5")


def main() -> None:
    scene_stale_submission()
    scene_honest()


if __name__ == "__main__":
    main()
