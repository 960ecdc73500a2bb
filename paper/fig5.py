"""Figure 5 — timestamp-attack windows: one-way vs two-way pegging.

The paper's Figure 5 is an attack analysis, not a measurement; we turn it
into a measured experiment on the simulated clock: for each adversary
patience level, run the scripted attack and record the achievable malicious
window under

* one-way pegging (ProvenDB-style, Figure 5(a)) — grows without bound;
* two-way pegging (Protocol 3, Figure 5(b)) — capped at 2·Δτ;

plus Protocol 4's freshness check on the T-Ledger, which rejects held-back
submissions outright.

The adversaries are scripted here against the product's clocks, pegging
protocols and T-Ledger:

* :func:`run_one_way_amplification` — the *infinite time amplification*
  attack on one-way pegging: the LSP delays a journal's digest submission,
  so the journal stays tamperable (its claimed creation time forgeable)
  for the whole delay.  The achievable malicious window grows without bound.

* :func:`run_two_way_window` — the best an adversary can do against two-way
  pegging / T-Ledger: create a journal right after an anchor at τ1, submit
  just before the stamping deadline, and anchor the reply as late as
  possible.  The malicious window is capped at ~2·Δτ regardless of patience.

* :func:`run_tledger_stale_submission` — a held-back request against
  Protocol 4's admission check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import leaf_hash
from repro.timeauth import (
    OneWayPegger,
    PublicChainNotary,
    SimClock,
    StaleRequestError,
    TimeBound,
    TimeLedger,
    TimeStampAuthority,
    TwoWayPegger,
)
from paper.timing import render_table

__all__ = [
    "AttackResult",
    "Fig5Result",
    "run",
    "render",
    "run_one_way_amplification",
    "run_two_way_window",
    "run_tledger_stale_submission",
]

DELAYS = (0.0, 60.0, 3600.0, 86_400.0, 604_800.0)  # up to one week
PEG_INTERVAL = 1.0  # Δτ


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one adversary scenario.

    ``malicious_window`` is the span of time during which the adversary could
    substitute/tamper the journal while still obtaining the same anchored
    time evidence; ``theoretical_bound`` is what the protocol guarantees
    (``inf`` for one-way pegging).
    """

    protocol: str
    adversary_delay: float
    creation_time: float
    evidence_bound: TimeBound
    malicious_window: float
    theoretical_bound: float

    @property
    def bounded(self) -> bool:
        return self.malicious_window <= self.theoretical_bound + 1e-9


def run_one_way_amplification(
    adversary_delay: float,
    block_interval: float = 600.0,
) -> AttackResult:
    """Infinite time amplification against one-way pegging (Figure 5(a)).

    A journal is created at τ2; the colluding LSP withholds its digest for
    ``adversary_delay`` seconds before submitting.  Until the digest lands in
    a notary block, nothing commits the journal's content — the adversary may
    rewrite it freely and still claim it existed "since τ2".  The malicious
    window therefore equals (anchor time − creation time) and grows linearly
    with the delay: unbounded.
    """
    clock = SimClock()
    notary = PublicChainNotary(clock, block_interval=block_interval)
    pegger = OneWayPegger(notary)

    clock.advance(10.0)
    creation_time = clock.now()  # τ2: journal is created
    journal_digest = leaf_hash(b"journal created at tau2")

    clock.advance(adversary_delay)  # the LSP sits on it
    pegger.peg(journal_digest)  # finally submitted at τ3
    clock.advance(block_interval)  # wait for inclusion
    bound = pegger.time_bound_for(journal_digest)
    assert bound is not None
    return AttackResult(
        protocol="one-way",
        adversary_delay=adversary_delay,
        creation_time=creation_time,
        evidence_bound=bound,
        malicious_window=bound.upper - creation_time,
        theoretical_bound=float("inf"),
    )


def run_two_way_window(
    adversary_delay: float,
    peg_interval: float = 1.0,
    epsilon: float = 1e-3,
) -> AttackResult:
    """Best-effort attack against two-way pegging (Figure 5(b)).

    The ledger pegs every Δτ = ``peg_interval`` seconds; anchors land at
    τ1, τ3 = τ1 + Δτ, τ5 = τ1 + 2·Δτ, ...  The adversary:

    1. creates (or plans to tamper) a journal at τ2 ≈ τ1, just after an
       anchor, so the current bracket is as fresh as possible;
    2. submits the covering ledger digest for TSA endorsement at the last
       scheduled moment τ3;
    3. holds the TSA's reply token and anchors it back at τ4, as late as
       possible — but **before τ5**, because the next finalization is
       protocol-scheduled and an unanchored epoch is immediately visible to
       any auditor of the public anchor chain.

    However patient the adversary (``adversary_delay``), step 3 clamps the
    tamper window (τ2, τ4) to < 2·Δτ.
    """
    clock = SimClock()
    tsa = TimeStampAuthority("tsa-0", clock)
    anchor_times: list[float] = []
    pegger = TwoWayPegger(tsa, anchor_callback=lambda token: anchor_times.append(clock.now()))

    # Anchor at τ1.
    clock.advance(10.0)
    pegger.peg(leaf_hash(b"ledger digest at tau1"))
    tau1 = clock.now()

    # Journal created at τ2 = τ1 + ε.
    clock.advance(epsilon)
    creation_time = clock.now()

    # Submission happens at the scheduled peg time τ3 = τ1 + Δτ.
    clock.advance(peg_interval - epsilon)
    tau3 = clock.now()
    token = tsa.stamp(leaf_hash(b"ledger digest covering the journal"))

    # Hold the token; the anchor-back must land before τ5 = τ3 + Δτ.
    max_hold = peg_interval - epsilon
    hold = min(adversary_delay, max_hold)
    clock.advance(hold)
    pegger._anchor(token)  # τ4: the token finally lands on the ledger
    tau4 = clock.now()

    return AttackResult(
        protocol="two-way",
        adversary_delay=adversary_delay,
        creation_time=creation_time,
        evidence_bound=TimeBound(lower=tau1, upper=tau3),
        malicious_window=tau4 - creation_time,
        theoretical_bound=2 * peg_interval,
    )


def run_tledger_stale_submission(
    hold_back: float,
    admission_tolerance: float = 1.0,
    finalize_interval: float = 1.0,
) -> bool:
    """Protocol 4 in action: does a held-back submission get through?

    A client stamps its request with τ_c, then the adversary delays delivery
    by ``hold_back`` seconds.  Returns True if the T-Ledger *accepted* the
    request (hold_back within τ_Δ), False if it was rejected as stale —
    demonstrating that the bottom-layer one-way protocol "eliminates the time
    amplification issue" (§III-B2).
    """
    clock = SimClock()
    tsa = TimeStampAuthority("tsa-0", clock)
    tledger = TimeLedger(
        clock,
        tsa,
        finalize_interval=finalize_interval,
        admission_tolerance=admission_tolerance,
    )
    clock.advance(5.0)
    client_timestamp = clock.now()  # τ_c stamped into the request
    digest = leaf_hash(b"common ledger digest")
    clock.advance(hold_back)  # adversary sits on the request
    try:
        tledger.submit("ledger-1", digest, client_timestamp)
    except StaleRequestError:
        return False
    return True


@dataclass
class Fig5Result:
    delays: tuple[float, ...]
    one_way_windows: dict[float, float]
    two_way_windows: dict[float, float]
    bound: float
    tledger_acceptance: dict[float, bool]


def run(quick: bool = True) -> Fig5Result:
    one_way = {d: run_one_way_amplification(d).malicious_window for d in DELAYS}
    two_way = {d: run_two_way_window(d, peg_interval=PEG_INTERVAL).malicious_window for d in DELAYS}
    acceptance = {
        hold: run_tledger_stale_submission(hold, admission_tolerance=1.0)
        for hold in (0.2, 0.9, 1.5, 60.0)
    }
    return Fig5Result(
        delays=DELAYS,
        one_way_windows=one_way,
        two_way_windows=two_way,
        bound=2 * PEG_INTERVAL,
        tledger_acceptance=acceptance,
    )


def render(result: Fig5Result) -> str:
    rows = []
    for delay in result.delays:
        rows.append(
            [
                f"{delay:,.0f}",
                f"{result.one_way_windows[delay]:,.1f}",
                f"{result.two_way_windows[delay]:.3f}",
            ]
        )
    acceptance_rows = [
        [f"{hold:.1f}", "accepted" if ok else "REJECTED (stale)"]
        for hold, ok in result.tledger_acceptance.items()
    ]
    parts = [
        render_table(
            f"Figure 5 — achievable malicious time window (s), Δτ={PEG_INTERVAL}s",
            ["adversary delay (s)", "one-way pegging", "two-way pegging"],
            rows,
        ),
        f"two-way bound: 2·Δτ = {result.bound}s — never exceeded; one-way grows unbounded",
        "",
        render_table(
            "Protocol 4 — T-Ledger admission of held-back submissions (τ_Δ=1s)",
            ["hold-back (s)", "outcome"],
            acceptance_rows,
        ),
    ]
    return "\n".join(parts)
