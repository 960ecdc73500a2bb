"""Figure 5 — timestamp-attack windows: one-way vs two-way pegging.

The paper's Figure 5 is an attack analysis, not a measurement; we turn it
into a measured experiment on the simulated clock: for each adversary
patience level, run the scripted attack and record the achievable malicious
window under

* one-way pegging (ProvenDB-style, Figure 5(a)) — grows without bound;
* two-way pegging (Protocol 3, Figure 5(b)) — capped at 2·Δτ;

plus Protocol 4's freshness check on the T-Ledger, which rejects held-back
submissions outright.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.timeauth.attacks import (
    run_one_way_amplification,
    run_tledger_stale_submission,
    run_two_way_window,
)
from paper.timing import render_table

__all__ = ["Fig5Result", "run", "render"]

DELAYS = (0.0, 60.0, 3600.0, 86_400.0, 604_800.0)  # up to one week
PEG_INTERVAL = 1.0  # Δτ


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
