"""Time verification (*when*): clocks, TSA, pegging protocols, T-Ledger."""

from .clock import Clock, SimClock, SkewedClock, WallClock
from .pegging import NotaryEvidence, OneWayPegger, PublicChainNotary, TimeBound, TwoWayPegger
from .tledger import (
    Finalization,
    NotaryEntry,
    NotaryReceipt,
    StaleRequestError,
    TimeEvidence,
    TimeLedger,
)
from .tsa import TimeStampAuthority, TimeStampToken, TSAPool, TSAUnavailableError

__all__ = [
    "Clock",
    "SimClock",
    "SkewedClock",
    "WallClock",
    "NotaryEvidence",
    "OneWayPegger",
    "PublicChainNotary",
    "TimeBound",
    "TwoWayPegger",
    "Finalization",
    "NotaryEntry",
    "NotaryReceipt",
    "StaleRequestError",
    "TimeEvidence",
    "TimeLedger",
    "TimeStampAuthority",
    "TimeStampToken",
    "TSAPool",
    "TSAUnavailableError",
]
