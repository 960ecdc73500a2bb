"""Seeded input generator for the end-to-end benchmark.

Every function here is a pure function of its arguments: the same
``(seed, stream)`` yields the same values on every checkout and Python
build, so two runs provably drive the same inputs.  ``GOLDEN_SHA256`` pins
the first 1000 request bodies of seed 0; :func:`check_golden` recomputes it
before any workload runs.

The generator lives beside the benchmark (not in ``repro.workloads``)
because the benchmark may not touch ``src/``.  The program under test sees
only the generated values, never the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Iterator

PAYLOAD_BYTES = 256
CLUE_UNIVERSE = 512
CLUES_PER_JOURNAL = 2
ZIPF_S = 1.1
#: One op in this many is a negative control (tampered input, must fail).
NEGATIVE_EVERY = 64

#: sha256 over the first 1000 bodies of ``request_bodies(0, "golden")``.
GOLDEN_SHA256 = "8c3ccd4e7137282fa3c27770655ef0ff7555b5068ae91a2a5863447ed6aa5beb"


def stream_rng(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, stream name)."""
    return random.Random(f"e2e:{seed}:{stream}")


def clue_name(rank: int) -> str:
    return f"clue-{rank:03d}"


def zipf_cum_weights(ranks: list[int]) -> list[float]:
    """Cumulative zipf(s) weights over the given 0-based popularity ranks."""
    return list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in ranks))


def shard_partition(shard: int, num_shards: int, shard_of_key) -> list[int]:
    """Ranks of the clue universe that route to ``shard``.

    ``shard_of_key`` is the deployment's public routing function; it is an
    argument so this module imports nothing from the program.
    """
    return [
        rank
        for rank in range(CLUE_UNIVERSE)
        if shard_of_key(clue_name(rank), num_shards) == shard
    ]


def request_bodies(
    seed: int, stream: str, ranks: list[int] | None = None
) -> Iterator[tuple[bytes, tuple[str, ...]]]:
    """Endless ``(payload, clues)`` bodies: 256 random bytes, 2 zipf clues.

    ``ranks`` restricts the clue draw to one shard's partition (the zipf
    weights keep each clue's global popularity).
    """
    rng = stream_rng(seed, stream)
    ranks = list(range(CLUE_UNIVERSE)) if ranks is None else ranks
    cum = zipf_cum_weights(ranks)
    while True:
        payload = rng.randbytes(PAYLOAD_BYTES)
        first, second = rng.choices(ranks, cum_weights=cum, k=CLUES_PER_JOURNAL)
        clues = (clue_name(first),) if first == second else (clue_name(first), clue_name(second))
        yield payload, clues


def zipf_clues(seed: int, stream: str) -> Iterator[str]:
    """Endless zipf-drawn clue names over the whole universe."""
    rng = stream_rng(seed, stream)
    ranks = list(range(CLUE_UNIVERSE))
    cum = zipf_cum_weights(ranks)
    while True:
        yield clue_name(rng.choices(ranks, cum_weights=cum)[0])


def recency_picks(seed: int, stream: str, mean_age: float) -> Iterator[int]:
    """Endless ages (0 = newest) drawn exponentially: recent items favoured."""
    rng = stream_rng(seed, stream)
    while True:
        yield int(rng.expovariate(1.0 / mean_age))


def poisson_offsets(seed: int, stream: str, rate: float) -> Iterator[float]:
    """Endless due times (seconds from start) of a Poisson process."""
    rng = stream_rng(seed, stream)
    due = 0.0
    while True:
        due += rng.expovariate(rate)
        yield due


def negative_controls(seed: int, stream: str) -> Iterator[bool]:
    """Endless flags: True marks an op that must be a negative control."""
    rng = stream_rng(seed, stream)
    while True:
        yield rng.random() < 1.0 / NEGATIVE_EVERY


def flip_bit(data: bytes, position: int) -> bytes:
    """``data`` with one bit flipped (the tamper of every negative control)."""
    index = position % len(data)
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1 :]


def golden_digest() -> str:
    digest = hashlib.sha256()
    for payload, clues in itertools.islice(request_bodies(0, "golden"), 1000):
        digest.update(payload)
        digest.update("\x00".join(clues).encode())
        digest.update(b"\x01")
    return digest.hexdigest()


def check_golden() -> None:
    got = golden_digest()
    if got != GOLDEN_SHA256:
        raise SystemExit(
            f"generator drift: first 1000 request bodies hash to {got}, "
            f"pinned {GOLDEN_SHA256}"
        )
