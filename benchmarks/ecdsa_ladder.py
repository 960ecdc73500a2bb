"""Time the two multi-scalar sums behind the aggregate ECDSA batch check.

``python benchmarks/ecdsa_ladder.py`` prints, per group size n, the time per
point of ``sum(a_i * R_i)`` (63-bit randomisers, as the aggregate check
draws them) by Straus (``ecdsa._straus_sum``) and by buckets
(``ecdsa._bucket_sum``) at each window width, after checking that both give
the same point: the measurement behind ``BUCKET_MIN`` and ``BUCKET_WIDTHS``.

``--gate`` is the CI check that large same-key batches stay bucket-summed:
one ratio taken in one process, timed in alternating rounds, so it holds on
any host — at n = 1 024 the bucket sum must be at least 2x as fast as
Straus (about 3x under CPython 3.11 on a 2-core x86-64 container).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.crypto import ecdsa  # noqa: E402

CURVE = ecdsa.CURVE_P256
GATE_N = 1024
GATE_FLOOR = 2.0


def random_pairs(count: int, seed: int = 1) -> list[tuple[int, tuple[int, int]]]:
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        point = ecdsa.scalar_multiply_base(rng.randrange(1, CURVE.n))
        pairs.append((1 + rng.getrandbits(ecdsa.BATCH_RANDOMIZER_BITS - 1), (point.x, point.y)))
    return pairs


def check(pairs) -> None:
    if not ecdsa._jacobian_eq(
        ecdsa._bucket_sum(pairs, CURVE), ecdsa._straus_sum(pairs, CURVE), CURVE.p
    ):
        sys.exit(f"n={len(pairs)}: the bucket sum disagrees with Straus")


def _time_s(function, pairs) -> float:
    started = time.perf_counter()
    function(pairs, CURVE)
    return time.perf_counter() - started


def best_pair_s(pairs, rounds: int) -> tuple[float, float]:
    """Best time of Straus and of buckets, in alternating rounds so drift hits both."""
    slow = fast = float("inf")
    for _ in range(rounds):
        slow = min(slow, _time_s(ecdsa._straus_sum, pairs))
        fast = min(fast, _time_s(ecdsa._bucket_sum, pairs))
    return slow, fast


def table() -> None:
    widths = range(3, 10)
    pool = random_pairs(2048)
    print(f"{'n':>5} {'straus':>7} " + " ".join(f"{'c=' + str(w):>6}" for w in widths))
    chosen = ecdsa._bucket_width
    for count in (16, 32, 64, 128, 256, 512, 1024, 2048):
        pairs = pool[:count]
        check(pairs)
        row = {}
        for _ in range(5):
            row["straus"] = min(row.get("straus", 1e9), _time_s(ecdsa._straus_sum, pairs))
            for width in widths:
                ecdsa._bucket_width = lambda _count, width=width: width
                try:
                    elapsed = _time_s(ecdsa._bucket_sum, pairs)
                finally:
                    ecdsa._bucket_width = chosen
                row[width] = min(row.get(width, 1e9), elapsed)
        cells = " ".join(f"{row[w] / count * 1e6:>6.0f}" for w in widths)
        print(f"{count:>5} {row['straus'] / count * 1e6:>7.0f} {cells}   (us per point)")


def gate() -> None:
    pairs = random_pairs(GATE_N)
    check(pairs)
    slow, fast = best_pair_s(pairs, 5)
    print(
        f"n={GATE_N}: Straus {slow / GATE_N * 1e6:.0f} us/point, buckets "
        f"{fast / GATE_N * 1e6:.0f} us/point: {slow / fast:.1f}x"
    )
    if slow / fast < GATE_FLOOR:
        sys.exit(f"the bucket sum is no longer >= {GATE_FLOOR}x Straus at n={GATE_N}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", action="store_true", help="fail unless the CI ratio holds")
    args = parser.parse_args()
    gate() if args.gate else table()
