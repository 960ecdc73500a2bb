"""Regenerate or time the fold ladder of ``repro.storage.checksum``.

``python benchmarks/crc32c_ladder.py`` searches, rung by rung, for sparse
multiples ``x^k + x^a + … + 1`` of the CRC32C generator and prints a tuple
that can replace ``checksum._LADDER`` (~2 s).  Each rung is the first ``k``
at or above half the rung before it that has such a multiple with all low
exponents below ``span``: tabulate the XOR of every half-set of low powers,
then step ``x^k mod P`` upward until ``x^k ^ 1 ^ (other half-set)`` hits the
table.  Four terms are dense enough down to k ≈ 6 000, six to ≈ 1 000, eight below.

``--table`` prints the per-size timings quoted in the module docstring;
``--gate`` is the CI check that the checksum is still a fold — two ratios
taken in one process, so it holds on any host: a 64 KiB page blob at least
5x faster than the byte loop it replaced (~45x where this was written), and
the 9-byte record header, which stays on the loop, at most 25 % dearer for
the dispatch in front of it.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.storage import checksum  # noqa: E402

POLY = 0x11EDC6F41


def times_x(value: int) -> int:
    value <<= 1
    return value ^ POLY if value >> 32 else value


def multiply(a: int, b: int) -> int:
    product = 0
    while b:
        if b & 1:
            product ^= a
        a = times_x(a)
        b >>= 1
    return product


def x_power(exponent: int) -> int:
    """``x^exponent mod P``."""
    result, base = 1, 2
    while exponent:
        if exponent & 1:
            result = multiply(result, base)
        base = multiply(base, base)
        exponent >>= 1
    return result


def find_rung(
    k_min: int, span: int, low_terms: int, k_step: int = 1
) -> tuple[int, tuple[int, ...]]:
    """First ``k >= k_min`` (a multiple of ``k_step``) with ``x^k = 1 + low_terms``
    distinct powers below ``span``; returns ``(k, descending low exponents)``."""
    powers = [1]
    for _ in range(span - 1):
        powers.append(times_x(powers[-1]))

    def sums(size: int) -> list[tuple[int, tuple[int, ...]]]:
        out = []
        for combo in itertools.combinations(range(1, span), size):
            total = 0
            for exponent in combo:
                total ^= powers[exponent]
            out.append((total, combo))
        return out

    half = {total: combo for total, combo in sums(low_terms // 2)}
    rest = sums(low_terms - low_terms // 2)
    k = -(-k_min // k_step) * k_step
    residue, step = x_power(k), x_power(k_step)
    while True:
        for total, combo in rest:
            match = half.get(residue ^ 1 ^ total)
            if match is not None and not set(match) & set(combo):
                return k, tuple(sorted(match + combo, reverse=True)) + (0,)
        k += k_step
        residue = multiply(residue, step)


def search() -> None:
    bits = 8 * checksum._BLOCK + 32
    ladder = []
    # (stop once the next rung would start below this k, exponent span, low
    # terms besides the 1)
    for floor, span, low_terms in ((6000, 1024, 2), (1000, 128, 4), (300, 64, 6)):
        while (k_min := (bits + span) // 2 + 1) > floor:
            ladder.append(find_rung(k_min, span, low_terms))
            bits = ladder[-1][0]
    ladder.append(find_rung(k_min, 64, 6, k_step=8))  # whole bytes for the table tail
    print("_LADDER = (")
    for rung in ladder:
        print(f"    {rung},")
    print(")")


def best_us(function, data, repeats: int) -> float:
    best = float("inf")
    for _ in range(7):
        started = time.perf_counter()
        for _ in range(repeats):
            function(data)
        best = min(best, (time.perf_counter() - started) / repeats)
    return best * 1e6


def table() -> None:
    print(f"{'bytes':>9} {'byte loop us':>13} {'crc32c us':>10} {'ratio':>6}")
    for size in (9, 48, 64, 80, 256, 1100, 4096, 32768, 65536, 2 << 20):
        data = os.urandom(size)
        repeats = max(1, 100_000 // (size + 50))
        loop = best_us(checksum._crc32c_pure, data, max(1, repeats // 20))
        fold = best_us(checksum.crc32c, data, repeats)
        print(f"{size:>9} {loop:>13.1f} {fold:>10.1f} {loop / fold:>6.1f}")


def gate() -> None:
    page, header = os.urandom(1 << 16), os.urandom(9)
    if checksum.crc32c(page) != checksum._crc32c_pure(page):
        sys.exit("crc32c disagrees with the byte loop")
    speedup = best_us(checksum._crc32c_pure, page, 3) / best_us(checksum.crc32c, page, 60)
    penalty = best_us(checksum.crc32c, header, 20000) / best_us(
        checksum._crc32c_pure, header, 20000
    )
    print(f"64 KiB: fold {speedup:.1f}x the loop; 9 B: {penalty:.2f}x the loop")
    if speedup < 5:
        sys.exit("crc32c on 64 KiB is no longer a fold")
    if penalty > 1.25:
        sys.exit("crc32c on a 9-byte header got slower than the byte loop")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--table", action="store_true", help="time crc32c against the byte loop")
    mode.add_argument("--gate", action="store_true", help="fail unless the two CI ratios hold")
    args = parser.parse_args()
    if args.table:
        table()
    elif args.gate:
        gate()
    else:
        search()
