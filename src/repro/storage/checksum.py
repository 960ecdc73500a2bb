"""CRC32C (Castagnoli) checksums for the stream file system.

The storage layer checksums every record so that silent corruption — bit rot,
misdirected writes, truncation by an outside party — is *detected* rather
than replayed into the verification structures.  CRC32C is the conventional
choice for storage software (iSCSI, ext4, btrfs, LevelDB/RocksDB log format)
because of its good burst-error behaviour and ubiquitous hardware support.

CPython ships no CRC32C primitive, and a table walk per byte in the
interpreter runs at ~10 MB/s — on the offline auditor's path (page faults,
bundle containers, stream reads) that loop, not hashing or ECDSA, was the
largest single cost.  So the implementation here is polynomial reduction on
Python ints, whose shifts and XORs run at memcpy speed:

* A CRC is a remainder over GF(2).  In the *reflected* convention CRC32C
  uses, the message read as one little-endian int ``v`` already is the
  polynomial, lowest bit = highest power; the running register XORs into
  the first four bytes.  ``v`` has a notional length ``bits`` (message bits
  + 32) and the answer is what is left in its top 32 bits once every lower
  bit has been eliminated.
* If ``x^k + x^a + … + 1`` is a multiple of the generator ``P``, the
  ``take`` highest-power bits ``low`` of ``v`` can be replaced by copies of
  themselves ``k - a, …, k`` positions further down: ``v = (v >> take) ^
  (low << (k-take-a)) ^ … ^ (low << (k-take))``, valid while ``take <= k -
  a``.  That is one *fold*; its cost is one shift-XOR pair per low term, on
  ints of ``take`` bits.
* :data:`_LADDER` lists such multiples by descending ``k``, each about half
  the one above, so a fold per rung halves ``bits``.  The work is (low terms) ×
  (bits eliminated), so the rungs are *sparse* multiples — ``P`` has the
  factor ``x + 1``, hence four terms is the minimum — found by a
  meet-in-the-middle search (``benchmarks/crc32c_ladder.py`` regenerates and
  ``tests/test_checksum.py`` proves each rung divisible by ``P``): three
  shift-XORs per rung where ``x^k mod P`` would need about sixteen.
* Below the last rung the per-fold interpreter overhead (~1.4 µs) exceeds
  what a fold saves, and the remaining 34 bytes go through the byte table.

Inputs longer than :data:`_BLOCK` are folded block by block from a
``memoryview`` and chained through the register, so transient memory is a
few ints of one block whatever the input (folding a 2 MB bundle whole took
6.8 ms instead of 4.5 — the ints fall out of L2 — and raised the offline
auditor's peak RSS from 50.7 to 52.6 MiB).  Inputs shorter than
:data:`_CROSSOVER` keep the byte loop, which wins there — the 9-byte record
headers must not get slower.

Measured on the 2-core host this was written on (µs, best of 7;
``python benchmarks/crc32c_ladder.py --table`` reprints it)::

    bytes          9     48     64     80    256   1 100   4 096   32 768   65 536     2 MiB
    byte loop    1.0    4.5    5.9    7.7   24.2     101     381    3 108    6 259   201 439
    crc32c       1.1    4.8    5.9    5.9    7.8    12.1    19.5     72.4      132     4 539

If a native ``crc32c`` extension happens to be importable it is preferred
transparently; nothing in the repository depends on it.
"""

from __future__ import annotations

from .. import obs

__all__ = ["crc32c"]

_CASTAGNOLI_POLY = 0x82F63B78  # 0x1EDC6F41 bit-reflected


def _build_table() -> tuple[int, ...]:
    table = []
    for index in range(256):
        crc = index
        for _ in range(8):
            crc = (crc >> 1) ^ _CASTAGNOLI_POLY if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_TABLE = _build_table()

#: Fold granularity in bytes: the smallest block on the flat part of the curve
#: (2 MiB in blocks of 16 KiB 5.9 ms, 32 KiB 5.0, 64 KiB to 512 KiB 4.5, 1 MiB
#: 5.2, whole 6.8, with the ladder extended upward for the larger ones).
_BLOCK = 1 << 16

#: Shortest input worth folding: the loop costs ~0.095 µs/byte, a fold of up
#: to 128 bytes ~6 µs flat (48 B: 4.5 by loop vs 5.6 folded; 64 B: 5.9 vs
#: 5.8; 80 B: 7.7 vs 5.8).
_CROSSOVER = 64

#: ``(k, low exponents)``: ``x^k + sum(x^g)`` is a multiple of the CRC32C
#: generator.  Descending ``k``; the first rung takes a full block (8·_BLOCK +
#: 32 bits) in one fold, every later one takes what the rung above leaves, and
#: the last ``k`` is a multiple of 8 so whole bytes remain for the table.
_LADDER = (
    (266335, (574, 302, 0)),
    (139042, (698, 264, 0)),
    (71886, (353, 139, 0)),
    (40145, (151, 48, 0)),
    (23055, (419, 374, 0)),
    (12446, (1005, 474, 0)),
    (6777, (484, 100, 0)),
    (4003, (57, 46, 30, 4, 0)),
    (2277, (101, 96, 60, 34, 0)),
    (1281, (90, 21, 14, 13, 0)),
    (706, (62, 47, 45, 22, 19, 15, 0)),
    (425, (59, 51, 36, 24, 12, 2, 0)),
    (304, (59, 54, 36, 35, 22, 7, 0)),
)

#: The ladder as the fold loop wants it: ``(k, most bits one fold may take,
#: left-shift of each low term before subtracting the bits taken)``.
_FOLDS = tuple((k, k - lows[0], tuple(k - g for g in lows)) for k, lows in _LADDER)


def _crc32c_pure(data: bytes, value: int = 0) -> int:
    """Reflected table-driven CRC32C, one table walk per byte.

    The short-input path of :func:`crc32c` and the oracle its property test
    compares the fold against; ``value`` chains partial computations.
    """
    crc = value ^ 0xFFFFFFFF
    table = _TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def _fold(block, crc: int) -> int:
    """Advance the raw register ``crc`` over ``block`` (≤ :data:`_BLOCK` bytes)."""
    bits = 8 * len(block) + 32
    v = int.from_bytes(block, "little") ^ crc
    for k, reach, shifts in _FOLDS:
        while bits > k:
            take = bits - k if bits - k < reach else reach
            low = v & ((1 << take) - 1)
            v >>= take
            for shift in shifts:
                v ^= low << (shift - take)
            bits -= take
    bits -= 32
    crc = 0
    table = _TABLE
    for byte in (v & ((1 << bits) - 1)).to_bytes(bits >> 3, "little"):
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ (v >> bits)


def _crc32c_fold(data, value: int = 0) -> int:
    size = len(data)
    if size < _CROSSOVER:
        return _crc32c_pure(data, value)
    crc = value ^ 0xFFFFFFFF
    if size <= _BLOCK:
        return _fold(data, crc) ^ 0xFFFFFFFF
    view = memoryview(data)
    for start in range(0, size, _BLOCK):
        crc = _fold(view[start : start + _BLOCK], crc)
    return crc ^ 0xFFFFFFFF


try:  # pragma: no cover - exercised only where the extension exists
    from crc32c import crc32c as _implementation  # type: ignore[import-not-found]
except ImportError:
    _implementation = _crc32c_fold


def crc32c(data, value: int = 0) -> int:
    """CRC32C of ``data``; ``value`` chains partial computations.

    ``data`` is ``bytes``, ``bytearray`` or any contiguous buffer
    (``memoryview`` at any offset, an ``mmap``): nothing is copied.
    """
    if type(data) is not bytes:
        data = memoryview(data).cast("B")
    if obs.is_enabled():
        obs.inc("storage.crc32c.calls")
        obs.inc("storage.crc32c.bytes", len(data))
    return _implementation(data, value)


# Known-answer vectors (RFC 3720 appendix B.4, plus one full block that walks
# every rung of the ladder) guard table, ladder and extension alike; checked at
# import (not via assert: must survive ``python -O``) so a broken constant can
# never silently corrupt a stream.
if (
    crc32c(b"") != 0x00000000
    or crc32c(b"123456789") != 0xE3069283
    or crc32c(b"\x00" * 32) != 0x8A9136AA
    or crc32c(bytes(range(256)) * 256) != 0xA224AF3D
):  # pragma: no cover
    raise RuntimeError("crc32c self-test failed; refusing to run with a bad checksum")
