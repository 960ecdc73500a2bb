"""ECDSA over NIST P-256, implemented from scratch on stdlib integers.

The paper's threat model (§II-B) assumes SHA-256 and ECDSA are reliable; every
non-repudiation proof in LedgerDB (client pi_c, LSP receipt pi_s, TSA pi_t) is an
ECDSA signature.  We implement the curve arithmetic directly so that the
reproduction has no external crypto dependency:

* Jacobian-coordinate point arithmetic with constant formulae,
* deterministic nonces per RFC 6979 (HMAC-DRBG) so signing is reproducible
  and never leaks the key through bad randomness,
* low-level ``sign_digest`` / ``verify_digest`` working on 32-byte digests.

Because signing and verification sit on every hot path of the ledger (pi_c
admission, pi_s receipts), the module carries two implementations:

* a **naive double-and-add ladder** (:func:`scalar_multiply`,
  :func:`sign_digest_naive`, :func:`verify_digest_naive`) kept as the audited
  reference, and
* a **fast path** used by default: windowed fixed-base tables with affine
  entries (:class:`FixedWindowTable`, shared per-curve generator tables built
  lazily), Strauss–Shamir dual-scalar multiplication for the uncached verify
  (:func:`shamir_multiply`), and an LRU of per-public-key window tables so the
  LSP workload — many verifications of the same few clients — skips the
  doubling ladder entirely.

Both paths produce identical signatures (RFC 6979 is deterministic) and are
cross-checked in ``tests/test_ecdsa_fastpath.py``.  This is a faithful,
test-covered implementation of the textbook algorithms — adequate for a
research artifact, not hardened against side channels.

Many signatures under one key verify together (:func:`verify_digests`): one
randomised ECDSA* aggregate equation per same-key group, whose
``sum(a_i * R_i)`` term is a Straus pass for small groups and a bucket
(Pippenger) sum with batched affine additions from :data:`BUCKET_MIN` up; a
failed aggregate is split in halves until the bad signatures are found.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from .. import obs

__all__ = [
    "CURVE_P256",
    "Curve",
    "Point",
    "Signature",
    "FixedWindowTable",
    "sign_digest",
    "verify_digest",
    "sign_digests",
    "verify_digests",
    "sign_digest_naive",
    "verify_digest_naive",
    "derive_public_key",
    "scalar_multiply",
    "scalar_multiply_base",
    "shamir_multiply",
    "precompute_public_key",
    "clear_fast_path_caches",
    "warm_tables",
]


@dataclass(frozen=True)
class Curve:
    """Short Weierstrass curve y^2 = x^3 + ax + b over GF(p)."""

    name: str
    p: int  # field prime
    a: int
    b: int
    n: int  # group order
    gx: int  # generator
    gy: int

    @property
    def generator(self) -> "Point":
        return Point(self.gx, self.gy)

    @property
    def byte_length(self) -> int:
        return (self.p.bit_length() + 7) // 8


#: NIST P-256 (secp256r1) domain parameters.
CURVE_P256 = Curve(
    name="P-256",
    p=0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF,
    a=-3,
    b=0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B,
    n=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
    gx=0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296,
    gy=0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5,
)


@dataclass(frozen=True)
class Point:
    """An affine point; ``Point.INFINITY`` is the group identity."""

    x: int
    y: int

    def is_infinity(self) -> bool:
        return self.x == 0 and self.y == 0


_INFINITY = Point(0, 0)


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature (r, s), canonicalised to low-s form.

    ``ry`` is the y-coordinate of the nonce point R *after* low-s
    normalisation — the "ECDSA*" variant (Antipa et al.): carrying R makes
    the signature batch-verifiable, because a verifier can check many
    signatures with one randomised aggregate equation instead of two table
    scans each (see :func:`verify_digests`).  It is purely advisory —
    verification verdicts depend on (r, s) alone, legacy 64-byte encodings
    decode with ``ry=None``, a corrupted hint merely costs the fast path —
    and it is excluded from equality because (r, s) identifies the
    signature.
    """

    r: int
    s: int
    ry: int | None = field(default=None, compare=False)

    def to_bytes(self, curve: Curve = CURVE_P256) -> bytes:
        size = curve.byte_length
        body = self.r.to_bytes(size, "big") + self.s.to_bytes(size, "big")
        if self.ry is None:
            return body
        return body + self.ry.to_bytes(size, "big")

    @classmethod
    def from_bytes(cls, data: bytes, curve: Curve = CURVE_P256) -> "Signature":
        size = curve.byte_length
        if len(data) == 2 * size:
            ry = None
        elif len(data) == 3 * size:
            ry = int.from_bytes(data[2 * size :], "big")
        else:
            raise ValueError(
                f"signature must be {2 * size} or {3 * size} bytes, "
                f"got {len(data)}"
            )
        return cls(
            int.from_bytes(data[:size], "big"),
            int.from_bytes(data[size : 2 * size], "big"),
            ry,
        )


def _inverse_mod(k: int, p: int) -> int:
    if k % p == 0:
        raise ZeroDivisionError("inverse of zero")
    return pow(k, -1, p)


# ---------------------------------------------------------------------------
# Jacobian point arithmetic.  Points are (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
# ---------------------------------------------------------------------------


def _to_jacobian(point: Point) -> tuple[int, int, int]:
    if point.is_infinity():
        return (1, 1, 0)
    return (point.x, point.y, 1)


def _from_jacobian(jac: tuple[int, int, int], curve: Curve) -> Point:
    x, y, z = jac
    if z == 0:
        return _INFINITY
    p = curve.p
    z_inv = _inverse_mod(z, p)
    z_inv2 = (z_inv * z_inv) % p
    return Point((x * z_inv2) % p, (y * z_inv2 * z_inv) % p)


def _jacobian_double(jac: tuple[int, int, int], curve: Curve) -> tuple[int, int, int]:
    x, y, z = jac
    if z == 0 or y == 0:
        return (1, 1, 0)
    p = curve.p
    ysq = (y * y) % p
    s = (4 * x * ysq) % p
    m = (3 * x * x + curve.a * pow(z, 4, p)) % p
    nx = (m * m - 2 * s) % p
    ny = (m * (s - nx) - 8 * ysq * ysq) % p
    nz = (2 * y * z) % p
    return (nx, ny, nz)


def _jacobian_add(
    a: tuple[int, int, int], b: tuple[int, int, int], curve: Curve
) -> tuple[int, int, int]:
    if a[2] == 0:
        return b
    if b[2] == 0:
        return a
    p = curve.p
    x1, y1, z1 = a
    x2, y2, z2 = b
    z1sq = (z1 * z1) % p
    z2sq = (z2 * z2) % p
    u1 = (x1 * z2sq) % p
    u2 = (x2 * z1sq) % p
    s1 = (y1 * z2sq * z2) % p
    s2 = (y2 * z1sq * z1) % p
    if u1 == u2:
        if s1 != s2:
            return (1, 1, 0)
        return _jacobian_double(a, curve)
    h = (u2 - u1) % p
    r = (s2 - s1) % p
    h2 = (h * h) % p
    h3 = (h2 * h) % p
    u1h2 = (u1 * h2) % p
    nx = (r * r - h3 - 2 * u1h2) % p
    ny = (r * (u1h2 - nx) - s1 * h3) % p
    nz = (h * z1 * z2) % p
    return (nx, ny, nz)


def scalar_multiply(k: int, point: Point, curve: Curve = CURVE_P256) -> Point:
    """Compute ``k * point`` with double-and-add over Jacobian coordinates."""
    k %= curve.n
    if k == 0 or point.is_infinity():
        return _INFINITY
    result = (1, 1, 0)
    addend = _to_jacobian(point)
    while k:
        if k & 1:
            result = _jacobian_add(result, addend, curve)
        addend = _jacobian_double(addend, curve)
        k >>= 1
    return _from_jacobian(result, curve)


def point_add(a: Point, b: Point, curve: Curve = CURVE_P256) -> Point:
    """Affine point addition (thin wrapper over the Jacobian core)."""
    return _from_jacobian(
        _jacobian_add(_to_jacobian(a), _to_jacobian(b), curve), curve
    )


def is_on_curve(point: Point, curve: Curve = CURVE_P256) -> bool:
    """Check the curve equation; the identity is considered on-curve."""
    if point.is_infinity():
        return True
    x, y, p = point.x, point.y, curve.p
    return (y * y - (x * x * x + curve.a * x + curve.b)) % p == 0


def derive_public_key(secret: int, curve: Curve = CURVE_P256) -> Point:
    """Public key Q = d * G for a secret scalar d in [1, n-1]."""
    if not 1 <= secret < curve.n:
        raise ValueError("secret key out of range")
    return scalar_multiply_base(secret, curve)


# ---------------------------------------------------------------------------
# Fast path: windowed fixed-base tables and Strauss–Shamir.
#
# The naive ladder above runs ~256 doublings plus ~128 additions per scalar
# multiplication.  The structures below trade memory for time:
#
# * ``FixedWindowTable`` precomputes d * 2^(w*i) * P for every window i and
#   digit d, so k*P becomes ~ceil(256/w) *additions only* — no doublings.
#   Table entries are normalised to affine coordinates in one shot with
#   Montgomery's batch-inversion trick, so the hot loop uses the cheaper
#   mixed Jacobian+affine addition formula (7M + 4S).
# * The per-curve generator table serves ``sign_digest`` (k*G) and the u1*G
#   half of verification; per-public-key tables are built lazily and kept in
#   an LRU so repeat verifications of the same client reuse them.
# * ``shamir_multiply`` computes u1*G + u2*Q in one interleaved pass sharing
#   a single doubling chain — the fast path for keys not (yet) in the LRU.
# ---------------------------------------------------------------------------


def _jacobian_mixed_add(
    acc: tuple[int, int, int], x2: int, y2: int, curve: Curve
) -> tuple[int, int, int]:
    """Add the *affine* point (x2, y2) to the Jacobian point ``acc``.

    madd-2007-bl: 7M + 4S, versus 11M + 5S for the general Jacobian add —
    this is the inner-loop workhorse of every table-based multiplication.
    """
    x1, y1, z1 = acc
    if z1 == 0:
        return (x2, y2, 1)
    p = curve.p
    z1z1 = z1 * z1 % p
    u2 = x2 * z1z1 % p
    s2 = y2 * z1z1 * z1 % p
    if u2 == x1:
        if s2 != y1:
            return (1, 1, 0)
        return _jacobian_double(acc, curve)
    # Lazy reduction: h, i4, and r2 stay unreduced (|value| < 4p) — every
    # place they feed is followed by a product reduction, so skipping their
    # own ``%`` saves three of the divisions that dominate this formula.
    h = u2 - x1
    hh = h * h % p
    i4 = 4 * hh
    j = h * i4 % p
    r2 = 2 * (s2 - y1)
    v = x1 * i4 % p
    nx = (r2 * r2 - j - 2 * v) % p
    ny = (r2 * (v - nx) - 2 * y1 * j) % p
    nz = 2 * z1 * h % p
    return (nx, ny, nz)


def _batch_inverse(values: list[int], modulus: int) -> list[int]:
    """Invert many nonzero values with a single ``pow`` (Montgomery's trick).

    Each extra element costs three modular multiplications instead of a full
    extended-Euclid/exponentiation inversion — the amortisation behind the
    batch sign/verify entry points below.
    """
    prefix: list[int] = []
    acc = 1
    for value in values:
        acc = acc * value % modulus
        prefix.append(acc)
    inv = pow(acc, -1, modulus)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        if i:
            out[i] = inv * prefix[i - 1] % modulus
            inv = inv * values[i] % modulus
        else:
            out[i] = inv
    return out


def _batch_to_affine(
    points: list[tuple[int, int, int]], p: int
) -> list[tuple[int, int]]:
    """Normalise Jacobian points to affine with one modular inversion.

    Montgomery's trick: invert the product of all z's once, then peel off
    individual z^-1 values with two multiplications each.  Every input must
    be a finite point (z != 0).
    """
    prefix: list[int] = []
    acc = 1
    for _x, _y, z in points:
        acc = acc * z % p
        prefix.append(acc)
    inv = pow(acc, -1, p)
    out: list[tuple[int, int]] = [(0, 0)] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        if i:
            z_inv = inv * prefix[i - 1] % p
            inv = inv * z % p
        else:
            z_inv = inv
        z_inv2 = z_inv * z_inv % p
        out[i] = (x * z_inv2 % p, y * z_inv2 * z_inv % p)
    return out


class FixedWindowTable:
    """Precomputed radix-2^w multiples of one point, for add-only k*P.

    Stores d * 2^(w*i) * P in affine form for every window index i and digit
    d in [1, 2^w).  ``multiply`` then decomposes k into base-2^w digits and
    sums one table entry per non-zero digit: ~ceil(bits/w) mixed additions
    and zero doublings.  Build cost is one pass of Jacobian arithmetic plus
    a single batch inversion, so tables amortise quickly on hot keys.
    """

    __slots__ = ("curve", "width", "num_windows", "_entries")

    def __init__(self, point: Point, width: int, curve: Curve = CURVE_P256) -> None:
        if not 2 <= width <= 10:
            raise ValueError("window width must be in [2, 10]")
        if point.is_infinity():
            raise ValueError("cannot build a window table for the identity")
        self.curve = curve
        self.width = width
        self.num_windows = (curve.n.bit_length() + width - 1) // width
        per_window = (1 << width) - 1
        jacobians: list[tuple[int, int, int]] = []
        base = _to_jacobian(point)
        for _ in range(self.num_windows):
            entry = base
            jacobians.append(entry)
            for _d in range(per_window - 1):
                entry = _jacobian_add(entry, base, curve)
                jacobians.append(entry)
            for _s in range(width):
                base = _jacobian_double(base, curve)
        # On a prime-order curve no small multiple of a finite point is the
        # identity, so every entry is finite and batch-normalisable.
        self._entries = _batch_to_affine(jacobians, curve.p)

    def multiply_jacobian(self, k: int) -> tuple[int, int, int]:
        """k * P in Jacobian coordinates (add-only window scan).

        The mixed addition is inlined with lazy reduction — this loop *is*
        the sign/verify hot path, and the call/tuple traffic plus the three
        skippable ``%`` reductions are worth ~20% per scalar multiplication.
        """
        k %= self.curve.n
        curve = self.curve
        p = curve.p
        width = self.width
        mask = (1 << width) - 1
        entries = self._entries
        offset = 0
        x1 = y1 = 0
        z1 = 0  # z1 == 0 encodes the identity
        while k:
            digit = k & mask
            if digit:
                x2, y2 = entries[offset + digit - 1]
                if z1 == 0:
                    x1, y1, z1 = x2, y2, 1
                else:
                    z1z1 = z1 * z1 % p
                    u2 = x2 * z1z1 % p
                    s2 = y2 * z1z1 % p * z1 % p
                    if u2 == x1:
                        if s2 != y1:
                            z1 = 0  # P + (-P): back to the identity
                        else:
                            x1, y1, z1 = _jacobian_double((x1, y1, z1), curve)
                    else:
                        h = u2 - x1
                        hh = h * h % p
                        i4 = 4 * hh
                        j = h * i4 % p
                        r2 = 2 * (s2 - y1)
                        v = x1 * i4 % p
                        nx = (r2 * r2 - j - 2 * v) % p
                        y1 = (r2 * (v - nx) - 2 * y1 * j) % p
                        z1 = 2 * z1 * h % p
                        x1 = nx
            k >>= width
            offset += mask
        if z1 == 0:
            return (1, 1, 0)
        return (x1, y1, z1)

    def multiply(self, k: int) -> Point:
        """k * P as an affine point."""
        return _from_jacobian(self.multiply_jacobian(k), self.curve)


#: Window width of the shared per-curve generator tables.
GENERATOR_WINDOW = 8
#: Window width of cached per-public-key tables.
PUBKEY_WINDOW = 6
#: Maximum number of public keys whose tables are retained (LRU eviction).
PUBKEY_CACHE_SIZE = 128
#: A key's table is built on its Nth verification (1 = build immediately).
PUBKEY_CACHE_THRESHOLD = 2

_GEN_TABLES: dict[str, FixedWindowTable] = {}
_PUBKEY_TABLES: "OrderedDict[tuple[str, int, int], FixedWindowTable]" = OrderedDict()
_PUBKEY_SEEN: dict[tuple[str, int, int], int] = {}


def _generator_table(curve: Curve) -> FixedWindowTable:
    table = _GEN_TABLES.get(curve.name)
    if table is None:
        table = FixedWindowTable(curve.generator, GENERATOR_WINDOW, curve)
        _GEN_TABLES[curve.name] = table
    return table


def scalar_multiply_base(k: int, curve: Curve = CURVE_P256) -> Point:
    """k * G via the precomputed fixed-base window table (no doublings)."""
    return _generator_table(curve).multiply(k)


def precompute_public_key(point: Point, curve: Curve = CURVE_P256) -> FixedWindowTable:
    """Build (or refresh) the cached window table for a public key.

    Callers that know a key is about to verify many signatures — e.g. the
    batched append pipeline — use this to pay the table build once up front.
    The caller is responsible for only passing on-curve points.
    """
    key = (curve.name, point.x, point.y)
    table = _PUBKEY_TABLES.get(key)
    if table is None:
        table = FixedWindowTable(point, PUBKEY_WINDOW, curve)
        _PUBKEY_TABLES[key] = table
        while len(_PUBKEY_TABLES) > PUBKEY_CACHE_SIZE:
            _PUBKEY_TABLES.popitem(last=False)
    else:
        _PUBKEY_TABLES.move_to_end(key)
    return table


def _note_pubkey_use(key: tuple[str, int, int], point: Point, curve: Curve):
    """Count a verification against ``point``; build its table when hot."""
    seen = _PUBKEY_SEEN.get(key, 0) + 1
    if seen >= PUBKEY_CACHE_THRESHOLD:
        _PUBKEY_SEEN.pop(key, None)
        return precompute_public_key(point, curve)
    if len(_PUBKEY_SEEN) >= 4096:  # bound the counter map on adversarial churn
        _PUBKEY_SEEN.clear()
    _PUBKEY_SEEN[key] = seen
    return None


def clear_fast_path_caches() -> None:
    """Drop every cached table (tests / memory pressure)."""
    _GEN_TABLES.clear()
    _PUBKEY_TABLES.clear()
    _PUBKEY_SEEN.clear()


def warm_tables(points=(), curve: Curve = CURVE_P256) -> None:
    """Eagerly build the generator table (and tables for ``points``).

    A fork-based worker pool inherits the parent's caches by copy-on-write,
    so warming them once before forking gives every worker the fast path for
    free instead of each child rebuilding tables on first use.  Off-curve or
    identity points are skipped (they can never verify anyway).
    """
    _generator_table(curve)
    for point in points:
        if not point.is_infinity() and is_on_curve(point, curve):
            precompute_public_key(point, curve)


def _shamir_jacobian(
    u1: int, u2: int, point: Point, curve: Curve
) -> tuple[int, int, int]:
    """u1*G + u2*Q via Strauss–Shamir: one shared doubling chain."""
    g = curve.generator
    gq = point_add(g, point, curve)
    gq_affine = None if gq.is_infinity() else (gq.x, gq.y)
    gx, gy = g.x, g.y
    qx, qy = point.x, point.y
    acc = (1, 1, 0)
    for i in range(max(u1.bit_length(), u2.bit_length()) - 1, -1, -1):
        acc = _jacobian_double(acc, curve)
        bits = ((u1 >> i) & 1) | (((u2 >> i) & 1) << 1)
        if bits == 1:
            acc = _jacobian_mixed_add(acc, gx, gy, curve)
        elif bits == 2:
            acc = _jacobian_mixed_add(acc, qx, qy, curve)
        elif bits == 3 and gq_affine is not None:
            acc = _jacobian_mixed_add(acc, gq_affine[0], gq_affine[1], curve)
    return acc


def shamir_multiply(u1: int, u2: int, point: Point, curve: Curve = CURVE_P256) -> Point:
    """Compute ``u1*G + u2*point`` in one interleaved Strauss–Shamir pass."""
    return _from_jacobian(_shamir_jacobian(u1 % curve.n, u2 % curve.n, point, curve), curve)


# ---------------------------------------------------------------------------
# RFC 6979 deterministic nonce generation.
# ---------------------------------------------------------------------------


def _bits2int(data: bytes, n: int) -> int:
    value = int.from_bytes(data, "big")
    excess = len(data) * 8 - n.bit_length()
    if excess > 0:
        value >>= excess
    return value


def _int2octets(value: int, curve: Curve) -> bytes:
    return value.to_bytes(curve.byte_length, "big")


def _bits2octets(data: bytes, curve: Curve) -> bytes:
    z1 = _bits2int(data, curve.n)
    z2 = z1 % curve.n
    return _int2octets(z2, curve)


def rfc6979_nonce(secret: int, digest: bytes, curve: Curve = CURVE_P256) -> int:
    """Deterministic per-message nonce k (RFC 6979, HMAC-SHA256 DRBG)."""
    holen = hashlib.sha256().digest_size
    v = b"\x01" * holen
    k = b"\x00" * holen
    priv_bytes = _int2octets(secret, curve)
    msg_bytes = _bits2octets(digest, curve)
    # hmac.digest is the one-shot OpenSSL fast path — same output as
    # hmac.new(...).digest(), several times cheaper per call.
    k = hmac.digest(k, v + b"\x00" + priv_bytes + msg_bytes, "sha256")
    v = hmac.digest(k, v, "sha256")
    k = hmac.digest(k, v + b"\x01" + priv_bytes + msg_bytes, "sha256")
    v = hmac.digest(k, v, "sha256")
    while True:
        t = b""
        while len(t) < curve.byte_length:
            v = hmac.digest(k, v, "sha256")
            t += v
        candidate = _bits2int(t, curve.n)
        if 1 <= candidate < curve.n:
            return candidate
        k = hmac.digest(k, v + b"\x00", "sha256")
        v = hmac.digest(k, v, "sha256")


# ---------------------------------------------------------------------------
# Sign / verify.
# ---------------------------------------------------------------------------


def _sign_digest_core(secret: int, digest: bytes, curve: Curve, kg_multiply) -> Signature:
    """RFC 6979 signing loop, parameterised over the k*G multiplier."""
    if not 1 <= secret < curve.n:
        raise ValueError("secret key out of range")
    z = _bits2int(digest, curve.n)
    counter = 0
    while True:
        k = rfc6979_nonce(secret, digest + counter.to_bytes(4, "big") if counter else digest, curve)
        point = kg_multiply(k)
        r = point.x % curve.n
        if r == 0:
            counter += 1
            continue
        s = (_inverse_mod(k, curve.n) * (z + r * secret)) % curve.n
        if s == 0:
            counter += 1
            continue
        ry = point.y
        if s > curve.n // 2:  # canonical low-s form; negating s negates R
            s = curve.n - s
            ry = curve.p - ry
        return Signature(r, s, ry)


def sign_digest(secret: int, digest: bytes, curve: Curve = CURVE_P256) -> Signature:
    """Sign a (32-byte) message digest, returning a low-s signature.

    Uses the precomputed fixed-base generator table for k*G; output is
    bit-identical to :func:`sign_digest_naive` (RFC 6979 is deterministic).
    """
    with obs.span("ecdsa.sign"):
        table = _generator_table(curve)
        return _sign_digest_core(secret, digest, curve, table.multiply)


def sign_digest_naive(secret: int, digest: bytes, curve: Curve = CURVE_P256) -> Signature:
    """Reference signer using the plain double-and-add ladder."""
    return _sign_digest_core(
        secret, digest, curve, lambda k: scalar_multiply(k, curve.generator, curve)
    )


def sign_digests(
    secret: int, digests: list[bytes], curve: Curve = CURVE_P256
) -> list[Signature]:
    """Sign many digests with one key, sharing the per-signature inversions.

    Output is bit-identical to calling :func:`sign_digest` per digest (RFC
    6979 nonces are deterministic), but the ``k^-1 mod n`` and the R-point
    normalisation ``z^-1 mod p`` — two of the three ``pow`` calls in a
    signature — are batched across the whole list with Montgomery's trick.
    The receipt signer of the batched append pipeline lives on this.
    """
    if not 1 <= secret < curve.n:
        raise ValueError("secret key out of range")
    if not digests:
        return []
    with obs.span("ecdsa.sign_batch") as _sp:
        _sp.add("signatures", len(digests))
        return _sign_digests_batched(secret, digests, curve)


def _sign_digests_batched(
    secret: int, digests: list[bytes], curve: Curve
) -> list[Signature]:
    table = _generator_table(curve)
    n = curve.n
    nonces = [rfc6979_nonce(secret, digest, curve) for digest in digests]
    # k in [1, n) on a prime-order curve means k*G is always finite, so every
    # R point batch-normalises and every nonce batch-inverts.
    r_points = _batch_to_affine([table.multiply_jacobian(k) for k in nonces], curve.p)
    nonce_inverses = _batch_inverse(nonces, n)
    out: list[Signature] = []
    for digest, (x, y), k_inv in zip(digests, r_points, nonce_inverses):
        r = x % n
        if r:
            s = k_inv * (_bits2int(digest, n) + r * secret) % n
            if s:
                ry = y
                if s > n // 2:  # low-s flip negates R
                    s = n - s
                    ry = curve.p - ry
                out.append(Signature(r, s, ry))
                continue
        # r == 0 or s == 0 (astronomically rare): take the retrying scalar
        # path so the output still matches sign_digest exactly.
        out.append(_sign_digest_core(secret, digest, curve, table.multiply))
    return out


def _resolve_pubkey_table(public_key: Point, curve: Curve):
    """Validate a verification key and look up its cached window table.

    Returns ``(usable, table_or_None)``.  A cached table implies the key was
    already checked on-curve, so the hit path skips that work entirely.
    """
    if public_key.is_infinity():
        return False, None
    cache_key = (curve.name, public_key.x, public_key.y)
    table = _PUBKEY_TABLES.get(cache_key)
    if table is not None:
        _PUBKEY_TABLES.move_to_end(cache_key)
        obs.inc("ecdsa.pubkey_cache.hit")
        return True, table
    obs.inc("ecdsa.pubkey_cache.miss")
    if not is_on_curve(public_key, curve):
        return False, None
    return True, _note_pubkey_use(cache_key, public_key, curve)


def _verify_prepared(
    public_key: Point, z: int, r: int, w: int, table, curve: Curve
) -> bool:
    """The verification tail once ``w = s^-1 mod n`` is in hand.

    Dispatch: with a window table, u1*G and u2*Q are two add-only table
    scans; otherwise a single Strauss–Shamir pass handles both scalars.  The
    final comparison ``x(R) mod n == r`` is done projectively — R.x == r iff
    X == c * Z^2 for some c in {r, r + n} below p — avoiding the last field
    inversion.
    """
    u1 = (z * w) % curve.n
    u2 = (r * w) % curve.n
    if table is not None:
        jac = _jacobian_add(
            _generator_table(curve).multiply_jacobian(u1),
            table.multiply_jacobian(u2),
            curve,
        )
    else:
        jac = _shamir_jacobian(u1, u2, public_key, curve)
    x, _y, zc = jac
    if zc == 0:
        return False
    p = curve.p
    zz = zc * zc % p
    candidate = r
    while candidate < p:
        if (x - candidate * zz) % p == 0:
            return True
        candidate += curve.n
    return False


def verify_digest(
    public_key: Point, digest: bytes, signature: Signature, curve: Curve = CURVE_P256
) -> bool:
    """Verify an ECDSA signature over a message digest.

    Returns ``False`` (never raises) for malformed signatures or off-curve
    keys, so callers can treat the result as a plain proof bit.
    """
    with obs.span("ecdsa.verify"):
        r, s = signature.r, signature.s
        if not (1 <= r < curve.n and 1 <= s < curve.n):
            return False
        usable, table = _resolve_pubkey_table(public_key, curve)
        if not usable:
            return False
        z = _bits2int(digest, curve.n)
        w = _inverse_mod(s, curve.n)
        return _verify_prepared(public_key, z, r, w, table, curve)


#: Smallest same-key group worth the aggregated batch equation: below this
#: the shared G/Q table scans don't amortise over the group.
BATCH_VERIFY_MIN = 3
#: Bits of the per-signature randomisers in the aggregate check.  A forged
#: signature survives aggregation with probability 2^-64 per attempt, and
#: any aggregate failure falls back to exact per-item verification.
BATCH_RANDOMIZER_BITS = 64

#: Secret seed for the batch-randomizer DRBG, drawn from the OS once per
#: process.  The aggregate check only needs randomizers the signature
#: submitter cannot predict; a SHA-256 counter stream keyed by this seed
#: gives that without a getrandom syscall per verification (getrandom can
#: cost milliseconds on entropy-starved VMs).
_RANDOMIZER_SEED = secrets.token_bytes(32)
_randomizer_counter = 0
_randomizer_lock = threading.Lock()


def _randomizer_bytes(nbytes: int) -> bytes:
    """``nbytes`` of DRBG output: SHA-256(seed ‖ counter) blocks."""
    global _randomizer_counter
    blocks = (nbytes + 31) // 32
    with _randomizer_lock:
        start = _randomizer_counter
        _randomizer_counter += blocks
    out = b"".join(
        hashlib.sha256(
            _RANDOMIZER_SEED + (start + i).to_bytes(8, "big")
        ).digest()
        for i in range(blocks)
    )
    return out[:nbytes]


def _r_point_from_hint(r: int, ry: int, curve: Curve) -> tuple[int, int] | None:
    """Validate the signer's R hint: the affine point (x, ry) with
    ``x ≡ r (mod n)`` if it lies on the curve, else None (corrupt hint)."""
    p = curve.p
    if not 0 < ry < p:
        return None
    ry2 = ry * ry % p
    for x in (r, r + curve.n):  # x may exceed n and wrap into r (≈2^-128)
        if x >= p:
            break
        if (x * x % p * x + curve.a * x + curve.b - ry2) % p == 0:
            return (x, ry)
    return None


def _wnaf(k: int, width: int) -> list[int]:
    """Little-endian width-w non-adjacent form: odd digits |d| < 2^(w-1)."""
    digits: list[int] = []
    modulus = 1 << width
    half = modulus >> 1
    while k:
        if k & 1:
            d = k & (modulus - 1)
            if d >= half:
                d -= modulus
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def _straus_sum(
    pairs: list[tuple[int, tuple[int, int]]], curve: Curve
) -> tuple[int, int, int]:
    """``sum(a_i * P_i)`` for small scalars via interleaved wNAF-4.

    One doubling chain shared by every point; per point an affine table of
    {1,3,5,7}·P (one batch normalisation, negations free) and ~bits/5 mixed
    additions.  Sized for the 64-bit randomisers of the aggregate verify."""
    p = curve.p
    jacobians: list[tuple[int, int, int]] = []
    for _a, (x, y) in pairs:
        # Odd multiples via mixed adds against the affine base:
        # 2P, 4P, 8P by doubling; 3P = 2P+P, 5P = 4P+P, 7P = 8P-P.
        p2 = _jacobian_double((x, y, 1), curve)
        p4 = _jacobian_double(p2, curve)
        p8 = _jacobian_double(p4, curve)
        jacobians.append(_jacobian_mixed_add(p2, x, y, curve))
        jacobians.append(_jacobian_mixed_add(p4, x, y, curve))
        jacobians.append(_jacobian_mixed_add(p8, x, p - y, curve))
    extras = _batch_to_affine(jacobians, p)
    # Bucket the nonzero wNAF digits by bit position up front, so the scan
    # below touches only actual additions (~bits/5 per point) instead of
    # sweeping every (position, point) cell.
    buckets: dict[int, list[tuple[int, int]]] = {}
    top = 0
    for i, (a, (x, y)) in enumerate(pairs):
        table = ((x, y), extras[3 * i], extras[3 * i + 1], extras[3 * i + 2])
        for position, d in enumerate(_wnaf(a, 4)):
            if d:
                x2, y2 = table[(d if d > 0 else -d) >> 1]
                buckets.setdefault(position, []).append(
                    (x2, y2 if d > 0 else p - y2)
                )
                if position > top:
                    top = position
    acc = (1, 1, 0)
    for position in range(top, -1, -1):
        if acc[2]:
            acc = _jacobian_double(acc, curve)
        for x2, y2 in buckets.get(position, ()):
            acc = _jacobian_mixed_add(acc, x2, y2, curve)
    return acc


#: Smallest same-key group whose ``sum(a_i * R_i)`` is summed by buckets
#: instead of by Straus.  Per point, best of 7 alternating rounds (CPython
#: 3.11, 2-core x86-64): Straus ~160 µs at every size; buckets 152 at 16,
#: 112 at 32, 70 at 128, 48 at 1 024 (DESIGN.md §12).
BUCKET_MIN = 32
#: Bucket window width by group size, ``(largest n, width)``, from the same
#: measurement; larger groups take :data:`BUCKET_WIDTH_MAX`.
BUCKET_WIDTHS = ((64, 4), (192, 5), (768, 6), (1536, 7))
BUCKET_WIDTH_MAX = 8


def _bucket_width(count: int) -> int:
    for largest, width in BUCKET_WIDTHS:
        if count <= largest:
            return width
    return BUCKET_WIDTH_MAX


def _bucket_sum(
    pairs: list[tuple[int, tuple[int, int]]], curve: Curve
) -> tuple[int, int, int]:
    """``sum(a_i * P_i)`` by buckets (Pippenger) with batched affine additions.

    Each scalar is recoded into signed base-2^c digits; window w's bucket
    |d| collects ±P_i for every digit d.  Every bucket is reduced to one
    affine point by rounds of pairwise affine additions, all of a round's
    slopes sharing one Montgomery inversion, and the buckets of each window
    are then weighted by a Jacobian running sum.  An addition of two points
    with equal x (a duplicated or negated input) has no affine slope: the
    whole sum then falls back to :func:`_straus_sum`, so the result is
    always exact.
    """
    p = curve.p
    width = _bucket_width(len(pairs))
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    # A signed digit may carry one window past the top bit.
    windows = (max(a.bit_length() for a, _point in pairs) + width) // width
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(windows * half)]
    for a, point in pairs:
        negated = None
        slot = -1  # bucket index of digit 1 in the current window, minus one
        while a:
            d = a & mask
            a >>= width
            if d > half:
                a += 1
                if negated is None:
                    negated = (point[0], p - point[1])
                buckets[slot + (mask + 1 - d)].append(negated)
            elif d:
                buckets[slot + d].append(point)
            slot += half
    pending = [bucket for bucket in buckets if len(bucket) > 1]
    while pending:
        # One round: add neighbours pairwise in every bucket.  Forward pass:
        # prefix products of the slope denominators x2 - x1.
        prefix = [1]
        acc = 1
        for bucket in pending:
            it = iter(bucket)
            for (x1, _y1), (x2, _y2) in zip(it, it):
                acc = acc * (x2 - x1) % p
                prefix.append(acc)
        if not acc:  # some x2 == x1: no affine slope, take the exact path
            return _straus_sum(pairs, curve)
        # Backward pass: peel each 1/(x2 - x1) off the one inversion and
        # finish that addition on the spot.
        inv = pow(acc, -1, p)
        k = len(prefix) - 1
        still = []
        for bucket in reversed(pending):
            sums = [bucket[-1]] if len(bucket) & 1 else []
            for j in range((len(bucket) & ~1) - 2, -1, -2):
                x1, y1 = bucket[j]
                x2, y2 = bucket[j + 1]
                k -= 1
                lam = (y2 - y1) * (inv * prefix[k] % p) % p
                inv = inv * (x2 - x1) % p
                x3 = (lam * lam - x1 - x2) % p
                sums.append((x3, (lam * (x1 - x3) - y1) % p))
            bucket[:] = sums
            if len(sums) > 1:
                still.append(bucket)
        pending = still
    result = (1, 1, 0)
    for window in range(windows - 1, -1, -1):
        for _ in range(width if result[2] else 0):
            result = _jacobian_double(result, curve)
        # sum(d * B_d) = B_top + (B_top + B_top-1) + ... as a running sum.
        running = (1, 1, 0)
        total = (1, 1, 0)
        for bucket in reversed(buckets[window * half : (window + 1) * half]):
            if bucket:
                running = _jacobian_mixed_add(running, *bucket[0], curve)
            total = _jacobian_add(total, running, curve)
        result = _jacobian_add(result, total, curve)
    return result


def _jacobian_eq(
    a: tuple[int, int, int], b: tuple[int, int, int], p: int
) -> bool:
    """Projective equality: X1·Z2² == X2·Z1² and Y1·Z2³ == Y2·Z1³."""
    if a[2] == 0 or b[2] == 0:
        return a[2] == b[2]
    z1sq = a[2] * a[2] % p
    z2sq = b[2] * b[2] % p
    if (a[0] * z2sq - b[0] * z1sq) % p:
        return False
    return (a[1] * z2sq * b[2] - b[1] * z1sq * a[2]) % p == 0


def _aggregate_group_verify(
    group: list[tuple[int, int, int, int]], table, curve: Curve
) -> bool:
    """Randomised batch check for same-key signatures carrying their R.

    ``group`` holds (z, r, w, ry) per signature, ``w = s^-1 mod n``.
    Checks ``sum(a_i·(u1_i·G + u2_i·Q - R_i)) == O`` for random 64-bit a_i:
    one generator scan, one key scan, and a small multi-scalar sum replace
    two full scans per signature.  ``True`` means every signature is valid
    (soundness error 2^-64); ``False`` means *something* failed — the caller
    re-verifies per item for exact verdicts.
    """
    n = curve.n
    tg = 0
    tq = 0
    pairs: list[tuple[int, tuple[int, int]]] = []
    # Randomizers come from a process-local DRBG, not per-call urandom:
    # getrandom can cost milliseconds on entropy-starved VMs, which would
    # dominate small-batch verification.  Unpredictability to the signature
    # *submitter* is all soundness needs, and a secret-seeded SHA-256
    # counter stream provides exactly that.
    width = BATCH_RANDOMIZER_BITS // 8
    entropy = _randomizer_bytes(width * len(group))
    mask = (1 << (BATCH_RANDOMIZER_BITS - 1)) - 1
    for index, (z, r, w, ry) in enumerate(group):
        r_point = _r_point_from_hint(r, ry, curve)
        if r_point is None:
            return False  # corrupt hint: attribute failures per item instead
        chunk = entropy[index * width : (index + 1) * width]
        a_i = 1 + (int.from_bytes(chunk, "big") & mask)
        tg = (tg + a_i * (z * w % n)) % n
        tq = (tq + a_i * (r * w % n)) % n
        pairs.append((a_i, r_point))
    lhs = _jacobian_add(
        _generator_table(curve).multiply_jacobian(tg),
        table.multiply_jacobian(tq),
        curve,
    )
    if len(pairs) >= BUCKET_MIN:
        obs.inc("ecdsa.verify_batch.bucket", len(pairs))
        rhs = _bucket_sum(pairs, curve)
    else:
        rhs = _straus_sum(pairs, curve)
    return _jacobian_eq(lhs, rhs, curve.p)


def verify_digests(
    checks: list[tuple[Point, bytes, Signature]], curve: Curve = CURVE_P256
) -> list[bool]:
    """Verify many ``(public_key, digest, signature)`` triples at once.

    Verdicts match :func:`verify_digest` per item (including LRU warm-up
    side effects).  Beyond sharing one Montgomery batch inversion for every
    ``s^-1 mod n``, the *recoverable* signatures (R carried) of a same-key
    group whose key has a window table are checked with one randomised
    aggregate equation when there are ≥ :data:`BATCH_VERIFY_MIN` of them —
    the who-pass of the audit engine and of the bundle verifier.  Its
    ``sum(a_i * R_i)`` term is bucket-summed from :data:`BUCKET_MIN`
    signatures up.  A failed aggregate is split: each half is checked again
    with fresh randomisers, down to leaves under ``2 * BATCH_VERIFY_MIN``
    that verify one by one, so a bad signature is always attributed to the
    right index and one forgery among many costs a few aggregates, not a
    single verify per signature.  Signatures without R verify one by one.
    A forged signature slipping through aggregation requires guessing a
    64-bit randomiser.
    """
    with obs.span("ecdsa.verify_batch") as _sp:
        _sp.add("checks", len(checks))
        results = [False] * len(checks)
        prepared: list[tuple[int, Point, int, int, int | None, object]] = []
        s_values: list[int] = []
        for index, (public_key, digest, signature) in enumerate(checks):
            r, s = signature.r, signature.s
            if not (1 <= r < curve.n and 1 <= s < curve.n):
                continue
            usable, table = _resolve_pubkey_table(public_key, curve)
            if not usable:
                continue
            prepared.append(
                (
                    index,
                    public_key,
                    _bits2int(digest, curve.n),
                    r,
                    signature.ry,
                    table,
                )
            )
            s_values.append(s)
        if not prepared:
            return results
        inverses = _batch_inverse(s_values, curve.n)

        def verify_each(items: list) -> None:
            for index, public_key, z, r, _ry, table, w in items:
                results[index] = _verify_prepared(public_key, z, r, w, table, curve)

        def settle(items: list, table) -> None:
            """Exact verdicts for hinted same-key signatures: one aggregate
            check, and on failure the two halves again, each with fresh
            randomisers, down to leaves verified one by one."""
            if _aggregate_group_verify(
                [(z, r, w, ry) for _i, _pk, z, r, ry, _t, w in items], table, curve
            ):
                obs.inc("ecdsa.verify_batch.aggregated", len(items))
                for item in items:
                    results[item[0]] = True
                return
            if len(items) < 2 * BATCH_VERIFY_MIN:
                verify_each(items)
                return
            obs.inc("ecdsa.verify_batch.split")
            middle = len(items) // 2
            for part in (items[:middle], items[middle:]):
                if len(part) < 2 * BATCH_VERIFY_MIN:
                    verify_each(part)
                else:
                    settle(part, table)

        def flush_group(items: list) -> None:
            # The key's table, once any item's lookup has built or found it.
            table = next((item[5] for item in items if item[5] is not None), None)
            hinted = [item for item in items if item[4] is not None]
            if table is None or len(hinted) < BATCH_VERIFY_MIN:
                verify_each(items)
                return
            verify_each([item for item in items if item[4] is None])
            settle(hinted, table)

        groups: "OrderedDict[tuple[int, int], list]" = OrderedDict()
        for (index, public_key, z, r, parity, table), w in zip(prepared, inverses):
            groups.setdefault((public_key.x, public_key.y), []).append(
                (index, public_key, z, r, parity, table, w)
            )
        for group in groups.values():
            flush_group(group)
        return results


def verify_digest_naive(
    public_key: Point, digest: bytes, signature: Signature, curve: Curve = CURVE_P256
) -> bool:
    """Reference verifier: two naive ladders and an affine final check."""
    if public_key.is_infinity() or not is_on_curve(public_key, curve):
        return False
    r, s = signature.r, signature.s
    if not (1 <= r < curve.n and 1 <= s < curve.n):
        return False
    z = _bits2int(digest, curve.n)
    w = _inverse_mod(s, curve.n)
    u1 = (z * w) % curve.n
    u2 = (r * w) % curve.n
    point = _from_jacobian(
        _jacobian_add(
            _to_jacobian(scalar_multiply(u1, curve.generator, curve)),
            _to_jacobian(scalar_multiply(u2, public_key, curve)),
            curve,
        ),
        curve,
    )
    if point.is_infinity():
        return False
    return point.x % curve.n == r
