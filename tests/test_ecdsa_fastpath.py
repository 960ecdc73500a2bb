"""Fast-path ECDSA: window tables and Shamir cross-checked against the ladder.

The naive double-and-add ladder (``scalar_multiply``) is the audited
reference; every fast-path structure — the fixed-base generator table, the
per-public-key window tables, Strauss–Shamir dual-scalar multiplication, the
fast ``sign_digest``/``verify_digest`` — must agree with it bit-for-bit.
"""

import hashlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import ecdsa
from repro.crypto.ecdsa import (
    CURVE_P256,
    FixedWindowTable,
    Point,
    Signature,
    derive_public_key,
    point_add,
    precompute_public_key,
    scalar_multiply,
    scalar_multiply_base,
    shamir_multiply,
    sign_digest,
    sign_digest_naive,
    sign_digests,
    verify_digest,
    verify_digest_naive,
    verify_digests,
)
from repro.crypto.keys import KeyPair, verify_batch

G = CURVE_P256.generator
N = CURVE_P256.n

# Scalars that stress the window decomposition: tiny values, the group-order
# boundary, powers of two (single non-zero digit), and long zero runs.
EDGE_SCALARS = [
    1,
    2,
    3,
    (1 << ecdsa.GENERATOR_WINDOW) - 1,
    1 << ecdsa.GENERATOR_WINDOW,
    N - 1,
    N - 2,
    1 << 200,
    (1 << 255) + 1,
    (1 << 255) | (1 << 3),  # 250+ bit gap of zeros
    0x8000000000000000000000000000000000000000000000000000000000000001 % N,
]


@pytest.fixture(autouse=True)
def _fresh_caches():
    ecdsa.clear_fast_path_caches()
    yield
    ecdsa.clear_fast_path_caches()


# ---------------------------------------------------------------- fixed base


@pytest.mark.parametrize("k", EDGE_SCALARS)
def test_fixed_base_matches_ladder_on_edge_scalars(k):
    assert scalar_multiply_base(k) == scalar_multiply(k, G)


def test_fixed_base_matches_ladder_on_random_scalars():
    rng = random.Random(0xFA57)
    for _ in range(30):
        k = rng.randrange(1, N)
        assert scalar_multiply_base(k) == scalar_multiply(k, G)


def test_fixed_base_zero_scalar_is_infinity():
    assert scalar_multiply_base(0).is_infinity()
    assert scalar_multiply_base(N).is_infinity()


@pytest.mark.parametrize("width", [2, 3, 5, 8])
def test_window_table_widths_agree(width):
    table = FixedWindowTable(G, width)
    rng = random.Random(width)
    for k in [1, N - 1] + [rng.randrange(1, N) for _ in range(5)]:
        assert table.multiply(k) == scalar_multiply(k, G)


def test_window_table_for_arbitrary_point():
    q = scalar_multiply(0xABCDEF0123456789, G)
    table = FixedWindowTable(q, 5)
    rng = random.Random(7)
    for _ in range(10):
        k = rng.randrange(1, N)
        assert table.multiply(k) == scalar_multiply(k, q)


def test_window_table_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FixedWindowTable(G, 1)
    with pytest.raises(ValueError):
        FixedWindowTable(G, 11)
    with pytest.raises(ValueError):
        FixedWindowTable(Point(0, 0), 4)


# -------------------------------------------------------------------- shamir


def test_shamir_matches_two_ladders_random():
    rng = random.Random(0x5A417)
    d = rng.randrange(1, N)
    q = derive_public_key(d)
    for _ in range(15):
        u1, u2 = rng.randrange(N), rng.randrange(N)
        expected = point_add(scalar_multiply(u1, G), scalar_multiply(u2, q))
        assert shamir_multiply(u1, u2, q) == expected


@pytest.mark.parametrize("u1,u2", [(0, 0), (0, 5), (5, 0), (1, 1), (N - 1, N - 1)])
def test_shamir_edge_scalar_pairs(u1, u2):
    q = scalar_multiply(12345, G)
    expected = point_add(scalar_multiply(u1, G), scalar_multiply(u2, q))
    assert shamir_multiply(u1, u2, q) == expected


def test_shamir_with_q_equal_negated_g():
    # G + Q is the identity: the bits==3 branch must skip the merged point.
    neg_g = Point(G.x, (-G.y) % CURVE_P256.p)
    expected = point_add(scalar_multiply(7, G), scalar_multiply(7, neg_g))
    assert shamir_multiply(7, 7, neg_g) == expected


# ----------------------------------------------------------------- sign/verify


def test_fast_and_naive_signatures_are_identical():
    rng = random.Random(0x51611)
    for _ in range(5):
        secret = rng.randrange(1, N)
        digest = hashlib.sha256(rng.randbytes(32)).digest()
        assert sign_digest(secret, digest) == sign_digest_naive(secret, digest)


def test_rfc6979_known_answer_through_fast_path():
    # RFC 6979 A.2.5, message "sample" — the fast signer must hit the vector.
    key = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
    digest = hashlib.sha256(b"sample").digest()
    signature = sign_digest(key, digest)
    assert signature.r == 0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716
    expected_s = 0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8
    assert signature.s in (expected_s, N - expected_s)
    public = derive_public_key(key)
    assert public.x == 0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6
    assert verify_digest(public, digest, signature)
    assert verify_digest_naive(public, digest, signature)


@pytest.mark.parametrize("rejected", ["r", "s"])
def test_a_rejected_nonce_moves_the_rfc6979_stream_on(rejected):
    # RFC 6979 §3.2 h.3: a k the signer rejects (r == 0 or s == 0) advances
    # the DRBG; re-deriving the same k would loop forever.
    secret = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
    digest = hashlib.sha256(b"sample").digest()
    z = int.from_bytes(digest, "big")
    tried = []

    def kg_multiply(k):
        tried.append(k)
        if len(tried) > 1:
            return scalar_multiply_base(k)
        if rejected == "r":
            return Point(N, 1)  # x mod n == 0
        return Point(-z * pow(secret, -1, N) % N, 1)  # z + r * secret == 0 mod n

    signature = ecdsa._sign_digest_core(secret, digest, CURVE_P256, kg_multiply)
    assert tried[0] == ecdsa.rfc6979_nonce(secret, digest)
    assert len(tried) == 2 and tried[1] != tried[0]
    assert verify_digest(derive_public_key(secret), digest, signature)
    assert signature != sign_digest(secret, digest)


def test_fast_verify_agrees_with_naive_on_accept_and_reject():
    rng = random.Random(0xACC)
    secret = rng.randrange(1, N)
    public = derive_public_key(secret)
    digest = hashlib.sha256(b"payload").digest()
    signature = sign_digest(secret, digest)
    cases = [
        (digest, signature, True),
        (hashlib.sha256(b"other").digest(), signature, False),
        (digest, Signature(signature.r, (signature.s + 1) % N), False),
        (digest, Signature((signature.r + 1) % N, signature.s), False),
        (digest, Signature(0, signature.s), False),
        (digest, Signature(signature.r, N), False),
    ]
    # Run twice: first pass exercises the cold (Shamir) path, second pass the
    # cached window-table path — both must agree with the reference verifier.
    for _ in range(2):
        for d, sig, expected in cases:
            assert verify_digest(public, d, sig) is expected
            assert verify_digest_naive(public, d, sig) is expected


def test_verify_rejects_off_curve_and_infinity_keys():
    digest = hashlib.sha256(b"x").digest()
    signature = sign_digest(7, digest)
    assert not verify_digest(Point(1, 1), digest, signature)
    assert not verify_digest(Point(0, 0), digest, signature)


# ------------------------------------------------------------ batch entry points


def test_sign_digests_matches_scalar_signer():
    rng = random.Random(0xBA7C4)
    secret = rng.randrange(1, N)
    digests = [hashlib.sha256(rng.randbytes(16)).digest() for _ in range(9)]
    assert sign_digests(secret, digests) == [sign_digest(secret, d) for d in digests]


def test_signing_never_hands_the_gil_away():
    # A writer loop that signs must keep the interpreter for the whole batch:
    # a call that releases the GIL (hmac.digest did, ~5 times per RFC 6979
    # nonce) lets another thread run for a full switch interval and breaks
    # group commit into small batches.  With a 1 s interval, a thread that
    # only runs when the signer lets go must make no progress at all.
    rng = random.Random(0x6111)
    keypair = KeyPair.generate(seed="gil")
    digests = [hashlib.sha256(rng.randbytes(16)).digest() for _ in range(40)]
    sign_digest(keypair.secret, digests[0])  # build the generator table first
    interval = sys.getswitchinterval()
    counter, stop = [0], []

    def busy():
        while not stop:
            counter[0] += 1

    sys.setswitchinterval(1.0)
    thread = threading.Thread(target=busy, daemon=True)
    try:
        thread.start()
        before = counter[0]
        signatures = [sign_digest(keypair.secret, digest) for digest in digests]
        assert sign_digests(keypair.secret, digests) == signatures
        assert keypair.sign_batch(digests) == signatures
        progress = counter[0] - before
    finally:
        stop.append(True)
        sys.setswitchinterval(interval)
        thread.join()
    assert progress == 0


def test_sign_digests_empty_and_bad_key():
    assert sign_digests(7, []) == []
    with pytest.raises(ValueError):
        sign_digests(0, [b"\x00" * 32])
    with pytest.raises(ValueError):
        sign_digests(N, [b"\x00" * 32])


def test_verify_digests_matches_individual_verdicts():
    rng = random.Random(0xBA7C5)
    secret_a, secret_b = rng.randrange(1, N), rng.randrange(1, N)
    pub_a, pub_b = derive_public_key(secret_a), derive_public_key(secret_b)
    digest = hashlib.sha256(b"batch").digest()
    good_a = sign_digest(secret_a, digest)
    good_b = sign_digest(secret_b, digest)
    checks = [
        (pub_a, digest, good_a),  # valid
        (pub_b, digest, good_b),  # valid, different key
        (pub_a, digest, good_b),  # wrong key for signature
        (pub_a, hashlib.sha256(b"other").digest(), good_a),  # wrong digest
        (pub_a, digest, Signature(0, good_a.s)),  # out-of-range r
        (pub_a, digest, Signature(good_a.r, N)),  # out-of-range s
        (Point(1, 1), digest, good_a),  # off-curve key
        (Point(0, 0), digest, good_a),  # identity key
    ]
    expected = [True, True, False, False, False, False, False, False]
    # First pass runs the cold (Shamir) path, second the cached-table path;
    # both must agree item-for-item with the scalar verifier.
    for _ in range(2):
        assert verify_digests(checks) == expected
        assert [verify_digest(k, d, s) for k, d, s in checks] == expected


def test_verify_digests_all_malformed_short_circuits():
    digest = hashlib.sha256(b"x").digest()
    checks = [
        (Point(1, 1), digest, Signature(1, 1)),
        (derive_public_key(5), digest, Signature(0, 1)),
    ]
    assert verify_digests(checks) == [False, False]


def test_keypair_sign_batch_and_verify_batch_roundtrip():
    pairs = [KeyPair.generate(seed=f"batch-api:{i}") for i in range(3)]
    digests = [hashlib.sha256(f"msg-{i}".encode()).digest() for i in range(3)]
    signatures = pairs[0].sign_batch(digests)
    assert signatures == [pairs[0].sign(d) for d in digests]
    checks = [(pair.public, d, pair.sign(d)) for pair, d in zip(pairs, digests)]
    checks.append((pairs[0].public, digests[1], signatures[0]))  # digest mismatch
    assert verify_batch(checks) == [True, True, True, False]


# ------------------------------------------------- aggregated batch (ECDSA*)


class TestAggregatedBatchVerify:
    """The randomized-aggregate path behind ``verify_digests``.

    Signatures carry the full R.y hint (ECDSA*, 96-byte wire form); same-key
    groups of >= BATCH_VERIFY_MIN verify through one aggregate equation, and
    *any* aggregate failure falls back to exact per-item verification — so
    verdicts must match ``verify_digest`` under every corruption.
    """

    def _group(self, count, seed=0xA66):
        rng = random.Random(seed)
        secret = rng.randrange(1, N)
        public = derive_public_key(secret)
        precompute_public_key(public)  # aggregation requires the window table
        digests = [hashlib.sha256(rng.randbytes(24)).digest() for _ in range(count)]
        checks = [(public, d, sign_digest(secret, d)) for d in digests]
        return secret, public, checks

    def test_signature_carries_valid_r_hint(self):
        _, _, checks = self._group(4)
        for _, _, signature in checks:
            assert signature.ry is not None
            point = ecdsa._r_point_from_hint(signature.r, signature.ry, CURVE_P256)
            assert point is not None
            x, y = point
            assert (
                y * y - (x * x * x + CURVE_P256.a * x + CURVE_P256.b)
            ) % CURVE_P256.p == 0

    def test_wire_format_roundtrip_and_legacy(self):
        _, _, checks = self._group(1)
        signature = checks[0][2]
        wire = signature.to_bytes()
        assert len(wire) == 96
        assert Signature.from_bytes(wire) == signature
        assert Signature.from_bytes(wire).ry == signature.ry
        legacy = Signature.from_bytes(wire[:64])
        assert legacy == signature  # equality ignores the hint
        assert legacy.ry is None
        with pytest.raises(ValueError):
            Signature.from_bytes(wire[:65])

    def test_aggregate_path_actually_taken(self):
        from repro import obs

        _, _, checks = self._group(ecdsa.BATCH_VERIFY_MIN + 2)
        obs.enable()
        try:
            assert verify_digests(checks) == [True] * len(checks)
            snap = obs.snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert snap["counters"]["ecdsa.verify_batch.aggregated"] == len(checks)

    def test_tampered_digest_fails_exactly_at_its_index(self):
        _, public, checks = self._group(6)
        bad = hashlib.sha256(b"swapped payload").digest()
        checks[3] = (public, bad, checks[3][2])
        expected = [True, True, True, False, True, True]
        assert verify_digests(checks) == expected
        assert [verify_digest(k, d, s) for k, d, s in checks] == expected

    @pytest.mark.parametrize("corrupt", ["off_curve", "negated", "zero"])
    def test_corrupt_hint_never_changes_the_verdict(self, corrupt):
        # The hint is an untrusted accelerator: breaking it may cost the
        # fast path but the verdict comes from (r, s) alone.
        _, public, checks = self._group(4, seed=0xC0)
        target = checks[2][2]
        ry = {
            "off_curve": (target.ry + 1) % CURVE_P256.p,
            "negated": CURVE_P256.p - target.ry,  # valid point, wrong sign
            "zero": 0,
        }[corrupt]
        checks[2] = (public, checks[2][1], Signature(target.r, target.s, ry))
        assert verify_digests(checks) == [True] * 4
        assert verify_digest(public, checks[2][1], checks[2][2])

    def test_legacy_signatures_without_hint_still_batch_correctly(self):
        _, public, checks = self._group(5, seed=0x1E6)
        checks = [
            (public, d, Signature(s.r, s.s)) for public, d, s in checks
        ]  # strip every hint: group is not aggregable, falls back per-item
        assert verify_digests(checks) == [True] * 5

    def test_forged_signature_in_group_rejected(self):
        secret, public, checks = self._group(5, seed=0xF06)
        mallory = random.Random(1).randrange(1, N)
        forged = sign_digest(mallory, checks[1][1])
        checks[1] = (public, checks[1][1], forged)
        expected = [True, False, True, True, True]
        assert verify_digests(checks) == expected
        assert [verify_digest(k, d, s) for k, d, s in checks] == expected

    def test_low_s_flip_keeps_hint_consistent(self):
        # sign normalises s -> n - s; the hint must track the negated R.
        rng = random.Random(0x10)
        for _ in range(8):
            secret = rng.randrange(1, N)
            digest = hashlib.sha256(rng.randbytes(16)).digest()
            signature = sign_digest(secret, digest)
            assert signature.s <= N // 2
            assert (
                ecdsa._r_point_from_hint(signature.r, signature.ry, CURVE_P256)
                is not None
            )


# ------------------------------------------- bucket sums and split fallback


def _random_pairs(count, seed):
    """``count`` (63-bit randomiser, affine point) pairs, as the aggregate
    check builds them."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        point = scalar_multiply_base(rng.randrange(1, N))
        pairs.append((1 + rng.getrandbits(63), (point.x, point.y)))
    return pairs


def _same_point(a, b):
    return ecdsa._jacobian_eq(a, b, CURVE_P256.p)


@pytest.mark.parametrize(
    "count",
    sorted(
        {ecdsa.BUCKET_MIN - 1, ecdsa.BUCKET_MIN, ecdsa.BUCKET_MIN + 1}
        | {largest + 1 for largest, _width in ecdsa.BUCKET_WIDTHS[:2]}
    ),
)
def test_bucket_sum_matches_straus_around_the_crossover(count):
    pairs = _random_pairs(count, seed=count)
    assert _same_point(
        ecdsa._bucket_sum(pairs, CURVE_P256), ecdsa._straus_sum(pairs, CURVE_P256)
    )


@pytest.mark.parametrize("shape", ["duplicated", "negated", "one point"])
def test_bucket_sum_falls_back_exactly_on_equal_x(shape, monkeypatch):
    pairs = _random_pairs(ecdsa.BUCKET_MIN + 8, seed=0xD0)
    p = CURVE_P256.p
    if shape == "duplicated":
        pairs += [(a, pairs[0][1]) for a, _point in pairs[1:20]]
    elif shape == "negated":
        pairs += [(a, (x, p - y)) for a, (x, y) in pairs[:20]]
    else:
        pairs = [(a, pairs[0][1]) for a, _point in pairs]
    expected = ecdsa._straus_sum(pairs, CURVE_P256)
    fallbacks = []
    straus = ecdsa._straus_sum
    monkeypatch.setattr(ecdsa, "_straus_sum", lambda *args: fallbacks.append(1) or straus(*args))
    assert _same_point(ecdsa._bucket_sum(pairs, CURVE_P256), expected)
    assert fallbacks == [1]


def _signed_group(secret, count, seed):
    rng = random.Random(seed)
    public = derive_public_key(secret)
    digests = [hashlib.sha256(rng.randbytes(24)).digest() for _ in range(count)]
    return public, [(public, d, s) for d, s in zip(digests, sign_digests(secret, digests))]


_NAIVE: dict = {}


def _naive(checks):
    """verify_digest_naive per item; the hint plays no part in its verdict."""
    out = []
    for public, digest, signature in checks:
        key = (public, digest, signature.r, signature.s)
        if key not in _NAIVE:
            _NAIVE[key] = verify_digest_naive(public, digest, signature)
        out.append(_NAIVE[key])
    return out


class TestHostileBucketGroups:
    """Groups at or above BUCKET_MIN, whose R sum goes through the buckets,
    must give verify_digest_naive's verdict item for item, whatever the
    hints; forgeries ride along so that failed aggregates split."""

    SIZE = ecdsa.BUCKET_MIN + 8

    def _group(self, seed):
        secret = random.Random(seed).randrange(1, N)
        public, checks = _signed_group(secret, self.SIZE, seed)
        mallory = random.Random(seed + 1).randrange(1, N)
        checks[5] = (public, checks[5][1], sign_digest(mallory, checks[5][1]))
        checks[-3] = (public, hashlib.sha256(b"swapped").digest(), checks[-3][2])
        return public, checks

    def _agree(self, checks):
        for _ in range(2):  # cold key (first item table-less), then warm
            assert verify_digests(checks) == _naive(checks)

    def test_duplicated_r_hints(self):
        _public, checks = self._group(0xD1)
        checks[10:30] = [checks[9]] * 20  # one signature, twenty times
        checks[40:45] = [checks[1]] * 5
        self._agree(checks)

    def test_r_and_minus_r(self):
        public, checks = self._group(0xD2)
        p = CURVE_P256.p
        for index in range(8, 24):
            digest, sig = checks[index - 8][1], checks[index - 8][2]
            # (r, n - s) is the same signature's high-s twin: valid, with -R.
            checks[index] = (public, digest, Signature(sig.r, N - sig.s, p - sig.ry))
        digest, sig = checks[30][1], checks[30][2]
        checks[31] = (public, digest, Signature(sig.r, sig.s, p - sig.ry))  # -R, low s
        self._agree(checks)

    def test_corrupt_hints_and_legacy_members(self):
        public, checks = self._group(0xD3)
        p = CURVE_P256.p
        for index, ry in ((7, 0), (12, p), (17, None), (18, None), (33, 1)):
            sig = checks[index][2]
            checks[index] = (public, checks[index][1], Signature(sig.r, sig.s, ry))
        self._agree(checks)

    def test_two_keys_interleaved(self):
        _pa, first = self._group(0xD4)
        _pb, second = self._group(0xD5)
        mixed = [check for pair in zip(first, second) for check in pair]
        mixed[20] = (mixed[21][0], mixed[20][1], mixed[20][2])  # other member's key
        self._agree(mixed)


_FORGE_SECRET = 0x5EC2E7
_FORGE_PUBLIC, _FORGE_HONEST = _signed_group(_FORGE_SECRET, 48, seed=0xF0)
_FORGE_FORGED = [
    (public, digest, sign_digest(_FORGE_SECRET + 1, digest))
    for public, digest, _sig in _FORGE_HONEST
]


@settings(max_examples=25, deadline=None)
@given(mask=st.lists(st.booleans(), min_size=48, max_size=48))
def test_random_forge_masks_match_the_naive_verdicts(mask):
    checks = [
        forged if bad else honest
        for bad, honest, forged in zip(mask, _FORGE_HONEST, _FORGE_FORGED)
    ]
    precompute_public_key(_FORGE_PUBLIC)
    assert verify_digests(checks) == _naive(checks) == [not bad for bad in mask]


class TestSplitFallback:
    """One failed aggregate over a large group is halved, not re-checked one
    signature at a time."""

    COUNT = 1024

    @pytest.fixture(scope="class")
    def group(self):
        return _signed_group(0xB16, self.COUNT, seed=0xB16)

    def _run(self, checks):
        from repro import obs

        obs.enable()
        try:
            verdicts = verify_digests(checks)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
            obs.reset()
        return verdicts, counters

    def _forge(self, group, positions):
        public, checks = group
        checks = list(checks)
        for position in positions:
            digest = checks[position][1]
            checks[position] = (public, digest, sign_digest(0xBAD, digest))
        return checks

    def test_forgeries_at_the_edges_and_the_middle(self, group):
        n = self.COUNT
        checks = self._forge(group, (0, n // 2 - 1, n // 2, n - 1))
        verdicts, counters = self._run(checks)
        assert verdicts == [verify_digest(k, d, s) for k, d, s in checks]
        assert verdicts.count(False) == 4
        assert counters["ecdsa.verify_batch.split"] > 0
        assert counters["ecdsa.verify_batch.bucket"] >= n

    def test_one_forgery_costs_few_single_verifies(self, group):
        checks = self._forge(group, (self.COUNT // 3,))
        verdicts, counters = self._run(checks)
        assert verdicts == [index != self.COUNT // 3 for index in range(self.COUNT)]
        singles = self.COUNT - counters["ecdsa.verify_batch.aggregated"]
        assert singles <= 64

    def test_small_groups_stay_on_straus(self):
        _public, checks = _signed_group(0x5A11, ecdsa.BUCKET_MIN - 1, seed=1)
        verdicts, counters = self._run(checks)
        assert verdicts == [True] * len(checks)
        assert counters["ecdsa.verify_batch.aggregated"] == len(checks)
        assert "ecdsa.verify_batch.bucket" not in counters


# ----------------------------------------------------------------- LRU cache


def _cache_key(point):
    return (CURVE_P256.name, point.x, point.y)


def test_pubkey_table_built_on_second_use():
    secret = 0xB0B
    public = derive_public_key(secret)
    digest = hashlib.sha256(b"m").digest()
    signature = sign_digest(secret, digest)
    assert verify_digest(public, digest, signature)
    assert _cache_key(public) not in ecdsa._PUBKEY_TABLES  # one-shot: Shamir
    assert verify_digest(public, digest, signature)
    assert _cache_key(public) in ecdsa._PUBKEY_TABLES  # hot: table built


def test_precompute_public_key_skips_threshold():
    public = derive_public_key(0xCAFE)
    precompute_public_key(public)
    assert _cache_key(public) in ecdsa._PUBKEY_TABLES
    digest = hashlib.sha256(b"m").digest()
    assert verify_digest(public, digest, sign_digest(0xCAFE, digest))


def test_pubkey_cache_lru_eviction(monkeypatch):
    # Shrink the cache and window so the test builds tiny tables quickly.
    monkeypatch.setattr(ecdsa, "PUBKEY_CACHE_SIZE", 4)
    monkeypatch.setattr(ecdsa, "PUBKEY_WINDOW", 3)
    old = derive_public_key(1001)
    precompute_public_key(old)
    for i in range(4):
        precompute_public_key(scalar_multiply(2000 + i, G))
    assert len(ecdsa._PUBKEY_TABLES) == 4
    assert _cache_key(old) not in ecdsa._PUBKEY_TABLES  # oldest evicted
    # A re-used key moves to the back and survives the next insertion.
    survivor = scalar_multiply(2000, G)
    precompute_public_key(survivor)
    precompute_public_key(scalar_multiply(3000, G))
    assert _cache_key(survivor) in ecdsa._PUBKEY_TABLES
    # Eviction must not affect correctness, only speed.
    digest = hashlib.sha256(b"m").digest()
    assert verify_digest(old, digest, sign_digest(1001, digest))


def test_keypair_precompute_hook():
    pair = KeyPair.generate(seed=b"precompute-hook")
    assert pair.public.precompute() is pair.public
    assert _cache_key(pair.public.point) in ecdsa._PUBKEY_TABLES
    digest = hashlib.sha256(b"hook").digest()
    assert pair.public.verify(digest, pair.sign(digest))


def test_clear_fast_path_caches():
    precompute_public_key(derive_public_key(0xD00D))
    scalar_multiply_base(5)
    assert ecdsa._PUBKEY_TABLES and ecdsa._GEN_TABLES
    ecdsa.clear_fast_path_caches()
    assert not ecdsa._PUBKEY_TABLES and not ecdsa._GEN_TABLES
    assert scalar_multiply_base(5) == scalar_multiply(5, G)  # rebuilds lazily
