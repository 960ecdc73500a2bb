"""Time the compiled record codecs of ``repro.encoding`` against the generic oracle.

``python benchmarks/codec_ladder.py`` prints, per record schema, the time of
the compiled codec (``encode`` / ``Record`` / the MPT node codec) and of the
generic recursive oracle (``encoding._encode_into`` / ``encoding._read_value``)
on the same input, after checking that both give the same bytes or value.

``--gate`` is the CI check that the codecs stay compiled: three ratios taken
in one process, timed in alternating rounds, so they hold on any host — an
MPT branch serialize, a ``FamProof`` decode (with its link proofs) and a
``Journal`` decode must each be at least 1.4x as fast as the oracle (about
9x, 2.7x and 2.2x under CPython 3.11 on a 2-core x86-64 container).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import encoding  # noqa: E402
from repro.core import journal as journal_module  # noqa: E402
from repro.core.journal import ClientRequest, Journal  # noqa: E402
from repro.crypto.hashing import leaf_hash, sha256  # noqa: E402
from repro.crypto.keys import KeyPair  # noqa: E402
from repro.merkle import cmtree, fam, mpt, proofs  # noqa: E402

GATE_FLOOR = 1.4


def oracle_encode(value) -> bytes:
    out = bytearray()
    encoding._encode_into(value, out)
    return bytes(out)


def oracle_decode(data: bytes):
    value, pos = encoding._read_value(data, 0)
    if pos != len(data):
        raise encoding.EncodingError("trailing bytes after value")
    return value


def _branch_obj(node: tuple) -> list:
    """The generic form of an MPT branch node: what ``_serialize`` compiles."""
    children = [child if child is not None else b"" for child in node[1]]
    return [mpt._BRANCH, children, node[2] if node[2] is not None else b"", node[2] is not None]


def _fam_decode(decode_fam, decode_membership, blob: bytes):
    obj = decode_fam(blob)
    return obj, [decode_membership(b) for b in [obj["epoch_proof"], *obj["link_proofs"]]]


def samples() -> dict[str, tuple]:
    """name -> (compiled, oracle, argument): both callables must agree on it."""
    user = KeyPair.generate(seed="ladder-user")
    request = ClientRequest.build(
        "ledger://ladder", "ladder-user", bytes(range(96)), clues=("order-17", "acct-3")
    ).signed_by(user)
    journal = Journal(
        jsn=70_000,
        journal_type=request.journal_type,
        client_id=request.client_id,
        payload=request.payload,
        clues=request.clues,
        timestamp=1_700_000_000.25,
        nonce=os.urandom(16),
        request_hash=request.request_hash(),
        client_signature=request.signature,
    )
    accumulator = fam.FamAccumulator(8)
    for index in range(1000):
        accumulator.append(leaf_hash(b"%d" % index))
    fam_proof = accumulator.get_proof(300, anchored=False)
    membership = fam_proof.epoch_proof
    branch = ("branch", [sha256(bytes([slot])) for slot in range(16)], None)
    sparse = ("branch", [None] * 16, None)
    sparse[1][3], sparse[1][12] = sha256(b"3"), sha256(b"12")
    leaf = ("leaf", bytes(range(16)) * 4, os.urandom(140))
    frontier = [sha256(bytes([i])) for i in range(9)]
    clue = cmtree.encode_clue_value(511, frontier)
    membership_obj = oracle_decode(membership.to_bytes())
    journal_obj = oracle_decode(journal.to_bytes())
    return {
        "mpt branch serialize": (mpt._serialize, lambda n: oracle_encode(_branch_obj(n)), branch),
        "mpt sparse branch serialize": (
            mpt._serialize,
            lambda n: oracle_encode(_branch_obj(n)),
            sparse,
        ),
        "mpt leaf serialize": (
            mpt._serialize,
            lambda n: oracle_encode([mpt._LEAF, n[1], n[2]]),
            leaf,
        ),
        "mpt branch deserialize": (
            mpt._deserialize,
            lambda data: mpt._deserialize_generic(data),
            mpt._serialize(branch),
        ),
        "FamProof decode": (
            lambda b: _fam_decode(fam._FAM_PROOF.decode, proofs._MEMBERSHIP.decode, b),
            lambda b: _fam_decode(oracle_decode, oracle_decode, b),
            fam_proof.to_bytes(),
        ),
        "MembershipProof encode": (
            lambda p: p.to_bytes(),
            lambda _p: oracle_encode(
                {**membership_obj, "path": [list(step) for step in membership_obj["path"]]}
            ),
            membership,
        ),
        "Journal decode": (journal_module._JOURNAL.decode, oracle_decode, journal.to_bytes()),
        "Journal encode": (
            lambda obj: journal_module._JOURNAL.encode(obj),
            oracle_encode,
            journal_obj,
        ),
        "clue value decode": (cmtree._CLUE_VALUE.decode, oracle_decode, clue),
        "generic encode (Journal dict)": (encoding.encode, oracle_encode, journal_obj),
    }


def check(name: str, compiled, oracle, argument) -> None:
    if compiled(argument) != oracle(argument):
        sys.exit(f"{name}: compiled codec disagrees with the oracle")


def _time_us(function, argument, repeats: int) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        function(argument)
    return (time.perf_counter() - started) / repeats * 1e6


def best_pair_us(oracle, compiled, argument, repeats: int, rounds: int = 15) -> tuple[float, float]:
    """Best time of each, measured in alternating rounds so drift hits both."""
    slow = fast = float("inf")
    for _ in range(rounds):
        slow = min(slow, _time_us(oracle, argument, repeats))
        fast = min(fast, _time_us(compiled, argument, repeats))
    return slow, fast


def table() -> None:
    print(f"{'record':<30} {'oracle us':>10} {'compiled us':>12} {'ratio':>6}")
    for name, (compiled, oracle, argument) in samples().items():
        check(name, compiled, oracle, argument)
        slow, fast = best_pair_us(oracle, compiled, argument, 1000)
        print(f"{name:<30} {slow:>10.2f} {fast:>12.2f} {slow / fast:>6.1f}")


def gate() -> None:
    cases = samples()
    failed = []
    for name in ("mpt branch serialize", "FamProof decode", "Journal decode"):
        compiled, oracle, argument = cases[name]
        check(name, compiled, oracle, argument)
        slow, fast = best_pair_us(oracle, compiled, argument, 500)
        print(f"{name}: compiled {slow / fast:.1f}x the oracle")
        if slow / fast < GATE_FLOOR:
            failed.append(name)
    if failed:
        sys.exit(f"no longer compiled (< {GATE_FLOOR}x the oracle): {', '.join(failed)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", action="store_true", help="fail unless the three CI ratios hold")
    args = parser.parse_args()
    gate() if args.gate else table()
