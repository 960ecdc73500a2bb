"""Time the compiled record codecs of ``repro.encoding`` against the generic oracle.

``python benchmarks/codec_ladder.py`` prints, per record schema, the time of
the compiled codec (``encode`` / a type's ``Record`` / the MPT node codec)
and of the generic recursive oracle (``encoding._encode_into`` /
``encoding._read_value``) on the same input, after checking that both give
the same bytes, or read values that write back to the same bytes.  A record
decoder yields typed values (enum members, signatures, nested proofs) where
the oracle yields primitives, so its row includes building those.

``--gate`` is the CI check that the codecs stay compiled: four ratios taken
in one process, timed in alternating rounds, so they hold on any host — an
MPT branch serialize, a ``FamProof`` decode (with its link proofs), a
``Journal`` decode and a ``get_journal`` reply decode through the op table
of ``repro.net.protocol`` (its journal built, its proof carried as bytes)
must each be at least 1.4x as fast as the oracle.  In ten gate runs under
CPython 3.11 on a 2-core x86-64 container the four rows read 8.9-10.1x,
1.6-2.0x, 1.6-1.7x and 1.5-1.7x; the reply's time is mostly its journal's
decode.
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
from repro.core.receipt import Receipt  # noqa: E402
from repro.crypto.hashing import leaf_hash, sha256  # noqa: E402
from repro.crypto.keys import KeyPair  # noqa: E402
from repro.merkle import cmtree, fam, mpt, proofs  # noqa: E402
from repro.net import protocol  # noqa: E402
from repro.transparency.sth import SignedTreeHead  # noqa: E402

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


def _mpt_oracle(data: bytes) -> tuple:
    """The generic decoder's reading of an MPT node (its list form as a node)."""
    tag, *fields = oracle_decode(data)
    if tag == mpt._BRANCH:
        children, value, has_value = fields
        return ("branch", [child or None for child in children], value if has_value else None)
    return ("leaf" if tag == mpt._LEAF else "ext", *fields)


def _fam_oracle(blob: bytes) -> dict:
    """A fam proof's dict, its member proofs decoded too (as ``from_bytes`` does)."""
    obj = oracle_decode(blob)
    for member in [obj["epoch_proof"], *obj["link_proofs"]]:
        oracle_decode(member)
    return obj


def _reply_oracle(payload: bytes) -> dict:
    """A ``get_journal`` reply's dict, its journal decoded too (as the op
    table's record does; the proof stays bytes in both)."""
    obj = oracle_decode(payload)
    oracle_decode(obj["result"]["journal"])
    return obj


def samples() -> dict[str, tuple]:
    """name -> (compiled, oracle, argument, write): the compiled and oracle
    callables must agree on the argument — give equal values, or (with
    ``write``) values that write back to the argument's bytes."""
    user = KeyPair.generate(seed="ladder-user")
    lsp = KeyPair.generate(seed="ladder-lsp")
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
    receipt = Receipt(
        ledger_uri="ledger://ladder",
        jsn=70_000,
        request_hash=request.request_hash(),
        tx_hash=journal.tx_hash(),
        block_hash=sha256(b"block"),
        block_height=2_187,
        ledger_root=sha256(b"root"),
        timestamp=1_700_000_000.5,
    ).signed_by(lsp)
    head = SignedTreeHead(
        ledger_uri="ledger://ladder",
        epoch=273,
        tree_size=70_000,
        live_size=113,
        root=sha256(b"head"),
        timestamp=1_700_000_001.0,
        fractal_height=8,
    ).signed_by(lsp)
    reply = protocol.reply_frame(
        "get_journal", 2, {"journal": journal, "proof": fam_proof.to_bytes()}
    )[4:]
    membership_obj = oracle_decode(membership.to_bytes())
    journal_obj = oracle_decode(journal.to_bytes())
    return {
        "mpt branch serialize": (
            mpt._serialize, lambda n: oracle_encode(_branch_obj(n)), branch, None
        ),
        "mpt sparse branch serialize": (
            mpt._serialize,
            lambda n: oracle_encode(_branch_obj(n)),
            sparse,
            None,
        ),
        "mpt leaf serialize": (
            mpt._serialize,
            lambda n: oracle_encode([mpt._LEAF, n[1], n[2]]),
            leaf,
            None,
        ),
        "mpt branch deserialize": (mpt._deserialize, _mpt_oracle, mpt._serialize(branch), None),
        "FamProof decode": (
            fam.FamProof.from_bytes, _fam_oracle, fam_proof.to_bytes(), fam.FamProof.to_bytes
        ),
        "MembershipProof encode": (
            lambda p: p.to_bytes(),
            lambda _p: oracle_encode(
                {**membership_obj, "path": [list(step) for step in membership_obj["path"]]}
            ),
            membership,
            None,
        ),
        "Journal decode": (
            journal_module._JOURNAL.decode,
            oracle_decode,
            journal.to_bytes(),
            journal_module._JOURNAL.encode,
        ),
        "Journal encode": (
            lambda _obj: journal_module._JOURNAL.encode(vars(journal)),
            oracle_encode,
            journal_obj,
            None,
        ),
        "ClientRequest decode": (
            ClientRequest.from_bytes, oracle_decode, request.to_bytes(), ClientRequest.to_bytes
        ),
        "Receipt decode": (Receipt.from_bytes, oracle_decode, receipt.to_bytes(), Receipt.to_bytes),
        "SignedTreeHead decode": (
            SignedTreeHead.from_bytes, oracle_decode, head.to_bytes(), SignedTreeHead.to_bytes
        ),
        "get_journal reply decode": (
            lambda payload: protocol.decode_reply("get_journal", payload)[1],
            _reply_oracle,
            reply,
            lambda result: protocol.reply_frame("get_journal", 2, result)[4:],
        ),
        "clue value decode": (
            cmtree.decode_clue_value,
            lambda data: tuple(oracle_decode(data).values())[::-1],
            clue,
            None,
        ),
        "generic encode (Journal dict)": (encoding.encode, oracle_encode, journal_obj, None),
    }


def check(name: str, compiled, oracle, argument, write) -> None:
    value, expected = compiled(argument), oracle(argument)
    if write is None:
        agree = value == expected
    else:
        agree = write(value) == argument == oracle_encode(expected)
    if not agree:
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
    for name, (compiled, oracle, argument, write) in samples().items():
        check(name, compiled, oracle, argument, write)
        slow, fast = best_pair_us(oracle, compiled, argument, 1000)
        print(f"{name:<30} {slow:>10.2f} {fast:>12.2f} {slow / fast:>6.1f}")


def gate() -> None:
    cases = samples()
    failed = []
    gated = ("mpt branch serialize", "FamProof decode", "Journal decode", "get_journal reply decode")
    for name in gated:
        compiled, oracle, argument, write = cases[name]
        check(name, compiled, oracle, argument, write)
        slow, fast = best_pair_us(oracle, compiled, argument, 500)
        print(f"{name}: compiled {slow / fast:.2f}x the oracle")
        if slow / fast < GATE_FLOOR:
            failed.append(name)
    if failed:
        sys.exit(f"no longer compiled (< {GATE_FLOOR}x the oracle): {', '.join(failed)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate", action="store_true", help="fail unless the four CI ratios hold")
    args = parser.parse_args()
    gate() if args.gate else table()
