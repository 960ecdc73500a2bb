"""What a ledger keeps in memory per append, share by share.

``python benchmarks/retention.py`` runs 4 096 in-process appends on one
ledger shaped like the end-to-end benchmark's (memory node store, epoch 256,
block 32, a ``FileStream`` journal) in batches of 16, each journal carrying
two zipf-drawn clues from a 512-clue universe.  For each named share of the
ledger it prints the bytes retained per append, the growth from the 2 048th
to the 4 096th append over those 2 048 appends, and the share's size at the
end:

* ``fam``           — the fam accumulator (every leaf digest, by design);
* ``CM-Tree store`` — CM-Tree1's memory node store, swept at epoch rolls;
* ``MPT memo``      — CM-Tree1's decode memo;
* ``blocks``        — the sealed block headers;
* ``clue index``    — the cSL clue -> jsn index;
* ``stream index``  — the journal stream's offset index;
* ``receipts``      — the receipts kept for ``receipt_for`` (a row per
  receipt, a signature per group commit).

Sizes are a deep ``sys.getsizeof`` walk; an object reachable from two shares
counts once, in the first listed.  ``--gate`` fails when the shares together
retain more than 406 B per append.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import tempfile
from pathlib import Path
from types import FunctionType, MethodType, ModuleType

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import ClientRequest, Ledger, LedgerConfig  # noqa: E402
from repro.crypto import KeyPair, Role  # noqa: E402
from repro.storage.stream import FileStream  # noqa: E402
from repro.timeauth import SimClock  # noqa: E402

APPENDS = 4096
BATCH = 16
CLUE_UNIVERSE = 512
GATE_BYTES_PER_APPEND = 406

#: Each share's roots in a ledger, the shares kept by design first.
SHARES = {
    "fam": lambda ledger: [ledger._fam],
    "CM-Tree store": lambda ledger: [ledger._cmtree._swept],
    "MPT memo": lambda ledger: [ledger._cmtree._mpt._node_cache],
    "blocks": lambda ledger: [ledger._blocks],
    "clue index": lambda ledger: [ledger._cluesl],
    "stream index": lambda ledger: [
        ledger._stream._positions, ledger._stream._lengths, ledger._stream._erased
    ],
    "receipts": lambda ledger: [ledger._receipts],
}

_OPAQUE = (type, ModuleType, FunctionType, MethodType)


def deep_size(roots: list, seen: set[int]) -> int:
    """Bytes of every object reachable from ``roots`` not in ``seen`` yet."""
    total, stack = 0, list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            if hasattr(obj, "__dict__"):
                stack.append(vars(obj))
            for cls in type(obj).__mro__:
                for slot in getattr(cls, "__slots__", ()):
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return total


def sizes(ledger: Ledger) -> dict[str, int]:
    seen: set[int] = set()
    return {name: deep_size(roots(ledger), seen) for name, roots in SHARES.items()}


def measure() -> dict[str, tuple[float, int]]:
    """Per share: bytes retained per append over the second half of the
    appends, and the share's bytes after them.  Client requests go unsigned
    (admission is not what this counts); receipts are LSP-signed."""
    config = LedgerConfig(
        uri="ledger://retention",
        fractal_height=8,
        block_size=32,
        require_client_signature=False,
    )
    clock = SimClock()
    rng = random.Random(0)
    ranks = range(CLUE_UNIVERSE)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in ranks]
    with tempfile.TemporaryDirectory() as directory:
        ledger = Ledger(
            config, clock=clock, lsp_keypair=KeyPair.generate(seed="retention:lsp"),
            journal_stream=FileStream(Path(directory) / "journal.stream"),
        )
        ledger.registry.register(
            "user", Role.USER, KeyPair.generate(seed="retention:user").public
        )
        try:
            halfway = {}
            for start in range(0, APPENDS, BATCH):
                if start == APPENDS // 2:
                    halfway = sizes(ledger)
                requests = []
                for index in range(start, start + BATCH):
                    clues = {f"clue-{rank:03d}" for rank in rng.choices(ranks, weights, k=2)}
                    requests.append(
                        ClientRequest.build(
                            config.uri, "user", b"retained %05d" % index,
                            clues=tuple(sorted(clues)),
                            nonce=index.to_bytes(8, "big"), client_timestamp=clock.now(),
                        )
                    )
                ledger.append_batch(requests)
                clock.advance(0.01)
            end = sizes(ledger)
        finally:
            ledger.close(checkpoint=False)
    growth = APPENDS - APPENDS // 2
    return {name: ((end[name] - halfway[name]) / growth, end[name]) for name in SHARES}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--gate", action="store_true",
        help=f"fail above {GATE_BYTES_PER_APPEND} B retained per append",
    )
    args = parser.parse_args()
    shares = measure()
    total = sum(per_append for per_append, _size in shares.values())
    print(f"{'share':<14} {'B/append':>9} {'KiB held':>9}")
    for name, (per_append, size) in shares.items():
        print(f"{name:<14} {per_append:9.1f} {size / 1024:9.1f}")
    held = sum(size for _per_append, size in shares.values())
    print(f"{'total':<14} {total:9.1f} {held / 1024:9.1f}  ({APPENDS} appends)")
    if args.gate and total > GATE_BYTES_PER_APPEND:
        sys.exit(f"retains {total:.0f} B per append (gate {GATE_BYTES_PER_APPEND})")


if __name__ == "__main__":
    main()
