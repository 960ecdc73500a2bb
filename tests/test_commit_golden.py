"""The commit path's bytes, pinned: one scenario's stream, receipts, blocks and heads.

A file-backed ledger (epoch capacity 4, blocks of 3) takes batches that
split across a block seal and a fam epoch roll, single appends, a TSA time
anchor and a SYNC occult.  ``tests/data/golden/commit.*.hex`` is
:func:`commit_scenario`'s output written by the commit before ``append`` and
the system journals became batches of one (``commit.receipts.hex``: when a
receipt became its statement plus a path to its group commit's one LSP
signature), so every commit route the scenario takes must still produce it
byte for byte, and a full replay of the stream must rebuild the same ledger.
"""

from __future__ import annotations

from pathlib import Path

from repro.core import ClientRequest, Ledger, LedgerConfig, OccultMode
from repro.core.members import MemberRegistry
from repro.core.receipt import Receipt
from repro.crypto import KeyPair, MultiSignature, Role
from repro.timeauth import SimClock, TimeStampAuthority

GOLDEN = Path(__file__).parent / "data" / "golden"
URI = "ledger://commit-golden"
CLIENTS = ("alice", "bob")
ROLES = {"alice": Role.USER, "bob": Role.USER, "dba": Role.DBA, "regulator": Role.REGULATOR}
#: Artifacts pinned one blob per line; the others are one blob wrapped at 96 columns.
LISTED = ("receipts", "blocks")


def _registry() -> tuple[MemberRegistry, dict[str, KeyPair]]:
    registry = MemberRegistry()
    keys = {name: KeyPair.generate(seed=f"commit-golden:{name}") for name in ROLES}
    for name, keypair in keys.items():
        registry.register(name, ROLES[name], keypair.public)
    return registry, keys


def _drive(directory: Path) -> tuple[dict[str, list[bytes]], list[tuple]]:
    """Run the scenario: the pinned artifacts, and each block's coordinates."""
    clock = SimClock()
    registry, keys = _registry()
    ledger = Ledger(
        LedgerConfig(uri=URI, fractal_height=2, block_size=3, data_dir=str(directory)),
        clock=clock,
        registry=registry,
    )
    ledger.attach_tsa(TimeStampAuthority("commit-golden-tsa", clock))
    counter = iter(range(1_000))

    def requests(count: int) -> list[ClientRequest]:
        out = []
        for _ in range(count):
            index = next(counter)
            client = CLIENTS[index % 2]
            out.append(
                ClientRequest.build(
                    URI,
                    client,
                    b"commit %d" % index,
                    clues=("C-%d" % (index % 3),) if index % 4 else (),
                    nonce=index.to_bytes(8, "big"),
                    client_timestamp=clock.now(),
                ).signed_by(keys[client])
            )
        return out

    receipts = [ledger.receipt_for(0)]

    def step(issued: list[Receipt]) -> None:
        receipts.extend(issued)
        clock.advance(0.5)

    step(ledger.append_batch(requests(4)))  # seals jsn 0..2, rolls epoch 0
    step([ledger.append(request) for request in requests(2)])
    step([ledger.receipt_for(ledger.anchor_time())])
    step(ledger.append_batch(requests(5)))  # a second seal and roll inside
    record = ledger.prepare_occult(2, OccultMode.SYNC, reason="golden")
    approvals = MultiSignature(digest=record.approval_digest())
    for name in ("dba", "regulator"):
        approvals.add(name, keys[name].sign(record.approval_digest()))
    step([ledger.execute_occult(record, approvals)])
    step(ledger.append_batch(requests(3)))
    ledger.commit_block()
    blocks = ledger.blocks
    ledger.close(checkpoint=False)
    artifacts = {
        "journal.stream": [(directory / "journal.stream").read_bytes()],
        "receipts": [receipt.to_bytes() for receipt in receipts],
        "blocks": [block.hash() for block in blocks],
        "sth.log": [(directory / "sth.log").read_bytes()],
    }
    coordinates = [(b.start_jsn, b.end_jsn, b.journal_root, b.state_root) for b in blocks]
    return artifacts, coordinates


def commit_scenario(directory: Path) -> dict[str, list[bytes]]:
    return _drive(directory)[0]


def _path(name: str) -> Path:
    return GOLDEN / f"commit.{name}.hex"


def write_golden(directory: Path) -> None:
    """Rewrite the commit golden files (only ever on purpose: they are the fixed point)."""
    for name, blobs in commit_scenario(directory).items():
        if name in LISTED:
            lines = [blob.hex() for blob in blobs]
        else:
            text = blobs[0].hex()
            lines = [text[i : i + 96] for i in range(0, len(text), 96)]
        _path(name).write_text("\n".join(lines) + "\n")


def golden(name: str) -> list[bytes]:
    lines = _path(name).read_text().split()
    if name in LISTED:
        return [bytes.fromhex(line) for line in lines]
    return [bytes.fromhex("".join(lines))]


def test_commit_scenario_produces_the_golden_bytes(tmp_path):
    for name, blobs in commit_scenario(tmp_path).items():
        assert blobs == golden(name), name


def test_golden_scenario_replays_to_the_same_ledger(tmp_path):
    """Full replay of the stream (no snapshot) rebuilds every block's
    coordinates and roots, the occult bit and the time journal; block
    timestamps, and so block hashes, are the replaying clock's."""
    _artifacts, coordinates = _drive(tmp_path)
    final = Receipt.from_bytes(golden("receipts")[-1])
    registry, _keys = _registry()
    ledger = Ledger.open(str(tmp_path), registry, KeyPair.generate(seed=f"lsp:{URI}"))
    try:
        assert ledger.size == final.jsn + 1
        assert ledger.current_root() == final.ledger_root
        assert [
            (b.start_jsn, b.end_jsn, b.journal_root, b.state_root) for b in ledger.blocks
        ] == coordinates
        assert ledger.is_occulted(2)
        assert ledger.time_journals == [7]
    finally:
        ledger.close(checkpoint=False)
