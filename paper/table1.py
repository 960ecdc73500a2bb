"""Table I — the qualitative six-dimension system comparison.

The matrix itself is data (:mod:`paper.baselines.capabilities`); the tests
in ``tests/test_capabilities.py`` probe the implemented systems' actual
behaviour against their claimed rows.  This module renders the table and a
storage-overhead measurement that backs the "Storage Overhead" column for
the models implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.hashing import leaf_hash
from repro.merkle.fam import FamAccumulator
from paper.baselines.capabilities import render_table_i
from paper.merkle.bim import BimLedger
from paper.merkle.tim import TimAccumulator
from paper.timing import render_table

__all__ = ["Table1Result", "run", "render"]


@dataclass
class Table1Result:
    matrix: str
    # model -> stored commitment-structure entries for the same journal count
    storage_nodes: dict[str, int]
    journal_count: int


def run(quick: bool = True) -> Table1Result:
    count = 4096
    digests = [leaf_hash(i.to_bytes(4, "big")) for i in range(count)]

    fam = FamAccumulator(6)
    for digest in digests:
        fam.append(digest)

    tim = TimAccumulator()
    for digest in digests:
        tim.append_digest(digest)

    bim = BimLedger(block_capacity=32)
    for i in range(count):
        bim.append(b"tx-%d" % i)
    bim.commit_block()

    storage = {
        "fam (LedgerDB)": fam.num_nodes(),
        "tim (QLDB/Diem)": tim.num_nodes(),
        "bim blocks+headers (Bitcoin)": bim.height * 32 + count * 2,  # headers + in-block trees
    }
    # fam after a purge with node erasure: the "Lowest" storage story.
    fam.erase_up_to(count // 2)
    storage["fam after purge (erased epochs)"] = fam.num_nodes()
    return Table1Result(matrix=render_table_i(), storage_nodes=storage, journal_count=count)


def render(result: Table1Result) -> str:
    rows = [[name, f"{nodes:,}"] for name, nodes in result.storage_nodes.items()]
    parts = [
        "Table I — ledger verification mechanisms",
        "",
        result.matrix,
        "",
        render_table(
            f"Storage backing ({result.journal_count:,} journals): commitment nodes kept",
            ["model", "nodes"],
            rows,
        ),
        "",
        "Implemented rows (LedgerDB/QLDB/ProvenDB/Hyperledger) are probed by",
        "tests/test_capabilities.py; SQL Ledger and Factom are literature rows.",
    ]
    return "\n".join(parts)
