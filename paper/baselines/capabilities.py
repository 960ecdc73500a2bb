"""System capability matrix — the data behind Table I.

Each row captures one ledger system along the paper's six comparison
dimensions.  For the four systems implemented in this repository (LedgerDB,
QLDB-sim, ProvenDB-sim, Fabric-sim) the claims are *probed by tests*
(``tests/test_capabilities.py``); SQL Ledger and Factom are
literature-derived rows retained for completeness of the printed table.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Level", "SystemCapabilities", "TABLE_I", "render_table_i"]


class Level(Enum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"
    HIGHEST = "Highest"
    LOWEST = "Lowest"


@dataclass(frozen=True)
class SystemCapabilities:
    """One Table-I row."""

    system: str
    trusted_dependency: str
    dasein_support: tuple[str, ...]  # subset of ("what", "when", "who")
    verify_efficiency: Level
    storage_overhead: Level
    verifiable_mutation: bool
    verifiable_n_lineage: bool
    implemented_here: bool  # probed by tests vs literature-derived

    @property
    def dasein_complete(self) -> bool:
        return set(self.dasein_support) == {"what", "when", "who"}


TABLE_I: tuple[SystemCapabilities, ...] = (
    SystemCapabilities(
        system="LedgerDB",
        trusted_dependency="TSA(non-LSP)",
        dasein_support=("what", "when", "who"),
        verify_efficiency=Level.HIGH,
        storage_overhead=Level.LOWEST,
        verifiable_mutation=True,
        verifiable_n_lineage=True,
        implemented_here=True,
    ),
    SystemCapabilities(
        system="SQL Ledger",
        trusted_dependency="LSP & Storage",
        dasein_support=("what", "when", "who"),
        verify_efficiency=Level.HIGH,
        storage_overhead=Level.MEDIUM,
        verifiable_mutation=True,
        verifiable_n_lineage=False,
        implemented_here=False,
    ),
    SystemCapabilities(
        system="QLDB",
        trusted_dependency="LSP",
        dasein_support=("what",),
        verify_efficiency=Level.MEDIUM,
        storage_overhead=Level.MEDIUM,
        verifiable_mutation=False,
        verifiable_n_lineage=False,
        implemented_here=True,
    ),
    SystemCapabilities(
        system="ProvenDB",
        trusted_dependency="LSP & Bitcoin",
        dasein_support=("what", "when"),
        verify_efficiency=Level.MEDIUM,
        storage_overhead=Level.MEDIUM,
        verifiable_mutation=True,
        verifiable_n_lineage=False,
        implemented_here=True,
    ),
    SystemCapabilities(
        system="Hyperledger",
        trusted_dependency="Consortium",
        dasein_support=("what", "who"),
        verify_efficiency=Level.LOW,
        storage_overhead=Level.HIGH,
        verifiable_mutation=False,
        verifiable_n_lineage=False,
        implemented_here=True,
    ),
    SystemCapabilities(
        system="Factom",
        trusted_dependency="Bitcoin",
        # "rigorous what, non-judicial when and unrigorous who" (§II-A):
        # the when is an upper bound only, the who is key-possession without
        # identity — see tests/test_factom.py for the behavioural probes.
        dasein_support=("what", "when", "who"),
        verify_efficiency=Level.MEDIUM,
        storage_overhead=Level.HIGHEST,
        verifiable_mutation=False,
        verifiable_n_lineage=False,
        implemented_here=True,
    ),
)


def render_table_i() -> str:
    """Render the Table-I comparison matrix as aligned text."""
    headers = (
        "System",
        "Trusted Dependency",
        "Dasein Support",
        "Verify-Efficiency",
        "Storage Overhead",
        "Verifiable Mutation",
        "Verifiable N-lineage",
    )
    rows = [headers]
    for cap in TABLE_I:
        rows.append(
            (
                cap.system,
                cap.trusted_dependency,
                "-".join(cap.dasein_support),
                cap.verify_efficiency.value,
                cap.storage_overhead.value,
                "yes" if cap.verifiable_mutation else "no",
                "yes" if cap.verifiable_n_lineage else "no",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for index, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
