"""LedgerDB core: the ledger kernel and Dasein verification.

Exports resolve lazily (PEP 562) so that kernel-free leaf modules —
``core.journal``, ``core.receipt``, ``core.errors``, ``core.snapshot`` —
can be imported by the standalone offline verifier without dragging in
``core.ledger`` (and through it the node store, service wiring, and the
rest of the kernel).  Keep new exports in the lazy table; an eager import
here would silently break the ``repro/export/verifier.py`` import-isolation
guarantee.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "ClientState": "..verify",
    "AuditReport": "..audit",
    "AuditStep": "..audit",
    "dasein_audit": "..audit",
    "Block": ".blocks",
    "ClueSkipList": ".cluesl",
    "AuthenticationError": ".errors",
    "AuthorizationError": ".errors",
    "JournalNotFoundError": ".errors",
    "JournalOccultedError": ".errors",
    "JournalPurgedError": ".errors",
    "LedgerError": ".errors",
    "UsageError": ".errors",
    "MutationError": ".errors",
    "RecoveryError": ".errors",
    "VerificationFailure": ".errors",
    "ClientRequest": ".journal",
    "Journal": ".journal",
    "JournalType": ".journal",
    "LSP_MEMBER_ID": ".ledger",
    "JournalEntryView": ".ledger",
    "Ledger": ".ledger",
    "LedgerConfig": ".ledger",
    "LedgerView": ".ledger",
    "MemberRegistry": ".members",
    "OccultBitmap": ".occult",
    "OccultMode": ".occult",
    "OccultRecord": ".occult",
    "PseudoGenesis": ".purge",
    "PurgeRecord": ".purge",
    "Receipt": ".receipt",
    "DaseinReport": "..artifacts",
    "DaseinVerifier": ".verification",
    "VerifyResult": "..artifacts",
    "parse_time_journal": "..verify",
}

_SUBMODULES = frozenset(
    {
        "blocks",
        "cluesl",
        "errors",
        "journal",
        "ledger",
        "members",
        "occult",
        "purge",
        "receipt",
        "snapshot",
        "verification",
    }
)

__all__ = [  # noqa: F822  (names resolve lazily via __getattr__)
    *sorted(_EXPORTS),
]


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is not None:
        value = getattr(importlib.import_module(module_name, __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_SUBMODULES))
