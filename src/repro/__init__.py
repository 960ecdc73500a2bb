"""repro — a from-scratch reproduction of *Ubiquitous Verification in
Centralized Ledger Database* (ICDE 2022).

The package implements LedgerDB's verification machinery end to end:

* :mod:`repro.crypto` — SHA-256/SHA-3 digests, from-scratch ECDSA (P-256,
  RFC 6979), a CA substrate, and multi-signatures;
* :mod:`repro.storage` — append-only streams and KV node stores;
* :mod:`repro.merkle` — the tree family: Shrubs accumulators, **fam**
  (fractal accumulating model) with trusted anchors, a Merkle Patricia
  Trie, and **CM-Tree** for N-lineage;
* :mod:`repro.timeauth` — TSA actors, one-/two-way pegging, **T-Ledger**,
  and the timestamp-attack harness;
* :mod:`repro.core` — the ledger kernel (journals, receipts, blocks, purge,
  occult), Dasein what/when/who verification, and the §V audit;
* :mod:`repro.artifacts` — the kernel-free artifact layer (byte-symmetric
  evidence objects and the structured ``VerifyResult``);
* :mod:`repro.export` — offline export bundles, the standalone verifier,
  and rebuild-from-truth.

The paper's tables and figures are reproduced by the separate ``paper``
program (``python -m paper``), which nothing in this package imports.

Quickstart::

    from repro import Ledger, LedgerConfig, ClientRequest, KeyPair, Role

    ledger = Ledger(LedgerConfig(uri="ledger://demo"))
    alice = KeyPair.generate(seed="alice")
    ledger.registry.register("alice", Role.USER, alice.public)
    request = ClientRequest.build(
        "ledger://demo", "alice", b"hello ledger", clues=("CLUE-1",)
    ).signed_by(alice)
    receipt = ledger.append(request)
    proof = ledger.get_proof(receipt.jsn)
    assert ledger.verify_journal(ledger.get_journal(receipt.jsn), proof)

Exports resolve lazily (PEP 562): ``import repro`` loads essentially
nothing, and ``from repro.export.verifier import verify_bundle`` pulls in
only the kernel-free slice — the standalone-verifier guarantee that a
bundle check never imports the ledger kernel, the service layer, or the
network stack depends on this, so keep new top-level exports in the lazy
table rather than adding eager ``import`` statements here.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

# name -> submodule (relative) providing it.  Resolved on first attribute
# access and cached in the module dict by __getattr__.
_EXPORTS = {
    # core kernel
    "AuditReport": ".core",
    "ClientRequest": ".core",
    "DaseinReport": ".core",
    "DaseinVerifier": ".core",
    "Journal": ".core",
    "JournalType": ".core",
    "Ledger": ".core",
    "LedgerConfig": ".core",
    "LedgerView": ".core",
    "MemberRegistry": ".core",
    "OccultMode": ".core",
    "Receipt": ".core",
    "UsageError": ".core",
    "dasein_audit": ".core",
    # artifact layer (kernel-free)
    "Artifact": ".artifacts",
    "VerifyResult": ".artifacts",
    # offline export / standalone verification / rebuild-from-truth
    "ExportBundle": ".export",
    "export_bundle": ".export",
    "verify_bundle": ".export",
    "RebuildReport": ".export.rebuild",
    # crypto
    "CertificateAuthority": ".crypto",
    "KeyPair": ".crypto",
    "MultiSignature": ".crypto",
    "PublicKey": ".crypto",
    "Role": ".crypto",
    "Signature": ".crypto",
    # merkle
    "AnchorStore": ".merkle",
    "CMTree": ".merkle",
    "FamAccumulator": ".merkle",
    "MPT": ".merkle",
    "ShrubsAccumulator": ".merkle",
    # service
    "LedgerService": ".service",
    "ServiceConfig": ".service",
    # time authorities
    "SimClock": ".timeauth",
    "TimeLedger": ".timeauth",
    "TimeStampAuthority": ".timeauth",
    "TSAPool": ".timeauth",
    # v2 session API
    "LedgerSession": ".api",
    "connect": ".api",
    "scoped_ledger": ".api",
}

# Submodules reachable as plain attributes after ``import repro``.
_SUBMODULES = frozenset(
    {
        "api",
        "artifacts",
        "core",
        "crypto",
        "encoding",
        "export",
        "merkle",
        "obs",
        "service",
        "shard",
        "storage",
        "timeauth",
        "transparency",
    }
)

__all__ = [  # noqa: F822  (names resolve lazily via __getattr__)
    *sorted(_EXPORTS),
    "api",
    "export",
    "__version__",
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
