"""Hash-partitioned deployments under one trusted root (DESIGN.md §15).

A solo ledger is the one-shard deployment; :mod:`repro.shard.shape` holds
every rule that tells the two apart.

- :func:`new_deployment` / :func:`open_deployment` — the one constructor
  and the one reopen, for any shard count.
- :class:`ShardedLedger` — the facade: routing, proofs, audit, lifecycle.
- :class:`ShardedLedgerService` — one group-commit pipeline per shard.
- :class:`ShardedServerThread` — one network listener per shard.
- :class:`ShardProof` / :class:`ShardClueProof` — per-shard proof composed
  with the shard→root inclusion link.

Exports resolve lazily (PEP 562), so :mod:`repro.shard.shape` imports
without the ledger, the service layer or the network stack.
"""

from __future__ import annotations

import importlib
from typing import Any

_EXPORTS = {
    "SHARD_DIR_FORMAT": ".shape",
    "ShardedAuditReport": ".shape",
    "shard_of_key": ".shape",
    "ShardClueProof": ".sharded",
    "ShardProof": ".sharded",
    "ShardedLedger": ".sharded",
    "iter_shard_dirs": ".sharded",
    "new_deployment": ".sharded",
    "open_deployment": ".sharded",
    "ShardedLedgerService": ".service",
    "deployment_service": ".service",
    "ShardedServerThread": ".serving",
}

__all__ = sorted(_EXPORTS)  # noqa: F822  (names resolve lazily via __getattr__)


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name, __name__), name)
    globals()[name] = value
    return value
