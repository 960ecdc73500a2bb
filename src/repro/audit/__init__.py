"""repro.audit — the Dasein-complete audit engine (§V, Definition 1).

The audit is its own package since it went parallel; its time-evidence and
signature primitives are :mod:`repro.verify`'s:

* :mod:`~repro.audit.engine` — the coordinator: sequential replay fold +
  chunked signature dispatch, deterministic failure merge, resume logic;
* :mod:`~repro.audit.workers` — picklable worker-side verify functions;
* :mod:`~repro.audit.checkpoint` — durable, crash-safe resume points;
* :mod:`~repro.audit.report` — :class:`AuditReport` / :class:`AuditStep`.

Entry point: :func:`dasein_audit` (or ``LedgerSession.audit`` on the v2
session API, which wraps it).
"""

from .checkpoint import AuditCheckpoint, CheckpointStore
from .engine import DEFAULT_CHUNK_SIZE, dasein_audit
from .report import AuditReport, AuditStep

__all__ = [
    "AuditCheckpoint",
    "AuditReport",
    "AuditStep",
    "CheckpointStore",
    "DEFAULT_CHUNK_SIZE",
    "dasein_audit",
]
