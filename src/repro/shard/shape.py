"""The shape of a deployment, decided in one place (DESIGN.md §15).

A deployment is a list of shard ledgers; a solo ledger is the list of one.
What depends on the list's length lives here: the on-disk layout, routing,
and the three rules that make a one-shard deployment a solo ledger —
:func:`sth_stamp` (what a shard stamps into its heads), :func:`has_composite`
(whether a composite head exists) and :func:`audit_shards` (one shard's
audit is its own report).  Kernel-free: the standalone bundle verifier
reads the rules from here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from ..core.errors import UsageError
from ..transparency.sth import SOLO_SHARD

__all__ = [
    "SHARD_DIR_FORMAT",
    "ShardedAuditReport",
    "audit_shards",
    "has_composite",
    "is_sharded_layout",
    "locate",
    "shard_for_stamp",
    "shard_of_key",
    "shard_of_request",
    "sth_stamp",
]

#: Subdirectory of shard ``k`` inside a sharded deployment's ``data_dir``.
SHARD_DIR_FORMAT = "shard-{:02d}"


def is_sharded_layout(data_dir: str | Path) -> bool:
    """Whether ``data_dir`` holds a sharded deployment, for any shard count.

    Decided by the ``shard-00/`` subdirectory the sharded facade writes, not
    by the persisted ``shards`` field: a 1-shard deployment records
    ``shards=1`` exactly like a plain ledger does.
    """
    return (Path(data_dir) / SHARD_DIR_FORMAT.format(0)).is_dir()


def shard_of_key(key: str, num_shards: int) -> int:
    """Deterministic, public shard routing: stable hash of the key.

    Stable across processes and Python versions (unlike ``hash()``), so any
    party — client, server, auditor — derives the same placement.
    """
    if num_shards < 1:
        raise UsageError(f"num_shards must be >= 1, got {num_shards}")
    digest = hashlib.sha256(b"shard-route:" + key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def shard_of_request(request: Any, num_shards: int) -> int:
    """A request or journal routes by its first clue, else by its client id."""
    key = request.clues[0] if request.clues else request.client_id
    return shard_of_key(key, num_shards)


def locate(gsn: int, num_shards: int) -> tuple[int, int]:
    """Global jsn → ``(shard_index, local_jsn)``: ``gsn = local * N + index``."""
    if gsn < 0:
        raise UsageError(f"global jsn must be >= 0, got {gsn}")
    return gsn % num_shards, gsn // num_shards


# ------------------------------------------------------------ the N = 1 rules


def sth_stamp(index: int, num_shards: int) -> int:
    """Rule 1: the ``shard_index`` shard ``index`` stamps into what it signs.

    Shards share the deployment uri and LSP key, so the stamp is what keeps
    sibling shards' heads from reading as forks of one stream; the only
    shard of a one-shard deployment stamps like a solo ledger.
    """
    return SOLO_SHARD if num_shards == 1 else index


def has_composite(num_shards: int) -> bool:
    """Rule 2: only a deployment of several shards folds them under a
    composite head; one shard's own head already speaks for everything."""
    return num_shards > 1


def shard_for_stamp(shards: list[Any], stamp: int) -> Any:
    """The shard whose heads carry ``stamp``, else ``None``.  One shard is
    one stream whatever the stamp: heads an older build stamped ``0`` still
    resolve to it."""
    if not has_composite(len(shards)):
        return shards[0]
    return shards[stamp] if 0 <= stamp < len(shards) else None


@dataclass(frozen=True)
class ShardedAuditReport:
    """Per-shard Dasein audits plus the deployment-level conjunction."""

    passed: bool
    reports: list[Any] = field(default_factory=list)  # AuditReport per shard

    def __bool__(self) -> bool:
        return self.passed

    @property
    def failed_shards(self) -> list[int]:
        return [k for k, report in enumerate(self.reports) if not report.passed]

    @property
    def steps(self) -> list[Any]:
        """Every shard's steps, each name prefixed with its shard."""
        return [
            replace(step, name=f"shard-{index} {step.name}")
            for index, report in enumerate(self.reports)
            for step in report.steps
        ]

    @property
    def journals_replayed(self) -> int:
        return sum(report.journals_replayed for report in self.reports)

    @property
    def blocks_verified(self) -> int:
        return sum(report.blocks_verified for report in self.reports)

    @property
    def time_journals_verified(self) -> int:
        return sum(report.time_journals_verified for report in self.reports)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "num_shards": len(self.reports),
            "failed_shards": self.failed_shards,
            "shards": [report.to_dict() for report in self.reports],
        }


def audit_shards(
    shards: list[Any],
    *,
    tsa_keys: Any = None,
    workers: int = 0,
    checkpoint: Any = None,
    resume: bool = False,
    temporal_range: tuple[float, float] | None = None,
) -> Any:
    """Rule 3: the §V Dasein-complete audit of a deployment's shards.

    One shard's audit is its own :class:`~repro.audit.AuditReport`, with
    ``checkpoint`` (a path or a store) passed through.  Several shards audit
    concurrently, one thread each, into a :class:`ShardedAuditReport`;
    ``checkpoint`` must then be a path prefix, and shard ``k`` checkpoints
    to ``<checkpoint>.shard-k``.  The other arguments go to every
    :func:`~repro.audit.dasein_audit`.
    """
    from functools import partial

    from ..audit import dasein_audit

    audit = partial(
        dasein_audit,
        tsa_keys=tsa_keys,
        temporal_range=temporal_range,
        workers=workers,
        resume=resume,
    )
    if not has_composite(len(shards)):
        return audit(shards[0].export_view(), checkpoint=checkpoint)
    if checkpoint is not None and not isinstance(checkpoint, str):
        raise UsageError(
            "sharded audits checkpoint per shard: pass a string path "
            "prefix, not a CheckpointStore"
        )
    from concurrent.futures import ThreadPoolExecutor

    views = [shard.export_view() for shard in shards]

    def _one(index: int):
        shard_checkpoint = f"{checkpoint}.shard-{index}" if checkpoint else None
        return audit(views[index], checkpoint=shard_checkpoint)

    with ThreadPoolExecutor(max_workers=len(shards)) as pool:
        reports = list(pool.map(_one, range(len(shards))))
    return ShardedAuditReport(passed=all(r.passed for r in reports), reports=reports)
