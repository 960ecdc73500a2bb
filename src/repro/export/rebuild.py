"""Rebuild-from-truth: reconstruct a ledger from a bundle or raw stream.

The operator's strongest accountability claim is GlassDB-style: *the
journal stream alone determines every commitment*.  This module makes the
claim testable — it rebuilds a complete deployment (any backend, any shard
count) from an :class:`~repro.export.bundle.ExportBundle` or from a raw
on-disk stream, then cross-checks every root, epoch anchor, and signed
tree head against the bundle, a live instance, or caller-pinned heads.
Agreement proves the operator added nothing and lost nothing; every
disagreement is reported as a :class:`~repro.artifacts.Finding` inside a
:class:`RebuildReport` (an :class:`~repro.artifacts.Artifact`).

Unlike the standalone verifier, rebuilding *is* allowed to import the
ledger kernel — it exists to resurrect one.  A tampered stream refuses to
rebuild: interior corruption surfaces from the stream layer as
``StreamCorruptionError`` and is re-raised as :class:`RebuildError`, never
papered over into a half-trusted ledger.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from ..artifacts import FINDING, Finding, counted
from ..core.errors import LedgerError, RecoveryError
from ..core.ledger import CONFIG_FILE, LSP_MEMBER_ID, Ledger, LedgerConfig
from ..core.members import MemberRegistry
from ..core.snapshot import load_config_file
from ..crypto.ca import Role
from ..crypto.keys import KeyPair, PublicKey
from ..core.errors import AuthenticationError
from ..encoding import BOOL, STR, UINT, Record, list_of
from ..shard.shape import has_composite, shard_for_stamp
from ..shard.sharded import ShardedLedger, open_deployment
from ..storage.stream import MemoryStream, StreamCorruptionError
from ..timeauth.clock import Clock
from ..transparency.sth import SignedTreeHead
from .bundle import ExportBundle

__all__ = ["RebuildError", "RebuildReport", "rebuild_from_bundle", "rebuild_from_stream"]

REBUILD_SCHEME = "repro.rebuild_report.v2"


class RebuildError(LedgerError):
    """The source of truth refuses to rebuild (corrupt, purged, unusable)."""


@dataclass(frozen=True)
class RebuildReport:
    """Outcome of a rebuild cross-check — divergence as evidence, not logs.

    ``ok`` iff no check diverged; ``checks`` names every comparison that
    ran, so "nothing diverged" is distinguishable from "nothing was
    checked".  As an :class:`~repro.artifacts.Artifact` the report
    round-trips through bytes, and ``verify()`` asserts its own internal
    consistency (``ok`` ⇔ no divergences recorded).
    """

    ok: bool
    source: str  # "bundle" | "stream"
    ledger_uri: str
    num_shards: int
    journals: int
    checks: tuple[str, ...]
    divergences: tuple[Finding, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def verify(self) -> bool:
        """Internal consistency; never raises."""
        return self.ok == (not self.divergences)

    def to_bytes(self) -> bytes:
        return _REPORT.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "RebuildReport":
        return cls(**_REPORT.decode(data))


_REPORT = Record(
    scheme=REBUILD_SCHEME,
    ok=BOOL,
    source=STR,
    ledger_uri=STR,
    num_shards=UINT,
    journals=UINT,
    checks=list_of(STR, tuple),
    divergences=list_of(FINDING, tuple),
)


# ----------------------------------------------------------------- from bundle


def rebuild_from_bundle(
    bundle: ExportBundle,
    *,
    lsp_keypair: KeyPair | None = None,
    registry: MemberRegistry | None = None,
    clock: Clock | None = None,
    live: Any = None,
    pinned_heads: Sequence[SignedTreeHead] | None = None,
) -> tuple[Any, RebuildReport]:
    """Reconstruct a deployment from ``bundle`` and cross-check it.

    Returns ``(ledger, report)`` — a :class:`Ledger` for a solo bundle, a
    :class:`repro.shard.ShardedLedger` for a sharded one.  ``lsp_keypair``
    defaults to the deployment-deterministic seed and must match the
    bundle-pinned LSP key; ``live``/``pinned_heads`` add external
    cross-checks on top of the bundle's own roots, anchors, and heads.

    Raises :class:`RebuildError` when the bundle cannot produce a complete
    ledger (purged prefix, truncated slice, corrupt journal bytes).
    """
    lsp_keypair = lsp_keypair or KeyPair.generate(seed=f"lsp:{bundle.ledger_uri}")
    registry = registry or MemberRegistry()
    divergences: list[Finding] = []
    checks: list[str] = ["recover"]

    supplied = lsp_keypair.public.to_bytes()
    if supplied != bundle.lsp_public_key:
        detail = "supplied LSP keypair is not the bundle's LSP"
        where = {"expected": bundle.lsp_public_key, "actual": supplied}
        divergences.append(Finding("who", "lsp-key", detail, **where))
        # The shards are rebuilt under the supplied key, which the registry
        # must then certify; the bundle's LSP certificate becomes one more
        # divergence below instead of being adopted.
        registry.register(LSP_MEMBER_ID, Role.LSP, lsp_keypair.public)
    _adopt_certificates(bundle, registry, divergences)
    checks.append("certificates")

    if len(bundle.shards) != bundle.num_shards:
        raise RebuildError(
            f"bundle claims {bundle.num_shards} shards, carries {len(bundle.shards)}"
        )
    shards: list[Ledger] = []
    config = LedgerConfig(
        uri=bundle.ledger_uri,
        fractal_height=bundle.fractal_height,
        block_size=bundle.block_size,
        shards=bundle.num_shards,
    )
    base_config = replace(config, shards=1)
    for section in sorted(bundle.shards, key=lambda s: s.shard_index):
        stream = MemoryStream()
        if section.genesis_start != 0:
            raise RebuildError(
                f"shard {section.shard_index} slice starts at jsn "
                f"{section.genesis_start}; rebuilding needs the stream from "
                f"genesis (purged prefixes are irrecoverable from a bundle)"
            )
        for position, entry in enumerate(section.entries):
            if entry.jsn != position:
                raise RebuildError(
                    f"shard {section.shard_index} slice is not contiguous at "
                    f"jsn {entry.jsn}"
                )
            if entry.data is not None:
                stream.append(entry.data)
            elif entry.occulted:
                stream.erase(stream.append(b""))
            else:
                raise RebuildError(
                    f"shard {section.shard_index} jsn {entry.jsn} was purged; "
                    f"its bytes are gone from the bundle"
                )
        if len(stream) == 0:
            raise RebuildError(f"shard {section.shard_index} slice is empty")
        try:
            shard = Ledger.recover(base_config, stream, registry, lsp_keypair, clock=clock)
        except (RecoveryError, StreamCorruptionError) as exc:
            raise RebuildError(
                f"shard {section.shard_index} refuses to rebuild: {exc}"
            ) from exc
        shards.append(shard)

    ledger = shards[0]
    if has_composite(bundle.num_shards):
        ledger = ShardedLedger.__new__(ShardedLedger)._adopt(
            config, shards, clock, registry, lsp_keypair
        )
    lsp_key = PublicKey.from_bytes(bundle.lsp_public_key)
    for section, shard in zip(sorted(bundle.shards, key=lambda s: s.shard_index), shards):
        _cross_check_shard(bundle, section, shard, lsp_key, divergences, checks)
    if has_composite(bundle.num_shards):
        checks.append("composite")
        _check_composite(bundle, ledger, divergences)

    _external_cross_check(ledger, live, pinned_heads, divergences, checks)

    report = RebuildReport(
        ok=not divergences,
        source="bundle",
        ledger_uri=bundle.ledger_uri,
        num_shards=bundle.num_shards,
        journals=bundle.journal_count,
        checks=tuple(checks),
        divergences=counted(divergences),
    )
    return ledger, report


# ----------------------------------------------------------------- from stream


def rebuild_from_stream(
    data_dir: str | os.PathLike[str],
    *,
    lsp_keypair: KeyPair | None = None,
    registry: MemberRegistry | None = None,
    clock: Clock | None = None,
    live: Any = None,
    pinned_heads: Sequence[SignedTreeHead] | None = None,
) -> tuple[Any, RebuildReport]:
    """Rebuild a deployment by full replay of its on-disk journal stream(s).

    Snapshots and node pages are deliberately ignored (``force_rebuild``):
    the raw stream is the source of truth being tested.  Interior stream
    corruption refuses the rebuild with :class:`RebuildError`.
    """
    base = Path(data_dir)
    try:
        config = load_config_file(base / CONFIG_FILE, data_dir=str(base))
    except LedgerError as exc:
        raise RebuildError(f"{base} holds no readable ledger config: {exc}") from exc
    lsp_keypair = lsp_keypair or KeyPair.generate(seed=f"lsp:{config.uri}")
    registry = registry or MemberRegistry()
    try:
        ledger = open_deployment(
            base, registry, lsp_keypair, clock=clock, force_rebuild=True
        )
    except (StreamCorruptionError, RecoveryError) as exc:
        raise RebuildError(f"stream under {base} refuses to rebuild: {exc}") from exc

    divergences: list[Finding] = []
    checks = ["recover"]
    _external_cross_check(ledger, live, pinned_heads, divergences, checks)
    report = RebuildReport(
        ok=not divergences,
        source="stream",
        ledger_uri=config.uri,
        num_shards=config.shards,
        journals=ledger.size,
        checks=tuple(checks),
        divergences=counted(divergences),
    )
    return ledger, report


# ------------------------------------------------------------------- internals


def _adopt_certificates(
    bundle: ExportBundle, registry: MemberRegistry, divergences: list[Finding]
) -> None:
    held = registry.ca_public_key.to_bytes()
    if held != bundle.ca_public_key:
        detail = "registry CA differs from the bundle's; certificates not adopted"
        where = {"expected": bundle.ca_public_key, "actual": held}
        divergences.append(Finding("who", "ca-key", detail, **where))
        return
    for bc in bundle.certificates:
        try:
            registry.adopt(bc.certificate())
        except AuthenticationError as exc:
            detail = f"{bc.member_id}: {exc}"
            divergences.append(Finding("who", "certificate", detail, expected=bc.public_key))


def _cross_check_shard(
    bundle: ExportBundle,
    section: Any,
    shard: Ledger,
    lsp_key: PublicKey,
    divergences: list[Finding],
    checks: list[str],
) -> None:
    tag = section.shard_index

    checks.append(f"root[{tag}]")
    trusted_root = _bundle_trusted_root(section, lsp_key, divergences)
    rebuilt_root = shard.current_root()
    if trusted_root is not None and rebuilt_root != trusted_root:
        detail = "rebuilt fam root diverges from the bundle's trusted root"
        where = {"shard": tag, "expected": trusted_root, "actual": rebuilt_root}
        divergences.append(Finding("what", "root", detail, **where))

    checks.append(f"anchors[{tag}]")
    rebuilt_anchors = dict(shard.epoch_anchors().items())
    for epoch, root in section.anchors:
        actual = rebuilt_anchors.get(epoch)
        if actual != root:
            detail = f"epoch {epoch}: rebuilt epoch anchor diverges"
            where = {"shard": tag, "expected": root, "actual": actual}
            divergences.append(Finding("what", "anchor", detail, **where))

    checks.append(f"sths[{tag}]")
    rebuilt_head = shard.get_sth()
    for position, blob in enumerate(section.sths):
        head = SignedTreeHead.from_bytes(blob)
        if not _head_matches_rebuilt(shard, head, rebuilt_head):
            detail = (
                f"head #{position} (epoch {head.epoch}, live {head.live_size}): "
                "bundle head is not on the rebuilt append-only history"
            )
            where = {"shard": tag, "expected": head.root, "actual": rebuilt_head.root}
            divergences.append(Finding("consistency", "sth", detail, **where))


def _bundle_trusted_root(
    section: Any, lsp_key: PublicKey, divergences: list[Finding]
) -> bytes | None:
    """The latest receipt's ``ledger_root``; a receipt that fails pi_s is a
    divergence, not a skipped check."""
    if not section.latest_receipt:
        return None
    from ..core.receipt import Receipt

    receipt = Receipt.from_bytes(section.latest_receipt)
    if not receipt.verify(lsp_key):
        detail = "the latest receipt fails the LSP signature"
        shard = section.shard_index
        divergences.append(Finding("who", "receipt", detail, shard=shard, jsn=receipt.jsn))
        return None
    return receipt.ledger_root


def _head_matches_rebuilt(
    shard: Ledger, head: SignedTreeHead, rebuilt_head: SignedTreeHead
) -> bool:
    """Does ``head`` sit on the rebuilt accumulator's append-only history?"""
    if head.coords == rebuilt_head.coords:
        return head.root == rebuilt_head.root
    try:
        *_roots, cbundle = shard.fam_extension(
            head.epoch, head.live_size, rebuilt_head.epoch, rebuilt_head.live_size
        )
    except LedgerError:
        return False
    return cbundle.verify(head, rebuilt_head)


def _check_composite(
    bundle: ExportBundle, sharded: Any, divergences: list[Finding]
) -> None:
    if not bundle.composite_sth:
        detail = "sharded bundle carries no composite head to check"
        divergences.append(Finding("what", "composite", detail, absent=True))
        return
    head = SignedTreeHead.from_bytes(bundle.composite_sth)
    actual = sharded.composite_root()
    if head.root != actual:
        detail = "rebuilt composite root diverges from the bundle head"
        where = {"expected": head.root, "actual": actual}
        divergences.append(Finding("what", "composite", detail, **where))


def _external_cross_check(
    ledger: Any,
    live: Any,
    pinned_heads: Sequence[SignedTreeHead] | None,
    divergences: list[Finding],
    checks: list[str],
) -> None:
    if pinned_heads:
        checks.append("pinned-heads")
        for head in pinned_heads:
            target = shard_for_stamp(ledger.shards, head.shard_index)
            where = {"shard": head.shard_index, "expected": head.root}
            if target is None:
                detail = (
                    f"pinned epoch {head.epoch}: "
                    "pinned head names a shard the rebuild does not have"
                )
                divergences.append(Finding("consistency", "sth", detail, **where))
                continue
            # The pin's stamp resolved to ``target``'s stream (at N = 1, any).
            rebuilt = replace(target.get_sth(), shard_index=head.shard_index)
            if not _head_matches_rebuilt(target, head, rebuilt):
                detail = (
                    f"pinned epoch {head.epoch}, live {head.live_size}: "
                    "pinned head is not on the rebuilt history"
                )
                actual = target.current_root()
                divergences.append(Finding("consistency", "sth", detail, actual=actual, **where))
    if live is not None:
        checks.append("live")
        live_head = live.get_sth()
        rebuilt_root = ledger.current_root()
        if live_head.root != rebuilt_root:
            detail = (
                f"live head epoch {live_head.epoch}: "
                "live instance's current head diverges from the rebuild"
            )
            where = {"shard": live_head.shard_index, "expected": live_head.root}
            divergences.append(Finding("consistency", "live", detail, actual=rebuilt_root, **where))

