"""Standalone offline bundle verification — no ledger, no service, no network.

This module re-runs the paper's ubiquitous-verification story over an
:class:`~repro.export.bundle.ExportBundle` alone:

* **what** — every journal slot folds to the trusted root: a frontier-only
  :class:`~repro.merkle.fam.FamReplayer` replay of the whole slice (when it
  starts at jsn 0) must land exactly on the trusted commitment, every
  bundled full-chain fam proof must fold there too, and every bundled epoch
  anchor must equal the replayed epoch root;
* **when** — TSA-mode time journals bracket each journal's creation time;
  the tokens are reconstructed from the journal payloads themselves and
  checked against out-of-band TSA keys (T-Ledger evidence is not
  serializable into a bundle — DESIGN.md §17 records that limit);
* **who** — client signatures against CA-certified member keys, the LSP
  receipt against the LSP certificate, the block chain against the
  receipt's block hash;
* **consistency** — the signed tree head chain verifies per head, links
  append-only via consistency bundles, the LSP's signed assertions match
  both endpoints, and a sharded bundle's composite head refolds from its
  shard heads, each of which must match that shard's trusted root.

The trusted root per shard is, in order of preference: a caller-pinned
root, else the LSP-signed ``ledger_root`` of the bundled latest receipt.
The LSP/CA keys default to the bundle-pinned ones (trust-on-first-use);
callers with out-of-band keys pass them explicitly and any mismatch is a
failure, not a fallback.

The what/when/who checks are :mod:`repro.verify`'s; this file decodes the
bundle's evidence, feeds it through them, and adds the checks only a bundle
has (slice shape, block chain, tree-head chain, composite refold).

Import discipline is the point: this file reaches only the verification
kernel, ``repro.crypto`` / ``repro.merkle``, kernel-free ``repro.core``
leaves (journal, receipt, blocks) and ``repro.transparency.sth`` — never
``repro.core.ledger``, ``repro.service`` or ``repro.net`` (a test asserts
this on a live interpreter).  Verification
**never raises** on bad evidence: every defect lands in a falsy, typed
:class:`~repro.artifacts.VerifyResult`.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..artifacts import VerifyResult
from ..core.blocks import Block
from ..core.journal import Journal
from ..core.receipt import Receipt
from ..crypto.ca import Certificate
from ..crypto.hashing import EMPTY_DIGEST
from ..crypto.keys import PublicKey
from ..merkle.cmtree import ClueProof
from ..merkle.fam import FamProof, FamReplayer
from ..transparency.sth import (
    SOLO_SHARD,
    ConsistencyAssertion,
    ConsistencyBundle,
    SignedTreeHead,
)
from ..verify import clue_what, lift, signed_by_many, time_marks, tx_what, when_bracket
from .bundle import ExportBundle, ShardSection

__all__ = ["verify_bundle", "verify_bundle_path"]

_MAX_DETAILS = 8


class _Findings:
    """The per-factor verdicts plus the typed defect strings behind them;
    keeps the result message bounded."""

    def __init__(self, check_when: bool) -> None:
        self.what = True
        self.who = True
        self.when: bool | None = True if check_when else None
        self.entries: list[str] = []

    def note(self, kind: str, message: str) -> None:
        self.entries.append(f"{kind}: {message}")

    def fail(self, factor: str, kind: str, message: str) -> None:
        """Record a defect that costs ``factor`` ("what" / "when" / "who")."""
        setattr(self, factor, False)
        self.note(kind, message)

    def detail(self) -> str:
        shown = "; ".join(self.entries[:_MAX_DETAILS])
        extra = len(self.entries) - _MAX_DETAILS
        if extra > 0:
            shown += f"; (+{extra} more)"
        return shown


def verify_bundle(
    bundle: ExportBundle,
    *,
    ca_public_key: PublicKey | None = None,
    lsp_public_key: PublicKey | None = None,
    tsa_keys: Mapping[str, PublicKey] | None = None,
    pinned_roots: Mapping[int, bytes] | None = None,
) -> VerifyResult:
    """Offline-verify ``bundle``; returns a structured, never-raising result.

    ``tsa_keys`` enables the *when* factor (``when=None`` means "not
    checked", not "passed"); ``pinned_roots`` maps shard index → trusted fam
    root, overriding the receipt-derived root for that shard.
    """
    try:
        return _verify(bundle, ca_public_key, lsp_public_key, tsa_keys, pinned_roots)
    except Exception as exc:  # noqa: BLE001 — boundary: malformed evidence must
        # fail typed+falsy, not crash the auditor's batch run.
        return lift(
            "bundle",
            "standalone",
            what=False,
            detail=f"malformed bundle evidence: {type(exc).__name__}: {exc}",
        )


def verify_bundle_path(path: Any, **anchors: Any) -> VerifyResult:
    """:func:`verify_bundle` over a bundle file.

    Container-level damage (truncation, bit rot) raises
    :class:`~repro.export.bundle.BundleCorruptionError` from
    :meth:`ExportBundle.read` — typed, and distinct from evidence-level
    failures which return a falsy result.
    """
    return verify_bundle(ExportBundle.read(path), **anchors)


def _verify(
    bundle: ExportBundle,
    ca_public_key: PublicKey | None,
    lsp_public_key: PublicKey | None,
    tsa_keys: Mapping[str, PublicKey] | None,
    pinned_roots: Mapping[int, bytes] | None,
) -> VerifyResult:
    found = _Findings(check_when=tsa_keys is not None)

    ca_key = ca_public_key or PublicKey.from_bytes(bundle.ca_public_key)
    lsp_key = lsp_public_key or PublicKey.from_bytes(bundle.lsp_public_key)
    if ca_public_key is not None and ca_public_key.to_bytes() != bundle.ca_public_key:
        found.fail("who", "ca-key", "bundle pins a different CA key than supplied")
    if (
        lsp_public_key is not None
        and lsp_public_key.to_bytes() != bundle.lsp_public_key
    ):
        found.fail("who", "lsp-key", "bundle pins a different LSP key than supplied")

    certificates: dict[str, Certificate] = {}
    for bc in bundle.certificates:
        cert = bc.certificate()
        if not cert.verify(ca_key):
            found.fail("who", "certificate", f"{bc.member_id!r} fails CA validation")
        certificates[bc.member_id] = cert

    if len(bundle.shards) != bundle.num_shards:
        found.fail(
            "what",
            "shape",
            f"bundle claims {bundle.num_shards} shards, carries {len(bundle.shards)}",
        )

    shard_roots = {
        section.shard_index: _verify_shard(
            bundle, section, certificates, lsp_key, tsa_keys, pinned_roots, found
        )
        for section in bundle.shards
    }
    _verify_composite(bundle, lsp_key, shard_roots, found)

    return lift(
        "bundle",
        "standalone",
        what=found.what,
        when=found.when,
        who=found.who,
        trusted_root=shard_roots.get(0) if bundle.num_shards == 1 else None,
        detail=found.detail()
        or f"{bundle.journal_count} journals across {bundle.num_shards} shard(s)",
    )


def _verify_shard(
    bundle: ExportBundle,
    section: ShardSection,
    certificates: dict[str, Certificate],
    lsp_key: PublicKey,
    tsa_keys: Mapping[str, PublicKey] | None,
    pinned_roots: Mapping[int, bytes] | None,
    found: _Findings,
) -> bytes | None:
    """Check one shard's section; returns the root it was judged against
    (None when neither a pin nor a valid receipt supplies one)."""
    tag = f"shard {section.shard_index}"

    # --- decode the slice; journal bytes must hash to their retained digest
    journals: dict[int, Journal] = {}
    retained: dict[int, bytes] = {}
    contiguous = True
    expected = section.genesis_start
    for entry in section.entries:
        if entry.jsn != expected:
            contiguous = False
        expected = entry.jsn + 1
        retained[entry.jsn] = entry.retained_hash
        if entry.data is None:
            continue
        journal = Journal.from_bytes(entry.data)
        if journal.jsn != entry.jsn:
            found.fail("what", "slice", f"{tag}: slot {entry.jsn} holds jsn {journal.jsn}")
        elif journal.tx_hash() != entry.retained_hash:
            found.fail(
                "what",
                "slice",
                f"{tag}: jsn {entry.jsn} bytes do not hash to retained digest",
            )
        else:
            journals[entry.jsn] = journal

    # --- trusted root: pinned, else the receipt's LSP-signed ledger_root
    receipt: Receipt | None = None
    if section.latest_receipt:
        receipt = Receipt.from_bytes(section.latest_receipt)
        if not receipt.verify(lsp_key):
            receipt = None
            found.fail("who", "receipt", f"{tag}: latest receipt fails the LSP signature")
    trusted_root: bytes | None = None
    if pinned_roots is not None:
        trusted_root = pinned_roots.get(section.shard_index)
    if trusted_root is None and receipt is not None:
        trusted_root = receipt.ledger_root
    if trusted_root is None:
        found.fail("what", "trust", f"{tag}: no trusted root (no pin, no valid receipt)")
        return None

    # --- what: full replay (complete slices) + every bundled proof
    anchors = dict(section.anchors)
    if section.genesis_start == 0 and contiguous and section.entries:
        replayer = FamReplayer(bundle.fractal_height)
        for entry in section.entries:
            replayer.append(entry.retained_hash)
        if replayer.current_root() != trusted_root:
            found.fail(
                "what", "replay", f"{tag}: replayed slice root diverges from trusted root"
            )
        for epoch, root in anchors.items():
            if epoch >= len(replayer.epoch_roots) or replayer.epoch_roots[epoch] != root:
                found.fail("what", "anchor", f"{tag}: epoch {epoch} anchor diverges")
    elif anchors:
        found.note(
            "anchor",
            f"{tag}: slice is partial; {len(anchors)} anchors taken on proof evidence only",
        )

    for jsn, blob in section.proofs:
        if jsn not in retained:
            found.fail("what", "proof", f"{tag}: proof for jsn {jsn} outside the slice")
        elif not tx_what(retained[jsn], FamProof.from_bytes(blob), trusted_root):
            found.fail("what", "proof", f"{tag}: jsn {jsn} does not fold to trusted root")

    # --- blocks: chained, and pinned by the receipt
    blocks = [Block.from_bytes(blob) for blob in section.blocks]
    for height in range(1, len(blocks)):
        if blocks[height].previous_hash != blocks[height - 1].hash():
            found.fail("what", "blocks", f"{tag}: chain breaks at height {height}")
    if receipt is not None and blocks and receipt.block_hash != EMPTY_DIGEST:
        # The receipt pins the latest block *as of its issue* (EMPTY_DIGEST
        # when none was sealed yet); blocks sealed after it (a trailing
        # partial commit) chain forward from that point.
        if receipt.block_hash not in {block.hash() for block in blocks}:
            found.fail("what", "blocks", f"{tag}: receipt attests no block in the chain")

    # --- when: TSA-mode brackets reconstructed from the journals themselves
    if tsa_keys is not None:
        _verify_when(tag, journals, retained, tsa_keys, found)

    # --- who: every surviving journal's pi_c (the section is one batch, so a
    # member's signatures are one bucket-summed aggregate), plus the
    # receipt's pi_s target
    pairs = [
        (journals[jsn], certificates.get(journals[jsn].client_id)) for jsn in sorted(journals)
    ]
    for (journal, cert), signed in zip(pairs, signed_by_many(pairs)):
        if cert is None:
            found.fail("who", "who", f"{tag}: jsn {journal.jsn} has no certificate on file")
        elif not signed:
            found.fail("who", "who", f"{tag}: jsn {journal.jsn} fails the client signature")
    if receipt is not None:
        target = journals.get(receipt.jsn)
        if target is None and receipt.jsn not in retained:
            found.fail("who", "receipt", f"{tag}: receipt names jsn outside the slice")
        elif target is not None and receipt.tx_hash != target.tx_hash():
            found.fail("who", "receipt", f"{tag}: receipt tx-hash mismatch")

    # --- the signed tree head chain + consistency assertions
    expected_shard = SOLO_SHARD if bundle.num_shards == 1 else section.shard_index
    heads = [SignedTreeHead.from_bytes(blob) for blob in section.sths]
    for position, head in enumerate(heads):
        if not head.verify(lsp_key):
            found.fail("what", "sth", f"{tag}: head #{position} fails the LSP signature")
        if head.shard_index != expected_shard or head.ledger_uri != bundle.ledger_uri:
            found.fail("what", "sth", f"{tag}: head #{position} belongs to another stream")
    if heads and pinned_roots is None and heads[-1].root != trusted_root:
        found.fail(
            "what", "sth", f"{tag}: freshest head contradicts the receipt's ledger root"
        )
    covered = set()
    for old_idx, new_idx, cb_blob, assertion_blob in section.consistency:
        if not (0 <= old_idx < new_idx < len(heads)):
            found.fail(
                "what", "consistency", f"{tag}: pair ({old_idx},{new_idx}) out of range"
            )
            continue
        old, new = heads[old_idx], heads[new_idx]
        cbundle = ConsistencyBundle.from_bytes(cb_blob)
        assertion = ConsistencyAssertion.from_bytes(assertion_blob)
        if not cbundle.verify(old, new):
            found.fail(
                "what", "consistency", f"{tag}: heads #{old_idx}->#{new_idx} not append-only"
            )
        if not (
            assertion.verify(lsp_key)
            and assertion.matches_old(old)
            and assertion.matches_new(new)
        ):
            found.fail(
                "what", "consistency", f"{tag}: assertion #{old_idx}->#{new_idx} invalid"
            )
        covered.add((old_idx, new_idx))
    missing = [
        (i, i + 1) for i in range(len(heads) - 1) if (i, i + 1) not in covered
    ]
    if missing:
        found.fail(
            "what", "consistency", f"{tag}: {len(missing)} adjacent head pair(s) unlinked"
        )

    # --- clue lineages, bound to the block-attested state root
    attested_state = blocks[-1].state_root if blocks else None
    for clue_section in section.clue_proofs:
        proof = ClueProof.from_bytes(clue_section.proof)
        digests = [retained[jsn] for jsn in clue_section.jsns if jsn in retained]
        if len(digests) != len(clue_section.jsns):
            found.fail(
                "what",
                "clue",
                f"{tag}: {clue_section.clue!r} references jsns outside the slice",
            )
            continue
        if not clue_what(clue_section.clue, digests, proof, clue_section.state_root):
            found.fail("what", "clue", f"{tag}: {clue_section.clue!r} lineage fails")
        if attested_state is None or clue_section.state_root != attested_state:
            found.fail(
                "what",
                "clue",
                f"{tag}: {clue_section.clue!r} state root is not block-attested",
            )

    return trusted_root


def _verify_when(
    tag: str,
    journals: dict[int, Journal],
    retained: dict[int, bytes],
    tsa_keys: Mapping[str, PublicKey],
    found: _Findings,
) -> None:
    """Bracket every non-time journal between verified TSA time anchors."""
    # T-Ledger evidence lives outside the journal payload and is not
    # bundle-serializable: with none on hand, those anchors bound nothing.
    marks = time_marks((journals[jsn] for jsn in sorted(journals)), {}, tsa_keys)
    time_jsns = {time_jsn for time_jsn, _timestamp, _valid in marks}
    unbounded = 0
    for jsn in sorted(retained):
        if jsn in time_jsns:
            continue
        bound, valid = when_bracket(jsn, marks)
        if bound is None:
            unbounded += 1
        elif not valid:
            found.fail("when", "when", f"{tag}: jsn {jsn} ceiling anchor fails verification")
    if unbounded:
        found.fail(
            "when", "when", f"{tag}: {unbounded} journal(s) have no verified time ceiling"
        )


def _verify_composite(
    bundle: ExportBundle,
    lsp_key: PublicKey,
    shard_roots: dict[int, bytes | None],
    found: _Findings,
) -> None:
    if bundle.num_shards == 1:
        if bundle.composite_sth:
            found.fail("what", "composite", "solo bundle carries a composite head")
        return
    if not bundle.composite_sth:
        found.fail("what", "composite", "sharded bundle is missing its composite head")
        return
    head = SignedTreeHead.from_bytes(bundle.composite_sth)
    if not head.verify(lsp_key):
        found.fail("what", "composite", "composite head fails the LSP signature")
    if not head.is_composite or head.ledger_uri != bundle.ledger_uri:
        found.fail("what", "composite", "composite head misdescribes the deployment")
    if not head.composite_consistent():
        found.fail("what", "composite", "composite root does not refold from shard heads")
    seen = set()
    for shard_index, _epoch, _tree, _live, root in head.shard_heads:
        seen.add(shard_index)
        expected = shard_roots.get(shard_index)
        if expected is None or bytes(root) != expected:
            found.fail(
                "what", "composite", f"shard {shard_index} head contradicts its trusted root"
            )
    if seen != set(range(bundle.num_shards)):
        found.fail("what", "composite", "composite head does not cover every shard")
