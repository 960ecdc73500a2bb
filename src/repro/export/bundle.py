"""Offline export bundles: carry a verifiable ledger away in one file.

An :class:`ExportBundle` is a self-contained, checksummed snapshot of
everything a distrusting auditor needs to re-run what/when/who and STH
consistency with **no ledger, no service, no network**:

* the journal stream slice (verbatim journal bytes, or retained digests for
  mutated slots) per shard;
* full-chain fam existence proofs, epoch anchors, and the block chain;
* the signed tree head chain with consistency bundles + assertions;
* requested clue-lineage proofs bound to the block-attested state root;
* the trusted LSP/CA roots and the member certificates.

Container format (DESIGN.md §17): ``LDBBNDL2`` magic, a big-endian u32
crc32c of the payload, then one canonically-encoded TLV payload over
:mod:`repro.encoding` — the same torn-tail conventions as §9: the file is
written via tmp → flush → fsync → rename, and *any* flipped bit fails the
checksum as a typed :class:`BundleCorruptionError`, never a false PASS.

This module is **kernel-free**: it imports no ``repro.core.ledger``, no
service, no network.  The writer (:func:`export_bundle`) takes a live
ledger *object* duck-typed over the solo/sharded export surface, so only
the process that already holds a ledger pays those imports — a standalone
verifier process loads this module without them.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.errors import LedgerError, UsageError
from ..core.snapshot import _commit_file
from ..crypto.ca import Certificate, Role
from ..crypto.ecdsa import Signature
from ..crypto.keys import PublicKey
from ..encoding import (
    BOOL,
    BYTES,
    FLOAT,
    STR,
    UINT,
    EncodingError,
    Record,
    list_of,
    mapped,
    nullable,
    row,
)
from ..shard.shape import has_composite, shard_of_key
from ..storage.checksum import crc32c

__all__ = [
    "BUNDLE_MAGIC",
    "BundleCertificate",
    "BundleCorruptionError",
    "BundleEntry",
    "BundleError",
    "ClueSection",
    "ExportBundle",
    "ShardSection",
    "export_bundle",
]

BUNDLE_MAGIC = b"LDBBNDL2"
BUNDLE_SCHEME = "repro.bundle.v2"
_CRC = struct.Struct(">I")


class BundleError(LedgerError):
    """A bundle could not be built or interpreted."""


class BundleCorruptionError(BundleError):
    """The bundle's bytes fail integrity checks (checksum, framing, TLV)."""


@dataclass(frozen=True)
class BundleEntry:
    """One journal slot: verbatim bytes, or the retained digest if mutated."""

    jsn: int
    data: bytes | None  # None when the payload was purged/occulted away
    retained_hash: bytes
    occulted: bool = False
    purged: bool = False


@dataclass(frozen=True)
class ClueSection:
    """A clue lineage proof bound to the state root it folds against."""

    clue: str
    proof: bytes  # ClueProof bytes
    state_root: bytes  # CM-Tree1 root the proof folds to
    jsns: tuple[int, ...]  # shard-local jsns, in version order


@dataclass(frozen=True)
class ShardSection:
    """Everything exported from one shard (the whole ledger when solo)."""

    shard_index: int  # 0-based position; the STH stamp is SOLO_SHARD when solo
    genesis_start: int
    entries: tuple[BundleEntry, ...]
    latest_receipt: bytes  # Receipt bytes (b"" when the ledger has none)
    proofs: tuple[tuple[int, bytes], ...]  # (jsn, full-chain FamProof bytes)
    anchors: tuple[tuple[int, bytes], ...]  # (epoch, completed-epoch root)
    blocks: tuple[bytes, ...]  # Block header bytes, chain order
    sths: tuple[bytes, ...]  # SignedTreeHead bytes, oldest..freshest
    consistency: tuple[tuple[int, int, bytes, bytes], ...]
    # (old sth idx, new sth idx, ConsistencyBundle bytes, assertion bytes)
    clue_proofs: tuple[ClueSection, ...] = ()


@dataclass(frozen=True)
class BundleCertificate:
    """A member certificate, flattened to primitives for the container."""

    member_id: str
    role: str
    public_key: bytes
    issuer: str
    signature: bytes

    def certificate(self) -> Certificate:
        """The certificate this entry flattens (unvalidated: the holder
        checks it against a CA key of its own choosing)."""
        return Certificate(
            member_id=self.member_id,
            role=Role(self.role),
            public_key=PublicKey.from_bytes(self.public_key),
            issuer=self.issuer,
            signature=Signature.from_bytes(self.signature) if self.signature else None,
        )


@dataclass(frozen=True)
class ExportBundle:
    """The offline artifact: one deployment, one file, zero dependencies.

    An :class:`~repro.artifacts.Artifact`: ``to_bytes``/``from_bytes`` are
    the checksummed container round-trip, and ``verify()`` runs the
    standalone verifier (``repro.export.verifier``) over the bundle.
    """

    ledger_uri: str
    fractal_height: int
    block_size: int
    num_shards: int
    created_at: float
    ca_public_key: bytes
    lsp_public_key: bytes
    certificates: tuple[BundleCertificate, ...]
    shards: tuple[ShardSection, ...]
    composite_sth: bytes = b""  # composite SignedTreeHead bytes (sharded only)
    source_path: Path | None = field(default=None, compare=False)

    # ------------------------------------------------------------- queries

    @property
    def journal_count(self) -> int:
        return sum(len(section.entries) for section in self.shards)

    # ---------------------------------------------------------- byte forms

    def to_bytes(self) -> bytes:
        payload = _PAYLOAD.encode(vars(self))
        return BUNDLE_MAGIC + _CRC.pack(crc32c(payload)) + payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExportBundle":
        header = len(BUNDLE_MAGIC) + _CRC.size
        if len(data) < header or data[: len(BUNDLE_MAGIC)] != BUNDLE_MAGIC:
            raise BundleCorruptionError("not an LDBBNDL2 bundle")
        (expected,) = _CRC.unpack_from(data, len(BUNDLE_MAGIC))
        payload = memoryview(data)[header:]  # checksummed in place, copied once by decode
        if crc32c(payload) != expected:
            raise BundleCorruptionError("bundle payload fails its checksum")
        try:
            return cls(**_PAYLOAD.decode(payload))
        except EncodingError as exc:  # checksum collision territory, still typed
            raise BundleCorruptionError(f"bundle payload malformed: {exc}") from exc

    # ----------------------------------------------------------------- I/O

    def write(self, path: str | os.PathLike[str]) -> Path:
        """Durably write the bundle (tmp → fsync → rename, §9 conventions)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        _commit_file(target, self.to_bytes())
        return target

    @classmethod
    def read(cls, path: str | os.PathLike[str]) -> "ExportBundle":
        """Load and integrity-check a bundle file.

        Raises :class:`BundleCorruptionError` on any framing or checksum
        failure — a truncated tail, a flipped bit, an alien file.
        """
        source = Path(path)
        try:
            data = source.read_bytes()
        except OSError as exc:
            raise BundleError(f"cannot read bundle {source}: {exc}") from exc
        bundle = cls.from_bytes(data)
        object.__setattr__(bundle, "source_path", source)
        return bundle

    # -------------------------------------------------------------- verify

    def verify(self, **anchors: Any):
        """Standalone offline verification; see :func:`repro.export.verifier.verify_bundle`.

        Returns the structured :class:`~repro.artifacts.VerifyResult`; never
        raises on bad evidence (corrupt *container* bytes already raised in
        :meth:`from_bytes`).
        """
        from .verifier import verify_bundle

        return verify_bundle(self, **anchors)


_BYTES_TUPLE = list_of(BYTES, tuple)
_SHARD = Record(
    shard_index=UINT,
    genesis_start=UINT,
    entries=list_of(
        mapped(
            row(UINT, nullable(BYTES), BYTES, BOOL, BOOL),
            lambda fields: BundleEntry(*fields),
            lambda e: (e.jsn, e.data, e.retained_hash, e.occulted, e.purged),
        ),
        tuple,
    ),
    latest_receipt=BYTES,
    proofs=list_of(row(UINT, BYTES), tuple),
    anchors=list_of(row(UINT, BYTES), tuple),
    blocks=_BYTES_TUPLE,
    sths=_BYTES_TUPLE,
    consistency=list_of(row(UINT, UINT, BYTES, BYTES), tuple),
    clue_proofs=list_of(
        Record(clue=STR, proof=BYTES, state_root=BYTES, jsns=list_of(UINT, tuple)).of(ClueSection),
        tuple,
    ),
)
_PAYLOAD = Record(
    scheme=BUNDLE_SCHEME,
    ledger_uri=STR,
    fractal_height=UINT,
    block_size=UINT,
    num_shards=UINT,
    created_at=FLOAT,
    ca_public_key=BYTES,
    lsp_public_key=BYTES,
    certificates=list_of(
        Record(
            member_id=STR, role=STR, public_key=BYTES, issuer=STR, signature=BYTES
        ).of(BundleCertificate),
        tuple,
    ),
    shards=list_of(_SHARD.of(ShardSection), tuple),
    composite_sth=BYTES,
)


# --------------------------------------------------------------------- writer


def export_bundle(
    ledger: Any,
    *,
    clues: tuple[str, ...] = (),
    path: str | os.PathLike[str] | None = None,
) -> ExportBundle:
    """Export a live deployment into an :class:`ExportBundle`.

    ``ledger`` is a deployment, exported as its list of shard ledgers
    (``ledger.shards``; a solo ledger is the list of one).
    One section per shard, each cut at the head its view was cut at; a
    deployment of several shards additionally pins its composite signed
    tree head.  ``clues`` selects clue lineages to prove into the bundle,
    each in the section of the shard it routes to.  When ``path`` is given
    the bundle is also durably written there.
    """
    shard_ledgers = list(ledger.shards)
    views = [shard.export_view() for shard in shard_ledgers]
    with contextlib.ExitStack() as pins:
        if clues:
            # Clue proofs are cut at each view's CM-Tree1 root, which must
            # outlive the epoch rolls a long export spans (DESIGN §13).
            for shard, view in zip(shard_ledgers, views):
                pins.enter_context(shard.retaining(view.head.state_root))
        return _bundle_of_views(ledger, shard_ledgers, views, clues, path)


def _bundle_of_views(
    ledger: Any,
    shard_ledgers: list,
    views: list,
    clues: tuple[str, ...],
    path: str | os.PathLike[str] | None,
) -> ExportBundle:
    """:func:`export_bundle` of views already cut at the shards' heads."""
    num_shards = len(shard_ledgers)

    base_view = views[0]
    certificates = tuple(
        BundleCertificate(
            member_id=cert.member_id,
            role=cert.role.value,
            public_key=cert.public_key.to_bytes(),
            issuer=cert.issuer,
            signature=cert.signature.to_bytes() if cert.signature else b"",
        )
        for _member, cert in sorted(base_view.certificates.items())
    )
    lsp_cert = base_view.certificates.get(base_view.lsp_member_id)
    if lsp_cert is None:
        raise BundleError("ledger view carries no LSP certificate")

    sections = []
    fresh_heads = []
    created_at = 0.0
    for index, (view, shard) in enumerate(zip(views, shard_ledgers)):
        # Everything below is cut at the head the view was cut at, so the
        # section describes one commit even while the shard keeps appending.
        at = view.head
        jsns = [entry.jsn for entry in view.entries]
        proofs = shard.proofs_at(at, jsns, anchored=False)
        sths = [head.to_bytes() for head in shard.get_sth_range(0, at.epoch + 1)]
        fresh_heads.append(shard.sth_at(at))
        fresh = fresh_heads[-1].to_bytes()
        if not sths or sths[-1] != fresh:
            sths.append(fresh)
        consistency = []
        decoded_heads = _decode_heads(sths)
        for old_idx in range(len(decoded_heads) - 1):
            old, new = decoded_heads[old_idx], decoded_heads[old_idx + 1]
            try:
                cbundle, assertion = shard.get_consistency(old, new)
            except (UsageError, ValueError):
                continue
            consistency.append(
                (old_idx, old_idx + 1, cbundle.to_bytes(), assertion.to_bytes())
            )
        clue_sections = []
        for clue in clues:
            if shard_of_key(clue, num_shards) != index:
                continue
            clue_jsns = [jsn for jsn in shard.list_tx(clue) if jsn < at.size]
            if not clue_jsns:
                continue
            clue_sections.append(
                ClueSection(
                    clue=clue,
                    proof=shard.prove_clue(clue, root=at.state_root).to_bytes(),
                    state_root=at.state_root,
                    jsns=tuple(clue_jsns),
                )
            )
        receipt = view.latest_receipt
        if receipt is not None:
            created_at = max(created_at, receipt.timestamp)
        sections.append(
            ShardSection(
                shard_index=index,
                genesis_start=view.genesis_start,
                entries=tuple(
                    BundleEntry(
                        jsn=entry.jsn,
                        data=entry.data,
                        retained_hash=entry.retained_hash,
                        occulted=entry.occulted,
                        purged=entry.purged,
                    )
                    for entry in view.entries
                ),
                latest_receipt=receipt.to_bytes() if receipt is not None else b"",
                proofs=tuple((jsn, proof.to_bytes()) for jsn, proof in zip(jsns, proofs)),
                anchors=tuple((e, r) for e, r in shard.epoch_anchors().items() if e < at.epoch),
                blocks=tuple(block.header_bytes() for block in view.blocks),
                sths=tuple(sths),
                consistency=tuple(consistency),
                clue_proofs=tuple(clue_sections),
            )
        )

    composite_sth = b""
    if has_composite(num_shards):
        composite_sth = ledger.composite_sth(fresh_heads).to_bytes()

    bundle = ExportBundle(
        ledger_uri=base_view.uri,
        fractal_height=base_view.fractal_height,
        block_size=base_view.block_size,
        num_shards=num_shards,
        created_at=created_at,
        ca_public_key=base_view.ca_public_key.to_bytes(),
        lsp_public_key=lsp_cert.public_key.to_bytes(),
        certificates=certificates,
        shards=tuple(sections),
        composite_sth=composite_sth,
    )
    if path is not None:
        written = bundle.write(path)
        object.__setattr__(bundle, "source_path", written)
    return bundle


def _decode_heads(blobs: list[bytes]):
    from ..transparency.sth import SignedTreeHead

    return [SignedTreeHead.from_bytes(blob) for blob in blobs]
