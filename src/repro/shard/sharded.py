"""Sharded multi-ledger scale-out under one composite root (DESIGN.md §15).

A :class:`ShardedLedger` hash-partitions appends across ``N`` full
per-shard :class:`~repro.core.ledger.Ledger` s — each with its own stream,
fam, CM-Tree and (via :class:`~repro.shard.service.ShardedLedgerService`)
writer loop — and folds their roots under one composite commitment:

* the **shard map** is a tiny :class:`~repro.merkle.shrubs.ShrubsAccumulator`
  whose leaf ``k`` is shard ``k``'s root; its root is the deployment's
  :meth:`~ShardedLedger.composite_root`;
* a **cross-shard proof** (:class:`ShardProof`) is a full-chain fam proof to
  the shard's root plus that root's link into the shard map;
* all shards share one LSP keypair, registry, clock and deployment URI.

Routing is public (:mod:`repro.shard.shape`): a request routes by its first
clue, else by its client id, so a routing clue's lineage stays on one shard.
Shard-local jsns interleave into global ones, ``gsn = local * N + index``;
signed artifacts keep their shard-local jsn.  Tampering any shard moves the
composite root.  A one-shard deployment is the solo ledger: its one-leaf map
bags to the shard's own root, and the rules of :mod:`repro.shard.shape` make
it sign, ack, export and audit byte for byte as a solo :class:`Ledger`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable

from ..core.errors import UsageError
from ..core.journal import ClientRequest, Journal
from ..core.ledger import CONFIG_FILE, Ledger, LedgerConfig, LedgerHead
from ..core.members import MemberRegistry
from ..core.receipt import Receipt
from ..core.snapshot import load_config_file, write_config_file
from ..crypto.hashing import Digest
from ..crypto.keys import KeyPair
from ..encoding import UINT, Record, nested
from ..merkle.cmtree import ClueProof
from ..merkle.fam import FamAccumulator, FamProof
from ..merkle.proofs import MembershipProof
from ..merkle.shrubs import ShrubsAccumulator
from ..timeauth.clock import Clock, SimClock
from ..transparency.sth import COMPOSITE_EPOCH, SOLO_SHARD, SignedTreeHead
from .shape import (
    SHARD_DIR_FORMAT,
    has_composite,
    is_sharded_layout,
    locate,
    shard_for_stamp,
    shard_of_key,
    shard_of_request,
    sth_stamp,
)

__all__ = [
    "ShardProof",
    "ShardClueProof",
    "ShardedLedger",
    "new_deployment",
    "open_deployment",
    "shard_of_key",
]


def _shard_map(roots: list[Digest]) -> ShrubsAccumulator:
    accumulator = ShrubsAccumulator()
    accumulator.extend(list(roots))
    return accumulator


@dataclass(frozen=True)
class ShardProof:
    """Cross-shard existence proof: journal → shard root → composite root.

    ``fam`` is the *full-chain* per-shard proof (its link chain reaches the
    shard's live fam root); ``link`` proves that root sits at leaf
    ``shard_index`` of the ``num_shards``-leaf shard map whose bagged root
    is the deployment's composite commitment.
    """

    shard_index: int
    num_shards: int
    fam: FamProof
    link: MembershipProof

    @property
    def jsn(self) -> int:
        """The *global* jsn this proof speaks for."""
        return self.fam.jsn * self.num_shards + self.shard_index

    def shard_root(self, leaf_digest: Digest) -> Digest | None:
        """The shard fam root implied by folding ``leaf_digest`` up ``fam``."""
        return FamAccumulator.fold_full(leaf_digest, self.fam)

    def verify(self, leaf_digest: Digest, composite_root: Digest) -> bool:
        """Check the composed proof against a trusted composite root.

        Never raises: any malformed layer — bad fam fold, link addressing a
        different shard, wrong shard count — reads as False.
        """
        if not 0 <= self.shard_index < self.num_shards:
            return False
        if self.link.leaf_index != self.shard_index:
            return False
        if self.link.tree_size != self.num_shards:
            return False
        implied = self.shard_root(leaf_digest)
        if implied is None:
            return False
        return self.link.verify(implied, composite_root)

    def to_bytes(self) -> bytes:
        return _SHARD_PROOF.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardProof":
        return cls(**_SHARD_PROOF.decode(data))


_SHARD_PROOF = Record(
    shard_index=UINT, num_shards=UINT, fam=nested(FamProof), link=nested(MembershipProof)
)


@dataclass(frozen=True)
class ShardClueProof:
    """Cross-shard clue lineage proof: CM-Tree proof + shard→root link.

    ``shard_state_root`` is the *claimed* per-shard CM-Tree1 root the clue
    proof verifies against; the claim is authenticated by ``link`` folding
    it into the trusted composite state root, so a lying shard root fails
    the link, not the caller.
    """

    shard_index: int
    num_shards: int
    clue_proof: ClueProof
    shard_state_root: Digest
    link: MembershipProof

    @property
    def clue(self) -> str:
        """The clue whose lineage this proof speaks for."""
        return self.clue_proof.clue

    def verify(self, journal_digests: dict[int, Digest], composite_state_root: Digest) -> bool:
        """Two-layer check: lineage within the shard, shard within the map."""
        if self.link.leaf_index != self.shard_index:
            return False
        if self.link.tree_size != self.num_shards:
            return False
        if not self.link.verify(self.shard_state_root, composite_state_root):
            return False
        return self.clue_proof.verify(journal_digests, self.shard_state_root)


class ShardedLedger:
    """N hash-partitioned :class:`Ledger` shards under one composite root.

    Mirrors the single-ledger read/append surface closely enough that
    :class:`repro.api.LedgerSession` binds to it directly; jsn-addressed
    reads take *global* jsns (see module docstring).  Appends route by
    clue/owner; for concurrent workloads front each shard with its own
    writer loop via :class:`~repro.shard.service.ShardedLedgerService`.
    """

    def __init__(
        self,
        config: LedgerConfig | None = None,
        clock: Clock | None = None,
        registry: MemberRegistry | None = None,
        lsp_keypair: KeyPair | None = None,
    ) -> None:
        config = config or LedgerConfig(shards=2)
        if config.shards < 1:
            raise UsageError(f"shards must be >= 1, got {config.shards}")
        clock = clock or SimClock()
        registry = registry or MemberRegistry()
        lsp_keypair = lsp_keypair or KeyPair.generate(seed=f"lsp:{config.uri}")
        base = Path(config.data_dir) if config.data_dir else None
        if base is not None:
            base.mkdir(parents=True, exist_ok=True)
            write_config_file(base / CONFIG_FILE, config)
        shards = [
            Ledger(
                config=replace(
                    config,
                    shards=1,
                    data_dir=str(base / SHARD_DIR_FORMAT.format(index)) if base else None,
                ),
                clock=clock,
                registry=registry,
                lsp_keypair=lsp_keypair,
            )
            for index in range(config.shards)
        ]
        self._adopt(config, shards, clock, registry, lsp_keypair)

    def _adopt(
        self,
        config: LedgerConfig,
        shards: list[Ledger],
        clock: Clock | None,
        registry: MemberRegistry,
        lsp_keypair: KeyPair,
    ) -> "ShardedLedger":
        """The one assembly path — construction, :meth:`open` and a
        rebuild all end here: the facade takes ``shards`` in index order
        and restamps each by :func:`~repro.shard.shape.sth_stamp`."""
        self.config = config
        self.num_shards = len(shards)
        self.clock = clock or SimClock()
        self.registry = registry
        self._lsp_keypair = lsp_keypair
        self._shards = list(shards)
        for index, shard in enumerate(self._shards):
            shard.restamp(sth_stamp(index, self.num_shards))
        return self

    @classmethod
    def open(
        cls,
        data_dir: str,
        registry: MemberRegistry,
        lsp_keypair: KeyPair,
        clock: Clock | None = None,
        force_rebuild: bool = False,
    ) -> "ShardedLedger":
        """Reopen a persistent sharded deployment from its ``data_dir``.

        Each shard reopens through :meth:`Ledger.open` (snapshot fast path,
        full-replay fallback) from its own subdirectory.
        """
        base = Path(data_dir)
        config = load_config_file(base / CONFIG_FILE, data_dir=str(base))
        if not is_sharded_layout(base):
            raise UsageError(
                f"{data_dir} holds a single ledger; reopen it with "
                f"Ledger.open(...)"
            )
        clock = clock or SimClock()
        shards = [
            Ledger.open(
                str(base / SHARD_DIR_FORMAT.format(index)),
                registry,
                lsp_keypair,
                clock=clock,
                force_rebuild=force_rebuild,
            )
            for index in range(config.shards)
        ]
        return cls.__new__(cls)._adopt(config, shards, clock, registry, lsp_keypair)

    # -------------------------------------------------------------- routing

    @property
    def shards(self) -> list[Ledger]:
        """The per-shard ledgers, by shard index (treat as read-only)."""
        return list(self._shards)

    def shard_of_key(self, key: str) -> int:
        return shard_of_key(key, self.num_shards)

    def shard_of_request(self, request: ClientRequest) -> int:
        return shard_of_request(request, self.num_shards)

    def global_jsn(self, shard_index: int, local_jsn: int) -> int:
        """Interleave a shard-local jsn into the global sequence."""
        if not 0 <= shard_index < self.num_shards:
            raise UsageError(f"shard {shard_index} out of range 0..{self.num_shards - 1}")
        return local_jsn * self.num_shards + shard_index

    def locate(self, gsn: int) -> tuple[int, int]:
        """Global jsn → ``(shard_index, local_jsn)`` (inverse of global_jsn)."""
        return locate(gsn, self.num_shards)

    # -------------------------------------------------------------- appends

    def append(self, request: ClientRequest) -> Receipt:
        """Route one request to its shard; returns the shard's LSP receipt.

        The receipt's ``jsn`` is shard-local (it is a signed field);
        recover the global address with
        ``global_jsn(shard_of_request(request), receipt.jsn)``.
        """
        return self._shards[self.shard_of_request(request)].append(request)

    def append_batch(self, requests: list[ClientRequest]) -> list[Receipt]:
        """Partition a batch by shard and commit each group atomically.

        Atomicity is per shard group (each group is one
        :meth:`Ledger.append_batch`): a bad request rejects its own shard's
        group with that shard untouched, but groups already committed on
        other shards stay committed.
        """
        groups: dict[int, list[int]] = {}
        for position, request in enumerate(requests):
            groups.setdefault(self.shard_of_request(request), []).append(position)
        receipts: list[Receipt | None] = [None] * len(requests)
        for shard_index in sorted(groups):
            positions = groups[shard_index]
            shard_receipts = self._shards[shard_index].append_batch(
                [requests[position] for position in positions]
            )
            for position, receipt in zip(positions, shard_receipts):
                receipts[position] = receipt
        return receipts  # type: ignore[return-value]

    def commit_block(self) -> list:
        return [shard.commit_block() for shard in self._shards]

    # ---------------------------------------------------------------- reads

    def __len__(self) -> int:
        return self.size

    @property
    def size(self) -> int:
        """Total journals across all shards (genesis journals included)."""
        return sum(shard.size for shard in self._shards)

    def receipt_for(self, gsn: int) -> Receipt | None:
        shard_index, local_jsn = self.locate(gsn)
        return self._shards[shard_index].receipt_for(local_jsn)

    def get_journal(self, gsn: int) -> Journal:
        shard_index, local_jsn = self.locate(gsn)
        return self._shards[shard_index].get_journal(local_jsn)

    def retained_hash(self, gsn: int) -> Digest:
        shard_index, local_jsn = self.locate(gsn)
        return self._shards[shard_index].retained_hash(local_jsn)

    def list_tx(self, clue: str) -> list[int]:
        """Global jsns of every journal carrying ``clue``, across all shards.

        A clue used as a *secondary* clue may appear on shards other than
        its routing shard, so the lookup sweeps every shard's cSL index.
        """
        out: list[int] = []
        for shard_index, shard in enumerate(self._shards):
            out.extend(self.global_jsn(shard_index, jsn) for jsn in shard.list_tx(clue))
        return sorted(out)

    # ---------------------------------------------------------------- roots

    def heads(self) -> list[LedgerHead]:
        """One published head per shard, by shard index: every composite read
        below answers from one such list."""
        return [shard.head for shard in self._shards]

    def shard_roots(self) -> list[Digest]:
        """Live fam root per shard — the shard map's leaves."""
        return [head.root for head in self.heads()]

    def composite_root(self) -> Digest:
        """The one trusted digest covering every shard's journal history."""
        return _shard_map(self.shard_roots()).root()

    def current_root(self) -> Digest:
        return self.composite_root()

    def shard_state_roots(self) -> list[Digest]:
        return [head.state_root for head in self.heads()]

    def state_root(self) -> Digest:
        """Composite CM-Tree1 commitment (world state across shards)."""
        return _shard_map(self.shard_state_roots()).root()

    def shard_link(self, shard_index: int, roots: list[Digest] | None = None) -> MembershipProof:
        """Inclusion proof of shard ``shard_index``'s root in the shard map."""
        if not 0 <= shard_index < self.num_shards:
            raise UsageError(f"shard {shard_index} out of range 0..{self.num_shards - 1}")
        return _shard_map(roots if roots is not None else self.shard_roots()).prove(shard_index)

    # --------------------------------------------------------------- proofs

    def get_proof(self, gsn: int, anchored: bool = True) -> ShardProof:
        """Cross-shard existence proof for the journal at global jsn ``gsn``.

        ``anchored`` is accepted for signature compatibility but the fam leg
        is always full-chain: the shard→root link commits the shard's *live*
        root, so the journal must fold all the way up to it.
        """
        return self.get_proofs([gsn], anchored=anchored)[0]

    def get_proofs(self, gsns: list[int], anchored: bool = True) -> list[ShardProof]:
        """Bulk cross-shard proofs, every fam leg cut at the shard head whose
        root the shared shard map links."""
        del anchored  # see get_proof: the composed form needs the full chain
        return self.proofs_at(self.heads(), gsns)

    def proofs_at(self, heads: list[LedgerHead], gsns: list[int]) -> list[ShardProof]:
        """:meth:`get_proofs` cut at per-shard heads the caller already holds."""
        roots = [head.root for head in heads]
        groups: dict[int, list[tuple[int, int]]] = {}
        for position, gsn in enumerate(gsns):
            shard_index, local_jsn = self.locate(gsn)
            groups.setdefault(shard_index, []).append((position, local_jsn))
        proofs: list[ShardProof | None] = [None] * len(gsns)
        for shard_index, members in groups.items():
            fam_proofs = self._shards[shard_index].proofs_at(
                heads[shard_index], [local for _, local in members], anchored=False
            )
            link = self.shard_link(shard_index, roots)
            for (position, _), fam_proof in zip(members, fam_proofs):
                proofs[position] = ShardProof(
                    shard_index=shard_index,
                    num_shards=self.num_shards,
                    fam=fam_proof,
                    link=link,
                )
        return proofs  # type: ignore[return-value]

    def tx_evidence(self, journal: Journal) -> tuple[ShardProof, Digest]:
        """A cross-shard proof for a presented journal and the composite root
        it folds to, both read from one head per shard."""
        heads = self.heads()
        gsn = self.global_jsn(shard_of_request(journal, self.num_shards), journal.jsn)
        return self.proofs_at(heads, [gsn])[0], _shard_map([h.root for h in heads]).root()

    def verify_journal(self, journal: Journal, proof: ShardProof | FamProof | None = None) -> bool:
        """Deployment-level *what* verification of a presented journal."""
        shard_index = shard_of_request(journal, self.num_shards)
        if proof is None:
            return self._shards[shard_index].verify_journal(journal)
        if isinstance(proof, ShardProof):
            return proof.verify(journal.tx_hash(), self.composite_root())
        return self._shards[shard_index].verify_journal(journal, proof)

    def prove_clue(
        self, clue: str, version_start: int = 0, version_end: int | None = None
    ) -> ShardClueProof:
        """Clue lineage proof on the clue's routing shard, linked to the
        composite state root.  Covers the clue's lineage *as a routing key*
        (see module docstring for the shard-map lineage contract)."""
        return self._prove_clue_at(self.shard_state_roots(), clue, version_start, version_end)

    def clue_evidence(self, clue: str) -> tuple[ShardClueProof, Digest]:
        """A clue's lineage proof and the composite state root it folds to,
        both read from one head per shard."""
        state_roots = self.shard_state_roots()
        return self._prove_clue_at(state_roots, clue), _shard_map(state_roots).root()

    def _prove_clue_at(
        self,
        state_roots: list[Digest],
        clue: str,
        version_start: int = 0,
        version_end: int | None = None,
    ) -> ShardClueProof:
        shard_index = self.shard_of_key(clue)
        clue_proof = self._shards[shard_index].prove_clue(
            clue, version_start, version_end, root=state_roots[shard_index]
        )
        return ShardClueProof(
            shard_index=shard_index,
            num_shards=self.num_shards,
            clue_proof=clue_proof,
            shard_state_root=state_roots[shard_index],
            link=_shard_map(state_roots).prove(shard_index),
        )

    def verify_clue(self, clue: str, journals: list[Journal]) -> bool:
        """Server-side lineage check on the clue's routing shard."""
        return self._shards[self.shard_of_key(clue)].verify_clue(clue, journals)

    # --------------------------------------------- transparency (DESIGN §16)

    @property
    def lsp_public_key(self):
        return self._lsp_keypair.public

    def get_sth(self) -> SignedTreeHead:
        """The deployment's signed head: the *composite* head over several
        shards, the only shard's own head otherwise (rule 2 of
        :mod:`repro.shard.shape`).

        A composite head commits the shard map built from the per-shard
        heads it embeds, so any holder can re-fold the composite root
        (:meth:`SignedTreeHead.composite_consistent`) and cross-check each
        embedded entry against independently gossiped per-shard heads.
        """
        heads = [shard.get_sth() for shard in self._shards]
        return self.composite_sth(heads) if has_composite(self.num_shards) else heads[0]

    def composite_sth(self, heads: list[SignedTreeHead]) -> SignedTreeHead:
        """The composite head embedding ``heads``, one per shard by index
        (each entry under the shard's own stamp)."""
        shard_heads = tuple(
            (head.shard_index, head.epoch, head.tree_size, head.live_size, head.root)
            for head in heads
        )
        # The composite root folds the embedded heads' own roots — one
        # atomic claim, internally consistent even while shards commit.
        composite = _shard_map([head.root for head in heads]).root()
        return SignedTreeHead(
            ledger_uri=self.config.uri,
            epoch=COMPOSITE_EPOCH,
            tree_size=sum(head.tree_size for head in heads),
            live_size=self.num_shards,
            root=composite,
            timestamp=self.clock.now(),
            fractal_height=self.config.fractal_height,
            shard_index=SOLO_SHARD,
            shard_heads=shard_heads,
        ).signed_by(self._lsp_keypair)

    def get_sth_shard(self, shard_index: int) -> SignedTreeHead:
        """A fresh per-shard head (its ``shard_index`` names the stream)."""
        if not 0 <= shard_index < self.num_shards:
            raise UsageError(
                f"shard {shard_index} out of range 0..{self.num_shards - 1}"
            )
        return self._shards[shard_index].get_sth()

    def get_sth_range(self, start: int, end: int) -> list[SignedTreeHead]:
        """Stored epoch-close heads across all shards, ordered by
        ``(epoch, shard_index)``."""
        heads: list[SignedTreeHead] = []
        for shard in self._shards:
            heads.extend(shard.get_sth_range(start, end))
        heads.sort(key=lambda head: (head.epoch, head.shard_index))
        return heads

    def get_consistency(self, old: SignedTreeHead, new: SignedTreeHead):
        """Route a per-shard consistency request to the shard whose stamp
        the heads carry (composite heads have no epoch tree: their story is
        the conjunction of their embedded per-shard streams)."""
        if old.is_composite or new.is_composite:
            raise UsageError(
                "composite heads have no epoch tree; request consistency "
                "per shard (the composite head embeds each shard's "
                "coordinates)"
            )
        if old.shard_index != new.shard_index:
            raise UsageError(
                f"heads name different shards ({old.shard_index} vs "
                f"{new.shard_index}); consistency is per stream"
            )
        shard = shard_for_stamp(self._shards, old.shard_index)
        if shard is None:
            raise UsageError(f"no shard of this deployment stamps {old.shard_index}")
        return shard.get_consistency(old, new)

    def fam_extension(self, *coordinates: int | None):
        """Refused: the shards' fams are separate streams under one composite
        root, so there is no one fam head for an anchor tracker to follow."""
        raise UsageError(
            "a sharded deployment has no one fam to anchor; verify "
            "against its composite root with verify(level='client')"
        )

    def issue_ack(self, request: ClientRequest, deadline_epochs: int | None = None):
        """Sign a submission ack on the shard the request routes to."""
        return self._shards[self.shard_of_request(request)].issue_ack(
            request, deadline_epochs
        )

    # ------------------------------------------------------- time anchoring

    def attach_time_ledger(self, tledger) -> None:
        for shard in self._shards:
            shard.attach_time_ledger(tledger)

    def attach_tsa(self, tsa) -> None:
        for shard in self._shards:
            shard.attach_tsa(tsa)

    def anchor_time(self) -> list[int]:
        return [shard.anchor_time() for shard in self._shards]

    def collect_time_evidence(self) -> int:
        return sum(shard.collect_time_evidence() for shard in self._shards)

    # ------------------------------------------------------------ lifecycle

    def checkpoint(self) -> list[str]:
        """Checkpoint every persistent shard; returns the snapshot paths."""
        return [shard.checkpoint() for shard in self._shards]

    def close(self, checkpoint: bool = True) -> None:
        """Close every shard (checkpointing persistent ones first)."""
        errors: list[Exception] = []
        for shard in self._shards:
            try:
                shard.close(checkpoint=checkpoint)
            except Exception as exc:  # close the rest before re-raising
                errors.append(exc)
        if errors:
            raise errors[0]

    def __repr__(self) -> str:
        return (
            f"<ShardedLedger {self.config.uri} shards={self.num_shards} "
            f"size={self.size}>"
        )


# ------------------------------------------------ one constructor, one reopen


def new_deployment(config: LedgerConfig, **kwargs: Any) -> Ledger | ShardedLedger:
    """The one constructor: a solo :class:`Ledger` for one shard, the
    :class:`ShardedLedger` facade for more.

    ``kwargs`` pass through (``clock``, ``registry``, ``lsp_keypair``; a
    solo ledger also takes ``journal_stream`` and ``node_store``).
    """
    if not has_composite(config.shards):
        return Ledger(config=config, **kwargs)
    if "journal_stream" in kwargs:
        raise UsageError(
            "journal_stream= cannot apply to a sharded ledger: each "
            "shard owns its own stream (set config.data_dir for "
            "persistence instead)"
        )
    return ShardedLedger(config=config, **kwargs)


def open_deployment(
    data_dir: str | Path,
    registry: MemberRegistry,
    lsp_keypair: KeyPair,
    *,
    clock: Clock | None = None,
    force_rebuild: bool = False,
) -> Ledger | ShardedLedger:
    """The one reopen: whichever shape ``data_dir`` holds, by its layout."""
    opener = ShardedLedger.open if is_sharded_layout(data_dir) else Ledger.open
    return opener(
        str(data_dir), registry, lsp_keypair, clock=clock, force_rebuild=force_rebuild
    )


def iter_shard_dirs(data_dir: str | Path) -> Iterable[Path]:
    """The existing shard subdirectories of a sharded ``data_dir``, in order."""
    base = Path(data_dir)
    index = 0
    while True:
        shard_dir = base / SHARD_DIR_FORMAT.format(index)
        if not shard_dir.exists():
            return
        yield shard_dir
        index += 1
