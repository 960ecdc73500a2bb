"""Sharded multi-ledger scale-out under one composite root (DESIGN.md §15).

The single-writer fsync ceiling caps a lone :class:`~repro.core.ledger.Ledger`
at one group commit at a time.  A :class:`ShardedLedger` breaks it by
hash-partitioning appends across ``N`` full per-shard ledgers — each with its
own journal stream, fam accumulator, CM-Tree, and (via
:class:`~repro.shard.service.ShardedLedgerService`) its own group-commit
writer loop — while folding the ``N`` shard roots under **one composite
commitment**, so a verifier still trusts a single root for the whole
deployment.

Layering (the T-Ledger pattern of ``timeauth/tledger.py``, not new crypto):

* the **shard map** is a tiny :class:`~repro.merkle.shrubs.ShrubsAccumulator`
  whose leaf ``k`` is shard ``k``'s live fam root; its bagged root is the
  deployment's :meth:`~ShardedLedger.composite_root`;
* a **cross-shard proof** (:class:`ShardProof`) composes the shard-level
  full-chain :class:`~repro.merkle.fam.FamProof` with the shard→root
  :class:`~repro.merkle.proofs.MembershipProof` link — fold the journal to
  its shard's live root, then fold that root to the composite commitment;
* all shards share one **LSP keypair**, one :class:`MemberRegistry`, one
  clock, and one deployment URI, so receipts and request admission are
  byte-compatible with the unsharded system (a remote client pins the same
  LSP key whichever shard it talks to).

Routing is deterministic and public: a request routes by its first clue when
it has one, else by its ``client_id`` (``shard_of_key``).  The lineage
contract follows the routing key — all journals whose *routing* key is ``K``
share a shard, so clue proofs for routing clues stay single-shard.

Global addressing: shard-local jsns are interleaved into a global sequence
number ``gsn = local_jsn * num_shards + shard_index`` (a stateless
bijection).  Signed artifacts — journals, receipts — keep their shard-local
``jsn`` untouched; the gsn exists only on the facade's read surface.

Trust model: tampering *any* shard changes that shard's fam root, which
changes the shard-map leaf, which changes the composite root — so one
trusted composite digest detects tampering anywhere in the deployment, and
``shards=1`` degenerates to exactly the unsharded ledger (byte-identical
roots and receipts) plus a one-leaf shard map.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable

from ..core.errors import UsageError
from ..core.journal import ClientRequest, Journal
from ..core.ledger import CONFIG_FILE, SHARD_DIR_FORMAT, Ledger, LedgerConfig
from ..core.ledger import LedgerHead, LedgerView, is_sharded_layout
from ..core.members import MemberRegistry
from ..core.receipt import Receipt
from ..core.snapshot import load_config_file, write_config_file
from ..crypto.hashing import Digest
from ..crypto.keys import KeyPair
from ..encoding import decode, encode
from ..merkle.cmtree import ClueProof
from ..merkle.fam import FamAccumulator, FamProof
from ..merkle.proofs import MembershipProof
from ..merkle.shrubs import ShrubsAccumulator
from ..timeauth.clock import Clock, SimClock
from ..transparency.sth import COMPOSITE_EPOCH, SOLO_SHARD, SignedTreeHead

__all__ = [
    "ShardProof",
    "ShardClueProof",
    "ShardedAuditReport",
    "ShardedLedger",
    "shard_of_key",
]


def shard_of_key(key: str, num_shards: int) -> int:
    """Deterministic, public shard routing: stable hash of the key.

    Stable across processes and Python versions (unlike ``hash()``), so any
    party — client, server, auditor — derives the same placement.
    """
    if num_shards < 1:
        raise UsageError(f"num_shards must be >= 1, got {num_shards}")
    digest = hashlib.sha256(b"shard-route:" + key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


def _route_key(clues: tuple[str, ...], client_id: str) -> str:
    return clues[0] if clues else client_id


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
        return encode(
            {
                "shard_index": self.shard_index,
                "num_shards": self.num_shards,
                "fam": self.fam.to_bytes(),
                "link": self.link.to_bytes(),
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "ShardProof":
        obj = decode(data)
        return cls(
            shard_index=int(obj["shard_index"]),
            num_shards=int(obj["num_shards"]),
            fam=FamProof.from_bytes(bytes(obj["fam"])),
            link=MembershipProof.from_bytes(bytes(obj["link"])),
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
        self.config = config or LedgerConfig(shards=2)
        if self.config.shards < 1:
            raise UsageError(f"shards must be >= 1, got {self.config.shards}")
        self.num_shards = self.config.shards
        self.clock = clock or SimClock()
        self.registry = registry or MemberRegistry()
        self._lsp_keypair = lsp_keypair or KeyPair.generate(seed=f"lsp:{self.config.uri}")
        base = Path(self.config.data_dir) if self.config.data_dir else None
        if base is not None:
            base.mkdir(parents=True, exist_ok=True)
            write_config_file(base / CONFIG_FILE, self.config)
        self._shards: list[Ledger] = []
        for index in range(self.num_shards):
            shard_dir = str(base / SHARD_DIR_FORMAT.format(index)) if base else None
            shard_config = replace(self.config, shards=1, data_dir=shard_dir)
            shard = Ledger(
                config=shard_config,
                clock=self.clock,
                registry=self.registry,
                lsp_keypair=self._lsp_keypair,
            )
            # Shards share the deployment uri and LSP key; the stamped index
            # is what keeps sibling shards' signed tree heads from reading
            # as forks of one stream (DESIGN.md §16).
            shard.sth_shard_index = index
            self._shards.append(shard)

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
        sharded = cls.__new__(cls)
        sharded.config = config
        sharded.num_shards = config.shards
        sharded.clock = clock or SimClock()
        sharded.registry = registry
        sharded._lsp_keypair = lsp_keypair
        sharded._shards = []
        for index in range(config.shards):
            shard = Ledger.open(
                str(base / SHARD_DIR_FORMAT.format(index)),
                registry,
                lsp_keypair,
                clock=sharded.clock,
                force_rebuild=force_rebuild,
            )
            shard.sth_shard_index = index
            sharded._shards.append(shard)
        return sharded

    # -------------------------------------------------------------- routing

    @property
    def shards(self) -> list[Ledger]:
        """The per-shard ledgers, by shard index (treat as read-only)."""
        return list(self._shards)

    def shard_of_key(self, key: str) -> int:
        return shard_of_key(key, self.num_shards)

    def shard_of_request(self, request: ClientRequest) -> int:
        return self.shard_of_key(_route_key(request.clues, request.client_id))

    def shard_of_journal(self, journal: Journal) -> int:
        return self.shard_of_key(_route_key(journal.clues, journal.client_id))

    def global_jsn(self, shard_index: int, local_jsn: int) -> int:
        """Interleave a shard-local jsn into the global sequence."""
        if not 0 <= shard_index < self.num_shards:
            raise UsageError(f"shard {shard_index} out of range 0..{self.num_shards - 1}")
        return local_jsn * self.num_shards + shard_index

    def locate(self, gsn: int) -> tuple[int, int]:
        """Global jsn → ``(shard_index, local_jsn)`` (inverse of global_jsn)."""
        if gsn < 0:
            raise UsageError(f"global jsn must be >= 0, got {gsn}")
        return gsn % self.num_shards, gsn // self.num_shards

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

    def admit(self, request: ClientRequest) -> None:
        """Admission-check a request against its routed shard."""
        self._shards[self.shard_of_request(request)].admit(request)

    def commit_block(self) -> list:
        return [shard.commit_block() for shard in self._shards]

    # ---------------------------------------------------------------- reads

    def __len__(self) -> int:
        return self.size

    @property
    def size(self) -> int:
        """Total journals across all shards (genesis journals included)."""
        return sum(shard.size for shard in self._shards)

    @property
    def latest_receipt(self) -> Receipt | None:
        """None: no single shard receipt speaks for the whole deployment.

        Per-shard receipts remain available via ``shards[k].latest_receipt``;
        deployment-level trust lives in :meth:`composite_root`.
        """
        return None

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
        heads = self.heads()
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

    def proof_for_journal(self, journal: Journal, anchored: bool = True) -> ShardProof:
        """Cross-shard proof for a presented journal (route by its content)."""
        shard_index = self.shard_of_journal(journal)
        return self.get_proof(self.global_jsn(shard_index, journal.jsn), anchored=anchored)

    def verify_journal(self, journal: Journal, proof: ShardProof | FamProof | None = None) -> bool:
        """Deployment-level *what* verification of a presented journal."""
        shard_index = self.shard_of_journal(journal)
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
        shard_index = self.shard_of_key(clue)
        state_roots = self.shard_state_roots()
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
        """The deployment's signed *composite* head.

        Commits the shard map built from the per-shard heads it embeds, so
        any holder can re-fold the composite root
        (:meth:`SignedTreeHead.composite_consistent`) and cross-check each
        embedded entry against independently gossiped per-shard heads.
        """
        return self.composite_sth([shard.get_sth() for shard in self._shards])

    def composite_sth(self, heads: list[SignedTreeHead]) -> SignedTreeHead:
        """The composite head embedding ``heads``, one per shard by index."""
        shard_heads = tuple(
            (index, head.epoch, head.tree_size, head.live_size, head.root)
            for index, head in enumerate(heads)
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
        """Route a per-shard consistency request to the shard it names.

        Composite heads carry no epoch tree — their append-only story is
        the conjunction of their embedded per-shard streams, each provable
        here by shard index.
        """
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
        if not 0 <= old.shard_index < self.num_shards:
            raise UsageError(
                f"shard {old.shard_index} out of range 0..{self.num_shards - 1}"
            )
        return self._shards[old.shard_index].get_consistency(old, new)

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

    # ---------------------------------------------------------------- audit

    def export_view(self) -> LedgerView:
        raise UsageError(
            "a sharded deployment has one view per shard — use "
            "export_views() and audit each (or ShardedLedger.audit())"
        )

    def export_views(self) -> list[LedgerView]:
        """One auditor view per shard, by shard index."""
        return [shard.export_view() for shard in self._shards]

    def audit(
        self,
        *,
        tsa_keys: dict | None = None,
        workers: int = 0,
        checkpoint: str | None = None,
        **kwargs: Any,
    ) -> ShardedAuditReport:
        """Run the §V Dasein-complete audit over every shard, in parallel.

        Shards audit concurrently on a thread pool, one thread per shard;
        ``workers`` additionally enables each shard audit's own
        signature-chunk pool.  ``checkpoint`` must be a directory-style path
        prefix: shard ``k`` checkpoints to ``<checkpoint>.shard-k``.
        """
        from concurrent.futures import ThreadPoolExecutor

        from ..audit import dasein_audit

        if checkpoint is not None and not isinstance(checkpoint, str):
            raise UsageError(
                "sharded audits checkpoint per shard: pass a string path "
                "prefix, not a CheckpointStore"
            )
        views = self.export_views()

        def _one(indexed_view: tuple[int, LedgerView]):
            index, view = indexed_view
            shard_checkpoint = f"{checkpoint}.shard-{index}" if checkpoint else None
            return dasein_audit(
                view,
                tsa_keys=tsa_keys,
                workers=workers,
                checkpoint=shard_checkpoint,
                **kwargs,
            )

        with ThreadPoolExecutor(max_workers=self.num_shards) as pool:
            reports = list(pool.map(_one, enumerate(views)))
        return ShardedAuditReport(passed=all(r.passed for r in reports), reports=reports)

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

    # ------------------------------------------------------------- metrics

    def metrics_snapshot(self) -> dict:
        from .. import obs

        return obs.snapshot()

    def storage_stats(self) -> dict:
        return {
            "shards": [shard.storage_stats() for shard in self._shards],
            "size": self.size,
        }

    def node_store_stats(self) -> dict:
        return {
            f"shard-{index}": shard.node_store_stats()
            for index, shard in enumerate(self._shards)
        }

    def compact_node_store(self) -> list[dict]:
        return [shard.compact_node_store() for shard in self._shards]

    def __repr__(self) -> str:
        return (
            f"<ShardedLedger {self.config.uri} shards={self.num_shards} "
            f"size={self.size}>"
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
