"""The LedgerDB kernel: Create / Append / GetProof / Verify plus mutations.

This module wires every substrate together into the system of Figure 1/2:

* journals land on an append-only **stream** and their tx-hashes in the
  **fam** accumulator (*what*);
* clue-tagged journals also enter the **CM-Tree** world-state and the **cSL**
  retrieval index (*N-lineage*);
* every ``block_size`` journals a **block** seals the fam commitment and the
  CM-Tree1 state root (audit / snapshot granularity);
* the LSP signs one **receipt** batch per commit (*who*, pi_s) and periodically
  anchors the fam root to a **TSA or T-Ledger** as time journals (*when*,
  pi_t);
* **purge** and **occult** provide the two verifiable mutations.

The server-side trust model: a client that trusts the LSP calls the
``verify_*`` convenience methods here; a distrusting auditor instead calls
:meth:`Ledger.export_view` and uses :mod:`repro.audit` /
:mod:`repro.verify` entirely client-side.
"""

from __future__ import annotations

import bisect
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

from .. import obs
from ..crypto.ca import Role
from ..crypto.hashing import Digest, EMPTY_DIGEST, hexdigest
from ..crypto.keys import KeyPair, verify_batch
from ..crypto.multisig import MultiSignature, MultiSignatureError
from ..encoding import EncodingError, encode
from ..merkle.cmtree import ClueProof, CMTree
from ..merkle.consistency import ConsistencyBundle
from ..merkle.fam import AnchorStore, FamAccumulator, FamProof
from ..merkle.mpt import MPT
from ..shard.shape import is_sharded_layout
from ..storage.kv import KeyNotFoundError, KVStore
from ..storage.pagestore import PageCorruptionError, PagedNodeStore
from ..storage.stream import FileStream, MemoryStream, RecordErasedError, Stream
from ..timeauth.clock import Clock, SimClock
from ..timeauth.tledger import TimeEvidence, TimeLedger
from ..timeauth.tsa import TimeStampAuthority, TimeStampToken, TSAPool
from ..transparency.censorship import SubmissionAck
from ..transparency.sth import (
    SOLO_SHARD,
    ConsistencyAssertion,
    SignedTreeHead,
    SthStore,
)
from ..verify.checks import parse_time_journal, time_payload
from .blocks import Block
from .cluesl import ClueSkipList
from .errors import (
    AuthenticationError,
    IntegrityError,
    JournalNotFoundError,
    JournalOccultedError,
    JournalPurgedError,
    LedgerError,
    MutationError,
    RecoveryError,
    SnapshotError,
    UsageError,
)
from .journal import ClientRequest, Journal, JournalType
from .members import MemberRegistry
from .occult import OccultBitmap, OccultMode, OccultRecord
from .purge import PseudoGenesis, PurgeRecord
from .receipt import Receipt, ReceiptRows
from .snapshot import (
    load_config_file,
    load_snapshot,
    write_config_file,
    write_snapshot,
)

__all__ = ["LedgerConfig", "Ledger", "LedgerView", "JournalEntryView", "LSP_MEMBER_ID", "compact"]

#: The LSP's reserved member id (registered automatically at Create).
LSP_MEMBER_ID = "__lsp__"

#: File names inside a persistent ledger's ``data_dir``.
CONFIG_FILE = "ledger.cfg"
JOURNAL_FILE = "journal.stream"
SNAPSHOT_FILE = "snapshot.ckpt"
NODES_DIR = "nodes"
STH_FILE = "sth.log"
#: How many epoch closes a :class:`SubmissionAck` grants the LSP before an
#: acked-but-absent request becomes provable censorship (DESIGN.md §16).
DEFAULT_ACK_DEADLINE_EPOCHS = 2


class _Closed:
    """What a closed ledger holds where its per-journal state was: any use
    is a :class:`UsageError`, never a stale answer."""

    def _refuse(self, *_args: object) -> None:
        raise UsageError("the ledger is closed")

    __getattr__ = __getitem__ = __iter__ = __len__ = __bool__ = _refuse


_CLOSED = _Closed()


@dataclass(frozen=True)
class LedgerConfig:
    """Static configuration fixed at ledger creation."""

    uri: str = "ledger://default"
    fractal_height: int = 10  # fam delta (epoch capacity 2^delta)
    block_size: int = 16  # journals per committed block
    require_client_signature: bool = True
    #: Turn on the process-wide observability layer (DESIGN.md §10) when
    #: this ledger is created — equivalent to setting ``REPRO_OBS=1``.
    observability: bool = False
    #: Merkle node placement: ``"memory"`` keeps every MPT/CM-Tree node in a
    #: dict; ``"paged"`` stores them in an on-disk
    #: :class:`~repro.storage.pagestore.PagedNodeStore` under
    #: ``data_dir/nodes`` (§IV-B2's "bottom layers on disk").  Both backends
    #: produce byte-identical roots, proofs, and audit reports.
    node_store: str = "memory"
    #: LRU page-cache capacity (mmap'd pages) for the paged node store.
    cache_pages: int = 64
    #: Directory for durable state (journal stream, node pages, checkpoint
    #: snapshots).  Required for ``node_store="paged"``; when set and no
    #: explicit ``journal_stream`` is passed, journals land on a durable
    #: :class:`~repro.storage.stream.FileStream` in this directory.
    data_dir: str | None = None
    #: Hash-partition appends across this many per-shard ledgers under one
    #: composite root (DESIGN.md §15).  The :class:`Ledger` kernel is one
    #: shard; build a deployment of any count through
    #: :func:`repro.shard.new_deployment` (or ``repro.api.create``).
    shards: int = 1


@dataclass(frozen=True)
class JournalEntryView:
    """One slot of an exported ledger view.

    ``data`` is the serialized journal, or ``None`` when the payload is gone
    (purged or occulted); ``retained_hash`` is always present — it is the fam
    leaf digest, which survives every mutation by design.
    """

    jsn: int
    data: bytes | None
    retained_hash: Digest
    occulted: bool
    purged: bool


@dataclass(frozen=True)
class LedgerHead:
    """What one commit left behind, published by one reference assignment.

    Every public read a thread beside the writer may call takes one head and
    answers from it alone, so sizes, roots and receipt never mix commits.
    ``root`` is the receipt's ``ledger_root``: the fam root after ``size``
    journals, ``live_size`` leaves into ``epoch``.
    """

    size: int
    epoch: int
    live_size: int
    root: Digest
    state_root: Digest
    receipt: Receipt | None
    blocks: int


@dataclass(frozen=True)
class LedgerView:
    """Everything an external (distrusting) auditor downloads.

    Contains no secrets: journal bytes, block headers, certificates, mutation
    records with their multi-signatures, time-journal evidence, and the
    pseudo-genesis (if any).  :mod:`repro.audit` consumes this.
    """

    uri: str
    fractal_height: int
    block_size: int
    entries: list[JournalEntryView]  # index 0 = jsn genesis_start
    genesis_start: int  # first jsn present (0, or pseudo-genesis purge point)
    blocks: list[Block]
    certificates: dict  # member_id -> Certificate
    ca_public_key: object  # PublicKey
    lsp_member_id: str
    latest_receipt: Receipt | None
    pseudo_genesis: PseudoGenesis | None
    purge_approvals: list[tuple[int, PurgeRecord, MultiSignature]]
    occult_approvals: list[tuple[int, OccultRecord, MultiSignature]]
    time_evidence: dict  # jsn -> TimeEvidence | TimeStampToken
    head: LedgerHead  # the head the entries, blocks and receipt are cut at

    def entry(self, jsn: int) -> JournalEntryView:
        index = jsn - self.genesis_start
        if not 0 <= index < len(self.entries):
            raise JournalNotFoundError(jsn)
        return self.entries[index]


def _retired(root: Digest) -> UsageError:
    return UsageError(
        f"CM-Tree1 root {root.hex()} is not retained: the memory node store "
        f"keeps the roots of the last two epoch rolls and pinned ones"
    )


def _make_node_store(config: LedgerConfig) -> KVStore | None:
    """Build the Merkle-node backend ``config`` asks for (None = in-memory)."""
    if config.node_store == "memory":
        return None
    if config.node_store == "paged":
        if not config.data_dir:
            raise UsageError('node_store="paged" requires LedgerConfig(data_dir=...)')
        return PagedNodeStore(
            Path(config.data_dir) / NODES_DIR, cache_pages=config.cache_pages
        )
    raise UsageError(f"unknown node_store backend: {config.node_store!r}")


class Ledger:
    """A LedgerDB instance (the LSP's server-side state)."""

    def __init__(
        self,
        config: LedgerConfig | None = None,
        clock: Clock | None = None,
        registry: MemberRegistry | None = None,
        lsp_keypair: KeyPair | None = None,
        journal_stream: Stream | None = None,
        node_store: KVStore | None = None,
    ) -> None:
        """The Create API: a fresh ledger with a genesis journal."""
        self._bind(config or LedgerConfig(), clock, registry, lsp_keypair, journal_stream)
        if len(self._stream) > 0:
            raise UsageError(
                "journal stream is not empty — this looks like an existing "
                "ledger; reopen it with Ledger.open(...) instead of creating "
                "a new one on top"
            )
        # An explicit node_store (e.g. a fault-injecting store in tests)
        # overrides what the config would build.
        self._init_state(
            node_store if node_store is not None else _make_node_store(self.config)
        )
        if self.config.data_dir:
            write_config_file(Path(self.config.data_dir) / CONFIG_FILE, self.config)
        self._append_genesis()

    def _bind(
        self,
        config: LedgerConfig,
        clock: Clock | None,
        registry: MemberRegistry | None,
        lsp_keypair: KeyPair | None,
        journal_stream: Stream | None,
    ) -> None:
        """What every way into a ledger (create, :meth:`recover`,
        :meth:`open`) binds first: config, clock, the registry and the LSP
        identity it certifies, and the journal stream (by default a durable
        file in ``data_dir``, else memory)."""
        if config.shards != 1:
            raise UsageError(
                f"the Ledger kernel is single-shard; build a "
                f"LedgerConfig(shards={config.shards}) deployment through "
                f"repro.shard.ShardedLedger (or repro.api.create)"
            )
        if config.observability:
            obs.enable()
        self.config = config
        self.clock = clock or SimClock()
        self.registry = registry or MemberRegistry()
        self._lsp_keypair = lsp_keypair or KeyPair.generate(seed=f"lsp:{config.uri}")
        # N in-process ledgers (e.g. the shards of one deployment) may share
        # one MemberRegistry and one LSP identity; re-registering the same
        # key is a no-op, a *different* key under the reserved id is refused.
        if LSP_MEMBER_ID in self.registry.all_members():
            registered = self.registry.public_key(LSP_MEMBER_ID)
            if registered.to_bytes() != self._lsp_keypair.public.to_bytes():
                raise UsageError(
                    "the shared registry already certifies a different LSP "
                    "key; ledgers sharing a registry must share the LSP "
                    "keypair (pass lsp_keypair=...)"
                )
        else:
            self.registry.register(LSP_MEMBER_ID, Role.LSP, self._lsp_keypair.public)
        if config.data_dir:
            Path(config.data_dir).mkdir(parents=True, exist_ok=True)
            if journal_stream is None:
                journal_stream = FileStream(Path(config.data_dir) / JOURNAL_FILE, durable=True)
        self._stream = journal_stream if journal_stream is not None else MemoryStream()

    def _init_state(self, node_store: KVStore | None) -> None:
        """Blank derived state over ``self._stream``: :meth:`_apply` fills it
        from a genesis journal on create, from the stream on a reopen."""
        config = self.config
        data_dir = Path(config.data_dir) if config.data_dir else None
        #: What the stream's open-time scan did to a crashed tail (an
        #: OpenReport for FileStream backends, None otherwise).
        self.recovery_report = getattr(self._stream, "open_report", None)
        self._survival_stream = MemoryStream()
        self._node_store = node_store
        self._fam = FamAccumulator(config.fractal_height)
        self._cmtree = CMTree(node_store)
        self._cluesl = ClueSkipList()
        #: Clue updates :meth:`_apply` gathered that CM-Tree1 has not had:
        #: written as one ``add_many`` just before a state root is read.
        self._pending_clues: list[str] = []
        self._pending_digests: list[Digest] = []
        self._blocks: list[Block] = []
        self._pending_start = 0  # first jsn not yet sealed in a block

        self._occult_bitmap = OccultBitmap()
        self._occult_records: list[tuple[int, OccultRecord, MultiSignature]] = []
        self._erase_queue: list[int] = []  # async occult backlog
        self._purge_records: list[tuple[int, PurgeRecord, MultiSignature]] = []
        self._pseudo_genesis: PseudoGenesis | None = None
        self._genesis_start = 0  # first retrievable jsn (moves on purge)
        self._survivors: dict[int, int] = {}  # jsn -> survival stream offset

        self._time_journals: list[int] = []
        self._time_evidence: dict[int, TimeEvidence | TimeStampToken] = {}
        self._tledger: TimeLedger | None = None
        self._tsa: TimeStampAuthority | TSAPool | None = None
        self._pending_tledger: list[tuple[int, int]] = []  # (time jsn, notary seq)

        #: Held by every commit and seal: a reader's seal never lands mid-batch.
        self._commit_lock = threading.RLock()
        self._head = LedgerHead(0, 0, 0, EMPTY_DIGEST, self._cmtree.root, None, 0)
        #: Every receipt issued since the ledger was built or reopened, as
        #: rows (``receipt_for``); the head keeps the last one whole.
        self._receipts = ReceiptRows(config.uri)
        self._anchor_cache: AnchorStore = AnchorStore()
        self._anchor_cache_epochs = 0  # completed epochs already seeded

        #: What this ledger stamps into its heads, acks and assertions:
        #: solo until a sharded deployment's assembly calls :meth:`restamp`
        #: (:func:`repro.shard.shape.sth_stamp`).
        self.sth_shard_index = SOLO_SHARD
        self._sth_store = SthStore((data_dir / STH_FILE) if data_dir else None)
        self._sth_cache: tuple[LedgerHead, SignedTreeHead] | None = None
        self._sth_epochs = self._fam.num_epochs

    def _reissue_receipt(self) -> None:
        """A fresh receipt for the last journal, so that clients and audits
        of a reopened ledger have a current pi_s."""
        last = self._fam.size - 1
        receipt = self._receipt(
            last, EMPTY_DIGEST, self._fam.leaf_digest(last), self.clock.now()
        ).signed_by(self._lsp_keypair)
        self._receipts.add_batch([receipt])
        self._publish(receipt)

    def _publish(self, receipt: Receipt) -> None:
        """Publish the head of the commit ``receipt`` closes."""
        epoch = self._fam.num_epochs - 1
        live_size = self._fam.live_size(epoch)
        state_root, blocks = self._cmtree.root, len(self._blocks)
        self._head = LedgerHead(
            receipt.jsn + 1, epoch, live_size, receipt.ledger_root, state_root, receipt, blocks
        )

    def _receipt(
        self, jsn: int, request_hash: Digest, tx_hash: Digest, timestamp: float
    ) -> Receipt:
        """The (unsigned) receipt for the journal just accumulated: binds it
        to the latest sealed block and to the fam commitment right after it."""
        return Receipt(
            ledger_uri=self.config.uri,
            jsn=jsn,
            request_hash=request_hash,
            tx_hash=tx_hash,
            block_hash=self._blocks[-1].hash() if self._blocks else EMPTY_DIGEST,
            block_height=len(self._blocks) - 1,
            ledger_root=self._fam.current_root(),
            timestamp=timestamp,
        )

    # ----------------------------------------------------------- reopening

    @classmethod
    def recover(
        cls,
        config: LedgerConfig,
        journal_stream: Stream,
        registry: MemberRegistry,
        lsp_keypair: KeyPair,
        clock: Clock | None = None,
        node_store: KVStore | None = None,
    ) -> "Ledger":
        """Rebuild a ledger from its durable journal stream.

        Every derived structure — fam accumulator, CM-Tree, cSL index,
        blocks, occult bitmap, erase queue, purge state — is reconstructed
        by replaying the stream from jsn 0 through :meth:`_apply`, the step
        every commit runs (:meth:`_replay_delta`, the same replay a snapshot
        restore runs over its suffix).  Mutation state recovers from the
        *system journals on the ledger itself*, and erased slots (occulted
        payloads) contribute the digests their occult records retain, which
        is exactly Protocol 2 replayed.

        The registry and LSP key pair are deployment secrets/PKI state kept
        outside the stream (as in any real system) and must be supplied.

        Crash handling: a durable :class:`~repro.storage.stream.FileStream`
        already rolled back any torn or uncommitted tail when it was opened
        (DESIGN.md §9), so this replay sees only committed records — the
        recovered ledger is the exact pre-crash commit point.  What the
        stream did to the tail is surfaced as :attr:`recovery_report`
        (``None`` for backends without an open-time scan) so operators can
        log how many in-flight records a crash rolled back; corruption
        surfaces from the stream itself as ``StreamCorruptionError``, and
        states the stream alone cannot rebuild raise :class:`RecoveryError`.

        A fresh receipt for the last journal is issued after recovery so
        clients and audits have a current pi_s.
        """
        if len(journal_stream) == 0:
            raise RecoveryError("cannot recover from an empty stream")
        return cls._reopen(config, journal_stream, registry, lsp_keypair, clock, node_store)

    @classmethod
    def _reopen(
        cls, config: LedgerConfig, journal_stream: Stream, registry: MemberRegistry,
        lsp_keypair: KeyPair, clock: Clock | None, node_store: KVStore | None,
        snapshot: dict | None = None,
    ) -> "Ledger":
        """A ledger over an existing stream, bound as a create binds: its
        derived state restored from ``snapshot`` (a ``SNAPSHOT`` body) if
        given, then the rest of the stream replayed."""
        ledger = cls.__new__(cls)
        ledger._bind(config, clock, registry, lsp_keypair, journal_stream)
        ledger._init_state(node_store)
        start = 0 if snapshot is None else ledger._restore(snapshot)
        obs.observe("ledger.open.delta_journals", ledger._replay_delta(start))
        return ledger

    def _append_genesis(self) -> None:
        payload = encode({"uri": self.config.uri, "created_at": self.clock.now()})
        self._append_system(JournalType.GENESIS, payload)

    # --------------------------------------------------------------- append

    def append(self, request: ClientRequest) -> Receipt:
        """The Append API (Figure 1): admit a signed client transaction.

        Validates the client's certificate and pi_c signature before anything
        is written (the threat-A defence), commits the journal, and returns
        the LSP-signed receipt pi_s.  A batch of one.
        """
        with obs.span("ledger.append"):
            return self.append_batch([request])[0]

    def append_batch(self, requests: list[ClientRequest]) -> list[Receipt]:
        """Admit many client transactions in one amortised pass.

        State and each receipt's statement are **byte-identical** however
        the requests are split into batches (same clock); a receipt's batch
        path and signature are its batch's.  The batch amortises the
        expensive work:

        * phase 1 — *admission*: every certificate and pi_c signature is
          validated before anything is written, so a single bad request
          rejects the whole batch with the ledger untouched.  Public keys
          appearing more than once are table-precomputed first, and the
          signature checks share their inversions (``verify_batch``).
        * phase 2 — *commit*: one stream write (one fsync on durable
          streams), per-clue grouped CM-Tree insertion flushed at each block
          boundary, fam work per journal and one LSP signature over the
          batch's receipts.  Block seals land every ``block_size`` journals
          wherever the batch boundaries fall.
        """
        if not requests:
            return []
        with obs.span("ledger.append_batch") as span:
            span.add("journals", len(requests))
            with obs.span("ledger.admission"):
                self._admit_batch(requests)
            with obs.span("ledger.commit_batch"):
                return self._commit_batch(requests)

    def admit(self, request: ClientRequest) -> None:
        """Run :meth:`append`'s admission checks without committing anything.

        Validates the target uri, the member certificate, the pi_c signature
        and the journal type exactly as :meth:`append` would; on success the
        ledger is untouched and the request would be accepted.  The group-
        commit front end (:mod:`repro.service`) uses this to isolate the
        offending request when a coalesced batch is rejected.

        Raises:
            AuthenticationError: the request would be rejected at admission.
        """
        self._admit_batch([request])

    def _admit_batch(self, requests: list[ClientRequest]) -> None:
        """Phase 1 of :meth:`append_batch`: authenticate every request."""
        certificates = []
        for request in requests:
            if request.ledger_uri != self.config.uri:
                raise AuthenticationError(
                    f"request targets {request.ledger_uri!r}, this ledger is "
                    f"{self.config.uri!r}"
                )
            certificates.append(self.registry.certificate(request.client_id))
        if self.config.require_client_signature:
            for request in requests:
                if request.signature is None:
                    raise AuthenticationError("request is unsigned")
            counts: dict[str, int] = {}
            for request in requests:
                counts[request.client_id] = counts.get(request.client_id, 0) + 1
            warmed: set[str] = set()
            for request, certificate in zip(requests, certificates):
                if counts[request.client_id] > 1 and request.client_id not in warmed:
                    warmed.add(request.client_id)
                    try:
                        certificate.public_key.precompute()
                    except ValueError:
                        pass  # invalid key: the verify below rejects it
            checks = [
                (certificate.public_key, request.request_hash(), request.signature)
                for request, certificate in zip(requests, certificates)
            ]
            for request, ok in zip(requests, verify_batch(checks)):
                if not ok:
                    raise AuthenticationError(
                        f"invalid signature from {request.client_id!r}"
                    )
        for request in requests:
            if request.journal_type not in (JournalType.NORMAL,):
                raise AuthenticationError(
                    f"clients may only append normal journals, not "
                    f"{request.journal_type.value!r}"
                )

    def _commit_batch(self, requests: list[ClientRequest]) -> list[Receipt]:
        """Phase 2 of :meth:`append_batch`, and the only commit: write,
        accumulate, seal, sign, publish the head."""
        with self._commit_lock:
            start_jsn = self._fam.size
            journals = [
                Journal(
                    jsn=start_jsn + index,
                    journal_type=request.journal_type,
                    client_id=request.client_id,
                    payload=request.payload,
                    clues=request.clues,
                    timestamp=self.clock.now(),
                    nonce=request.nonce,
                    request_hash=request.request_hash(),
                    client_signature=request.signature,
                )
                for index, request in enumerate(requests)
            ]
            offsets = self._stream.append_many([journal.to_bytes() for journal in journals])
            if offsets != list(range(start_jsn, start_jsn + len(journals))):
                raise IntegrityError(
                    f"journal stream desynchronised from fam: batch offsets start "
                    f"at {offsets[0]}, expected jsn {start_jsn}"
                )
            unsigned: list[Receipt] = []
            for journal in journals:
                if self._apply(journal.jsn, journal) is not None:
                    self._flush_nodes()
                unsigned.append(
                    self._receipt(
                        journal.jsn, journal.request_hash, journal.tx_hash(), journal.timestamp
                    )
                )
            self._write_clues()
            if self._fam.num_epochs > self._sth_epochs:
                # Memory node store: retire the CM-Tree1 versions no read
                # can ask for any more (DESIGN §13).
                self._cmtree.roll()
            self._emit_epoch_heads()
            # pi_s issuance: every receipt's statement is frozen above, so the
            # LSP signs the batch's root once and each receipt carries its path.
            receipts = Receipt.sign_batch(unsigned, self._lsp_keypair)
            self._receipts.add_batch(receipts)
            self._publish(receipts[-1])
            return receipts

    def _apply(self, jsn: int, slot: Journal | OccultRecord) -> Block | None:
        """Fold committed stream slot ``jsn`` into the derived state.

        The one step both the commit path (per new journal) and a reopen
        (per replayed slot) run, so a reopened ledger is built by the live
        ledger's code.  ``slot`` is the slot's journal or, for an occulted
        slot whose payload is gone, the occult record retaining its digest
        and clues.  An occult journal sets its target's bit and erases it
        (SYNC) or queues it (ASYNC) unless it is already erased; a purge
        journal erases its prefix and moves ``genesis_start``.  Their
        approvals are not on the stream: the live path attaches them after.
        Returns the block the slot sealed, if any.
        """
        if isinstance(slot, OccultRecord):
            tx_hash, clues, kind = slot.retained_hash, slot.retained_clues, None
            self._occult_bitmap.set(jsn)
        else:
            tx_hash, clues, kind = slot.tx_hash(), slot.clues, slot.journal_type
        self._fam.append(tx_hash)
        for clue in clues:
            self._pending_clues.append(clue)
            self._pending_digests.append(tx_hash)
            self._cluesl.insert(clue, jsn)
        if kind is JournalType.TIME:
            self._time_journals.append(jsn)
        elif kind is JournalType.OCCULT:
            record = OccultRecord.from_bytes(slot.payload)
            self._occult_records.append((jsn, record, MultiSignature(record.approval_digest())))
            target = record.target_jsn
            self._occult_bitmap.set(target)
            if not self._stream.is_erased(target):
                if record.mode is OccultMode.SYNC:
                    self._stream.erase(target)
                else:
                    self._erase_queue.append(target)
        elif kind is JournalType.PURGE:
            purge = PurgeRecord.from_bytes(slot.payload)
            self._purge_records.append((jsn, purge, MultiSignature(purge.approval_digest())))
            for erased in range(self._genesis_start, purge.purge_point):
                if not self._stream.is_erased(erased):
                    self._stream.erase(erased)
            if purge.erase_fam_nodes:
                self._fam.erase_up_to(purge.purge_point)
            self._genesis_start = max(self._genesis_start, purge.purge_point)
        if jsn + 1 - self._pending_start >= self.config.block_size:
            return self._seal_pending()
        return None

    def _write_clues(self) -> None:
        """CM-Tree1's one write for the clue updates gathered since the last,
        made just before a state root is read (a block seal, a published
        head)."""
        if self._pending_clues:
            self._cmtree.add_many(self._pending_clues, self._pending_digests)
            self._pending_clues.clear()
            self._pending_digests.clear()

    def _append_system(
        self,
        journal_type: JournalType,
        payload: bytes,
        clues: tuple[str, ...] = (),
    ) -> Receipt:
        """Append an LSP-issued system journal (genesis/time/purge/occult)."""
        request = ClientRequest.build(
            ledger_uri=self.config.uri,
            client_id=LSP_MEMBER_ID,
            payload=payload,
            clues=clues,
            nonce=self._fam.size.to_bytes(8, "big"),
            client_timestamp=self.clock.now(),
            journal_type=journal_type,
        ).signed_by(self._lsp_keypair)
        return self._commit(request)

    def _commit(self, request: ClientRequest) -> Receipt:
        """Commit an admitted system journal: a batch of one."""
        return self._commit_batch([request])[0]

    def commit_block(self) -> Block | None:
        """Seal all unsealed journals into a block (auto-run by append); from
        any thread, between two commits, republishing the head."""
        with self._commit_lock:
            block = self._seal_pending()
            if block is not None:
                self._flush_nodes()
                self._head = replace(self._head, blocks=len(self._blocks))
            return block

    def _seal_pending(self) -> Block | None:
        end_jsn = self._fam.size
        if end_jsn <= self._pending_start:
            return None
        self._write_clues()
        block = Block(
            height=len(self._blocks),
            previous_hash=self._blocks[-1].hash() if self._blocks else EMPTY_DIGEST,
            start_jsn=self._pending_start,
            end_jsn=end_jsn,
            journal_root=self._fam.current_root(),
            state_root=self._cmtree.root,
            timestamp=self.clock.now(),
        )
        self._blocks.append(block)
        self._pending_start = end_jsn
        return block

    def _flush_nodes(self) -> None:
        """Write-behind discipline: a commit's dirty Merkle nodes hit disk at
        block boundaries, matching the journal stream's durability horizon
        (a replay derives them from a durable stream and writes them once)."""
        if self._node_store is not None:
            self._node_store.flush()

    # ------------------------------------------- reads (each from one head)

    def __len__(self) -> int:
        """Total journals ever appended (including mutated ones)."""
        return self._head.size

    @property
    def size(self) -> int:
        return self._head.size

    @property
    def head(self) -> LedgerHead:
        """The head of the last commit (see :class:`LedgerHead`)."""
        return self._head

    @property
    def shards(self) -> list["Ledger"]:
        """The deployment's shard ledgers: a solo ledger is the list of one."""
        return [self]

    @property
    def blocks(self) -> list[Block]:
        return list(self._blocks)

    @property
    def latest_receipt(self) -> Receipt | None:
        return self._head.receipt

    def receipt_for(self, jsn: int) -> Receipt | None:
        """The receipt issued for ``jsn``, rebuilt from its row and not
        re-signed; ``None`` if this ledger issued none for it since it was
        built or reopened."""
        return self._receipts.get(jsn, self._blocks)

    @property
    def pseudo_genesis(self) -> PseudoGenesis | None:
        return self._pseudo_genesis

    @property
    def genesis_start(self) -> int:
        """First retrievable jsn (0 until a purge moves it)."""
        return self._genesis_start

    def get_journal(self, jsn: int) -> Journal:
        """The GetJournal API.

        Raises :class:`JournalPurgedError` / :class:`JournalOccultedError`
        when the payload is gone by mutation — callers can still obtain the
        retained digest via :meth:`retained_hash`.
        """
        if not 0 <= jsn < self._head.size:
            raise JournalNotFoundError(jsn)
        if jsn < self._genesis_start:
            if jsn in self._survivors:
                return Journal.from_bytes(self._survival_stream.read(self._survivors[jsn]))
            raise JournalPurgedError(jsn)
        if self._occult_bitmap.test(jsn):
            raise JournalOccultedError(jsn)
        try:
            return Journal.from_bytes(self._stream.read(jsn))
        except RecordErasedError:
            raise JournalPurgedError(jsn) from None

    def retained_hash(self, jsn: int) -> Digest:
        """The journal's tx-hash, retrievable regardless of mutation state."""
        if not 0 <= jsn < self._fam.size:
            raise JournalNotFoundError(jsn)
        try:
            return self._fam.leaf_digest(jsn)
        except KeyError:
            for _occult_jsn, record, _sig in self._occult_records:
                if record.target_jsn == jsn:
                    return record.retained_hash
            raise JournalPurgedError(jsn) from None

    def is_occulted(self, jsn: int) -> bool:
        return self._occult_bitmap.test(jsn)

    def list_tx(self, clue: str) -> list[int]:
        """The ListTx API: jsns carrying ``clue`` (cSL lookup, O(log n))."""
        return self._cluesl.get(clue)

    def iter_journals(self, start: int | None = None, stop: int | None = None):
        """Yield retrievable journals in ``[start, stop)`` (skips mutated)."""
        lo = self._genesis_start if start is None else max(start, self._genesis_start)
        hi = self.size if stop is None else min(stop, self.size)
        for jsn in range(lo, hi):
            try:
                yield self.get_journal(jsn)
            except (JournalOccultedError, JournalPurgedError):
                continue

    def journals_by_member(self, member_id: str) -> list[int]:
        """jsns of retrievable journals issued by ``member_id`` (scan)."""
        return [j.jsn for j in self.iter_journals() if j.client_id == member_id]

    def journals_in_time_range(self, low: float, high: float) -> list[int]:
        """jsns committed with server timestamps in ``[low, high)``.

        Server timestamps are non-authoritative (use Dasein *when*
        verification for credible bounds); this is the operational query —
        e.g. scoping an audit's temporal predicate.
        """
        return [j.jsn for j in self.iter_journals() if low <= j.timestamp < high]

    def clues_in_range(self, low: str, high: str) -> list[tuple[str, list[int]]]:
        """Ordered clue-range scan over the cSL index."""
        return list(self._cluesl.range(low, high))

    def block_of(self, jsn: int) -> Block | None:
        """The committed block containing ``jsn`` (None if still pending)."""
        for block in self._blocks:
            if block.contains_jsn(jsn):
                return block
        return None

    def clue_entry_count(self, clue: str) -> int:
        return self._cmtree.entry_count(clue)

    # -------------------------------------------------------------- proving

    def get_proof(self, jsn: int, anchored: bool = True) -> FamProof:
        """The GetProof API: fam existence proof for one journal, cut at the
        head (it folds to ``head.root``)."""
        with obs.span("ledger.get_proof"):
            return self._fam.get_proof(jsn, anchored=anchored, at_size=self._head.size)

    def get_proofs(self, jsns: list[int], anchored: bool = True) -> list[FamProof]:
        """Bulk GetProof: byte-identical to N single calls, but link chains to
        the live epoch are computed once per distinct epoch and shared."""
        return self.proofs_at(self._head, jsns, anchored)

    def proofs_at(self, head: LedgerHead, jsns: list[int], anchored: bool = True) -> list[FamProof]:
        """:meth:`get_proofs` cut at a head the caller already holds."""
        with obs.span("ledger.get_proofs") as sp:
            sp.add("journals", len(jsns))
            return self._fam.get_proofs(jsns, anchored=anchored, at_size=head.size)

    def tx_evidence(self, journal: Journal) -> tuple[FamProof, Digest]:
        """A full-chain proof for a presented journal and the root it folds
        to, both read from one head."""
        head = self._head
        return self.proofs_at(head, [journal.jsn], anchored=False)[0], head.root

    def current_root(self) -> Digest:
        return self._head.root

    def fam_extension(
        self,
        old_epoch: int,
        old_live_size: int,
        new_epoch: int | None = None,
        new_live_size: int | None = None,
    ) -> tuple[Digest, Digest, ConsistencyBundle]:
        """How the fam head ``(new_epoch, new_live_size)`` append-only-extends
        ``(old_epoch, old_live_size)``: ``(old_root, new_root, bundle)``, the
        claimed roots of both ends and the :class:`ConsistencyBundle` between
        them — the one read an anchor tracker follows this ledger through.

        Cut at one published head: the new end defaults to it (a sealed
        ``new_epoch`` alone means its full capacity) and may not pass it.
        Unsigned; :meth:`get_consistency` signs the same roots.

        Raises:
            UsageError: the coordinates are out of order, past the head, or
                inside an epoch purge erased.
        """
        head, fam = self._head, self._fam
        if new_epoch is None:
            new_epoch = head.epoch
        if new_live_size is None:
            new_live_size = head.live_size if new_epoch == head.epoch else fam.epoch_capacity
        if (new_epoch, new_live_size) > (head.epoch, head.live_size):
            raise UsageError(f"fam head ({new_epoch}, {new_live_size}) is not published")
        try:
            bundle = ConsistencyBundle.build(
                fam, old_epoch, old_live_size, new_epoch, new_live_size
            )
            return (
                fam.head_root(old_epoch, old_live_size),
                fam.head_root(new_epoch, new_live_size),
                bundle,
            )
        except (ValueError, IndexError, KeyError) as exc:
            raise UsageError(f"cannot connect fam heads: {exc}") from None

    def state_root(self) -> Digest:
        return self._head.state_root

    def epoch_anchors(self) -> AnchorStore:
        """Anchor store seeded with every completed epoch root (server-trusting).

        The store is cached and topped up incrementally: epochs only ever
        *close* (completed roots are immutable, and purge keeps them for the
        merged-leaf links), so the cache is extended by exactly the epochs
        that closed since the last call instead of rescanning all of them.
        The returned store is shared — treat it as read-only, or build a
        private one from :meth:`FamAccumulator.epoch_root` directly.
        """
        completed = self._fam.num_epochs - 1
        if self._anchor_cache_epochs < completed:
            obs.inc("ledger.epoch_anchors.refresh")
            for epoch in range(self._anchor_cache_epochs, completed):
                self._anchor_cache.add(epoch, self._fam.epoch_root(epoch))
            self._anchor_cache_epochs = completed
        else:
            obs.inc("ledger.epoch_anchors.hit")
        return self._anchor_cache

    def verify_journal(self, journal: Journal, proof: FamProof | None = None) -> bool:
        """Server-side *what* verification of a presented journal, against
        the head's root (or, for an anchored proof of a sealed epoch, that
        epoch's anchor)."""
        with obs.span("ledger.verify_journal"):
            head = self._head
            if proof is None:
                try:
                    proof = self._fam.get_proof(journal.jsn, anchored=False, at_size=head.size)
                except (IndexError, KeyError):
                    return False
            expected = head.root
            if not proof.link_proofs and proof.epoch_index != head.epoch:
                expected = self.epoch_anchors().get(proof.epoch_index)
            return expected is not None and FamAccumulator.verify_full(
                journal.tx_hash(), proof, expected
            )

    def prove_clue(
        self,
        clue: str,
        version_start: int = 0,
        version_end: int | None = None,
        *,
        root: Digest | None = None,
    ) -> ClueProof:
        """Build the client-side clue proof set (§IV-C, Verify API), cut at
        the CM-Tree1 ``root`` (default: the head's :meth:`state_root`).

        Raises:
            UsageError: ``root`` is outside the retention set (DESIGN §13).
        """
        if root is None:
            root = self._head.state_root
        if not self._cmtree.retains(root):
            raise _retired(root)
        try:
            return self._cmtree.prove_clue(clue, version_start, version_end, root=root)
        except KeyNotFoundError:
            # Two epoch rolls swept the root while the proof was being cut.
            raise _retired(root) from None

    @contextmanager
    def retaining(self, state_root: Digest):
        """Keep CM-Tree1 ``state_root`` provable through every epoch roll
        while the block runs: what a read cut at a head (an export) pins.

        Raises:
            UsageError: ``state_root`` is already outside the retention set.
        """
        with self._commit_lock:
            if not self._cmtree.retains(state_root):
                raise _retired(state_root)
            self._cmtree.pin(state_root)
        try:
            yield
        finally:
            with self._commit_lock:
                self._cmtree.unpin(state_root)

    def clue_evidence(self, clue: str) -> tuple[ClueProof, Digest]:
        """A clue's lineage proof and the CM-Tree1 root it folds to, both
        read from one head."""
        root = self._head.state_root
        return self.prove_clue(clue, root=root), root

    def verify_clue(self, clue: str, journals: list[Journal]) -> bool:
        """Server-side clue verification: all entries, in order, untampered."""
        digests = {i: j.tx_hash() for i, j in enumerate(journals)}
        if len(digests) != self._cmtree.entry_count(clue):
            return False
        return self._cmtree.verify_clue_server(clue, digests)

    # --------------------------------------------- transparency (DESIGN §16)

    @property
    def lsp_public_key(self):
        """The LSP's public key — the trust anchor every head verifies against."""
        return self._lsp_keypair.public

    def _make_sth(
        self, epoch: int, tree_size: int, live_size: int, root: Digest
    ) -> SignedTreeHead:
        return SignedTreeHead(
            ledger_uri=self.config.uri,
            epoch=epoch,
            tree_size=tree_size,
            live_size=live_size,
            root=root,
            timestamp=self.clock.now(),
            fractal_height=self.config.fractal_height,
            shard_index=self.sth_shard_index,
        ).signed_by(self._lsp_keypair)

    def _emit_epoch_heads(self) -> None:
        """Mint and store one head per epoch roll since the last commit.

        Each stored head pins the moment its epoch became live: one merged
        leaf (Rule 1), zero journals of its own.  ``tree_size`` at that
        instant is determined by the fractal geometry — epoch 0 holds
        ``capacity`` journals, every later epoch ``capacity - 1`` (leaf 0 is
        the merged root, not a journal).
        """
        capacity = self._fam.epoch_capacity
        while self._sth_epochs < self._fam.num_epochs:
            epoch = self._sth_epochs
            head = self._make_sth(
                epoch=epoch,
                tree_size=capacity + (epoch - 1) * (capacity - 1),
                live_size=1,
                root=self._fam.head_root(epoch, 1),
            )
            self._sth_store.append(head)
            obs.inc("transparency.sth.emitted")
            self._sth_epochs = epoch + 1

    def restamp(self, shard_index: int) -> None:
        """Stamp heads, acks and assertions ``shard_index`` from now on, and
        re-sign stored epoch heads stamped otherwise (an older build's log)."""
        self.sth_shard_index = shard_index
        self._sth_cache = None
        self._sth_store.restamp(shard_index, self._lsp_keypair)

    def get_sth(self) -> SignedTreeHead:
        """The LSP-signed tree head of the current head."""
        return self.sth_at(self._head)

    def sth_at(self, head: LedgerHead) -> SignedTreeHead:
        """The LSP-signed tree head of ``head``, signed once per head."""
        cached = self._sth_cache
        if cached is not None and cached[0] is head:
            return cached[1]
        sth = self._make_sth(head.epoch, head.size, head.live_size, head.root)
        self._sth_cache = (head, sth)
        obs.inc("transparency.sth.served")
        return sth

    def get_sth_range(self, start: int, end: int) -> list[SignedTreeHead]:
        """Stored epoch-close heads with ``start <= epoch < end``."""
        if start < 0 or end < start:
            raise UsageError(f"invalid STH epoch range [{start}, {end})")
        return self._sth_store.range(start, end)

    def get_consistency(
        self, old: SignedTreeHead, new: SignedTreeHead
    ) -> tuple[ConsistencyBundle, ConsistencyAssertion]:
        """Prove ``new`` append-only-extends ``old``, and sign the claim.

        The bundle is built from this ledger's own accumulator; the
        assertion signs this ledger's *own* roots at the requested
        coordinates (echoing the heads' claimed tree sizes).  An honest
        server's assertion therefore always agrees with its signed heads; a
        forked server asked to connect a head from the other fork signs a
        contradiction — offline-verifiable equivocation evidence.
        """
        with obs.span("ledger.get_consistency"):
            if old.is_composite or new.is_composite:
                raise UsageError(
                    "composite heads carry no epoch tree; request per-shard "
                    "consistency instead"
                )
            old_root, new_root, bundle = self.fam_extension(
                old.epoch, old.live_size, new.epoch, new.live_size
            )
            assertion = ConsistencyAssertion(
                ledger_uri=self.config.uri,
                shard_index=self.sth_shard_index,
                fractal_height=self.config.fractal_height,
                old_epoch=old.epoch,
                old_tree_size=old.tree_size,
                old_live_size=old.live_size,
                old_root=old_root,
                new_epoch=new.epoch,
                new_tree_size=new.tree_size,
                new_live_size=new.live_size,
                new_root=new_root,
                timestamp=self.clock.now(),
            ).signed_by(self._lsp_keypair)
            obs.inc("transparency.consistency.served")
            return bundle, assertion

    def issue_ack(
        self,
        request: ClientRequest,
        deadline_epochs: int | None = None,
    ) -> SubmissionAck:
        """Sign the LSP's promise to include ``request`` within the deadline
        (``None``: :data:`DEFAULT_ACK_DEADLINE_EPOCHS`)."""
        if deadline_epochs is None:
            deadline_epochs = DEFAULT_ACK_DEADLINE_EPOCHS
        if deadline_epochs < 1:
            raise UsageError("ack deadline must be at least one epoch")
        if request.ledger_uri != self.config.uri:
            raise UsageError(
                f"request addressed to {request.ledger_uri!r}, not this "
                f"ledger ({self.config.uri!r})"
            )
        obs.inc("transparency.acks.issued")
        head = self._head
        return SubmissionAck(
            ledger_uri=self.config.uri,
            request_hash=request.request_hash(),
            epoch=head.epoch,
            tree_size=head.size,
            deadline_epochs=deadline_epochs,
            timestamp=self.clock.now(),
            shard_index=self.sth_shard_index,
        ).signed_by(self._lsp_keypair)

    # -------------------------------------------------------- time anchoring

    def attach_time_ledger(self, tledger: TimeLedger) -> None:
        self._tledger = tledger

    def attach_tsa(self, tsa: TimeStampAuthority | TSAPool) -> None:
        self._tsa = tsa

    def anchor_time(self) -> int:
        """Anchor the current fam root for *when* evidence; returns the
        resulting time journal's jsn.

        T-Ledger mode submits under Protocol 4 (evidence completes at the
        next finalization — call :meth:`collect_time_evidence` after Δτ);
        direct-TSA mode runs the two-way peg synchronously (Protocol 3).
        """
        root = self._fam.current_root()
        as_of = self._fam.size
        if self._tledger is not None:
            notary_receipt = self._tledger.submit(
                self.config.uri, root, client_timestamp=self.clock.now()
            )
            payload = time_payload(root, as_of, notary_receipt)
            receipt = self._append_system(JournalType.TIME, payload)
            self._pending_tledger.append((receipt.jsn, notary_receipt.seq))
            return receipt.jsn
        if self._tsa is not None:
            token = self._tsa.stamp(root)
            payload = time_payload(root, as_of, token)
            receipt = self._append_system(JournalType.TIME, payload)
            self._time_evidence[receipt.jsn] = token
            return receipt.jsn
        raise LedgerError("no TSA or T-Ledger attached; cannot anchor time")

    def collect_time_evidence(self) -> int:
        """Fetch finalized T-Ledger evidence for pending anchors.

        Returns how many anchors were completed this call.
        """
        if self._tledger is None:
            return 0
        completed = 0
        still_pending: list[tuple[int, int]] = []
        for time_jsn, seq in self._pending_tledger:
            try:
                evidence = self._tledger.get_evidence(seq)
            except LookupError:
                still_pending.append((time_jsn, seq))
                continue
            self._time_evidence[time_jsn] = evidence
            completed += 1
        self._pending_tledger = still_pending
        return completed

    def refresh_time_evidence(self) -> int:
        """Re-fetch evidence for time journals that lack it (recovery path).

        TSA-mode tokens are reconstructed from the journal payloads
        themselves; T-Ledger-mode evidence is re-downloaded from the
        attached public T-Ledger (Prerequisite 4: anyone can).  Returns how
        many time journals gained evidence.
        """
        refreshed = 0
        for jsn in self._time_journals:
            if jsn in self._time_evidence or jsn < self._genesis_start:
                continue
            try:
                info = parse_time_journal(self.get_journal(jsn))
            except (LedgerError, EncodingError):
                continue
            if info["mode"] == "tsa":
                self._time_evidence[jsn] = info["token"]
                refreshed += 1
            elif self._tledger is not None:
                try:
                    evidence = self._tledger.get_evidence(info["seq"])
                except (LookupError, IndexError):
                    continue
                if evidence.entry.digest != info["anchored_root"]:
                    continue  # not our submission: refuse silently-wrong data
                self._time_evidence[jsn] = evidence
                refreshed += 1
        return refreshed

    @property
    def time_journals(self) -> list[int]:
        return list(self._time_journals)

    def time_evidence_for(self, time_jsn: int) -> TimeEvidence | TimeStampToken | None:
        return self._time_evidence.get(time_jsn)

    # ----------------------------------------------------------------- purge

    def prepare_purge(
        self,
        purge_point: int,
        erase_fam_nodes: bool = False,
        survivors: tuple[int, ...] = (),
        reason: str = "",
    ) -> tuple[PseudoGenesis, PurgeRecord]:
        """Stage a purge: build the pseudo genesis and the record to sign.

        The caller must then gather Prerequisite-1 multi-signatures over
        ``record.approval_digest()`` (see :meth:`purge_required_signers`) and
        call :meth:`execute_purge`.
        """
        if not self._genesis_start < purge_point <= self._fam.size:
            raise MutationError(
                f"purge point {purge_point} must lie in "
                f"({self._genesis_start}, {self._fam.size}]"
            )
        boundary_block = next(
            (b for b in self._blocks if b.end_jsn == purge_point), None
        )
        if boundary_block is None:
            raise MutationError(
                f"purge point {purge_point} must align with a committed block "
                f"boundary (commit_block() first, or pick a sealed end_jsn)"
            )
        for jsn in survivors:
            if not self._genesis_start <= jsn < purge_point:
                raise MutationError(f"survivor jsn {jsn} is not in the purged range")
        # All snapshots are *as of the purge point*, not as of now, so the
        # pseudo genesis is exactly the state the purged prefix produced.
        epoch_roots, live_size, live_peaks = self._fam.snapshot_at(purge_point)
        clue_snapshot = []
        for clue in self._cluesl.clues():
            jsns = self._cluesl.get(clue)
            size_at = bisect.bisect_left(jsns, purge_point)
            if size_at > 0:
                clue_snapshot.append(self._cmtree.clue_snapshot_at(clue, size_at))
        original_genesis = self.retained_hash(0) if self._genesis_start == 0 else (
            self._pseudo_genesis.original_genesis_hash  # type: ignore[union-attr]
        )
        related = sorted(
            member
            for member in self.purge_required_signers(purge_point)
        )
        pseudo = PseudoGenesis(
            purge_point=purge_point,
            fam_root=self._fam.root_at(purge_point),
            state_root=boundary_block.state_root,
            member_ids=tuple(self.registry.all_members()),
            related_member_ids=tuple(related),
            survivor_jsns=tuple(sorted(survivors)),
            original_genesis_hash=original_genesis,
            created_at=self.clock.now(),
            fam_epoch_roots=epoch_roots,
            fam_live_epoch=(live_size, live_peaks),
            clue_snapshot=tuple(clue_snapshot),
        )
        record = PurgeRecord(
            purge_point=purge_point,
            pseudo_genesis_hash=pseudo.hash(),
            erase_fam_nodes=erase_fam_nodes,
            reason=reason,
        )
        return pseudo, record

    def purge_required_signers(self, purge_point: int) -> dict:
        """Prerequisite 1 signer set: DBA members + every journal owner in range."""
        required: dict = {}
        for member_id in self.registry.members_with_role(Role.DBA):
            required[member_id] = self.registry.certificate(member_id)
        for jsn in range(self._genesis_start, purge_point):
            try:
                journal = self.get_journal(jsn)
            except (JournalOccultedError, JournalPurgedError):
                continue
            required[journal.client_id] = self.registry.certificate(journal.client_id)
        return required

    def execute_purge(
        self,
        pseudo: PseudoGenesis,
        record: PurgeRecord,
        approvals: MultiSignature,
    ) -> Receipt:
        """Execute a staged purge (Prerequisite 1 + Protocol 1).

        Copies survivors to the survival stream, records the purge journal
        (doubly linked with the pseudo genesis), erases purged payloads, and
        installs the pseudo genesis as the verification datum.
        """
        if record.pseudo_genesis_hash != pseudo.hash():
            raise MutationError("purge record does not match the pseudo genesis")
        if record.purge_point != pseudo.purge_point:
            raise MutationError(
                "purge record's purge point does not match the pseudo genesis"
            )
        if approvals.digest != record.approval_digest():
            raise MutationError("approval signatures cover a different purge record")
        required = self.purge_required_signers(record.purge_point)
        try:
            approvals.verify(required)
        except MultiSignatureError as exc:
            raise MutationError(f"Prerequisite 1 not met: {exc}") from exc
        # Copy milestone journals into the survival stream first: the purge
        # journal's apply step erases the prefix (payloads only; digests
        # live on) and moves genesis_start.
        for jsn in pseudo.survivor_jsns:
            journal = self.get_journal(jsn)
            self._survivors[jsn] = self._survival_stream.append(journal.to_bytes())
        with self._commit_lock:
            receipt = self._append_system(JournalType.PURGE, record.to_bytes())
            self._purge_records[-1] = (receipt.jsn, record, approvals)
            self._pseudo_genesis = pseudo
        return receipt

    # ---------------------------------------------------------------- occult

    def prepare_occult(
        self,
        target_jsn: int,
        mode: OccultMode = OccultMode.SYNC,
        reason: str = "",
    ) -> OccultRecord:
        """Stage an occult: build the record to be multi-signed."""
        if not self._genesis_start <= target_jsn < self._fam.size:
            raise MutationError(f"jsn {target_jsn} is not occultable")
        if self._occult_bitmap.test(target_jsn):
            raise MutationError(f"jsn {target_jsn} is already occulted")
        journal = self.get_journal(target_jsn)
        if journal.journal_type != JournalType.NORMAL:
            raise MutationError("only normal journals may be occulted")
        return OccultRecord(
            target_jsn=target_jsn,
            retained_hash=journal.tx_hash(),
            mode=mode,
            reason=reason,
            retained_clues=journal.clues,
        )

    def occult_required_signers(self) -> dict:
        """Prerequisite 2 signer set: DBA + regulator role holders."""
        required: dict = {}
        for role in (Role.DBA, Role.REGULATOR):
            for member_id in self.registry.members_with_role(role):
                required[member_id] = self.registry.certificate(member_id)
        if not any(c.role == Role.REGULATOR for c in required.values()):
            raise MutationError("no regulator registered; occult unavailable")
        if not any(c.role == Role.DBA for c in required.values()):
            raise MutationError("no DBA registered; occult unavailable")
        return required

    def execute_occult(self, record: OccultRecord, approvals: MultiSignature) -> Receipt:
        """Execute a staged occult (Prerequisite 2 + Protocol 2).

        The occult journal's apply step sets the bit (the journal is
        unretrievable from then on); physical erasure is immediate in SYNC
        mode or deferred to :meth:`reorganize` in ASYNC mode.
        """
        if approvals.digest != record.approval_digest():
            raise MutationError("approval signatures cover a different occult record")
        required = self.occult_required_signers()
        try:
            approvals.verify(required)
        except MultiSignatureError as exc:
            raise MutationError(f"Prerequisite 2 not met: {exc}") from exc
        current = self.get_journal(record.target_jsn)
        if current.tx_hash() != record.retained_hash:
            raise MutationError("retained hash does not match the target journal")
        with self._commit_lock:
            receipt = self._append_system(JournalType.OCCULT, record.to_bytes())
            self._occult_records[-1] = (receipt.jsn, record, approvals)
        return receipt

    def prepare_occult_by_clue(
        self,
        clue: str,
        mode: OccultMode = OccultMode.ASYNC,
        reason: str = "",
    ) -> list[OccultRecord]:
        """Stage occults for *every* retrievable journal carrying ``clue``.

        "Occult by clue is a common case" (§III-A3) — e.g. purging all of one
        subject's records under a privacy order.  Returns one record per
        journal; each must be multi-signed and executed individually (the
        regulator reviews each).  Defaults to ASYNC so the physical erasure
        batches through :meth:`reorganize`.
        """
        records = []
        for jsn in self._cluesl.get(clue):
            if self._occult_bitmap.test(jsn) or jsn < self._genesis_start:
                continue
            records.append(self.prepare_occult(jsn, mode, reason))
        return records

    def reorganize(self) -> int:
        """The idle-batch data-reorganisation utility: flush async erasures."""
        erased = 0
        for jsn in self._erase_queue:
            if not self._stream.is_erased(jsn):
                self._stream.erase(jsn)
                erased += 1
        self._erase_queue = []
        return erased

    @property
    def pending_erasures(self) -> int:
        return len(self._erase_queue)

    # ------------------------------------------------------------ audit view

    def export_view(self) -> LedgerView:
        """Export the auditor-facing view (client-side verification input),
        sealed and cut at one head, between two commits."""
        with self._commit_lock:
            self.commit_block()
            head = self._head
        entries: list[JournalEntryView] = []
        for jsn in range(self._genesis_start, head.size):
            occulted = self._occult_bitmap.test(jsn)
            data: bytes | None
            if occulted or self._stream.is_erased(jsn):
                data = None
            else:
                data = self._stream.read(jsn)
            entries.append(
                JournalEntryView(
                    jsn=jsn,
                    data=data,
                    retained_hash=self.retained_hash(jsn),
                    occulted=occulted,
                    purged=not occulted and data is None,
                )
            )
        return LedgerView(
            uri=self.config.uri,
            fractal_height=self.config.fractal_height,
            block_size=self.config.block_size,
            entries=entries,
            genesis_start=self._genesis_start,
            blocks=self._blocks[: head.blocks],
            certificates=self.registry.export(),
            ca_public_key=self.registry.ca_public_key,
            lsp_member_id=LSP_MEMBER_ID,
            latest_receipt=head.receipt,
            pseudo_genesis=self._pseudo_genesis,
            purge_approvals=list(self._purge_records),
            occult_approvals=list(self._occult_records),
            time_evidence=dict(self._time_evidence),
            head=head,
        )

    # ---------------------------------------------------------- persistence

    @property
    def node_store(self) -> KVStore | None:
        """The Merkle-node backend (None when nodes live in plain dicts)."""
        return self._node_store

    def node_store_stats(self) -> dict:
        """Backend counters for the node store (page cache hit rate etc.)."""
        if self._node_store is None:
            return {"backend": "memory"}
        stats = dict(self._node_store.stats())
        stats["backend"] = self.config.node_store
        return stats

    def checkpoint(self) -> str:
        """Write a recovery snapshot to ``data_dir/snapshot.ckpt``.

        Seals pending journals into a block (flushing the node store), then
        persists every derived structure plus the node store's page manifest,
        so :meth:`open` can restore and replay only the stream suffix.
        Snapshots of purged ledgers are refused — their survival state lives
        outside the stream and cannot be revalidated against it.
        """
        if not self.config.data_dir:
            raise UsageError("checkpoint requires LedgerConfig(data_dir=...)")
        if self._genesis_start > 0 or self._pseudo_genesis is not None:
            raise SnapshotError("checkpointing a purged ledger is not supported")
        with obs.span("ledger.checkpoint") as sp:
            self.commit_block()
            self._flush_nodes()
            # Pages are themselves durable: the snapshot records only a
            # manifest pinning which committed pages it depends on.  Without
            # a durable node backend it carries the live MPT nodes itself.
            paged = isinstance(self._node_store, PagedNodeStore)
            state = {
                "uri": self.config.uri,
                "jsn_count": self._fam.size,
                "pending_start": self._pending_start,
                "genesis_start": self._genesis_start,
                "fam": self._fam.dump_state(),
                "cmtree": self._cmtree.dump_state(),
                "cluesl": [(clue, self._cluesl.get(clue)) for clue in self._cluesl.clues()],
                "blocks": self._blocks,
                "time_journals": self._time_journals,
                "occult_bits": self._occult_bitmap.occulted_jsns(),
                "occult_records": self._occult_records,
                "erase_queue": self._erase_queue,
                "page_manifest": self._node_store.manifest() if paged else [],
                "mpt_nodes": [] if paged else self._cmtree.export_nodes(),
            }
            path = Path(self.config.data_dir) / SNAPSHOT_FILE
            write_snapshot(path, state)
            sp.add("journals", self._fam.size)
            obs.inc("ledger.checkpoints")
        return str(path)

    def close(self, checkpoint: bool = True) -> None:
        """Flush and release durable resources (checkpointing first by
        default) and the in-memory state; a second close does nothing."""
        if self._fam is _CLOSED:
            return
        if (
            checkpoint
            and self.config.data_dir
            and self._genesis_start == 0
            and self._pseudo_genesis is None
        ):
            self.checkpoint()
        self._flush_nodes()
        if self._node_store is not None:
            self._node_store.close()
        close_stream = getattr(self._stream, "close", None)
        if callable(close_stream):
            close_stream()
        # A closed ledger answers nothing, so it keeps no per-journal state:
        # a reopen in the same process reuses that memory instead of adding
        # to it.
        self._fam = self._cmtree = self._cluesl = self._blocks = self._receipts = _CLOSED
        self._node_store = None

    @classmethod
    def open(
        cls,
        data_dir: str,
        registry: MemberRegistry,
        lsp_keypair: KeyPair,
        clock: Clock | None = None,
        journal_stream: Stream | None = None,
        force_rebuild: bool = False,
    ) -> "Ledger":
        """Reopen a persistent ledger from its ``data_dir``.

        Fast path: restore the latest :meth:`checkpoint` snapshot and replay
        only the journal suffix it doesn't cover — O(delta-since-snapshot),
        not O(ledger size).  Any snapshot or page-store problem (missing,
        corrupt, diverged manifest, wrong ledger) degrades to the always-safe
        full :meth:`recover` replay; ``force_rebuild=True`` forces that path
        and discards the on-disk node pages first.
        """
        data_path = Path(data_dir)
        if is_sharded_layout(data_path):
            raise UsageError(
                f"{data_dir} holds a sharded deployment; reopen it with "
                f"ShardedLedger.open(...)"
            )
        config = load_config_file(data_path / CONFIG_FILE, data_dir=str(data_path))
        if config.observability:
            obs.enable()
        if journal_stream is None:
            journal_stream = FileStream(data_path / JOURNAL_FILE, durable=True)

        node_store: KVStore | None = None
        store_damaged = force_rebuild
        if config.node_store == "paged":
            if not force_rebuild:
                try:
                    node_store = PagedNodeStore(
                        data_path / NODES_DIR, cache_pages=config.cache_pages
                    )
                except PageCorruptionError:
                    obs.inc("ledger.open.page_corruption")
                    store_damaged = True

        if not store_damaged:
            try:
                with obs.span("ledger.open.snapshot_restore"):
                    return cls._reopen(
                        config, journal_stream, registry, lsp_keypair, clock, node_store,
                        load_snapshot(data_path / SNAPSHOT_FILE),
                    )
            except (SnapshotError, PageCorruptionError, KeyNotFoundError):
                # KeyNotFoundError: the snapshot's CM-Tree1 root names a node
                # its node set does not hold, found by the suffix replay.
                obs.inc("ledger.open.snapshot_fallback")
                if node_store is not None:
                    node_store.close()
                    node_store = None
                store_damaged = config.node_store == "paged"

        if store_damaged and config.node_store == "paged":
            # Rebuild the page store from scratch: stale content-addressed
            # nodes would be harmless, but a damaged page must not survive.
            nodes_dir = data_path / NODES_DIR
            if nodes_dir.exists():
                for leftover in nodes_dir.glob("page-*.pg"):
                    leftover.unlink()
            node_store = PagedNodeStore(nodes_dir, cache_pages=config.cache_pages)
        with obs.span("ledger.open.full_replay"):
            return cls.recover(
                config, journal_stream, registry, lsp_keypair,
                clock=clock, node_store=node_store,
            )

    def _restore(self, state: dict) -> int:
        """Install a checkpoint's derived state onto blank state; returns
        the jsn the replay resumes at.  Raises :class:`SnapshotError` when
        the snapshot does not fit this ledger and its stream."""
        jsn_count = state["jsn_count"]
        if state["uri"] != self.config.uri:
            raise SnapshotError("snapshot belongs to a different ledger")
        if not 1 <= jsn_count <= len(self._stream):
            raise SnapshotError(
                f"snapshot covers {jsn_count} journals but the stream holds "
                f"{len(self._stream)}"
            )
        fam = state["fam"]
        if (fam["fractal_height"], fam["size"]) != (self.config.fractal_height, jsn_count):
            raise SnapshotError("snapshot fam state disagrees with its config or jsn count")
        if state["genesis_start"] or state["pending_start"] > jsn_count:
            raise SnapshotError("snapshot names a jsn outside its unpurged range")
        self._check_mutations(state, jsn_count)
        store = self._node_store
        if isinstance(store, PagedNodeStore) and not store.verify_manifest(
            state["page_manifest"]
        ):
            raise SnapshotError("node pages diverged from the snapshot manifest")

        self._fam = FamAccumulator.from_state(fam)
        self._cmtree = CMTree.from_state(state["cmtree"], store)
        if store is None:
            self._cmtree.import_nodes(state["mpt_nodes"])
        for clue, jsns in state["cluesl"]:
            for jsn in jsns:
                self._cluesl.insert(clue, jsn)
        self._blocks = state["blocks"]
        self._pending_start = state["pending_start"]
        for jsn in state["occult_bits"]:
            self._occult_bitmap.set(jsn)
        self._occult_records = state["occult_records"]
        # A reorganize after the checkpoint erased what it queued.
        self._erase_queue = [jsn for jsn in state["erase_queue"] if not self._stream.is_erased(jsn)]
        self._time_journals = state["time_journals"]
        return jsn_count

    def _check_mutations(self, state: dict, jsn_count: int) -> None:
        """Hold a snapshot's mutation lists to the stream, the one source
        that can vouch for them: each occult record is the payload of the
        OCCULT journal in its slot, the occult bits are exactly the records'
        targets, the erase queue holds only ASYNC targets, and each time
        journal's slot holds a TIME journal."""

        def slot(jsn: int) -> tuple[JournalType, bytes]:
            if jsn >= jsn_count or self._stream.is_erased(jsn):
                raise SnapshotError(f"snapshot names slot {jsn}, which holds no journal")
            journal = Journal.from_bytes(self._stream.read(jsn))
            return journal.journal_type, journal.payload

        occults = state["occult_records"]
        targets = {record.target_jsn for _jsn, record, _approvals in occults}
        queueable = {
            record.target_jsn for _jsn, record, _a in occults if record.mode is OccultMode.ASYNC
        }
        if (
            any(slot(jsn) != (JournalType.OCCULT, record.to_bytes()) for jsn, record, _a in occults)
            or set(state["occult_bits"]) != targets
            or not queueable.issuperset(state["erase_queue"])
            or any(slot(jsn)[0] is not JournalType.TIME for jsn in state["time_journals"])
        ):
            raise SnapshotError("snapshot's mutation lists disagree with the stream")

    def _replay_delta(self, start: int) -> int:
        """Replay stream slots ``[start, len(stream))`` through :meth:`_apply`
        onto restored state (blank state for :meth:`recover`, ``start ==
        0``), then seal, re-arm the epoch-head watermark and issue a fresh
        receipt.

        Two passes.  An occult record always carries a higher jsn than its
        target, so a first pass over the replayed slots finds the record of
        every erased target the second pass meets.  A purged slot cannot be
        replayed (its digest lives in the pseudo-genesis, outside the
        stream), and a purge journal in a snapshot suffix is refused.
        """
        stream = self._stream
        total = len(stream)
        occulted: dict[int, OccultRecord] = {}
        for offset in range(start, total):
            if stream.is_erased(offset):
                continue
            journal = Journal.from_bytes(stream.read(offset))
            if journal.journal_type is JournalType.OCCULT:
                record = OccultRecord.from_bytes(journal.payload)
                occulted[record.target_jsn] = record
            elif journal.journal_type is JournalType.PURGE and start:
                raise RecoveryError(
                    f"slot {offset} purges the ledger; reopening from a "
                    "snapshot is only supported for unpurged ledgers"
                )
        for jsn in range(start, total):
            slot: Journal | OccultRecord | None
            if stream.is_erased(jsn):
                slot = occulted.get(jsn)
                if slot is None:
                    raise RecoveryError(
                        f"slot {jsn} was purged; replaying the stream is only "
                        "supported for unpurged ledgers"
                    )
            else:
                slot = Journal.from_bytes(stream.read(jsn))
                if slot.jsn != jsn:
                    raise RecoveryError(f"stream corrupt: slot {jsn} holds jsn {slot.jsn}")
            self._apply(jsn, slot)
        self.commit_block()
        # The replay appended straight onto the fam, bypassing the commit
        # path's head emission: re-arm the watermark at the reopened position.
        self._sth_epochs = self._fam.num_epochs
        self._reissue_receipt()
        return total - start

    # ------------------------------------------------------------- utilities

    def metrics_snapshot(self) -> dict:
        """JSON-serialisable snapshot of the observability registry.

        Covers the whole process (the registry is global, DESIGN.md §10);
        empty shells when observability is disabled.
        """
        return obs.snapshot()

    def storage_stats(self) -> dict:
        """Approximate storage accounting for the overhead comparisons."""
        return {
            "journals": self._fam.size,
            "fam_nodes": self._fam.num_nodes(),
            "cmtree_nodes": self._cmtree.num_nodes(),
            "blocks": len(self._blocks),
            "occulted": len(self._occult_bitmap),
            "purged_prefix": self._genesis_start,
        }

    def __repr__(self) -> str:
        return (
            f"<Ledger {self.config.uri} size={self._fam.size} "
            f"root={hexdigest(self._fam.current_root())[:12]}>"
        )


def compact(data_dir: str | Path) -> dict | None:
    """Compact one ledger directory's paged node store (DESIGN.md §13).

    The live set is every node reachable from the checkpointed CM-Tree1
    root; the snapshot's page manifest is rewritten to the compacted pages.
    Nodes written by post-snapshot appends may be dropped too: the delta
    replay at the next open deterministically re-creates them.  Without a
    snapshot only shadowed/tombstoned entries go.  Returns the store's
    before/after counts, or None when ``data_dir`` holds no paged store.
    """
    data_path = Path(data_dir)
    if not (data_path / NODES_DIR).is_dir():
        return None
    store = PagedNodeStore(data_path / NODES_DIR)
    snapshot_path = data_path / SNAPSHOT_FILE
    try:
        try:
            state = load_snapshot(snapshot_path)
        except SnapshotError:
            return store.compact()
        result = store.compact(MPT(store, root=state["cmtree"]["root"]).reachable())
        state["page_manifest"] = store.manifest()
        write_snapshot(snapshot_path, state)
        return result
    finally:
        store.close()
