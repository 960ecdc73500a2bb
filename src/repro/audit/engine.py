"""The Dasein-complete audit engine (§V, Definition 1), at any worker count.

The audit consumes an exported :class:`~repro.core.ledger.LedgerView` plus
out-of-band trust anchors (CA public key from the view, TSA public keys) and
re-derives everything else itself:

1. **certificates** — every member certificate carries a valid CA signature;
2. **Π1** — every purge journal's Prerequisite-1 multi-signature validates;
3. **Π2** — every occult journal's Prerequisite-2 multi-signature validates
   (DBA + regulator);
4. **replay (V)** — every journal's digest is recomputed (Protocol 2
   substitutes the retained hash for occulted journals; Protocol 1 starts the
   replay from the pseudo genesis after a purge) and folded through a
   :class:`~repro.merkle.fam.FamReplayer` and a CM-Tree state replay; every
   block's ``journal_root`` / ``state_root`` must match (**V'** checks the
   chain links and gapless ranges at the same boundaries);
5. **time journals** — each anchored root must equal the replayed commitment
   at its jsn, and its TSA evidence must verify; timestamps must be monotone;
6. **Π3** — the LSP's latest receipt signature, tx-hash, and ledger root all
   match the replayed state.

The final proof is the conjunction; any sub-proof failure terminates the
audit early with a failed report, as Definition 1 requires.

One code path at any worker count
---------------------------------

The replay fold itself is inherently sequential — each root depends on every
digest before it — but almost all of the audit's *time* goes into ECDSA:
one client-signature check per journal, the Π1/Π2 multi-signatures, and the
TSA evidence behind every time anchor.  The engine therefore splits roles:

* the **coordinator** runs the fold (decode, digest, fam/CM-Tree, block
  boundaries) and buffers each journal's pi_c — the
  :func:`~repro.verify.signature_check` the verification kernel defines —
  into chunks of :data:`CHUNK_SIZE`, which
  :func:`~repro.crypto.keys.verify_batch` verifies with shared inversions.
  Chunks are in flight *while* the fold advances — the two workloads overlap;
* certificates, Π1/Π2 approvals and time-journal evidence are tasks too.

Every task goes through :meth:`_AuditEngine._submit`: with ``workers >= 1``
to a pool (fork-based processes, threads where fork fails or one CPU is
schedulable), with ``workers=0`` inline behind a done future.  Each step is
one loop over those futures, whatever the worker count.

Determinism: tasks return raw verdicts, never report steps.  The
coordinator converts every failure — inline or chunked — into a
``(jsn, priority)``-keyed candidate mirroring the exact check order of the
replay loop, and the merged first failure (message, counters, and all)
is byte-identical regardless of worker count, chunk size, or scheduling.
``tests/test_audit_parallel.py`` pins this with
:meth:`AuditReport.canonical` equality on honest *and* tampered ledgers.

Resumable audits: pass ``checkpoint=`` (a path or
:class:`~repro.audit.checkpoint.CheckpointStore`) and the engine snapshots
its replay state after every :data:`CHECKPOINT_EVERY` verified blocks;
``resume=True`` restarts a killed audit from the last good jsn instead of
genesis.  See :mod:`repro.audit.checkpoint` for the trust model.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor

from .. import obs
from ..crypto.ca import Role
from ..crypto.hashing import EMPTY_DIGEST, Digest, clue_key_hash
from ..crypto.keys import PublicKey, verify_batch
from ..crypto.multisig import MultiSignatureError
from ..encoding import EncodingError
from ..merkle.cmtree import encode_clue_value
from ..merkle.fam import FamReplayer
from ..merkle.mpt import MPT
from ..merkle.shrubs import FrontierAccumulator
from ..verify import check_time_evidence, parse_time_journal, signature_check
from ..verify.checks import SignatureCheck
from .checkpoint import AuditCheckpoint, CheckpointStore
from .report import AuditReport, AuditStep

__all__ = ["dasein_audit", "AuditReport", "AuditStep", "CHUNK_SIZE"]

#: Journals (certificates, time anchors) per dispatched chunk.  Large enough
#: that the batched inversion and IPC amortise, small enough that 4 workers
#: stay saturated on modest ledgers.
CHUNK_SIZE = 64

#: Blocks between checkpoint snapshots (when a checkpoint store is given).
CHECKPOINT_EVERY = 4

# Per-journal check priorities, mirroring the order of the replay loop.  The
# merged first failure is min((jsn, priority)), which is exactly the check a
# journal-by-journal audit would have tripped on first.
_P_DECODE = 0
_P_JSN = 1
_P_DIGEST = 2  # also the occult-branch checks (exclusive alternatives)
_P_SIGNATURE = 3
_P_TIME = 4
_P_CHAIN = 5
_P_JOURNAL_ROOT = 6
_P_STATE_ROOT = 7


def _schedulable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _make_pool(workers: int):
    """Build the worker pool: fork processes when possible, else threads.

    Process pools beat the GIL for the pure-Python ECDSA hot loop; the fork
    start method also inherits the parent's warmed window tables for free.
    Environments without working fork fall back to a thread pool — slower,
    but semantically identical — and so does a process with one schedulable
    CPU: forked workers would time-slice the same core while paying pickling
    and pipe traffic on every chunk.
    """
    if _schedulable_cpus() > 1:
        try:
            import multiprocessing

            context = multiprocessing.get_context("fork")
            pool = ProcessPoolExecutor(max_workers=workers, mp_context=context)
            # Probe: the constructor succeeds even where forking is blocked;
            # only a round-trip proves the workers are real.
            pool.submit(int, 0).result(timeout=15)
            return pool, "process"
        except Exception:
            pass
    return ThreadPoolExecutor(max_workers=workers), "thread"


# Pool tasks: module-level, so they pickle by reference into a process pool.
# Each returns data (verdicts, error strings), never report steps.


def _verify_certificates(certificates: list, ca_public_key: PublicKey) -> list[bool]:
    return [certificate.verify(ca_public_key) for certificate in certificates]


def _multisig_error(approvals, signer_certs: dict) -> str | None:
    """One Π1/Π2 multi-signature check: its exact error string, or None."""
    try:
        approvals.verify(signer_certs)
    except MultiSignatureError as exc:
        return str(exc)
    return None


def _check_time_evidence(entries: list, tsa_keys: dict) -> list[tuple[float, bool]]:
    return [check_time_evidence(info, evidence, tsa_keys) for info, evidence in entries]


def _put_frontiers(state: MPT, frontiers: dict[str, FrontierAccumulator]) -> None:
    """Commit each clue's CM-Tree2 (size, frontier) to CM-Tree1 as one write."""
    state.put_many(
        (clue_key_hash(clue), encode_clue_value(frontier.size, frontier.peaks()))
        for clue, frontier in frontiers.items()
    )


def _state_of(frontiers: dict[str, FrontierAccumulator]) -> MPT:
    """A fresh CM-Tree1 holding ``frontiers`` (a snapshot's clue state)."""
    state = MPT()
    _put_frontiers(state, frontiers)
    return state


class _AuditEngine:
    def __init__(
        self,
        view,
        tsa_keys: dict[str, PublicKey],
        temporal_range: tuple[float, float] | None,
        workers: int,
        checkpoint_store: CheckpointStore | None,
        resume: bool,
    ) -> None:
        self.view = view
        self.tsa_keys = tsa_keys
        self.temporal_range = temporal_range
        self.workers = max(0, workers)
        self.checkpoint_store = checkpoint_store
        self.resume = resume
        self.report = AuditReport(passed=True)
        self._pool = None
        self._receipt_root: Digest | None = None
        self._time_entries: list[tuple[int, dict]] = []
        self._resumed: AuditCheckpoint | None = None
        self._resumed_time_entries: list[tuple[int, dict]] = []

    # --------------------------------------------------------------- plumbing

    def _step(self, name: str, passed: bool, detail: str = "") -> bool:
        self.report.steps.append(AuditStep(name=name, passed=passed, detail=detail))
        if not passed:
            self.report.passed = False
        return passed

    def _ensure_pool(self):
        if self._pool is None:
            from ..crypto.ecdsa import warm_tables

            # Warm the shared window tables before forking so every child
            # inherits them instead of rebuilding per process.
            warm_tables(
                certificate.public_key.point
                for certificate in self.view.certificates.values()
            )
            self._pool, kind = _make_pool(self.workers)
            obs.set_gauge("audit.workers", self.workers)
            obs.inc(f"audit.pool.{kind}")
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            # wait=True: an abandoned feeder thread racing interpreter exit
            # spews EBADF tracebacks; every future is already resolved here.
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def _submit(self, fn, *args) -> Future:
        if not self.workers:
            # No workers: the same task runs inline, behind a done future.
            future: Future = Future()
            future.set_result(fn(*args))
            return future
        return self._ensure_pool().submit(fn, *args)

    def _submit_chunks(self, fn, items: list, *args) -> list:
        """``fn(chunk, *args)`` over :data:`CHUNK_SIZE` chunks of ``items``;
        the per-item results, in order."""
        futures = [
            self._submit(fn, items[i : i + CHUNK_SIZE], *args)
            for i in range(0, len(items), CHUNK_SIZE)
        ]
        return [result for future in futures for result in future.result()]

    # -------------------------------------------------------------- sub-proofs

    def check_certificates(self) -> bool:
        with obs.span("audit.certificates") as sp:
            certificates = self.view.certificates
            sp.add("members", len(certificates))
            verdicts = self._submit_chunks(
                _verify_certificates, list(certificates.values()), self.view.ca_public_key
            )
            for (member_id, certificate), valid in zip(certificates.items(), verdicts):
                if not valid:
                    return self._step(
                        "certificates", False, f"CA signature invalid for {member_id!r}"
                    )
                if certificate.member_id != member_id:
                    return self._step(
                        "certificates", False, f"certificate id mismatch for {member_id!r}"
                    )
            return self._step(
                "certificates", True, f"{len(certificates)} members"
            )

    # Π1/Π2 share a per-record pipeline: structural checks inline, the
    # multi-signature itself a task, post-checks inline — evaluated in
    # record order, so the first failure is the first record's.

    def _signers(self, jsn, record, approvals, noun, roles, missing_roles):
        """Returns (failure detail | None, signer_certs)."""
        if approvals.digest != record.approval_digest():
            return f"{noun}@{jsn}: signatures cover wrong record", None
        signer_certs = {}
        for member_id in approvals.signer_ids():
            certificate = self.view.certificates.get(member_id)
            if certificate is None:
                return f"{noun}@{jsn}: unknown signer {member_id!r}", None
            signer_certs[member_id] = certificate
        if not roles <= {certificate.role for certificate in signer_certs.values()}:
            return f"{noun}@{jsn}: {missing_roles}", None
        return None, signer_certs

    def _purge_post(self, jsn, record, approvals) -> str | None:
        # Prerequisite 1 coverage: every *related* member (owner of a purged
        # journal, as recorded in the pseudo genesis) must have signed, in
        # addition to the DBA checked structurally.
        pseudo = self.view.pseudo_genesis
        if pseudo is not None and record.pseudo_genesis_hash == pseudo.hash():
            missing = sorted(
                member_id
                for member_id in pseudo.related_member_ids
                if member_id not in approvals.signer_ids()
            )
            if missing:
                return f"purge@{jsn}: related members did not sign: {missing}"
        return None

    def _check_approvals(self, step_name, records, noun, roles, missing_roles, post) -> bool:
        with obs.span(f"audit.{step_name}"):
            outcomes: list[tuple[str | None, Future | None]] = []
            for jsn, record, approvals in records:
                detail, signer_certs = self._signers(
                    jsn, record, approvals, noun, roles, missing_roles
                )
                future = (
                    self._submit(_multisig_error, approvals, signer_certs)
                    if detail is None
                    else None
                )
                outcomes.append((detail, future))
            for (jsn, record, approvals), (detail, future) in zip(records, outcomes):
                if detail is not None:
                    return self._step(step_name, False, detail)
                error = future.result()
                if error is not None:
                    return self._step(step_name, False, f"{noun}@{jsn}: {error}")
                if post is not None:
                    detail = post(jsn, record, approvals)
                    if detail is not None:
                        return self._step(step_name, False, detail)
            return self._step(step_name, True, f"{len(records)} {noun} journal(s)")

    def check_purge_approvals(self) -> bool:
        """Π1: purge journals carry valid multi-signatures incl. a DBA."""
        return self._check_approvals(
            "purge-approvals",
            self.view.purge_approvals,
            "purge",
            {Role.DBA},
            "no DBA among signers",
            self._purge_post,
        )

    def check_occult_approvals(self) -> bool:
        """Π2: occult journals carry valid DBA + regulator multi-signatures."""
        return self._check_approvals(
            "occult-approvals",
            self.view.occult_approvals,
            "occult",
            {Role.DBA, Role.REGULATOR},
            "requires DBA and regulator signatures",
            None,
        )

    # ------------------------------------------------------------------ replay

    def replay(self) -> bool:
        """V and V': full journal replay with block-root and chain checks.

        The fold runs here in the coordinator while pi_c chunks verify as
        tasks; failures from both sides merge on (jsn, check-priority), so
        the first failure does not depend on where a chunk ran.
        """
        with obs.span("audit.replay") as sp:
            return self._replay(sp)

    def _replay_genesis_state(self):
        """Initial (fam, state, clue_frontiers) — fresh, pseudo, or resumed."""
        view = self.view
        resumed = self._resumed
        if resumed is not None:
            fam = FamReplayer.from_snapshot(
                view.fractal_height,
                tuple(resumed.fam_epoch_roots),
                resumed.fam_live_size,
                tuple(resumed.fam_live_peaks),
                journal_count=resumed.fam_journal_count,
            )
            clue_frontiers = {
                clue: FrontierAccumulator(size, list(peaks))
                for clue, (size, peaks) in resumed.clue_snapshot.items()
            }
            return fam, _state_of(clue_frontiers), clue_frontiers, None

        pseudo = view.pseudo_genesis
        if pseudo is not None and view.genesis_start > 0:
            if view.genesis_start != pseudo.purge_point:
                return None, None, None, "view genesis does not match pseudo genesis purge point"
            fam = FamReplayer.from_snapshot(
                view.fractal_height,
                pseudo.fam_epoch_roots,
                pseudo.fam_live_epoch[0],
                list(pseudo.fam_live_epoch[1]),
                journal_count=pseudo.purge_point,
            )
            if fam.current_root() != pseudo.fam_root:
                return None, None, None, "pseudo genesis fam snapshot does not bag to its root"
            clue_frontiers = {
                clue: FrontierAccumulator(size, list(peaks))
                for clue, size, peaks in pseudo.clue_snapshot
            }
            state = _state_of(clue_frontiers)
            if state.root != pseudo.state_root:
                return None, None, None, "pseudo genesis clue snapshot does not rebuild its state root"
            return fam, state, clue_frontiers, None
        return FamReplayer(view.fractal_height), MPT(), {}, None

    def _replay(self, sp) -> bool:
        from ..core.journal import Journal, JournalType

        view = self.view
        resumed = self._resumed

        fam, state, clue_frontiers, init_error = self._replay_genesis_state()
        if init_error is not None:
            return self._step("replay", False, init_error)

        occult_by_target = {
            record.target_jsn: record for _jsn, record, _sig in view.occult_approvals
        }
        blocks = [b for b in view.blocks if b.end_jsn > view.genesis_start]

        if resumed is not None:
            start_jsn = resumed.next_jsn
            block_index = resumed.block_index
            previous_block_hash = resumed.previous_block_hash
            base_journals = resumed.journals_replayed
            base_blocks = resumed.blocks_verified
            receipt_root = resumed.receipt_root
            time_entries = list(self._resumed_time_entries)
        else:
            start_jsn = view.genesis_start
            block_index = 0
            previous_block_hash = blocks[0].previous_hash if blocks else EMPTY_DIGEST
            base_journals = 0
            base_blocks = 0
            receipt_root = None
            time_entries = []

        lsp_cert = view.certificates.get(view.lsp_member_id)
        if lsp_cert is None:
            return self._step("replay", False, "LSP certificate missing from view")

        receipt = view.latest_receipt
        receipt_jsn = receipt.jsn if receipt is not None else None
        base_block_index = block_index

        #: Clues appended to since the last CM-Tree1 write: the fold writes
        #: their frontiers as one put just before a block's state-root check.
        dirty: dict[str, FrontierAccumulator] = {}
        #: (jsn, priority, detail) from fold-side checks; at most one.
        inline_failure: tuple[int, int, str] | None = None
        #: (jsn, priority, detail) from signature chunks, any order.
        sig_failures: list[tuple[int, int, str]] = []
        #: boundary jsns whose block checks passed, for exact counter replay.
        block_boundaries: list[int] = []
        #: buffered pi_c checks + their jsns for the in-flight chunk.
        chunk_items: list[SignatureCheck] = []
        chunk_jsns: list[int] = []
        pending: list[tuple[Future, list[int], float]] = []
        signatures_checked = 0

        def harvest(future: Future, jsns: list[int], submitted: float) -> None:
            nonlocal signatures_checked
            verdicts = future.result()
            obs.observe("audit.chunk.wall_us", (time.perf_counter() - submitted) * 1e6)
            signatures_checked += len(jsns)
            for jsn, ok in zip(jsns, verdicts):
                if not ok:
                    sig_failures.append(
                        (jsn, _P_SIGNATURE, f"jsn {jsn}: invalid issuer signature")
                    )

        def poll_chunks(wait: bool) -> None:
            remaining = []
            for future, jsns, submitted in pending:
                if wait or future.done():
                    harvest(future, jsns, submitted)
                else:
                    remaining.append((future, jsns, submitted))
            pending[:] = remaining

        def flush_chunk() -> None:
            if not chunk_items:
                return
            obs.observe("audit.chunk.size", len(chunk_items))
            obs.inc("audit.chunks.dispatched")
            pending.append(
                (
                    self._submit(verify_batch, list(chunk_items)),
                    list(chunk_jsns),
                    time.perf_counter(),
                )
            )
            chunk_items.clear()
            chunk_jsns.clear()
            poll_chunks(wait=False)

        start_offset = start_jsn - view.genesis_start
        jsn = start_jsn - 1  # value if the slice below is empty
        for entry in view.entries[start_offset:]:
            jsn = entry.jsn
            if entry.data is not None:
                try:
                    journal = Journal.from_bytes(entry.data)
                except Exception as exc:
                    inline_failure = (jsn, _P_DECODE, f"jsn {jsn}: undecodable: {exc}")
                    break
                if journal.jsn != jsn:
                    inline_failure = (
                        jsn, _P_JSN, f"jsn {jsn}: journal claims {journal.jsn}"
                    )
                    break
                digest = journal.tx_hash()
                if digest != entry.retained_hash:
                    inline_failure = (
                        jsn, _P_DIGEST, f"jsn {jsn}: digest mismatch with retained hash"
                    )
                    break
                certificate = view.certificates.get(journal.client_id)
                if certificate is None:
                    inline_failure = (
                        jsn, _P_SIGNATURE, f"jsn {jsn}: unknown member {journal.client_id!r}"
                    )
                    break
                check = signature_check(journal, certificate)
                if check is None:
                    inline_failure = (jsn, _P_SIGNATURE, f"jsn {jsn}: invalid issuer signature")
                    break
                chunk_items.append(check)
                chunk_jsns.append(jsn)
                if len(chunk_items) >= CHUNK_SIZE:
                    flush_chunk()
                    if sig_failures:
                        break
                if journal.journal_type is JournalType.TIME:
                    try:
                        info = parse_time_journal(journal)
                    except EncodingError as exc:
                        inline_failure = (
                            jsn, _P_TIME, f"time journal {jsn}: malformed payload: {exc}"
                        )
                        break
                    # The anchor was taken immediately before this journal
                    # was appended, so it must equal the running commitment.
                    if info["as_of_jsn"] != jsn:
                        inline_failure = (
                            jsn, _P_TIME, f"time journal {jsn}: as_of_jsn mismatch"
                        )
                        break
                    if info["anchored_root"] != fam.current_root():
                        inline_failure = (
                            jsn,
                            _P_TIME,
                            f"time journal {jsn}: anchored root does not match replay",
                        )
                        break
                    time_entries.append((jsn, info))
                clues = journal.clues
            else:
                # Mutated journal: Protocol 1/2 — use the retained digest.
                digest = entry.retained_hash
                clues = ()
                if entry.occulted:
                    record = occult_by_target.get(jsn)
                    if record is None:
                        inline_failure = (
                            jsn, _P_DIGEST, f"jsn {jsn}: occulted without an occult record"
                        )
                        break
                    if record.retained_hash != digest:
                        inline_failure = (
                            jsn, _P_DIGEST, f"jsn {jsn}: retained hash disagrees with record"
                        )
                        break
                    # The occult record retains the clue labels so lineage
                    # state replay stays complete after the payload is gone.
                    clues = record.retained_clues

            fam.append(digest)
            if jsn == receipt_jsn:
                receipt_root = fam.current_root()
            for clue in clues:
                frontier = clue_frontiers.get(clue)
                if frontier is None:
                    frontier = FrontierAccumulator()
                    clue_frontiers[clue] = frontier
                frontier.append_leaf(digest)
                dirty[clue] = frontier

            # Block boundary checks (V at boundaries, V' across them).
            if block_index < len(blocks) and jsn + 1 == blocks[block_index].end_jsn:
                block = blocks[block_index]
                if block.previous_hash != previous_block_hash:
                    inline_failure = (
                        jsn, _P_CHAIN, f"block {block.height}: broken chain link"
                    )
                    break
                if block.journal_root != fam.current_root():
                    inline_failure = (
                        jsn, _P_JOURNAL_ROOT, f"block {block.height}: journal root mismatch"
                    )
                    break
                if dirty:
                    _put_frontiers(state, dirty)
                    dirty.clear()
                if block.state_root != state.root:
                    inline_failure = (
                        jsn, _P_STATE_ROOT, f"block {block.height}: state root mismatch"
                    )
                    break
                previous_block_hash = block.hash()
                block_index += 1
                block_boundaries.append(jsn)

                if (
                    self.checkpoint_store is not None
                    and (block_index - base_block_index) % CHECKPOINT_EVERY == 0
                ):
                    # Drain in-flight chunks first: a checkpoint asserts that
                    # everything below next_jsn is verified, signatures
                    # included.
                    flush_chunk()
                    poll_chunks(wait=True)
                    if sig_failures:
                        break
                    self._save_checkpoint(
                        fam,
                        clue_frontiers,
                        next_jsn=jsn + 1,
                        previous_block_hash=previous_block_hash,
                        block_index=block_index,
                        journals_replayed=base_journals + (jsn + 1 - start_jsn),
                        blocks_verified=base_blocks + len(block_boundaries),
                        time_entries=time_entries,
                        receipt_jsn=receipt_jsn,
                        receipt_root=receipt_root,
                    )

        # Fold done (or aborted) — drain every outstanding signature chunk.
        flush_chunk()
        poll_chunks(wait=True)
        sp.add("journals", max(0, jsn + 1 - start_jsn))

        candidates = list(sig_failures)
        if inline_failure is not None:
            candidates.append(inline_failure)
        if candidates:
            first_jsn, _priority, detail = min(candidates, key=lambda c: (c[0], c[1]))
            # Counters exactly as a journal-by-journal audit would leave them
            # at this failure: completed entries below the failing jsn, and
            # block boundaries that passed strictly before it.
            self.report.journals_replayed = base_journals + (first_jsn - start_jsn)
            self.report.blocks_verified = base_blocks + sum(
                1 for boundary in block_boundaries if boundary < first_jsn
            )
            return self._step("replay", False, detail)

        self.report.journals_replayed = base_journals + (jsn + 1 - start_jsn)
        self.report.blocks_verified = base_blocks + len(block_boundaries)
        if block_index != len(blocks):
            return self._step(
                "replay", False, f"{len(blocks) - block_index} block(s) had no matching journals"
            )
        obs.inc("audit.journals.replayed", self.report.journals_replayed)
        obs.inc("audit.signatures.verified", signatures_checked)
        self._receipt_root = receipt_root
        self._time_entries = time_entries
        if self.checkpoint_store is not None:
            # Final snapshot: a re-run (e.g. after a failure in a later
            # phase) resumes past the whole fold.
            self._save_checkpoint(
                fam,
                clue_frontiers,
                next_jsn=jsn + 1,
                previous_block_hash=previous_block_hash,
                block_index=block_index,
                journals_replayed=self.report.journals_replayed,
                blocks_verified=self.report.blocks_verified,
                time_entries=time_entries,
                receipt_jsn=receipt_jsn,
                receipt_root=receipt_root,
            )
        return self._step(
            "replay",
            True,
            f"{self.report.journals_replayed} journals, {self.report.blocks_verified} blocks",
        )

    # ------------------------------------------------------------------- when

    def check_time_journals(self) -> bool:
        """TSA evidence for every (in-range) time journal, plus monotonicity."""
        with obs.span("audit.time_journals") as sp:
            entries = self._time_entries
            sp.add("anchors", len(entries))
            results = self._submit_chunks(
                _check_time_evidence,
                [(info, self.view.time_evidence.get(jsn)) for jsn, info in entries],
                self.tsa_keys,
            )
            previous_timestamp = float("-inf")
            verified = 0
            for (jsn, _info), (timestamp, valid) in zip(entries, results):
                if self.temporal_range is not None:
                    low, high = self.temporal_range
                    if not low <= timestamp <= high:
                        continue  # outside the audit's temporal predicate
                if not valid:
                    return self._step(
                        "time-journals", False, f"time journal {jsn}: evidence failed"
                    )
                if timestamp < previous_timestamp:
                    return self._step(
                        "time-journals", False, f"time journal {jsn}: timestamp regression"
                    )
                previous_timestamp = timestamp
                verified += 1
            self.report.time_journals_verified = verified
            return self._step("time-journals", True, f"{verified} anchors verified")

    # -------------------------------------------------------------------- Π3

    def check_receipt(self) -> bool:
        with obs.span("audit.receipt"):
            receipt = self.view.latest_receipt
            if receipt is None:
                return self._step("receipt", False, "no receipt supplied")
            lsp_cert = self.view.certificates.get(self.view.lsp_member_id)
            if lsp_cert is None or not receipt.verify(lsp_cert.public_key):
                return self._step("receipt", False, "LSP signature invalid")
            if receipt.jsn >= self.view.genesis_start:
                entry = self.view.entry(receipt.jsn)
                if entry.retained_hash != receipt.tx_hash:
                    return self._step("receipt", False, "receipt tx-hash mismatch")
                # The fold's root at the receipt's jsn, or the checkpointed
                # one when a resumed replay never re-folded past it.
                expected_root = self._receipt_root
                if expected_root is not None and receipt.ledger_root != expected_root:
                    return self._step("receipt", False, "receipt ledger root mismatch")
            return self._step("receipt", True, f"receipt for jsn {receipt.jsn}")

    # ------------------------------------------------------------- checkpoints

    def _save_checkpoint(
        self,
        fam: FamReplayer,
        clue_frontiers: dict[str, FrontierAccumulator],
        *,
        next_jsn: int,
        previous_block_hash: Digest,
        block_index: int,
        journals_replayed: int,
        blocks_verified: int,
        time_entries: list[tuple[int, dict]],
        receipt_jsn: int | None,
        receipt_root: Digest | None,
    ) -> None:
        with obs.span("audit.checkpoint.save"):
            checkpoint = AuditCheckpoint(
                uri=self.view.uri,
                fractal_height=self.view.fractal_height,
                genesis_start=self.view.genesis_start,
                next_jsn=next_jsn,
                fam_epoch_roots=list(fam._epoch_roots),
                fam_live_size=fam._live.size,
                fam_live_peaks=list(fam._live.peaks()),
                fam_journal_count=fam.size,
                clue_snapshot={
                    clue: (frontier.size, list(frontier.peaks()))
                    for clue, frontier in clue_frontiers.items()
                },
                previous_block_hash=previous_block_hash,
                block_index=block_index,
                journals_replayed=journals_replayed,
                blocks_verified=blocks_verified,
                time_jsns=[jsn for jsn, _info in time_entries],
                receipt_jsn=receipt_jsn,
                receipt_root=receipt_root,
                pre_steps=[
                    (step.name, step.passed, step.detail)
                    for step in self.report.steps
                    if step.name != "replay"
                ],
            )
            self.checkpoint_store.save(checkpoint)
            obs.inc("audit.checkpoints.saved")

    def _try_resume(self) -> None:
        """Adopt the stored checkpoint when it provably fits this view."""
        if self.checkpoint_store is None or not self.resume:
            return
        checkpoint = self.checkpoint_store.load()
        if checkpoint is None or not checkpoint.matches_view(self.view):
            return
        receipt = self.view.latest_receipt
        if receipt is not None and receipt.jsn < checkpoint.next_jsn:
            # The fold will never pass the receipt's jsn again, so the
            # replayed root must come from the checkpoint — only safe when
            # the checkpoint tracked this very receipt.
            if checkpoint.receipt_jsn != receipt.jsn:
                return
        from ..core.journal import Journal, JournalType

        # Re-derive the collected time entries from the view itself; a view
        # that no longer decodes them does not fit this checkpoint.
        time_entries: list[tuple[int, dict]] = []
        for jsn in checkpoint.time_jsns:
            entry = self.view.entry(jsn)
            if entry.data is None:
                return
            try:
                journal = Journal.from_bytes(entry.data)
                if journal.journal_type is not JournalType.TIME:
                    return
                time_entries.append((jsn, parse_time_journal(journal)))
            except EncodingError:
                return
        self._resumed = checkpoint
        self._resumed_time_entries = time_entries
        obs.inc("audit.resumes")

    # -------------------------------------------------------------------- run

    def run(self) -> AuditReport:
        with obs.span("audit.run"):
            try:
                self._try_resume()
                if self._resumed is not None:
                    # Pre-replay steps were already adjudicated before the
                    # checkpoint was written; replay them verbatim.
                    for name, passed, detail in self._resumed.pre_steps:
                        if not self._step(name, passed, detail):
                            return self.report
                    steps = (
                        self.replay,
                        self.check_time_journals,
                        self.check_receipt,
                    )
                else:
                    steps = (
                        self.check_certificates,
                        self.check_purge_approvals,
                        self.check_occult_approvals,
                        self.replay,
                        self.check_time_journals,
                        self.check_receipt,
                    )
                for step in steps:
                    if not step():
                        break
                return self.report
            finally:
                self._shutdown_pool()


def dasein_audit(
    view,
    tsa_keys: dict[str, PublicKey] | None = None,
    temporal_range: tuple[float, float] | None = None,
    *,
    workers: int = 0,
    checkpoint: CheckpointStore | str | os.PathLike | None = None,
    resume: bool = False,
) -> AuditReport:
    """Run the full §V Dasein-complete audit over an exported view.

    ``temporal_range`` optionally limits which time anchors are validated
    (the §V closing example: "audit all transactions committed before
    2018-12-31"); replay integrity is always checked end to end because root
    continuity requires it.  The audit stops at the first failed sub-proof,
    as Definition 1 requires.

    ``workers`` runs the signature work (client pi_c per journal, Π1/Π2
    multi-signatures, TSA evidence) as :data:`CHUNK_SIZE` chunks on a pool
    of ``workers`` processes (threads where fork fails or one CPU is
    schedulable), overlapped with the replay fold; ``workers=0`` runs the
    same chunks inline.  The report is byte-identical for any worker count.

    ``checkpoint`` (a path or :class:`CheckpointStore`) makes the audit
    resumable: replay state is snapshotted every :data:`CHECKPOINT_EVERY`
    verified blocks, and ``resume=True`` continues a killed audit from the
    last good jsn instead of genesis.
    """
    if checkpoint is not None and not isinstance(checkpoint, CheckpointStore):
        checkpoint = CheckpointStore(checkpoint)
    return _AuditEngine(view, tsa_keys or {}, temporal_range, workers, checkpoint, resume).run()
