"""Stateful property testing: random operation sequences keep the ledger auditable.

A hypothesis state machine drives arbitrary interleavings of appends (by
several members, with/without clues), time anchors, block commits, occults,
purges, checkpoints and reopens — after every step the system invariants
must hold, and at the end the full Dasein-complete audit must pass.  This
is the strongest "no sequence of legitimate operations can wedge the
ledger into an unauditable state" guarantee in the suite.

A reopen (``recover``, or ``open`` after a crash past the last checkpoint)
must give the live ledger back: the same head, roots, occult state, readable
journals and audit verdict.  Two things are left out of that comparison.
Occult and purge approvals are not on the stream, so a reopen loses them and
its audit fails ``occult-approvals``; the verdict is compared, and the final
audit required, only while no occult or purge preceded a reopen.  And a full
replay seals blocks by ``block_size`` alone, not where ``commit_block()``
sealed them, so only the blocks a restored snapshot carries are compared.
"""

import shutil
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule
from hypothesis import strategies as st

from repro.core import Ledger, LedgerConfig, OccultMode, dasein_audit
from repro.core.errors import JournalOccultedError, JournalPurgedError, MutationError
from repro.storage import FileStream

from conftest import LEDGER_URI, Deployment


def _observed(ledger):
    """What a reopen must reproduce of a ledger."""
    readable = []
    for jsn in range(ledger.size):
        try:
            readable.append(ledger.get_journal(jsn).to_bytes())
        except (JournalOccultedError, JournalPurgedError) as exc:
            readable.append(type(exc).__name__)
    head = ledger.head
    return (
        head.size,
        head.root,
        ledger.state_root(),
        [jsn for jsn in range(ledger.size) if ledger.is_occulted(jsn)],
        ledger.pending_erasures,
        ledger.time_journals,
        readable,
    )


class LedgerMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.deployment = Deployment(fractal_height=2, block_size=3)
        # The same members and LSP, on a durable data directory.
        self.data_dir = Path(tempfile.mkdtemp(prefix="stateful-"))
        self.deployment.ledger = Ledger(
            LedgerConfig(uri=LEDGER_URI, fractal_height=2, block_size=3, data_dir=str(self.data_dir)),
            clock=self.deployment.clock,
            registry=self.deployment.ledger.registry,
            lsp_keypair=self.deployment.lsp_key(),
        )
        self.deployment.ledger.attach_time_ledger(self.deployment.tledger)
        self.occultable: list[int] = []
        self.anchors_pending = False
        self.mutated = False  # an occult or purge happened
        self.approvals_lost = False  # ... and a reopen came after it
        self.snapshot_blocks = None  # the blocks the last checkpoint carries

    # ------------------------------------------------------------------ ops

    @rule(
        who=st.sampled_from(["alice", "bob"]),
        size=st.integers(min_value=0, max_value=64),
        with_clue=st.booleans(),
    )
    def append(self, who, size, with_clue):
        clues = ("STATE-CLUE",) if with_clue else ()
        receipt = self.deployment.append(who, bytes([len(self.occultable) % 256]) * size, clues)
        self.occultable.append(receipt.jsn)
        self.deployment.clock.advance(0.05)

    @rule()
    def anchor_time(self):
        self.deployment.ledger.anchor_time()
        self.anchors_pending = True
        self.deployment.clock.advance(0.05)

    @rule()
    def collect_evidence(self):
        self.deployment.clock.advance(1.2)
        self.deployment.ledger.collect_time_evidence()
        self.anchors_pending = False

    @rule()
    def commit_block(self):
        self.deployment.ledger.commit_block()

    @precondition(lambda self: self.occultable)
    @rule(
        mode=st.sampled_from([OccultMode.SYNC, OccultMode.ASYNC]),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    def occult_one(self, mode, pick):
        jsn = self.occultable.pop(pick % len(self.occultable))
        if jsn < self.deployment.ledger.genesis_start:
            return
        try:
            record = self.deployment.ledger.prepare_occult(jsn, mode, reason="fuzz")
        except MutationError:
            return
        approvals = self.deployment.sign_approval(
            ["dba", "regulator"], record.approval_digest()
        )
        self.deployment.ledger.execute_occult(record, approvals)
        self.mutated = True

    @rule()
    def reorganize(self):
        self.deployment.ledger.reorganize()

    @rule(block_pick=st.integers(min_value=0, max_value=10**6))
    def purge(self, block_pick):
        ledger = self.deployment.ledger
        boundaries = [
            b.end_jsn for b in ledger.blocks if b.end_jsn > ledger.genesis_start
        ]
        if not boundaries:
            return
        boundary = boundaries[block_pick % len(boundaries)]
        try:
            pseudo, record = ledger.prepare_purge(boundary, reason="fuzz purge")
        except MutationError:
            return
        signers = list(ledger.purge_required_signers(boundary))
        approvals = self.deployment.sign_approval(signers, record.approval_digest())
        ledger.execute_purge(pseudo, record, approvals)
        self.occultable = [j for j in self.occultable if j >= boundary]
        self.mutated = True

    @precondition(lambda self: self.deployment.ledger.genesis_start == 0)
    @rule()
    def checkpoint(self):
        ledger = self.deployment.ledger
        ledger.checkpoint()
        self.snapshot_blocks = ledger.blocks

    @precondition(lambda self: self.deployment.ledger.genesis_start == 0)
    @rule(route=st.sampled_from(["recover", "open"]))
    def reopen(self, route):
        """``recover`` the stream, or crash (no closing checkpoint) and
        ``open`` the directory: either way the live ledger comes back."""
        deployment, live = self.deployment, self.deployment.ledger
        deployment.clock.advance(1.2)  # every submitted anchor is final
        live.collect_time_evidence()
        expected = _observed(live)
        verdict = dasein_audit(live.export_view(), tsa_keys=deployment.tsa_keys).passed
        live.close(checkpoint=False)
        registry, lsp = live.registry, deployment.lsp_key()
        if route == "recover":
            stream = FileStream(self.data_dir / "journal.stream", durable=True)
            reopened = Ledger.recover(live.config, stream, registry, lsp, clock=deployment.clock)
        else:
            reopened = Ledger.open(str(self.data_dir), registry, lsp, clock=deployment.clock)
            if self.snapshot_blocks is not None:
                assert reopened.blocks[: len(self.snapshot_blocks)] == self.snapshot_blocks
        deployment.ledger = reopened
        reopened.attach_time_ledger(deployment.tledger)
        reopened.refresh_time_evidence()
        self.anchors_pending = False
        self.approvals_lost |= self.mutated
        assert _observed(reopened) == expected
        if not self.mutated:
            view = reopened.export_view()
            assert dasein_audit(view, tsa_keys=deployment.tsa_keys).passed == verdict

    # ------------------------------------------------------------ invariants

    @invariant()
    def sizes_consistent(self):
        ledger = self.deployment.ledger
        assert ledger.size == ledger._fam.size
        assert len(ledger._stream) == ledger.size

    @invariant()
    def retained_hashes_always_available(self):
        ledger = self.deployment.ledger
        for jsn in range(max(ledger.genesis_start, ledger.size - 5), ledger.size):
            assert len(ledger.retained_hash(jsn)) == 32

    @invariant()
    def latest_journal_verifies(self):
        ledger = self.deployment.ledger
        if ledger.size > ledger.genesis_start:
            jsn = ledger.size - 1
            if not ledger.is_occulted(jsn):
                journal = ledger.get_journal(jsn)
                assert ledger.verify_journal(journal)

    def teardown(self):
        try:
            # The end-state must always be fully auditable.
            self.deployment.clock.advance(1.5)
            self.deployment.ledger.collect_time_evidence()
            view = self.deployment.ledger.export_view()
            report = dasein_audit(view, tsa_keys=self.deployment.tsa_keys)
            assert report.passed or self.approvals_lost, report.failures()
        finally:
            self.deployment.ledger.close(checkpoint=False)
            shutil.rmtree(self.data_dir, ignore_errors=True)


LedgerMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)
TestLedgerStateMachine = LedgerMachine.TestCase
