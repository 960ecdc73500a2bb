"""One verification kernel, many fetchers: the differential suite.

One honest deployment and six tamperings are fed through every entry point:
the same :class:`~repro.session.Session` over each of its three ports (a solo
ledger in process, a one-shard ``ShardedLedger`` holding the same journals in
process, and the solo ledger over a real socket), ``DaseinVerifier``, the
standalone ``verify_bundle``, and the audit and rebuild where a tampering
reaches them.  Wherever two entry points check the same thing they must
return the same ``(ok, what, when, who, jsn, trusted_root)``: they are
evidence fetchers around :mod:`repro.verify`, not implementations of their
own.  Each tampering names the ``(factor, check, jsn)`` finding it must be
caught by, and every entry point that returns it FALSE carries that finding:
FALSE for another reason fails.  Plus the two properties the kernel owns: an
honest server never verifies falsy beside appends, and importing the kernel
loads neither the ledger, the service layer nor the network stack.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api import LedgerSession
from repro.artifacts import VerifyResult
from repro.audit import dasein_audit
from repro.core import DaseinVerifier, Ledger, LedgerConfig
from repro.core.errors import UsageError, VerificationFailure
from repro.crypto import KeyPair, Role
from repro.export.bundle import export_bundle
from repro.export.rebuild import rebuild_from_bundle
from repro.export.verifier import verify_bundle
from repro.net import RemoteLedgerSession, ServerThread
from repro.shard import ShardedLedger, new_deployment
from repro.timeauth import SimClock, TimeStampAuthority
from repro.crypto.ecdsa import Signature
from repro.verify import AnchorTracker, signed_by, signed_by_many

SRC = str(Path(__file__).resolve().parent.parent / "src")
USER = "kernel-user"
CLUE = "KRN-0"
WRONG_ROOT = b"\x5a" * 32


def fields(result):
    """What entry points that share semantics must agree on."""
    return (
        result.ok,
        result.what,
        result.when,
        result.who,
        result.jsn,
        result.trusted_root,
    )


def reasons(result):
    """A result's findings as ``(factor, check, jsn)``."""
    return {(f.factor, f.check, f.jsn) for f in result.findings}


def assert_explained(result, expected, name):
    """``result`` says why: its findings name exactly its FALSE factors
    (``verify()``) and include every ``expected`` one; a passing result has
    none."""
    assert result.verify(), (name, result.findings)
    assert set(expected) <= reasons(result), (name, result.findings)
    assert bool(result.findings) is bool(expected), (name, result.findings)


def flipped(journal):
    payload = bytes([journal.payload[0] ^ 0x01]) + journal.payload[1:]
    return dataclasses.replace(journal, payload=payload)


def seeded(build):
    """23 journals at fractal height 4 on a fresh ``build(config, clock=...)``
    deployment: epoch 0 is sealed (jsn 0-15), the rest is the live epoch, the
    final journal is a time anchor bounding everything before it."""
    clock = SimClock()
    ledger = build(
        LedgerConfig(uri="ledger://kernel-test", fractal_height=4, block_size=4),
        clock=clock,
    )
    tsa = TimeStampAuthority("kernel-tsa", clock)
    ledger.attach_tsa(tsa)
    user = KeyPair.generate(seed="kernel:user")
    ledger.registry.register(USER, Role.USER, user.public)
    session = LedgerSession(ledger, client_id=USER, keypair=user)
    receipts = []
    for index in range(18):
        receipts.append(
            session.append(b"kernel record %04d" % index, clues=(f"KRN-{index % 3}",))
        )
        clock.advance(0.25)
        if index % 6 == 5:
            ledger.anchor_time()
    ledger.anchor_time()
    ledger.commit_block()
    return ledger, session, receipts, tsa


@pytest.fixture(scope="module")
def world():
    """An honest TSA-anchored ledger behind a real server and its twin, the
    same journals on a one-shard :class:`ShardedLedger`: one session per
    port (``w.sessions``), a fresh-session factory per port (``w.fresh``),
    and a bundle exported."""
    ledger, local_session, receipts, tsa = seeded(Ledger)
    assert ledger.head.epoch == 1
    facade, facade_session, _receipts, _tsa = seeded(ShardedLedger)
    assert (facade.composite_root(), facade.state_root()) == (
        ledger.current_root(), ledger.state_root()
    )

    sealed = ledger.get_journal(receipts[2].jsn)  # epoch 0
    live = ledger.get_journal(receipts[-1].jsn)  # live epoch
    other = ledger.get_journal(receipts[-2].jsn)
    served = ServerThread(ledger)
    host, port = served.address
    lsp_key = ledger.registry.public_key("__lsp__")

    def remote_session():
        return RemoteLedgerSession(host, port, expected_lsp_key=lsp_key)

    w = SimpleNamespace(
        ledger=ledger,
        tsa_keys={"kernel-tsa": tsa.public_key},
        # Same authority id, different key: every token the ledger holds is,
        # to this verifier, a forgery.
        forged_tsa_keys={"kernel-tsa": KeyPair.generate(seed="kernel:impostor").public},
        root=ledger.current_root(),
        state_root=ledger.state_root(),
        receipts={receipt.jsn: receipt for receipt in receipts},
        sealed=sealed,
        live=live,
        other=other,
        lineage=local_session.list_tx(CLUE),
        local_session=local_session,
        sessions={"solo": local_session, "1-shard": facade_session, "tcp": remote_session()},
        # A sharded deployment has no one fam to anchor: the anchor-store
        # fold runs over the solo ledger's two ports.
        fresh={"solo": lambda: LedgerSession(ledger), "tcp": remote_session},
        facade=facade,
        bundle=export_bundle(ledger, clues=(CLUE,)),
    )
    yield w
    w.sessions["tcp"].close()
    served.close()


def tx_verdicts(w, journal, *, anchored=None, full=None, root=None, tracked_root=None):
    """``journal`` through every TX-existence entry point: the same session
    over each port, at client and server level, plus a fresh session per
    port folding against its own anchor store.

    ``anchored`` / ``full`` stand in for the proof each would fetch (a
    tampered ``rho``); ``root`` pins the trusted fam commitment where the
    entry point takes one; ``tracked_root`` overwrites the live root a
    session's own tracker trusts.  Returns the structured results that share
    ``fields``, those that share only verdict and findings, and bare bools.
    """
    results = {}
    tracked = {}
    bools = {}
    if tracked_root is None:
        for name, session in w.sessions.items():
            # Without a pinned root the TCP port trusts the anchor store, so
            # its stand-in proof is the anchored one (DESIGN.md §18).
            rho = anchored if session.port.anchored and root is None else full
            results[f"{name}, client level"] = session.verify(
                "tx", txdata=[journal], rho=rho, root=root, level="client"
            )
        if root is None:
            results["tcp, pinned root"] = w.sessions["tcp"].verify(
                "tx", txdata=[journal], rho=full, root=w.root, level="client"
            )
            for name in ("solo", "1-shard"):
                results[f"{name}, server level"] = w.sessions[name].verify(
                    "tx", txdata=[journal], rho=full
                )
            if anchored is None and full is None:
                bools["tcp, server level"] = bool(w.sessions["tcp"].verify("tx", txdata=[journal]))
    if root is None:
        for name, fresh in w.fresh.items():
            session = fresh()
            try:
                session.sync_anchors()
                if tracked_root is not None:
                    session.state.live_root = tracked_root
                tracked[f"{name}, anchor store"] = session.verify_journal(journal, anchored)
            finally:
                session.close()
    return results, tracked, bools


def assert_tx(w, journal, expected_ok, **tampering):
    """``journal`` through every TX entry point; a FALSE verdict is a failed
    fold at its jsn."""
    results, tracked, bools = tx_verdicts(w, journal, **tampering)
    root = tampering.get("root") or w.root
    expected = [] if expected_ok else [("what", "fold", journal.jsn)]
    for name, result in results.items():
        assert fields(result) == (expected_ok, expected_ok, None, None, journal.jsn, root), name
        assert_explained(result, expected, name)
    for name, result in tracked.items():
        assert (result.ok, result.jsn) == (expected_ok, journal.jsn), name
        assert_explained(result, expected, name)
    for name, verdict in bools.items():
        assert verdict is expected_ok, name


def dasein_verdicts(w, jsn, *, view=None, proof=None, receipt=None, tsa_keys=None, root=None):
    """Journal ``jsn`` through every three-factor entry point: its fields and
    its findings (``DaseinVerifier``'s report lifted as the sessions lift it)."""
    tsa_keys = tsa_keys if tsa_keys is not None else w.tsa_keys
    honest_receipt = w.receipts[jsn]
    direct = DaseinVerifier(
        view if view is not None else w.ledger.export_view(),
        tsa_keys=tsa_keys,
        trusted_root=root,
    )
    report = direct.verify_dasein(
        jsn,
        proof if proof is not None else w.ledger.get_proof(jsn, anchored=False),
        receipt if receipt is not None else honest_receipt,
    )
    verdicts = {
        "DaseinVerifier": (
            (
                report.dasein_complete,
                report.what,
                report.when_valid,
                report.who,
                report.jsn,
                direct.trusted_root,
            ),
            VerifyResult.from_dasein(report, trusted_root=direct.trusted_root),
        )
    }
    if view is None and proof is None:
        for name in ("solo", "1-shard"):
            result = w.sessions[name].verify_dasein(
                jsn, receipt, tsa_keys=tsa_keys, trusted_root=root
            )
            verdicts[name] = (fields(result), result)
        # The TCP port has no export view: a typed refusal, never a verdict.
        with pytest.raises(UsageError, match="export view"):
            w.sessions["tcp"].verify_dasein(jsn, receipt, tsa_keys=tsa_keys, trusted_root=root)
    return verdicts


#: The finding a FALSE factor of one journal's Dasein check is caught by.
DASEIN_CHECKS = {"what": "fold", "when": "time-evidence", "who": "signature"}


def assert_dasein(w, jsn, what, when, who, **tampering):
    root = tampering.get("root") or w.root
    expected = (what and when and who, what, when, who, jsn, root)
    explained = [
        (factor, DASEIN_CHECKS[factor], jsn)
        for factor, verdict in (("what", what), ("when", when), ("who", who))
        if not verdict
    ]
    for name, (verdict, result) in dasein_verdicts(w, jsn, **tampering).items():
        assert verdict == expected, name
        assert_explained(result, explained, name)


def bundle_factors(w, bundle, *expected, **anchors):
    """``(what, when, who)`` of ``bundle``, whose findings must include each
    ``expected`` ``(factor, check, jsn)``."""
    anchors.setdefault("tsa_keys", w.tsa_keys)
    result = verify_bundle(bundle, **anchors)
    assert_explained(result, expected, "verify_bundle")
    return result.what, result.when, result.who


def assert_audit_fails(view, tsa_keys, expected):
    """The audit over ``view`` stops at exactly the ``expected`` finding."""
    report = dasein_audit(view, tsa_keys=tsa_keys)
    assert not report.passed
    assert [(f.factor, f.check, f.jsn) for f in report.findings] == [expected]


def with_section(bundle, **changes):
    return dataclasses.replace(
        bundle, shards=(dataclasses.replace(bundle.shards[0], **changes),)
    )


# ------------------------------------------------------------------ honest


def test_honest_evidence_passes_every_entry_point(world):
    w = world
    for journal in (w.sealed, w.live):
        assert_tx(w, journal, True)
        assert_dasein(w, journal.jsn, True, True, True)
    assert bundle_factors(w, w.bundle) == (True, True, True)
    assert verify_bundle(w.bundle, tsa_keys=w.tsa_keys).trusted_root == w.root
    clue_results = clue_verdicts(w, w.lineage)
    for name, result in clue_results.items():
        assert fields(result) == (True, True, None, None, None, w.state_root), name
        assert_explained(result, [], name)
    with pytest.raises(UsageError, match="no one fam"):
        LedgerSession(w.facade).sync_anchors()
    for name, session in w.sessions.items():
        assert fields(session.verify_clue(CLUE)) == (
            True, True, None, None, None, w.state_root,
        ), name


def clue_verdicts(w, journals, *, rho=None, root=None):
    """The lineage of ``CLUE`` through the same session over every port, at
    both levels."""
    kwargs = {"key": CLUE, "txdata": journals, "rho": rho}
    verdicts = {}
    for name, session in w.sessions.items():
        # Over TCP a pre-fetched rho has no trusted root unless one is pinned.
        pinned = w.state_root if name == "tcp" and root is None and rho is not None else root
        verdicts[f"{name}, client level"] = session.verify(
            "clue", root=pinned, level="client", **kwargs
        )
        if root is None and rho is None:
            verdicts[f"{name}, server level"] = session.verify("clue", **kwargs)
    return verdicts


# -------------------------------------------------------------- tamperings


def test_flipped_payload_byte_fails_what_everywhere(world):
    w = world
    for journal in (w.sealed, w.live):
        assert_tx(w, flipped(journal), False)
        # The same flip inside an exported view and inside a bundle: the
        # journal no longer hashes to its leaf; its time bracket is untouched,
        # and so is its signature (over the request hash it still carries) —
        # but the journal's own receipt, which the per-journal check is
        # handed and a bundle does not carry, no longer covers it.
        view = w.ledger.export_view()
        index = journal.jsn - view.genesis_start
        entries = list(view.entries)
        entries[index] = dataclasses.replace(
            entries[index], data=flipped(journal).to_bytes()
        )
        tampered_view = dataclasses.replace(view, entries=entries)
        assert_dasein(w, journal.jsn, False, True, False, view=tampered_view)
        assert_audit_fails(tampered_view, w.tsa_keys, ("what", "slice", journal.jsn))
        section = w.bundle.shards[0]
        tampered = tuple(
            dataclasses.replace(entry, data=flipped(journal).to_bytes())
            if entry.jsn == journal.jsn
            else entry
            for entry in section.entries
        )
        assert bundle_factors(
            w, with_section(w.bundle, entries=tampered), ("what", "slice", journal.jsn)
        ) == (False, True, True)


def test_proof_for_another_jsn_fails_what_everywhere(world):
    w = world
    elsewhere = w.other.jsn
    assert_tx(
        w,
        w.live,
        False,
        anchored=w.ledger.get_proof(elsewhere, anchored=True),
        full=w.ledger.get_proof(elsewhere, anchored=False),
    )
    assert_dasein(
        w, w.live.jsn, False, True, True,
        proof=w.ledger.get_proof(elsewhere, anchored=False),
    )
    section = w.bundle.shards[0]
    blobs = dict(section.proofs)
    swapped = tuple(
        (jsn, blobs[elsewhere] if jsn == w.live.jsn else blob)
        for jsn, blob in section.proofs
    )
    assert bundle_factors(
        w, with_section(w.bundle, proofs=swapped), ("what", "proof", w.live.jsn)
    ) == (False, True, True)


def test_receipt_for_another_jsn_fails_who_everywhere(world):
    w = world
    genuine_elsewhere = w.receipts[w.other.jsn]
    assert_dasein(w, w.live.jsn, True, True, False, receipt=genuine_elsewhere)
    # Relabelling a receipt to this jsn breaks the LSP's signature over it.
    relabelled = dataclasses.replace(genuine_elsewhere, jsn=w.live.jsn)
    assert_dasein(w, w.live.jsn, True, True, False, receipt=relabelled)
    view = dataclasses.replace(w.ledger.export_view(), latest_receipt=relabelled)
    assert_audit_fails(view, w.tsa_keys, ("who", "receipt", w.live.jsn))
    # A bundle carries one receipt, the latest: relabelled, it convicts nobody
    # (the root is pinned so that losing the receipt costs only *who*).
    section = w.bundle.shards[0]
    latest = w.ledger.latest_receipt
    forged = dataclasses.replace(latest, jsn=w.other.jsn).to_bytes()
    assert bundle_factors(
        w,
        with_section(w.bundle, latest_receipt=forged),
        ("who", "receipt", w.other.jsn),
        pinned_roots={0: w.root},
    ) == (True, True, False)
    assert section.latest_receipt == latest.to_bytes()
    _rebuilt, report = rebuild_from_bundle(with_section(w.bundle, latest_receipt=forged))
    assert not report.ok and report.verify()
    assert [(f.factor, f.check, f.jsn) for f in report.divergences] == [
        ("who", "receipt", w.other.jsn)
    ]


def test_forged_tsa_token_fails_when_everywhere(world):
    w = world
    for journal in (w.sealed, w.live):
        assert_dasein(w, journal.jsn, True, False, True, tsa_keys=w.forged_tsa_keys)
    first_anchor = ("when", "time-evidence", w.ledger.time_journals[0])
    assert_audit_fails(w.ledger.export_view(), w.forged_tsa_keys, first_anchor)
    # One finding per forged anchor, at the anchor's own jsn; the last one
    # follows another anchor directly, so it ceils no journal.
    anchors = [("when", "time-evidence", jsn) for jsn in w.ledger.time_journals[:-1]]
    assert bundle_factors(w, w.bundle, *anchors, tsa_keys=w.forged_tsa_keys) == (
        True, False, True,
    )


def test_omitted_clue_version_fails_what_everywhere(world):
    w = world
    assert len(w.lineage) > 2
    for name, result in clue_verdicts(w, w.lineage[:-1]).items():
        assert fields(result) == (False, False, None, None, None, w.state_root), name
        assert_explained(result, [("what", "clue", None)], name)
    # A proof that speaks for another clue proves nothing about this one,
    # even over that clue's own complete lineage.
    elsewhere = w.local_session.list_tx("KRN-1")
    for name, result in clue_verdicts(
        w, elsewhere, rho=w.ledger.prove_clue("KRN-1")
    ).items():
        assert fields(result) == (False, False, None, None, None, w.state_root), name
        assert_explained(result, [("what", "clue", None)], name)
    section = w.bundle.shards[0]
    clue_section = section.clue_proofs[0]
    shortened = dataclasses.replace(clue_section, jsns=clue_section.jsns[:-1])
    assert bundle_factors(
        w, with_section(w.bundle, clue_proofs=(shortened,)), ("what", "clue", None)
    ) == (False, True, True)


def test_wrong_trusted_root_fails_what_everywhere(world):
    w = world
    assert_tx(w, w.live, False, root=WRONG_ROOT)
    assert_tx(w, w.live, False, tracked_root=WRONG_ROOT)
    assert_dasein(w, w.live.jsn, False, True, True, root=WRONG_ROOT)
    for name, result in clue_verdicts(w, w.lineage, root=WRONG_ROOT).items():
        assert fields(result) == (False, False, None, None, None, WRONG_ROOT), name
        assert_explained(result, [("what", "clue", None)], name)
        assert result.findings[0].expected == WRONG_ROOT, name
    assert bundle_factors(
        w, w.bundle, ("what", "replay", None), pinned_roots={0: WRONG_ROOT}
    ) == (False, True, True)


# ------------------------------------------------- the tracker, in production


class _CountingSource:
    """A tracker source that forwards to a ledger and counts round trips."""

    def __init__(self, ledger):
        self._ledger = ledger
        self.calls = []

    def fam_extension(self, *coordinates):
        self.calls.append(coordinates)
        return self._ledger.fam_extension(*coordinates)


def test_proof_ahead_of_the_tracked_head_catches_up_verified(world):
    """sync, then an append, then the proof: the proof is cut from a newer
    live head than the tracker's.  One extension connects the two — and
    moves the tracker — instead of a false failure."""
    ledger = Ledger(LedgerConfig(uri="ledger://catch-up", fractal_height=3, block_size=4))
    user = KeyPair.generate(seed="kernel:catch-up")
    ledger.registry.register(USER, Role.USER, user.public)
    session = LedgerSession(ledger, client_id=USER, keypair=user)
    first = session.append(b"before the sync")
    source = _CountingSource(ledger)
    tracker = AnchorTracker(source)
    tracker.sync()
    for index in range(12):  # seals epoch 0 and epoch 1 along the way
        session.append(b"after the sync %d" % index)
        newest = ledger.get_journal(ledger.size - 1)
        proof = ledger.get_proof(newest.jsn, anchored=True)
        calls = len(source.calls)
        assert tracker.fold_anchored(newest.tx_hash(), proof)
        assert len(source.calls) == calls + 1  # one extension: a catch-up or a roll
        assert not tracker.fold_anchored(flipped(newest).tx_hash(), proof)
        assert tracker.state.live_root == ledger.current_root()
    assert tracker.state.anchored_epochs == ledger.head.epoch
    # A proof cut *before* the tracked head connects backwards just as well.
    old = ledger.get_journal(first.jsn)
    assert tracker.fold_anchored(old.tx_hash(), ledger.get_proof(first.jsn, anchored=True))


def test_honest_server_never_verifies_falsy_beside_appends():
    """A writer appends through the server while a remote session verifies
    honest journals at client level: at least 200 verifications, zero
    falsy, zero VerificationFailure — and a flipped payload byte still fails
    every time.  The verifier keeps going past 200 rounds until the writer
    has committed 20 journals beside it (or a 30 s deadline passes), since
    200 rounds alone can finish before the writer gets there."""
    ledger = Ledger(LedgerConfig(uri="ledger://beside", fractal_height=4, block_size=4))
    user = KeyPair.generate(seed="kernel:beside")
    ledger.registry.register(USER, Role.USER, user.public)
    with ServerThread(ledger) as served:
        host, port = served.address
        writer = RemoteLedgerSession(host, port, client_id=USER, keypair=user)
        session = RemoteLedgerSession(host, port)
        acked = [writer.append(b"seed %d" % index).jsn for index in range(8)]
        stop = threading.Event()
        errors = []

        def write():
            index = 0
            try:
                while not stop.is_set():
                    acked.append(writer.append(b"beside %d" % index).jsn)
                    index += 1
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=write)
        thread.start()
        falsy = failures = false_passes = round_ = 0
        deadline = time.monotonic() + 30
        try:
            while round_ < 200 or (len(acked) <= 8 + 20 and time.monotonic() < deadline):
                # Mostly the freshest acknowledged journal (the live epoch,
                # where the race is), sometimes an old one (sealed epochs).
                jsn = acked[-1] if round_ % 4 else acked[round_ % len(acked)]
                journal = session.client.get_journal(jsn)
                try:
                    falsy += not session.verify("tx", txdata=[journal], level="client")
                    false_passes += bool(
                        session.verify("tx", txdata=[flipped(journal)], level="client")
                    )
                except VerificationFailure:
                    failures += 1
                round_ += 1
        finally:
            stop.set()
            thread.join(30)
            session.close()
            writer.close()
        assert not thread.is_alive() and not errors, errors
        assert len(acked) > 8 + 20, "the writer must actually have run beside the verifier"
        assert (falsy, failures, false_passes) == (0, 0, 0)


@pytest.mark.parametrize("shards", [1, 2])
def test_in_process_client_verifies_take_proof_and_root_from_one_head(shards):
    """A writer commits batches of 4 beside in-process CLIENT-level verifies
    of a fixed journal and a fixed lineage, defaulting the trusted root: the
    proof and that root come from one head (one per shard), so no honest
    verdict is falsy — and a flipped payload byte still fails every time."""
    ledger = new_deployment(
        LedgerConfig(uri="ledger://one-head", fractal_height=4, block_size=4, shards=shards)
    )
    keys = {name: KeyPair.generate(seed=f"one-head:{name}") for name in (USER, "writer")}
    for name, keypair in keys.items():
        ledger.registry.register(name, Role.USER, keypair.public)
    session = LedgerSession(ledger, client_id=USER, keypair=keys[USER])
    session.append_batch([(b"fixed %d" % index, "FIXED") for index in range(5)])
    lineage = session.list_tx("FIXED")
    writer = LedgerSession(ledger, client_id="writer", keypair=keys["writer"])
    stop = threading.Event()
    errors = []

    def write():
        index = 0
        try:
            while not stop.is_set():
                writer.append_batch([(b"moving %d" % (index + k), f"MOVING-{k}") for k in range(4)])
                index += 4
        except BaseException as exc:
            errors.append(exc)

    thread = threading.Thread(target=write)
    size = ledger.size
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # make a switch between two reads likely
    thread.start()
    falsy = false_passes = rounds = 0
    try:
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            rounds += 1
            for journal in (lineage[0], lineage[-1]):
                falsy += not session.verify("tx", txdata=[journal], level="client")
            falsy += not session.verify("clue", key="FIXED", txdata=lineage, level="client")
            falsy += not session.verify_clue("FIXED")
            false_passes += bool(
                session.verify("tx", txdata=[flipped(lineage[-1])], level="client")
            )
    finally:
        stop.set()
        thread.join(30)
        sys.setswitchinterval(interval)
    assert not thread.is_alive() and not errors, errors
    assert ledger.size > size + 40, "the writer must actually have run beside the verifier"
    assert rounds > 50 and (falsy, false_passes) == (0, 0)
    ledger.close()


# ------------------------------------------------------------ import isolation


# ------------------------------------------------- who, one by one and batched


@pytest.fixture(scope="module")
def signed_pairs():
    """24 committed journals from two interleaved members, each beside the
    certificate its pi_c must check against."""
    ledger = Ledger(LedgerConfig(uri="ledger://who-test", fractal_height=4, block_size=4))
    keys = {name: KeyPair.generate(seed=f"who:{name}") for name in ("ann", "ben")}
    sessions = {}
    for name, keypair in keys.items():
        ledger.registry.register(name, Role.USER, keypair.public)
        sessions[name] = LedgerSession(ledger, client_id=name, keypair=keypair)
    jsns = [
        sessions["ann" if index % 3 else "ben"].append(b"who record %04d" % index).jsn
        for index in range(24)
    ]
    journals = [ledger.get_journal(jsn) for jsn in jsns]
    return [(journal, ledger.registry.certificate(journal.client_id)) for journal in journals]


def _one_by_one(pairs):
    return [signed_by(journal, certificate) for journal, certificate in pairs]


def test_batched_who_passes_honest_journals_from_interleaved_keys(signed_pairs):
    assert {journal.client_id for journal, _cert in signed_pairs} == {"ann", "ben"}
    assert signed_by_many(signed_pairs) == _one_by_one(signed_pairs) == [True] * 24
    assert signed_by_many([]) == []
    assert signed_by_many(signed_pairs[:1]) == [True]


@pytest.mark.parametrize("position", [0, 11, 23])
def test_batched_who_pins_a_forgery_to_its_own_index(signed_pairs, position):
    pairs = list(signed_pairs)
    journal, certificate = pairs[position]
    # A genuine signature by the same key, over the neighbouring request.
    neighbour = next(
        other
        for other, _cert in pairs
        if other.client_id == journal.client_id and other.jsn != journal.jsn
    )
    pairs[position] = (
        dataclasses.replace(journal, client_signature=neighbour.client_signature),
        certificate,
    )
    expected = [index != position for index in range(len(pairs))]
    assert signed_by_many(pairs) == _one_by_one(pairs) == expected


def test_batched_who_equals_single_who_on_odd_evidence(signed_pairs):
    pairs = list(signed_pairs)
    honest = pairs[5][0].client_signature
    stranger = KeyPair.generate(seed="who:stranger")
    pairs[2] = (pairs[2][0], None)  # no certificate on file
    pairs[5] = (  # valid, but without the recovery hint the aggregate needs
        dataclasses.replace(pairs[5][0], client_signature=Signature(honest.r, honest.s)),
        pairs[5][1],
    )
    pairs[9] = (dataclasses.replace(pairs[9][0], client_signature=None), pairs[9][1])
    pairs[14] = (
        dataclasses.replace(pairs[14][0], client_signature=Signature(0, 0)),
        pairs[14][1],
    )
    pairs[20] = (  # signed by a key the certificate does not name
        dataclasses.replace(
            pairs[20][0], client_signature=stranger.sign(pairs[20][0].request_hash)
        ),
        pairs[20][1],
    )
    expected = [index not in (2, 9, 14, 20) for index in range(len(pairs))]
    assert signed_by_many(pairs) == _one_by_one(pairs) == expected


_ISOLATION = """\
import json, sys
sys.path.insert(0, {src!r})
import repro.verify
banned = sorted(
    name for name in sys.modules
    if name in ("repro.core.ledger", "repro.service", "repro.net", "repro.api")
    or name.startswith(("repro.service.", "repro.net."))
)
print(json.dumps(banned))
"""


def test_importing_the_kernel_loads_no_ledger_service_or_network():
    proc = subprocess.run(
        [sys.executable, "-c", _ISOLATION.format(src=SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
