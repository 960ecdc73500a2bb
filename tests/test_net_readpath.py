"""The remote read path: what a round trip may cost and what it must answer.

* Round-trip counts are exact: a client-level TX verify is one
  ``get_journal`` (its reply carries the anchored proof) and nothing else on
  a quiescent ledger, one ``fam_extension`` more once the ledger has moved
  (inside its epoch or across a roll), one ``get_proof`` for a journal
  that lost its carried proof — counted at the server's ``net.op.*``
  counters, so a second round trip cannot creep back unnoticed.
* Dropping the pre-verify sync changed no verdict: honest, tampered-payload,
  forged-proof and root-rewound servers get the same ``VerifyResult`` fields
  as a session that syncs before every verify (the parent's behaviour).
* ``prove_clue`` and ``get_root`` answer from one snapshot beside a
  saturating appender; so do server-side ``verify_journal`` and exports,
  which must also leave the ledger auditable.
* A synchronous call that times out leaves nothing behind.
"""

from __future__ import annotations

import contextlib
import dataclasses
import sys
import threading
import time

import pytest

from repro import obs
from repro.api import LedgerSession
from repro.audit import dasein_audit
from repro.core import Ledger, LedgerConfig
from repro.core.errors import VerificationFailure
from repro.crypto import KeyPair, Role
from repro.export.bundle import ExportBundle, export_bundle
from repro.export.verifier import verify_bundle
from repro.crypto.hashing import leaf_hash
from repro.encoding import encode
from repro.merkle.consistency import ConsistencyBundle
from repro.merkle.fam import FamProof
from repro.merkle.shrubs import ShrubsAccumulator
from repro.net import (
    LedgerServer,
    RemoteLedgerClient,
    RemoteLedgerError,
    RemoteLedgerSession,
    ServerThread,
    encode_frame,
)
from repro.net.protocol import decode_message
from repro.timeauth import SimClock
from repro.verify import clue_what

from paper.witness import ForkingServer

USER = "readpath-user"
EPOCH = 16  # fractal_height=4


def make_ledger(uri: str = "ledger://readpath") -> tuple[Ledger, KeyPair]:
    ledger = Ledger(LedgerConfig(uri=uri, fractal_height=4, block_size=4), clock=SimClock())
    user = KeyPair.generate(seed="readpath:user")
    ledger.registry.register(USER, Role.USER, user.public)
    return ledger, user


def connect(served: ServerThread, user: KeyPair, **kwargs) -> RemoteLedgerSession:
    """A session signing as ``user``, over a new TCP port."""
    return RemoteLedgerSession(*served.address, client_id=USER, keypair=user, **kwargs)


def flipped(journal):
    payload = bytes([journal.payload[0] ^ 0x01]) + journal.payload[1:]
    return dataclasses.replace(journal, payload=payload)


@pytest.fixture
def counted():
    """Server-side ``net.op.*`` counters, read as deltas."""
    registry = obs.enable()

    def ops_since(mark: dict[str, int] | None = None) -> dict[str, int]:
        counters = registry.snapshot()["counters"]
        now = {
            name[len("net.op.") :]: int(value)
            for name, value in counters.items()
            if name.startswith("net.op.")
        }
        if mark is None:
            return now
        return {op: now[op] - mark.get(op, 0) for op in now if now[op] != mark.get(op, 0)}

    try:
        yield ops_since
    finally:
        obs.disable()


# ------------------------------------------------------------ round trips


def test_tx_verify_costs_exactly_its_round_trips(counted):
    ledger, user = make_ledger()
    with ServerThread(ledger) as served:
        host, port = served.address
        writer = connect(served, user)
        session = RemoteLedgerSession(host, port)
        try:
            jsns = [writer.append(b"rt %d" % index).jsn for index in range(5)]

            def verify(jsn: int, fetched=lambda journal: journal) -> dict[str, int]:
                journal = fetched(session.client.get_journal(jsn))
                mark = counted()
                mark["get_journal"] -= 1  # the fetch is part of the request
                assert session.verify("tx", txdata=[journal], level="client").ok
                return counted(mark)

            # First contact: the tracker has no head yet, so the fold syncs
            # from the genesis head (one fam_extension).
            assert verify(jsns[0]) == {"get_journal": 1, "fam_extension": 1}
            # Quiescent: one round trip, every time, for every journal — the
            # get_journal reply carries the anchored proof.
            for jsn in jsns:
                assert verify(jsn) == {"get_journal": 1}
            # A journal rebuilt by dataclasses.replace carries no proof: it
            # costs exactly one get_proof more.
            assert verify(jsns[1], dataclasses.replace) == {"get_journal": 1, "get_proof": 1}
            # k appends inside the epoch: the proof is cut from a newer head,
            # connected by exactly one extension — then quiescent again.
            fresh = [writer.append(b"moved %d" % index).jsn for index in range(3)]
            assert verify(fresh[-1]) == {"get_journal": 1, "fam_extension": 1}
            assert verify(jsns[0]) == {"get_journal": 1}
            # Across an epoch roll: one sync(), one extension that seals the
            # epoch this client had verified and links into the new one...
            while ledger.size <= EPOCH + 2:
                fresh.append(writer.append(b"roll %d" % ledger.size).jsn)
            assert verify(fresh[-1]) == {"get_journal": 1, "fam_extension": 1}
            # ...and no extension per verify afterwards, old epoch or new.
            assert verify(fresh[-1]) == {"get_journal": 1}
            assert verify(jsns[0]) == {"get_journal": 1}
        finally:
            session.close()
            writer.close()


# ----------------------------------------------------------- differential


class PreSyncSession(RemoteLedgerSession):
    """The older read path: a sync before every fold."""

    def _tx_what(self, journal, rho, root, level):
        if root is None and level.value == "client":
            self.client.sync_anchors()
        return super()._tx_what(journal, rho, root, level)


def verdict(session, journal, **kwargs):
    """(ok, per-factor what, trusted_root, detail), or the typed refusal."""
    try:
        result = session.verify("tx", txdata=[journal], level="client", **kwargs)
    except VerificationFailure:
        return "VerificationFailure"
    return (result.ok, result.what, result.when, result.who, result.trusted_root, result.detail)


def test_verdicts_equal_the_presync_read_path_field_for_field():
    """Quiescent ledger, so ``trusted_root`` is comparable too: beside
    appends the sync-free path may report an older head (the one the
    proof was connected to) where the pre-sync path reports the newest."""
    ledger, user = make_ledger()
    with ServerThread(ledger) as served:
        writer = connect(served, user)
        jsns = [writer.append(b"diff %d" % index).jsn for index in range(EPOCH + 5)]
        writer.close()
        session = RemoteLedgerSession(*served.address)
        presync = PreSyncSession(*served.address)
        try:
            for jsn in (jsns[0], jsns[EPOCH - 2], jsns[-1]):
                journal = session.client.get_journal(jsn)
                honest = verdict(session, journal)
                assert honest == verdict(presync, journal)
                assert honest[0] is True and honest[4] == ledger.current_root()
                # Tampered payload: falsy on both, same fields.
                tampered = verdict(session, flipped(journal))
                assert tampered == verdict(presync, flipped(journal))
                assert tampered[0] is False
                # Forged proof (an honest proof of *another* journal): falsy.
                other = jsns[1] if jsn != jsns[1] else jsns[2]
                forged = session.client.get_proof(other, anchored=True)
                lie = verdict(session, journal, rho=forged)
                assert lie == verdict(presync, journal, rho=forged)
                assert lie[0] is False
                # A proof whose path was bent: falsy, never an exception.
                bent = _bend(session.client.get_proof(jsn, anchored=True))
                assert verdict(session, journal, rho=bent)[0] is False
                assert verdict(presync, journal, rho=bent)[0] is False
        finally:
            session.close()
            presync.close()


def _bend(proof: FamProof) -> FamProof:
    """The honest proof with one bit flipped in the first digest it carries."""

    def flip(digest: bytes) -> bytes:
        return bytes([digest[0] ^ 0x01]) + digest[1:]

    inner = proof.epoch_proof
    if inner.path:
        step = dataclasses.replace(inner.path[0], digest=flip(inner.path[0].digest))
        inner = dataclasses.replace(inner, path=[step, *inner.path[1:]])
    else:
        inner = dataclasses.replace(
            inner, peaks_left=[flip(inner.peaks_left[0]), *inner.peaks_left[1:]]
        )
    return dataclasses.replace(proof, epoch_proof=inner)


@contextlib.contextmanager
def reading_from(client: RemoteLedgerClient, other: RemoteLedgerClient):
    """``client`` — tracker, anchors and all — with its connection ending at
    ``other``'s server for the duration."""
    client._remote, other._remote = other._remote, client._remote
    try:
        yield
    finally:
        client._remote, other._remote = other._remote, client._remote


def test_root_rewound_server_never_passes(tmp_path):
    """A client that verified fork A's head is then shown fork B (same LSP,
    same coordinates, another history — what a restored backup or a split
    view produces).  With or without the pre-sync, the journal only B's
    history holds is falsy or a VerificationFailure, never PASS."""
    with ForkingServer(tmp_path, fractal_height=4) as fork:
        fork.seed(6)
        fork.diverge(b"alice pays bob 10", b"alice pays mallory 10")
        fork.seed(2)
        fork.start()
        jsn = fork.ledger_a.size - 3  # the divergent journal
        for session_cls in (RemoteLedgerSession, PreSyncSession):
            session = session_cls(*fork.address_a)
            rewound = session_cls(*fork.address_b)
            try:
                journal_a = session.client.get_journal(jsn)
                assert verdict(session, journal_a)[0] is True
                with reading_from(session.client, rewound.client):
                    journal_b = session.client.get_journal(jsn)
                    assert journal_b.payload != journal_a.payload
                    outcome = verdict(session, journal_b)
                    assert outcome == "VerificationFailure" or outcome[0] is False
            finally:
                session.close()
                rewound.close()
        fork.ledger_a.close(checkpoint=False)
        fork.ledger_b.close(checkpoint=False)


# ------------------------------------------------- hostile fam_extension


class EditingServer(LedgerServer):
    """Answers ``fam_extension`` honestly, then hands the reply — as the
    generic encoder's dict, bytes for the bundle — to ``edit`` and sends
    whatever that returns, schema or not."""

    edit = None

    def _dispatch(self, conn, payload: bytes) -> None:
        message = decode_message(payload)
        if self.edit is None or message["op"] != "fam_extension":
            return super()._dispatch(conn, payload)
        reply = self._op_fam_extension(message)
        reply = self.edit(dict(reply, bundle=reply["bundle"].to_bytes()), message)
        conn.write(encode_frame(encode({"id": message["id"], "ok": True, "result": reply})))


def _rebundled(reply: dict, **changes) -> dict:
    bundle = ConsistencyBundle.from_bytes(reply["bundle"])
    return dict(reply, bundle=dataclasses.replace(bundle, **changes).to_bytes())


def _hostile_extensions(ledger: Ledger) -> dict:
    """Hostile ``fam_extension`` replies, by name, over ``ledger``'s honest one."""
    fam = ledger._fam

    def fork_extension(reply: dict, message: dict) -> dict:
        # The fork's own extension, claimed from the tracked root: it
        # derives and links consistently, but its seal starts elsewhere.
        fork, user = make_ledger("ledger://readpath-fork")
        forked = LedgerSession(fork, client_id=USER, keypair=user)
        forked.append_batch([(b"fork %d" % index, None) for index in range(3 * EPOCH)])
        _old_root, new_root, bundle = fork.fam_extension(
            message["old_epoch"], message["old_live_size"]
        )
        return dict(reply, new_root=new_root, bundle=bundle.to_bytes())

    def shrunk(reply: dict, message: dict) -> dict:
        epoch, size = message["old_epoch"], message["old_live_size"]
        bundle = ConsistencyBundle(epoch, size, epoch, size - 1)
        return dict(reply, new_root=fam.head_root(epoch, size - 1), bundle=bundle.to_bytes())

    def unlinked_live(reply: dict, message: dict) -> dict:
        # A live epoch whose merged leaf 0 is not the last sealed root.
        live = ShrubsAccumulator()
        live.extend([leaf_hash(b"not the last anchor")] + fam._epochs[-1]._levels[0][1:])
        reply = _rebundled(reply, final_link=live.prove(0))
        return dict(reply, new_root=live.root())

    def flip(digest: bytes) -> bytes:
        return bytes([digest[0] ^ 1]) + digest[1:]

    return {
        "truncated bundle": lambda reply, _m: dict(reply, bundle=reply["bundle"][:-7]),
        "garbage bundle": lambda reply, _m: dict(reply, bundle=bytes(range(64))),
        "a bundle that is not bytes": lambda reply, _m: dict(reply, bundle=7),
        "no bundle": lambda reply, _m: {"old_root": reply["old_root"]},
        "a bundle for other coordinates": lambda reply, _m: dict(
            reply, bundle=ledger.fam_extension(0, 1)[2].to_bytes()
        ),
        "another old_root": lambda reply, _m: dict(reply, old_root=flip(reply["old_root"])),
        "a shrinking head": shrunk,
        "a forged link": lambda reply, _m: _rebundled(
            reply, links=(fam.prove_head_link(1, fam.epoch_capacity),)
        ),
        "a forged sealed_root": lambda reply, _m: _rebundled(
            reply, sealed_root=flip(ConsistencyBundle.from_bytes(reply["bundle"]).sealed_root)
        ),
        "a live root whose leaf 0 is not the last anchor": unlinked_live,
        "a fork's extension from the tracked root": fork_extension,
    }


def _tracked(session: RemoteLedgerSession) -> tuple:
    return dataclasses.astuple(session.state), session.anchors.items()


@pytest.mark.parametrize("hostile", sorted(_hostile_extensions(make_ledger()[0])))
def test_a_hostile_extension_is_refused_and_moves_nothing(hostile):
    """Each hostile reply ends in a typed VerificationFailure with the
    tracker where it was: from a head inside epoch 1 to one in epoch 3, so
    the honest bundle seals one epoch, links one and enters the live one."""
    ledger, user = make_ledger()
    with ServerThread(ledger, server_cls=EditingServer) as served:
        writer = connect(served, user)
        session = RemoteLedgerSession(*served.address)
        try:
            while ledger.size < EPOCH + 4:
                writer.append(b"before %d" % ledger.size)
            session.sync_anchors()
            while ledger.size < 3 * EPOCH + 2:
                writer.append(b"after %d" % ledger.size)
            before = _tracked(session)
            served.server.edit = _hostile_extensions(ledger)[hostile]
            with pytest.raises(VerificationFailure):
                session.sync_anchors()
            journal = session.client.get_journal(ledger.size - 1)
            with pytest.raises(VerificationFailure):
                session.verify("tx", txdata=[journal], level="client")
            assert _tracked(session) == before
            served.server.edit = None
            assert session.sync_anchors() == 2
            assert session.verify("tx", txdata=[journal], level="client").ok
        finally:
            session.close()
            writer.close()


# -------------------------------------------------------- one snapshot


def _beside_a_saturating_appender(check, rounds: int = 300, appends: int = 80) -> None:
    """Run ``check(reader, ledger)`` at least ``rounds`` times, and until a
    writer appending clue-carrying journals as fast as the server takes
    them has landed ``appends`` of them beside it."""
    ledger, user = make_ledger("ledger://snapshot")
    with ServerThread(ledger) as served:
        writer = connect(served, user)
        reader = RemoteLedgerClient(*served.address)
        for index in range(6):
            writer.append(b"fixed %d" % index, clues=("FIXED",))
        stop = threading.Event()
        errors: list[BaseException] = []
        appended = [0]

        def write() -> None:
            try:
                while not stop.is_set():
                    writer.append_batch(
                        [(b"moving %d" % appended[0], ("MOVING-%d" % (appended[0] % 7),))] * 4
                    )
                    appended[0] += 4
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=write)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # make a switch inside any two reads likely
        thread.start()
        deadline = time.monotonic() + 120
        try:
            done = 0
            while (done < rounds or appended[0] < appends) and time.monotonic() < deadline:
                check(reader, ledger)
                done += 1
        finally:
            stop.set()
            thread.join(30)
            sys.setswitchinterval(interval)
            reader.close()
            writer.close()
        assert not thread.is_alive() and not errors, errors
        assert appended[0] >= appends, "the writer must actually have run beside the reader"


def test_prove_clue_and_its_state_root_are_one_snapshot_beside_appends():
    """The lineage of FIXED never changes, but CM-Tree1 moves with every
    append to any clue: the proof and the root must be cut at one instant."""
    digests: list[bytes] = []
    falsy = [0]

    def check(reader: RemoteLedgerClient, ledger: Ledger) -> None:
        if not digests:
            digests.extend(reader.get_journal(jsn).tx_hash() for jsn in reader.list_tx("FIXED"))
        proof, claimed_root = reader.prove_clue("FIXED")
        falsy[0] += not clue_what("FIXED", digests, proof, claimed_root)

    _beside_a_saturating_appender(check)
    assert falsy[0] == 0


def test_get_root_is_one_snapshot_beside_appends():
    """root, size and the latest receipt describe the same commit."""
    torn = [0]

    def check(reader: RemoteLedgerClient, ledger: Ledger) -> None:
        claim = reader._wait(reader._remote.get_root())
        receipt = claim["latest_receipt"]
        torn[0] += receipt.jsn + 1 != claim["size"] or receipt.ledger_root != claim["root"]

    _beside_a_saturating_appender(check)
    assert torn[0] == 0


def test_get_root_equals_the_ledgers_own_commitments_when_quiescent():
    ledger, user = make_ledger()
    with ServerThread(ledger) as served:
        session = connect(served, user)
        client = session.client
        try:
            for index in range(EPOCH + 3):
                session.append(b"q %d" % index, clues=("Q",))
                claim = client._wait(client._remote.get_root())
                assert claim["root"] == ledger.current_root()
                assert claim["state_root"] == ledger.state_root()
                assert claim["size"] == ledger.size
                assert claim["latest_receipt"] == ledger.latest_receipt
        finally:
            client.close()


def test_server_side_verify_journal_is_never_falsy_on_honest_data_beside_appends():
    """The live epoch's last journal, verified by the server in process and
    over the ``verify_journal`` op: proof and root come from one head."""
    falsy = [0]

    def check(reader: RemoteLedgerClient, ledger: Ledger) -> None:
        journal = ledger.get_journal(ledger.size - 1)
        falsy[0] += not ledger.verify_journal(journal)
        falsy[0] += not reader.verify_journal_remote(journal)

    _beside_a_saturating_appender(check)
    assert falsy[0] == 0


def test_exports_beside_appends_verify_and_leave_the_ledger_auditable():
    """Bundles built while a writer commits (in process and over the
    ``export`` op) each verify standalone, and the ledger still passes a
    quiescent Dasein audit afterwards: no reader seals a block mid-batch."""
    failures: list[str] = []
    ledgers: list[Ledger] = []

    def check(reader: RemoteLedgerClient, ledger: Ledger) -> None:
        ledgers[:] = [ledger]
        if ledger.size > 400:
            return  # full-chain proofs grow with the epochs: keep bundles small
        local = export_bundle(ledger, clues=("FIXED",))
        remote = ExportBundle.from_bytes(reader.export(("FIXED",)))
        for bundle in (local, remote):
            result = verify_bundle(bundle)
            if not result:
                failures.append(result.detail)

    _beside_a_saturating_appender(check, rounds=12)
    assert failures == []
    report = dasein_audit(ledgers[0].export_view(), tsa_keys={})
    assert report.passed, report


# ------------------------------------------------------------- timeouts


class SwallowingServer(LedgerServer):
    """Never answers ``list_tx`` (a task op) nor ``receipt_for`` (a loop op)."""

    async def _op_list_tx(self, message: dict) -> dict:
        await self.never

    def _dispatch(self, conn, payload: bytes) -> None:
        if decode_message(payload)["op"] != "receipt_for":
            super()._dispatch(conn, payload)

    async def start(self):
        import asyncio

        self.never = asyncio.get_running_loop().create_future()
        return await super().start()

    async def close(self, *, drain: bool = True) -> None:
        self.never.cancel()
        await super().close(drain=drain)


def test_a_timed_out_call_leaves_nothing_pending():
    ledger, user = make_ledger()
    with ServerThread(ledger, server_cls=SwallowingServer) as served:
        session = connect(served, user, timeout=0.3)
        client = session.client
        try:
            receipt = session.append(b"before", clues=("T",))
            with pytest.raises(RemoteLedgerError, match="list_tx"):
                client.list_tx("T")  # driven on the caller's thread
            assert client._remote._pending == {}
            with pytest.raises(RemoteLedgerError, match="receipt_for"):
                client._wait(client._remote.receipt_for(receipt.jsn))  # run on the loop
            # The connection is as good as new, and one loop-side round trip
            # later the loop has unwound the cancelled call: the cancellation
            # and this ping queue on the loop in that order.  (``ping()`` is a
            # blocking read on this thread, which does not wait for the loop.)
            assert client._wait(client._remote.ping()) == ledger.size
            assert client._remote._pending == {}
            assert client.get_journal(receipt.jsn).payload == b"before"
            assert session.append(b"after", clues=("T",)).jsn == receipt.jsn + 1
        finally:
            client.close()
