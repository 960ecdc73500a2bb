"""End-to-end tests for the asyncio ledger server and verifying remote client.

The load-bearing test is byte-identity: a remote client over a real TCP
socket must receive byte-for-byte the receipts and proofs the in-process
API produces for the same requests — the network layer is transport, not
semantics.  The rest covers the hostile-world contract: concurrent clients,
a server killed mid-flight, slow and malformed peers (each costing only its
own connection), graceful drain, typed remote errors, and the remote light
client's anchor sync catching tampering.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro import ClientRequest, KeyPair, Ledger, LedgerConfig, Role, SimClock
from repro.api import connect
from repro.core.errors import (
    AuthenticationError,
    AuthorizationError,
    JournalNotFoundError,
    VerificationFailure,
)
from repro.net import (
    FrameDecoder,
    ProtocolError,
    RemoteLedgerClient,
    RemoteLedgerError,
    RemoteLedgerSession,
    ServerThread,
    encode_frame,
)
from repro.service import ServiceClosedError

URI = "ledger://net-test"
CLIENTS = ("alice", "bob", "carol", "dan")


def make_ledger(
    uri: str = URI, fractal_height: int = 4, block_size: int = 4
) -> tuple[Ledger, dict[str, KeyPair]]:
    ledger = Ledger(
        LedgerConfig(uri=uri, fractal_height=fractal_height, block_size=block_size),
        clock=SimClock(),
    )
    keys = {}
    for name in CLIENTS:
        keypair = KeyPair.generate(seed=f"net:{name}")
        keys[name] = keypair
        ledger.registry.register(name, Role.USER, keypair.public)
    return ledger, keys


def make_request(
    keys: dict[str, KeyPair],
    client: str,
    tag: str,
    clues: tuple[str, ...] = (),
    uri: str = URI,
) -> ClientRequest:
    return ClientRequest.build(
        uri,
        client,
        f"{client}:{tag}".encode(),
        clues=clues,
        nonce=tag.encode(),
        client_timestamp=1.0,
    ).signed_by(keys[client])


def remote_client(served: ServerThread, member: str | None, keys) -> RemoteLedgerClient:
    host, port = served.address
    return RemoteLedgerClient(
        host,
        port,
        member_id=member,
        keypair=keys[member] if member else None,
        expected_lsp_key=served.server.ledger.registry.public_key("__lsp__"),
    )


class TestByteIdentity:
    def test_remote_equals_inprocess(self):
        """Receipts, proofs, and roots over the socket are byte-identical to
        the in-process API fed the same requests in the same order."""
        server_ledger, keys = make_ledger()
        mirror, _ = make_ledger()  # same uri -> same seeded LSP key, same clock
        requests = [make_request(keys, "alice", f"r{i}", ("IDENT",)) for i in range(10)]
        with ServerThread(server_ledger) as served:
            client = remote_client(served, None, keys)
            try:
                remote_receipts = [
                    client.append(request=request) for request in requests
                ]
                mirror_receipts = [mirror.append(request) for request in requests]
                for remote_r, mirror_r in zip(remote_receipts, mirror_receipts):
                    assert remote_r.to_bytes() == mirror_r.to_bytes()
                jsns = [receipt.jsn for receipt in remote_receipts]
                remote_proofs = client.get_proofs(jsns, anchored=False)
                for jsn, proof in zip(jsns, remote_proofs):
                    assert proof.to_bytes() == mirror.get_proof(
                        jsn, anchored=False
                    ).to_bytes()
                root = client._wait(client._remote.get_root())
                assert root["root"] == mirror.current_root()
                assert root["state_root"] == mirror.state_root()
                assert root["size"] == mirror.size
            finally:
                client.close()

    def test_batch_append_receipts_verify(self):
        ledger, keys = make_ledger()
        with ServerThread(ledger) as served:
            client = remote_client(served, "bob", keys)
            try:
                receipts = client.append_batch(
                    [(f"batch {i}".encode(), ("BATCH",)) for i in range(6)]
                )
                assert [r.jsn for r in receipts] == sorted(r.jsn for r in receipts)
                assert all(
                    r.verify(client.lsp_public_key) for r in receipts
                )
                # The client checks every receipt itself: one signed by any
                # key but the pinned LSP key is refused, though committed.
                client._remote.lsp_public_key = KeyPair.generate(seed="not-lsp").public
                with pytest.raises(VerificationFailure):
                    client.append_batch([(b"batch 6", ("BATCH",))])
                assert ledger.size == receipts[-1].jsn + 2
            finally:
                client.close()


class TestConcurrentClients:
    def test_four_clients_race_and_all_verify(self):
        """≥4 concurrent remote clients; every receipt verifies, the final
        ledger holds every append exactly once."""
        ledger, keys = make_ledger(block_size=8)
        per_client = 12
        failures: list[BaseException] = []
        receipts_by_name: dict[str, list] = {}

        def run(name: str, served: ServerThread) -> None:
            try:
                client = remote_client(served, name, keys)
                try:
                    window = [
                        client.submit(
                            make_request(keys, name, f"c{i}", (name.upper(),))
                        )
                        for i in range(per_client)
                    ]
                    receipts_by_name[name] = [f.result(30.0) for f in window]
                finally:
                    client.close()
            except BaseException as exc:  # surfaces in the main thread
                failures.append(exc)

        base_size = ledger.size  # genesis journal etc.
        with ServerThread(ledger) as served:
            threads = [
                threading.Thread(target=run, args=(name, served)) for name in CLIENTS
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not failures, failures
            all_jsns = [
                receipt.jsn
                for receipts in receipts_by_name.values()
                for receipt in receipts
            ]
            assert len(all_jsns) == len(CLIENTS) * per_client
            assert len(set(all_jsns)) == len(all_jsns)
            assert ledger.size == base_size + len(CLIENTS) * per_client

    def test_pipelined_responses_can_complete_out_of_order(self):
        """A fast ping is not head-of-line blocked behind a bulk proof
        fetch issued first on the same connection."""
        ledger, keys = make_ledger()
        with ServerThread(ledger) as served:
            client = remote_client(served, "alice", keys)
            try:
                receipts = client.append_batch(
                    [(f"fill {i}".encode(), ()) for i in range(16)]
                )
                jsns = [receipt.jsn for receipt in receipts]
                slow = client._submit(client._remote.get_proofs(jsns, False))
                fast = client._submit(client._remote.ping())
                assert fast.result(10.0) == ledger.size
                assert len(slow.result(30.0)) == 16
            finally:
                client.close()


class TestFailureModes:
    def test_server_killed_mid_flight(self):
        """kill() drops connections without drain: in-flight and subsequent
        calls fail with a typed error, nothing hangs."""
        ledger, keys = make_ledger()
        served = ServerThread(ledger)
        client = remote_client(served, "alice", keys)
        try:
            client.append(b"before the crash", ("CRASH",))
            served.kill()
            with pytest.raises((RemoteLedgerError, ServiceClosedError)):
                for i in range(50):  # one of these hits the dead socket
                    client.append(f"after the crash {i}".encode())
        finally:
            client.close()
            served.close()

    def test_slow_peer_gets_served_and_does_not_block_others(self):
        """A peer trickling a frame byte-by-byte still gets its response;
        a concurrent healthy client is never blocked behind it."""
        ledger, keys = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            slow = socket.create_connection((host, port))
            slow.settimeout(30.0)
            try:
                frame = encode_frame({"id": 7, "op": "ping"})
                for i in range(0, len(frame), 2):
                    slow.sendall(frame[i : i + 2])
                    time.sleep(0.01)
                    if i == 2:  # mid-frame: the healthy client proceeds
                        healthy = remote_client(served, "alice", keys)
                        try:
                            healthy.append(b"not blocked", ())
                        finally:
                            healthy.close()
                decoder = FrameDecoder()
                messages: list = []
                while not messages:
                    messages = decoder.feed(slow.recv(4096))
                assert messages[0]["id"] == 7
                assert messages[0]["ok"] is True
            finally:
                slow.close()

    def test_malformed_frame_poisons_only_its_connection(self):
        """Garbage framing: best-effort ProtocolError frame, connection
        closed — while another client keeps working."""
        ledger, keys = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            bad = socket.create_connection((host, port))
            bad.settimeout(30.0)
            try:
                bad.sendall(struct.pack(">I", 0))  # zero-length frame
                chunks = bytearray()
                while True:
                    data = bad.recv(4096)
                    if not data:
                        break
                    chunks += data
                if chunks:  # best-effort error frame before hang-up
                    (message,) = FrameDecoder().feed(bytes(chunks))
                    assert message["ok"] is False
                    assert message["error"]["type"] == "ProtocolError"
            finally:
                bad.close()
            survivor = remote_client(served, "bob", keys)
            try:
                receipt = survivor.append(b"unharmed", ())
                assert receipt.verify(survivor.lsp_public_key)
            finally:
                survivor.close()

    def test_oversized_length_prefix_rejected(self):
        ledger, keys = make_ledger()
        with ServerThread(ledger) as served:
            peer = socket.create_connection(served.address)
            peer.settimeout(30.0)
            try:
                peer.sendall(struct.pack(">I", 64 * 1024 * 1024))
                chunks = bytearray()
                while True:
                    data = peer.recv(4096)
                    if not data:
                        break  # server hung up on this peer — as specified
                    chunks += data
            finally:
                peer.close()

    def test_oversized_response_settles_as_typed_error(self):
        """A result too big for the server's frame cap must not orphan the
        request: the server downgrades it to a small ProtocolError frame,
        and the connection stays usable for later requests."""
        ledger, keys = make_ledger()
        with ServerThread(ledger, max_frame_bytes=2048) as served:
            client = remote_client(served, "alice", keys)
            try:
                receipt = client.append(b"seed", ())
                with pytest.raises(ProtocolError, match="response undeliverable"):
                    client.get_proofs([receipt.jsn] * 200, anchored=False)
                # The id was settled and the stream is intact.
                assert client.ping() == ledger.size
                assert client._remote._pending == {}
            finally:
                client.close()

    def test_oversized_request_does_not_leak_pending(self):
        """A request the client's own frame cap refuses to encode raises
        synchronously AND drops its pending entry — no future leaks for
        the life of the connection."""
        ledger, keys = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            client = RemoteLedgerClient(
                host,
                port,
                member_id="alice",
                keypair=keys["alice"],
                max_frame_bytes=1024,
            )
            try:
                with pytest.raises(ProtocolError):
                    client.append(b"x" * 64 * 1024, ())
                assert client._remote._pending == {}
                assert client.ping() == ledger.size
            finally:
                client.close()

    def test_drain_on_shutdown_settles_every_submitted_request(self):
        """close(drain=True): every pipelined append already on the wire is
        answered — a verified receipt or a typed refusal, never a hang."""
        ledger, keys = make_ledger(block_size=8)
        served = ServerThread(ledger)
        client = remote_client(served, "carol", keys)
        try:
            window = [
                client.submit(make_request(keys, "carol", f"d{i}", ()))
                for i in range(24)
            ]
            served.close(drain=True)
            settled = 0
            for future in window:
                try:
                    receipt = future.result(30.0)
                    assert receipt.verify(client.lsp_public_key)
                except (RemoteLedgerError, ServiceClosedError):
                    pass
                settled += 1
            assert settled == len(window)
            # Everything the server admitted is durably in the ledger.
            admitted = {r.result().jsn for r in window if r.exception() is None}
            assert admitted <= set(range(ledger.size))
        finally:
            client.close()
            served.close()


class TestTypedRemoteErrors:
    def test_unregistered_member_raises_authentication_error(self):
        ledger, keys = make_ledger()
        mallory = KeyPair.generate(seed="net:mallory")
        with ServerThread(ledger) as served:
            host, port = served.address
            client = RemoteLedgerClient(
                host, port, member_id="mallory", keypair=mallory
            )
            try:
                with pytest.raises(AuthenticationError):
                    client.append(b"who am i", ())
            finally:
                client.close()

    def test_missing_journal_raises_not_found(self):
        ledger, keys = make_ledger()
        with ServerThread(ledger) as served:
            client = remote_client(served, "alice", keys)
            try:
                with pytest.raises(JournalNotFoundError):
                    client.get_journal(999)
            finally:
                client.close()

    def test_unknown_op_raises_protocol_error(self):
        ledger, keys = make_ledger()
        with ServerThread(ledger) as served:
            client = remote_client(served, "alice", keys)
            try:
                with pytest.raises(ProtocolError):
                    client._wait(client._remote._call("no_such_op"))
            finally:
                client.close()

    def test_retired_live_consistency_op_is_unknown(self):
        """No ``live_consistency`` op is served: its frame gets the typed
        unknown-op refusal, and the connection keeps answering."""
        ledger, keys = make_ledger()
        with ServerThread(ledger) as served:
            client = remote_client(served, "alice", keys)
            try:
                with pytest.raises(ProtocolError, match="unknown op: 'live_consistency'"):
                    client._wait(client._remote._call("live_consistency", old_size=0))
                assert client._wait(client._remote.ping()) == ledger.size
            finally:
                client.close()

    def test_wrong_lsp_key_fails_handshake(self):
        ledger, keys = make_ledger()
        with ServerThread(ledger) as served:
            host, port = served.address
            with pytest.raises(VerificationFailure):
                RemoteLedgerClient(
                    host,
                    port,
                    expected_lsp_key=KeyPair.generate(seed="not-the-lsp").public,
                )


class TestRemoteLightClient:
    def test_anchor_sync_and_local_verification(self):
        """The remote light client anchors sealed epochs + tracks the live
        epoch, then verifies journals locally in O(delta)."""
        ledger, keys = make_ledger(fractal_height=3)
        with ServerThread(ledger) as served:
            client = remote_client(served, "alice", keys)
            try:
                receipts = [
                    client.append(f"epoch filler {i}".encode(), ("SYNC",))
                    for i in range(12)  # spills past epoch 0 (capacity 8)
                ]
                added = client.sync_anchors()
                assert added >= 1  # epoch 0 sealed and anchored
                for receipt in receipts:
                    journal = client.get_journal(receipt.jsn)
                    assert client.verify_journal(journal)
                assert client.verify_clue("SYNC")
            finally:
                client.close()

    def test_forged_journal_fails_local_verification(self):
        ledger, keys = make_ledger(fractal_height=3)
        with ServerThread(ledger) as served:
            client = remote_client(served, "bob", keys)
            try:
                receipt = client.append(b"the truth", ("TAMPER",))
                client.sync_anchors()
                journal = client.get_journal(receipt.jsn)
                assert client.verify_journal(journal)
                import dataclasses

                forged = dataclasses.replace(journal, payload=b"a lie")
                assert not client.verify_journal(forged)
            finally:
                client.close()

    def test_sync_detects_live_root_swap(self):
        """A server that rewrites committed history is caught on the next
        sync: the consistency proof cannot bridge the two roots."""
        ledger, keys = make_ledger(fractal_height=4)
        with ServerThread(ledger) as served:
            client = remote_client(served, "carol", keys)
            try:
                client.append(b"observed state", ())
                client.sync_anchors()
                # Simulate equivocation: hand the client a different history
                # under the same claimed sizes by corrupting its own state.
                client.state.live_root = b"\x00" * 32
                client.append(b"more", ())
                with pytest.raises(VerificationFailure):
                    client.sync_anchors()
            finally:
                client.close()


class TestApiConnect:
    def test_connect_remote_round_trip(self):
        ledger, keys = make_ledger(fractal_height=3)
        with ServerThread(ledger) as served:
            host, port = served.address
            session = connect(
                f"ledger://{host}:{port}",
                client_id="dan",
                keypair=keys["dan"],
                expected_lsp_key=ledger.registry.public_key("__lsp__"),
            )
            assert isinstance(session, RemoteLedgerSession)
            with session:
                receipts = [
                    session.append(f"api {i}".encode(), clue="API") for i in range(9)
                ]
                assert [j.jsn for j in session.list_tx("API")] == [
                    r.jsn for r in receipts
                ]
                session.sync_anchors()
                assert session.verify_journal(session.list_tx("API")[0])
                assert session.verify_clue("API")
                proofs = session.get_proofs(
                    [r.jsn for r in receipts], anchored=False
                )
                assert len(proofs) == len(receipts)

    def test_registered_lgid_still_wins_over_remote_syntax(self):
        """connect() only goes remote for address-shaped lgids that are not
        locally registered — the local registry keeps priority."""
        from repro.api import create, drop_ledger

        create("ledger://127.0.0.1:1")
        try:
            session = connect("ledger://127.0.0.1:1")
            assert not isinstance(session, RemoteLedgerSession)
            session.close()
        finally:
            drop_ledger("ledger://127.0.0.1:1")


class TestRegistration:
    def test_register_then_append_as_new_member(self):
        ledger, keys = make_ledger()
        eve = KeyPair.generate(seed="net:eve")
        with ServerThread(ledger, allow_register=True) as served:
            client = remote_client(served, "alice", keys)
            try:
                client.register("eve", "user", eve.public)
            finally:
                client.close()
            host, port = served.address
            as_eve = RemoteLedgerClient(host, port, member_id="eve", keypair=eve)
            try:
                receipt = as_eve.append(b"hello from eve", ())
                assert receipt.verify(as_eve.lsp_public_key)
            finally:
                as_eve.close()

    def test_register_refused_by_default(self):
        """The register op is governance: a server not started with
        allow_register=True refuses it for any role, so an anonymous peer
        cannot mint CA-certified members."""
        ledger, keys = make_ledger()
        eve = KeyPair.generate(seed="net:eve")
        with ServerThread(ledger) as served:
            client = remote_client(served, None, keys)
            try:
                with pytest.raises(AuthorizationError):
                    client.register("eve", "user", eve.public)
                assert "eve" not in ledger.registry.all_members()
            finally:
                client.close()

    def test_register_privileged_roles_refused_even_when_allowed(self):
        """allow_register=True only opens plain-user self-registration;
        dba/regulator/lsp would enter destructive-op signer sets and can
        never be minted over the wire."""
        ledger, keys = make_ledger()
        mallory = KeyPair.generate(seed="net:mallory")
        with ServerThread(ledger, allow_register=True) as served:
            client = remote_client(served, None, keys)
            try:
                for role in ("dba", "regulator", "lsp"):
                    with pytest.raises(AuthorizationError):
                        client.register(f"mallory-{role}", role, mallory.public)
                    assert f"mallory-{role}" not in ledger.registry.all_members()
            finally:
                client.close()
