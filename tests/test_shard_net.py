"""Remote verification over a sharded deployment (DESIGN.md §15).

The load-bearing contract: each of the N listeners speaks the ordinary
single-ledger protocol, so the *existing* RemoteLedgerClient appends to a
shard and verifies its receipts, proofs, and anchors unchanged — and the
``shard_info`` op lets any client fold its shard's verified live root into
the deployment's one composite root.
"""

from __future__ import annotations

import pytest

from repro import ClientRequest, KeyPair, Ledger, LedgerConfig, Role, SimClock
from repro.core.errors import UsageError, VerificationFailure
from repro.merkle.proofs import MembershipProof
from repro.net import RemoteLedgerClient, ServerThread
from repro.service import LedgerService, ServiceConfig
from repro.shard import ShardedLedger, ShardedServerThread, shard_of_key

URI = "ledger://shard-net-test"
CLIENTS = ("alice", "bob", "carol", "dan")


def make_sharded(shards: int = 3) -> tuple[ShardedLedger, dict[str, KeyPair]]:
    ledger = ShardedLedger(
        LedgerConfig(uri=URI, fractal_height=4, block_size=4, shards=shards),
        clock=SimClock(),
    )
    keys = {}
    for name in CLIENTS:
        keypair = KeyPair.generate(seed=f"shard-net:{name}")
        keys[name] = keypair
        ledger.registry.register(name, Role.USER, keypair.public)
    return ledger, keys


def make_request(keys, client: str, tag: str, clues=()) -> ClientRequest:
    return ClientRequest.build(
        URI,
        client,
        f"{client}:{tag}".encode(),
        clues=clues,
        nonce=tag.encode(),
        client_timestamp=1.0,
    ).signed_by(keys[client])


def client_for(served: ShardedServerThread, shard_index: int, keys, member=None):
    host, port = served.addresses[shard_index]
    return RemoteLedgerClient(
        host,
        port,
        member_id=member,
        keypair=keys[member] if member else None,
        expected_lsp_key=served.ledger.registry.public_key("__lsp__"),
    )


class TestShardedServerThread:
    def test_one_listener_per_shard(self):
        ledger, _keys = make_sharded(3)
        with ShardedServerThread(ledger) as served:
            assert served.num_shards == 3
            assert len(served.addresses) == 3
            assert len(set(served.addresses)) == 3  # distinct ports
            assert served.uris() == [
                f"ledger://{host}:{port}" for host, port in served.addresses
            ]
            key = "some-routing-clue"
            assert (
                served.address_for(key)
                == served.addresses[shard_of_key(key, 3)]
            )

    def test_existing_client_verifies_per_shard_unchanged(self):
        """Receipts and proofs from a shard listener verify through the
        stock RemoteLedgerClient exactly as against an unsharded server."""
        ledger, keys = make_sharded(3)
        with ShardedServerThread(
            ledger, service_config=ServiceConfig(max_batch=4)
        ) as served:
            clue = "wire-clue"
            shard_index = ledger.shard_of_key(clue)
            client = client_for(served, shard_index, keys)
            try:
                receipts = [
                    client.append(request=make_request(keys, "alice", f"r{i}", (clue,)))
                    for i in range(6)
                ]
                for receipt in receipts:
                    assert receipt.verify(client.lsp_public_key)
                client.session.sync_anchors()  # local verification needs anchors
                jsns = [receipt.jsn for receipt in receipts]
                for jsn in jsns:
                    journal = client.get_journal(jsn)
                    assert client.session.verify_journal(journal)
            finally:
                client.close()
            # The appends really landed on their routing shard.
            assert ledger.list_tx(clue) != []
            assert all(
                gsn % 3 == shard_index for gsn in ledger.list_tx(clue)
            )

    def test_composite_root_agrees_across_all_listeners(self):
        ledger, keys = make_sharded(3)
        for i in range(12):
            ledger.append(make_request(keys, "bob", f"pre{i}", (f"clue-{i}",)))
        with ShardedServerThread(ledger) as served:
            infos = []
            for shard_index in range(3):
                client = client_for(served, shard_index, keys)
                try:
                    info = client.shard_info()
                finally:
                    client.close()
                assert info["shard_index"] == shard_index
                assert info["num_shards"] == 3
                link = info["link"]
                assert isinstance(link, MembershipProof)
                assert link.verify(info["shard_root"], info["composite_root"])
                infos.append(info)
            # One deployment, one composite commitment — no equivocation
            # between listeners over a quiesced ledger.
            assert len({info["composite_root"] for info in infos}) == 1
            assert infos[0]["composite_root"] == ledger.composite_root()
            assert [info["shard_root"] for info in infos] == ledger.shard_roots()

    def test_verify_shard_link_binds_to_clients_verified_root(self):
        ledger, keys = make_sharded(2)
        with ShardedServerThread(ledger) as served:
            clue = "linked-clue"
            shard_index = ledger.shard_of_key(clue)
            client = client_for(served, shard_index, keys)
            try:
                for i in range(5):
                    client.append(request=make_request(keys, "carol", f"l{i}", (clue,)))
                client.session.sync_anchors()
                info = client.verify_shard_link()
                assert info["shard_root"] == client.session.state.live_root
                assert info["composite_root"] == ledger.composite_root()
                # Cross-check: a client on the *other* shard folds its own
                # verified root into the same composite commitment.
                other = client_for(served, 1 - shard_index, keys)
                try:
                    other.session.sync_anchors()
                    other_info = other.verify_shard_link()
                finally:
                    other.close()
                assert other_info["composite_root"] == info["composite_root"]
                assert other_info["shard_root"] != info["shard_root"]
            finally:
                client.close()

    def test_verify_shard_link_rejects_forged_link(self, monkeypatch):
        ledger, keys = make_sharded(2)
        with ShardedServerThread(ledger) as served:
            client = client_for(served, 0, keys)
            try:
                client.append(request=make_request(keys, "dan", "x", ()))
                client.session.sync_anchors()
                genuine = client.shard_info()
                forged = dict(genuine)
                forged["shard_index"] = 1  # link no longer matches its slot
                monkeypatch.setattr(client, "shard_info", lambda: forged)
                with pytest.raises(VerificationFailure):
                    client.verify_shard_link()
            finally:
                client.close()

    def test_drain_close_settles_inflight(self):
        ledger, keys = make_sharded(2)
        served = ShardedServerThread(ledger)
        client = client_for(served, 0, keys)
        try:
            client.append(request=make_request(keys, "alice", "settle", ()))
        finally:
            client.close()
        served.close()  # drain=True: no pending work may be dropped
        assert served.service.closed


class TestServedShapes:
    def test_a_solo_ledger_serves_as_its_one_unlabelled_shard(self):
        """One shard gets the solo front end: a plain, unnamed LedgerService
        (bare metric families), as a LedgerSession's ``service=True`` does."""
        ledger = Ledger(LedgerConfig(uri=URI, fractal_height=4, block_size=4))
        with ShardedServerThread(ledger) as served:
            assert served.num_shards == 1
            assert isinstance(served.service, LedgerService)
            assert served.service.name is None
            assert served.service.services == [served.service]

    def test_refuses_what_is_neither_a_ledger_nor_a_service(self):
        with pytest.raises(UsageError, match="serve a ledger or a service"):
            ShardedServerThread(object())
        ledger, _keys = make_sharded(2)
        with LedgerService(ledger.shards[0]) as service:
            with pytest.raises(UsageError, match="service_config"):
                ShardedServerThread(service, service_config=ServiceConfig())


class TestUnshardedShardInfo:
    def test_plain_server_answers_degenerate_shard_map(self):
        """An unsharded server is a 1-shard deployment: shard_info answers
        with a 1-leaf map whose composite root IS the live root, so clients
        probe any listener without knowing the topology in advance."""
        ledger = Ledger(
            LedgerConfig(uri=URI, fractal_height=4, block_size=4), clock=SimClock()
        )
        keypair = KeyPair.generate(seed="shard-net:alice")
        ledger.registry.register("alice", Role.USER, keypair.public)
        keys = {"alice": keypair}
        with ServerThread(ledger) as served:
            host, port = served.address
            client = RemoteLedgerClient(
                host,
                port,
                expected_lsp_key=ledger.registry.public_key("__lsp__"),
            )
            try:
                client.append(request=make_request(keys, "alice", "solo", ()))
                client.session.sync_anchors()
                info = client.verify_shard_link()
                assert info["num_shards"] == 1
                assert info["shard_index"] == 0
                assert info["composite_root"] == info["shard_root"]
                assert info["shard_root"] == client.session.state.live_root
            finally:
                client.close()
