#!/usr/bin/env python3
"""Remote light client with trusted anchors — fam-aoa over a real socket.

The paper's "ubiquitous verification" client talks to an **untrusted**
centralized ledger over a network.  This demo runs a real TCP server
(:class:`repro.net.ServerThread`) and a :class:`repro.net.RemoteLedgerSession`
— the one verifying session, over the TCP port — that never takes the
server's word for anything:

1. the LSP public key is pinned at connect time (out-of-band trust root);
   every receipt's signature and request-hash echo is checked locally;
2. every sync is one ``fam_extension`` round trip: a consistency bundle
   from the head the client last verified, whose seal and merged-leaf links
   (Rule 1: the old epoch's root is leaf 0 of the new epoch) *derive* each
   newly sealed epoch's anchor instead of taking it from the server;
3. the live epoch is tracked along those bundles, so a server that
   rewrites *any* committed journal is caught on the next sync;
4. with anchors in hand, every existence verification is a short in-epoch
   path — never the full-chain walk.

Run: python examples/light_client.py
"""

from repro import KeyPair, Ledger, LedgerConfig, Role
from repro.core.errors import VerificationFailure
from repro.core.ledger import LSP_MEMBER_ID
from repro.net import RemoteLedgerSession, ServerThread

URI = "ledger://light-client-demo"


def main() -> None:
    ledger = Ledger(LedgerConfig(uri=URI, fractal_height=3, block_size=4))
    alice = KeyPair.generate(seed="alice")
    ledger.registry.register("alice", Role.USER, alice.public)

    # The pinned trust root: in a deployment this arrives out of band
    # (config file, registration response) — never from the server itself.
    lsp_key = ledger.registry.public_key(LSP_MEMBER_ID)

    with ServerThread(ledger) as served:
        host, port = served.address
        print(f"ledger served on {host}:{port}; client pins the LSP key\n")
        session = RemoteLedgerSession(
            host, port, client_id="alice", keypair=alice, expected_lsp_key=lsp_key
        )
        with session:
            # --- Grow the ledger across several fam epochs, syncing as we go
            receipts = []
            for batch in range(5):
                for i in range(8):
                    receipts.append(session.append(f"batch{batch}-item{i}".encode()))
                new_anchors = session.sync_anchors()
                print(
                    f"after batch {batch}: ledger size {ledger.size}, "
                    f"+{new_anchors} epoch anchor(s), "
                    f"{session.state.anchored_epochs} anchored epochs"
                )

            # --- O(delta) verification against the client's own anchors ----
            checked = 0
            for receipt in receipts:
                journal = session.client.get_journal(receipt.jsn)
                assert session.verify_journal(journal), receipt.jsn
                proof = session.get_proof(receipt.jsn, anchored=True)
                assert proof.anchored_cost <= ledger.config.fractal_height
                checked += 1
            print(
                f"verified {checked} journals over the wire, every path <= "
                f"delta = {ledger.config.fractal_height} nodes (no full-chain walks)"
            )

            # --- The anchor storage is tiny --------------------------------
            anchors = session.state.anchored_epochs
            print(
                f"client-side anchor storage: {anchors} epoch roots = "
                f"{anchors * 32} bytes (vs a bim light client's O(n) headers)"
            )

            # --- A rewriting server is caught by the consistency check -----
            print("\nsimulating a malicious server rewriting a live-epoch journal...")
            from repro.crypto.hashing import leaf_hash
            from repro.merkle.shrubs import ShrubsAccumulator

            fam = ledger._fam
            live = fam._epochs[-1]
            forged = ShrubsAccumulator()
            leaves = list(live._levels[0])
            if len(leaves) < 2:  # make sure there's a journal to rewrite
                session.append(b"bait")
                session.sync_anchors()
                live = fam._epochs[-1]
                leaves = list(live._levels[0])
            leaves[-1] = leaf_hash(b"REWRITTEN JOURNAL")
            for leaf in leaves:
                forged.append_leaf(leaf)
            fam._epochs[-1] = forged

            session.append(b"post-rewrite append")  # server keeps operating
            try:
                session.sync_anchors()
                raise SystemExit("the rewrite should have been detected!")
            except VerificationFailure as exc:
                print(f"caught: {exc}")


if __name__ == "__main__":
    main()
