#!/usr/bin/env python3
"""Verifiable account balances: journals + world-state + shared storage.

Combines three Figure-1/Figure-2 components beyond the basic append loop:

* transfers are journals appended through the **ledger proxy** — bulky
  attachments (e.g. contract PDFs) ride the payload path into shared
  storage while the ledger commits fixed-size references;
* the **world-state** (single-layer state accumulator) tracks each
  account's current balance, with a 32-byte root per transfer that is
  embedded into the next journal — so balances are provable against the
  ledger itself;
* a client verifies "my balance is X, as of journal J" with one state
  proof plus one existence proof — no statement replay (the §III-A2
  motivation: current state provable without historical content).

The proxy, shared storage and world-state are the front end in
``examples/frontend/``, beside this script; the ledger itself does not
ship them.

Run: python examples/verifiable_accounts.py
"""

from frontend.proxy import LedgerProxy
from frontend.worldstate import WorldState
from repro import KeyPair, Ledger, LedgerConfig, Role, SimClock
from repro.encoding import decode, encode

URI = "ledger://verifiable-accounts"


def main() -> None:
    clock = SimClock()
    ledger = Ledger(LedgerConfig(uri=URI, fractal_height=6, block_size=4), clock=clock)
    proxy = LedgerProxy(ledger, inline_threshold=128)
    state = WorldState()

    bank = KeyPair.generate(seed="bank")
    ledger.registry.register("bank", Role.USER, bank.public)

    balances = {"alice": 1000, "bob": 500, "carol": 0}
    for account, amount in balances.items():
        state.put(account.encode(), str(amount).encode(), jsn=0)

    def transfer(sender: str, recipient: str, amount: int, attachment: bytes = b"") -> int:
        balances[sender] -= amount
        balances[recipient] += amount
        state_jsn = ledger.size  # the journal about to be committed
        for account in (sender, recipient):
            state.put(account.encode(), str(balances[account]).encode(), jsn=state_jsn)
        payload = encode(
            {
                "op": "transfer",
                "from": sender,
                "to": recipient,
                "amount": amount,
                "state_root": state.root,  # entangles the post-state
                "attachment": attachment,
            }
        )
        receipt = proxy.append("bank", bank, payload, clues=(f"ACCT:{sender}", f"ACCT:{recipient}"))
        clock.advance(0.1)
        return receipt.jsn

    # --- A day of transfers -------------------------------------------------
    print("processing transfers...")
    transfer("alice", "bob", 200)
    transfer("bob", "carol", 150)
    jsn_big = transfer(
        "alice", "carol", 300,
        attachment=b"%PDF- signed credit agreement " + b"\x00" * 4000,  # bulky
    )
    last_jsn = transfer("carol", "alice", 50)
    ledger.commit_block()
    print(f"{ledger.size - 1} transfers committed; "
          f"shared storage holds {len(proxy.storage)} blob(s), "
          f"{proxy.storage.total_bytes():,} bytes off-ledger")

    # --- Balance verification: state proof + journal entanglement ----------
    print("\nverifying carol's balance against the ledger...")
    proof = state.prove(b"carol")
    expected = str(balances["carol"]).encode()
    assert proof.verify(state.root, value=expected)
    print(f"  state proof: carol = {expected.decode()} "
          f"(version {proof.entry.version}, last written by jsn {proof.entry.jsn})")

    # The state root is committed inside the last transfer journal, whose
    # existence the fam accumulator proves:
    journal = proxy.get_journal(last_jsn).journal
    committed_root = bytes(decode(journal.payload)["state_root"])
    assert committed_root == state.root
    assert ledger.verify_journal(journal)
    print(f"  state root {state.root.hex()[:12]}… is committed by journal "
          f"{last_jsn}, whose existence verifies against the ledger")

    # A forged balance cannot verify:
    assert not proof.verify(state.root, value=b"1000000")
    print("  forged balance correctly rejected")

    # --- The bulky attachment round-trips through shared storage -----------
    resolved = proxy.get_journal(jsn_big)
    attachment = bytes(decode(resolved.payload)["attachment"])
    assert attachment.startswith(b"%PDF-")
    print(f"\nattachment for jsn {jsn_big}: {len(attachment):,} bytes, "
          f"resolved via reference {resolved.ref.digest.hex()[:12]}… "
          "(integrity-checked read)")

    # --- Account lineage via clues ------------------------------------------
    jsns = ledger.list_tx("ACCT:alice")
    proof = ledger.prove_clue("ACCT:alice")
    digests = {i: ledger.get_journal(j).tx_hash() for i, j in enumerate(jsns)}
    assert proof.verify(digests, ledger.state_root())
    print(f"\nalice's account lineage: {len(jsns)} transfers, "
          "complete and untampered (CM-Tree verification)")


if __name__ == "__main__":
    main()
