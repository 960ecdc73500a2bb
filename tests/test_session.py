"""One verifying session over two ports.

:class:`~repro.session.Session` decides everything a verifier decides; a
port only fetches.  These tests pin what that buys on every port:

* one receipt-acceptance rule — a forged LSP signature or a receipt that
  echoes another request is refused in process (direct and service-backed)
  exactly as over TCP, and nothing refused is kept;
* ``verify_dasein`` takes the journal's proof from the head its export view
  was cut at, so a commit between the two cannot fail an honest *what*;
* the session never asks which port it holds, and importing it loads
  neither the network stack nor the service layer.
"""

from __future__ import annotations

import dataclasses
import inspect
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

from repro.api import LedgerSession
from repro.core import Ledger, LedgerConfig
from repro.core.errors import VerificationFailure
from repro.crypto import KeyPair, Role
from repro.crypto.hashing import sha256
from repro.net import RemoteLedgerSession, ServerThread
from repro.session import Session
from repro.shard import ShardedLedger
from repro.timeauth import SimClock

SRC = str(Path(__file__).resolve().parent.parent / "src")
URI = "ledger://session-test"
USER = "session-user"
IMPOSTOR = KeyPair.generate(seed="session:impostor")


def make_ledger(build=Ledger):
    ledger = build(LedgerConfig(uri=URI, fractal_height=3, block_size=4), clock=SimClock())
    user = KeyPair.generate(seed="session:user")
    ledger.registry.register(USER, Role.USER, user.public)
    return ledger, user


def lsp_of(ledger) -> KeyPair:
    """The deployment's LSP key pair (seeded from the URI by default)."""
    return KeyPair.generate(seed=f"lsp:{ledger.config.uri}")


#: How a lying LSP bends an honest receipt: signed by a key that is not the
#: LSP's, or LSP-signed but echoing a request nobody sent.
FORGERIES = {
    "signature": lambda receipt, lsp: receipt.signed_by(IMPOSTOR),
    "echo": lambda receipt, lsp: dataclasses.replace(
        receipt, request_hash=sha256(b"another request")
    ).signed_by(lsp),
}


def _settled(value) -> Future:
    future: Future = Future()
    future.set_result(value)
    return future


def forging_in_process(monkeypatch, session, forge) -> None:
    """Every receipt the in-process deployment hands the port is forged."""
    ledger, service = session.ledger, session.service
    lsp = lsp_of(ledger)
    if service is None:
        append, append_batch = ledger.append, ledger.append_batch
        monkeypatch.setattr(ledger, "append", lambda request: forge(append(request), lsp))
        monkeypatch.setattr(
            ledger,
            "append_batch",
            lambda requests: [forge(receipt, lsp) for receipt in append_batch(requests)],
        )
    else:
        submit = service.submit

        def forged(request, timeout=None):
            return forge(submit(request).result(timeout), lsp)

        monkeypatch.setattr(service, "append", forged)
        monkeypatch.setattr(service, "submit", lambda request, **_kw: _settled(forged(request)))


def forging_over_tcp(monkeypatch, session, forge, lsp) -> None:
    """The server's receipts are forged on their way back over the wire."""
    remote = session.client._remote
    call = remote._call

    async def lying_call(op, **fields):
        result = await call(op, **fields)
        if op == "append":
            result = {**result, "receipt": forge(result["receipt"], lsp)}
        elif op == "append_batch":
            result = {**result, "receipts": [forge(r, lsp) for r in result["receipts"]]}
        return result

    monkeypatch.setattr(remote, "_call", lying_call)


def refuses_every_forged_receipt(session) -> None:
    with pytest.raises(VerificationFailure):
        session.append(b"one")
    with pytest.raises(VerificationFailure):
        session.append_batch([(b"two", "C"), (b"three", None)])
    assert session.state.receipts == {}  # nothing refused is kept


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
@pytest.mark.parametrize("service", [None, True], ids=["direct", "service"])
def test_in_process_port_refuses_a_forged_receipt(monkeypatch, forgery, service):
    ledger, user = make_ledger()
    with LedgerSession(ledger, client_id=USER, keypair=user, service=service) as session:
        honest = session.append(b"honest")
        assert session.receipt_for(honest.jsn) is honest
        session.state.receipts.clear()
        forging_in_process(monkeypatch, session, FORGERIES[forgery])
        refuses_every_forged_receipt(session)


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_tcp_port_refuses_a_forged_receipt(monkeypatch, forgery):
    ledger, user = make_ledger()
    with ServerThread(ledger) as served:
        with RemoteLedgerSession(
            *served.address, client_id=USER, keypair=user, expected_lsp_key=ledger.lsp_public_key
        ) as session:
            forging_over_tcp(monkeypatch, session, FORGERIES[forgery], lsp_of(ledger))
            refuses_every_forged_receipt(session)


@pytest.mark.parametrize("build", [Ledger, ShardedLedger], ids=["solo", "1-shard"])
def test_verify_dasein_takes_its_proof_from_the_views_head(monkeypatch, build):
    """A journal commits after the export view is cut and before the proof
    is fetched: the proof is still cut at the view's head, so the honest
    journal's *what* holds against the view's trusted root."""
    ledger, user = make_ledger(build)
    session = LedgerSession(ledger, client_id=USER, keypair=user)
    for index in range(6):
        session.append(b"before the cut %d" % index)
    (shard,) = ledger.shards
    export_view = shard.export_view
    cut = []

    def view_then_commit():
        view = export_view()
        cut.append(view.head.size)
        session.append(b"after the cut")
        return view

    monkeypatch.setattr(shard, "export_view", view_then_commit)
    for jsn in (2, 5):
        result = session.verify_dasein(jsn)
        assert result.what is True and result.who is True, jsn
        assert result.trusted_root != ledger.current_root()  # the head moved on
    assert cut and ledger.size == cut[-1] + 1


def test_the_session_never_asks_which_port_it_holds():
    source = inspect.getsource(Session)
    assert "isinstance(" not in source
    assert "transport ==" not in source and "transport !=" not in source


_ISOLATION = """\
import json, sys
sys.path.insert(0, {src!r})
import repro.session
banned = sorted(
    name for name in sys.modules
    if name in ("repro.service", "repro.net") or name.startswith(("repro.service.", "repro.net."))
)
print(json.dumps(banned))
"""


def test_importing_the_session_loads_no_network_or_service():
    proc = subprocess.run(
        [sys.executable, "-c", _ISOLATION.format(src=SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
