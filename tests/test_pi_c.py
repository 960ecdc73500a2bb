"""pi_c — the client signature — has one definition, in the verification kernel.

``repro.verify.signature_check`` decides what a client signature covers;
``signed_by``, ``signed_by_many`` (and so the bundle verifier) and the
audit's chunks all take it from there.  Structurally: no module of the
audit or the export package reads the journal fields pi_c is made of.
Differentially: journals committed with a forged pi_c fail every offline
verifier, and only those journals.
"""

import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.audit import dasein_audit, engine
from repro.core import ClientRequest
from repro.core.journal import Journal
from repro.crypto import KeyPair
from repro.export import export_bundle, verify_bundle
from repro.verify import signed_by

from conftest import LEDGER_URI, Deployment

PACKAGE = Path(repro.__file__).parent


@pytest.mark.parametrize("package", ["audit", "export"])
def test_no_offline_verifier_outside_the_kernel_reads_pi_c_fields(package):
    readers = [
        path.relative_to(PACKAGE).as_posix()
        for path in sorted((PACKAGE / package).rglob("*.py"))
        if re.search(r"\b(request_hash|client_signature)\b", path.read_text())
    ]
    assert readers == []


#: Journals a chunk of the patched size splits: 1..7 | 8..15 | 16..20.
CHUNK_SIZE = 8
APPENDS = 20


def _ledger_with_forged_pi_c(forged: tuple[int, ...]) -> Deployment:
    """An LSP that admits unsigned-for requests: the journals at ``forged``
    carry a stranger's signature over the honest request hash."""
    deployment = Deployment()
    ledger = deployment.ledger
    ledger.config = dataclasses.replace(ledger.config, require_client_signature=False)
    mallory = KeyPair.generate(seed="pi_c:mallory")
    for index in range(APPENDS):
        client = "alice" if index % 2 == 0 else "bob"
        payload = b"pi_c-%04d" % index
        request = ClientRequest.build(
            LEDGER_URI,
            client,
            payload,
            nonce=payload,
            client_timestamp=deployment.clock.now(),
        )
        jsn = ledger.size
        signer = mallory if jsn in forged else deployment.keys[client]
        assert ledger.append(request.signed_by(signer)).jsn == jsn
        deployment.clock.advance(0.25)
    ledger.commit_block()
    return deployment


@pytest.mark.parametrize(
    "forged",
    [(1,), (7,), (8,), (APPENDS,), (1, 7, 8, APPENDS)],
    ids=lambda forged: "+".join(map(str, forged)),
)
def test_every_offline_verifier_fails_exactly_the_forged_jsns(forged, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK_SIZE", CHUNK_SIZE)
    deployment = _ledger_with_forged_pi_c(forged)
    view = deployment.ledger.export_view()

    journals = [Journal.from_bytes(entry.data) for entry in view.entries]
    assert [
        journal.jsn
        for journal in journals
        if not signed_by(journal, view.certificates.get(journal.client_id))
    ] == list(forged)

    bundle = verify_bundle(export_bundle(deployment.ledger))
    assert bundle.what and not bundle.who
    failed = re.findall(r"jsn (\d+) fails the client signature", bundle.detail)
    assert [int(jsn) for jsn in failed] == list(forged)

    # The audit stops at its first failure: the earliest forged jsn.
    for workers in (0, 2):
        report = dasein_audit(view, workers=workers)
        assert [step.detail for step in report.failures()] == [
            f"jsn {forged[0]}: invalid issuer signature"
        ], workers
        assert report.journals_replayed == forged[0]
