"""Offline export bundles: container round-trip, standalone verification,
bit-rot refusal, and the import-isolation guarantee (DESIGN.md §17)."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import LedgerSession
from repro.core import LedgerConfig
from repro.crypto import KeyPair, Role
from repro.export.bundle import (
    BundleCorruptionError,
    BundleError,
    ExportBundle,
    export_bundle,
)
from repro.export.verifier import verify_bundle, verify_bundle_path
from repro.shard import new_deployment
from repro.timeauth import SimClock, TimeStampAuthority

SRC = str(Path(__file__).resolve().parent.parent / "src")


def build_deployment(journals=18, shards=1, data_dir=None):
    """Deterministic TSA-anchored deployment; trailing anchor bounds every tx."""
    clock = SimClock()
    tsa = TimeStampAuthority("bundle-tsa", clock)
    kwargs = {}
    if data_dir is not None:
        kwargs = {"node_store": "paged", "data_dir": str(data_dir)}
    config = LedgerConfig(
        uri="ledger://bundle-test",
        fractal_height=3,
        block_size=4,
        shards=shards,
        **kwargs,
    )
    ledger = new_deployment(config, clock=clock)
    ledger.attach_tsa(tsa)
    user = KeyPair.generate(seed="bundle-user")
    ledger.registry.register("bundle-user", Role.USER, user.public)
    session = LedgerSession(ledger, client_id="bundle-user", keypair=user)
    for index in range(journals):
        session.append(
            b"bundle record %04d" % index, clues=(f"BND-{index % (3 * shards)}",)
        )
        clock.advance(0.25)
        if index % 6 == 5:
            ledger.anchor_time()
    ledger.anchor_time()
    ledger.commit_block()
    return ledger, {"bundle-tsa": tsa.public_key}


@pytest.fixture(scope="module")
def solo():
    ledger, tsa_keys = build_deployment()
    bundle = export_bundle(ledger, clues=("BND-0", "BND-2"))
    return ledger, tsa_keys, bundle


@pytest.fixture(scope="module")
def sharded():
    ledger, tsa_keys = build_deployment(journals=30, shards=3)
    bundle = export_bundle(ledger, clues=("BND-1", "BND-5"))
    return ledger, tsa_keys, bundle


# --------------------------------------------------------------- container


def test_round_trips_through_bytes(solo):
    _ledger, _keys, bundle = solo
    assert ExportBundle.from_bytes(bundle.to_bytes()) == bundle


def test_round_trips_through_file(solo, tmp_path):
    _ledger, _keys, bundle = solo
    path = tmp_path / "solo.bundle"
    bundle.write(path)
    loaded = ExportBundle.read(path)
    assert loaded == bundle
    assert loaded.source_path == path


def test_alien_file_is_typed(tmp_path):
    path = tmp_path / "alien.bundle"
    path.write_bytes(b"not a bundle at all")
    with pytest.raises(BundleCorruptionError):
        ExportBundle.read(path)


def test_truncated_bundle_is_typed(solo):
    _ledger, _keys, bundle = solo
    blob = bundle.to_bytes()
    with pytest.raises(BundleCorruptionError):
        ExportBundle.from_bytes(blob[: len(blob) // 2])


# ------------------------------------------------------------ verification


def test_solo_bundle_verifies_standalone(solo):
    _ledger, tsa_keys, bundle = solo
    result = verify_bundle(bundle, tsa_keys=tsa_keys)
    assert result
    assert (result.what, result.when, result.who) == (True, True, True)
    assert result.level == "standalone"
    assert result.trusted_root is not None


def test_when_is_tristate_without_tsa_keys(solo):
    _ledger, _keys, bundle = solo
    result = verify_bundle(bundle)
    assert result.ok
    assert result.when is None  # "not checked", never a silent pass


def test_sharded_bundle_verifies_standalone(sharded):
    _ledger, tsa_keys, bundle = sharded
    result = verify_bundle(bundle, tsa_keys=tsa_keys)
    assert result, result.detail
    assert bundle.num_shards == 3
    assert bundle.composite_sth


def test_wrong_lsp_pin_fails(solo):
    _ledger, _keys, bundle = solo
    stranger = KeyPair.generate(seed="stranger").public
    result = verify_bundle(bundle, lsp_public_key=stranger)
    assert not result
    assert ("who", "lsp-key", None) in {(f.factor, f.check, f.shard) for f in result.findings}


def test_wrong_ca_pin_fails(solo):
    _ledger, _keys, bundle = solo
    stranger = KeyPair.generate(seed="stranger").public
    result = verify_bundle(bundle, ca_public_key=stranger)
    assert not result
    assert result.who is False


def test_wrong_pinned_root_fails(solo):
    _ledger, _keys, bundle = solo
    result = verify_bundle(bundle, pinned_roots={0: b"\x00" * 32})
    assert not result
    assert result.what is False


def test_unknown_tsa_key_fails_when(solo):
    _ledger, _keys, bundle = solo
    wrong = {"bundle-tsa": KeyPair.generate(seed="stranger").public}
    result = verify_bundle(bundle, tsa_keys=wrong)
    assert not result
    assert result.when is False
    assert result.what is True  # only the time factor is poisoned


# --------------------------------------------------- tampering, typed always


def _tamper_entry(bundle, shard=0, slot=1):
    """Flip one payload byte inside a decoded bundle (post-container layer)."""
    section = bundle.shards[shard]
    entry = section.entries[slot]
    assert entry.data is not None
    mutated = dataclasses.replace(
        entry, data=entry.data[:-1] + bytes([entry.data[-1] ^ 0x40])
    )
    entries = list(section.entries)
    entries[slot] = mutated
    sections = list(bundle.shards)
    sections[shard] = dataclasses.replace(section, entries=tuple(entries))
    return dataclasses.replace(bundle, shards=tuple(sections))


def test_tampered_journal_bytes_fail_falsy(solo):
    _ledger, tsa_keys, bundle = solo
    result = verify_bundle(_tamper_entry(bundle), tsa_keys=tsa_keys)
    assert not result
    assert result.what is False
    jsn = bundle.shards[0].entries[1].jsn
    assert [
        (f.factor, f.check, f.shard, f.jsn, str(f)) for f in result.findings if f.check == "slice"
    ] == [("what", "slice", 0, jsn, f"shard 0: jsn {jsn} bytes do not hash to retained digest")]


def test_tampered_receipt_fails_falsy(solo):
    _ledger, _keys, bundle = solo
    blob = bundle.shards[0].latest_receipt
    forged = dataclasses.replace(
        bundle,
        shards=(
            dataclasses.replace(
                bundle.shards[0],
                latest_receipt=blob[:-1] + bytes([blob[-1] ^ 0x01]),
            ),
        ),
    )
    result = verify_bundle(forged)
    assert not result
    assert result.who is False


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_flipped_bit_is_typed_never_a_false_pass(solo, data):
    """The acceptance property: corrupt any bit of the container and the
    outcome is a typed BundleError or a falsy result — never a crash,
    never a PASS."""
    _ledger, tsa_keys, bundle = solo
    blob = bundle.to_bytes()
    bit = data.draw(st.integers(min_value=0, max_value=len(blob) * 8 - 1))
    corrupted = bytearray(blob)
    corrupted[bit // 8] ^= 1 << (bit % 8)
    try:
        decoded = ExportBundle.from_bytes(bytes(corrupted))
    except BundleError:
        return  # typed refusal at the container layer — the expected path
    result = verify_bundle(decoded, tsa_keys=tsa_keys)
    assert not result.ok
    assert result.findings and result.verify()  # and it says why


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_flipped_file_bit_keeps_verify_bundle_path_typed(solo, tmp_path_factory, data):
    _ledger, tsa_keys, bundle = solo
    path = tmp_path_factory.mktemp("rot") / "bundle.bin"
    blob = bytearray(bundle.to_bytes())
    bit = data.draw(st.integers(min_value=0, max_value=len(blob) * 8 - 1))
    blob[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(blob))
    try:
        result = verify_bundle_path(path, tsa_keys=tsa_keys)
    except BundleError:
        return
    assert not result.ok
    assert result.findings and result.verify()


def test_malformed_evidence_is_one_decode_finding(solo):
    _ledger, tsa_keys, bundle = solo
    section = bundle.shards[0]
    (jsn, _blob), *rest = section.proofs
    broken = dataclasses.replace(section, proofs=((jsn, b"\xff"), *rest))
    result = verify_bundle(dataclasses.replace(bundle, shards=(broken,)), tsa_keys=tsa_keys)
    assert [(f.factor, f.check) for f in result.findings] == [("what", "decode")]
    assert result.detail.startswith("malformed bundle evidence") and result.verify()


# ------------------------------------------------- standalone == in-process


_STANDALONE = """\
import json, sys
sys.path.insert(0, {src!r})
from repro.crypto.keys import PublicKey
from repro.export.verifier import verify_bundle_path

result = verify_bundle_path(
    {path!r}, tsa_keys={{"bundle-tsa": PublicKey.from_bytes(bytes.fromhex({key!r}))}}
)
banned = sorted(
    name for name in sys.modules
    if name in ("repro.core.ledger", "repro.service", "repro.net")
    or name.startswith(("repro.service.", "repro.net."))
)
print(json.dumps({{"blob": result.to_bytes().hex(), "banned": banned}}))
"""


def test_standalone_process_agrees_and_never_loads_the_kernel(solo, tmp_path):
    """The same bundle verifies byte-identically in a subprocess that never
    imports the ledger kernel, the service layer, or the network stack."""
    _ledger, tsa_keys, bundle = solo
    path = tmp_path / "carry-away.bundle"
    bundle.write(path)
    local = verify_bundle_path(path, tsa_keys=tsa_keys)
    assert local.ok

    script = _STANDALONE.format(
        src=SRC, path=str(path), key=tsa_keys["bundle-tsa"].to_bytes().hex()
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(proc.stdout)
    assert report["banned"] == []
    assert report["blob"] == local.to_bytes().hex()


# ------------------------------------------------------------- API surface


def test_bundle_is_an_artifact(solo):
    from repro.artifacts import is_artifact

    _ledger, tsa_keys, bundle = solo
    assert is_artifact(bundle)
    assert bundle.verify(tsa_keys=tsa_keys).ok


def test_session_export_matches_export_bundle(solo, tmp_path):
    ledger, _keys, bundle = solo
    session = LedgerSession(ledger)
    exported = session.export(tmp_path / "session.bundle", clues=("BND-0", "BND-2"))
    assert exported.source_path == tmp_path / "session.bundle"
    # created_at aside, the evidence is identical for an identical ledger state
    assert exported.to_bytes() == bundle.to_bytes()


def test_lazy_top_level_exports():
    import repro

    assert repro.ExportBundle is ExportBundle
    assert repro.export_bundle is export_bundle
    assert repro.verify_bundle is verify_bundle
    assert repro.RebuildReport.__name__ == "RebuildReport"


# --------------------------------------------------- the who-pass, in batches


def _forge_client_signature(bundle, position):
    """Swap the client signature of the ``position``-th journal (in jsn order)
    for a genuine one by the same member over another request, and re-pin the
    retained digest so the forgery reaches the who-pass instead of dying at
    the slice check.  Returns ``(bundle, forged jsn)``."""
    from repro.core.journal import Journal

    section = bundle.shards[0]
    slots = [slot for slot, entry in enumerate(section.entries) if entry.data is not None]
    slot = slots[position]
    journal = Journal.from_bytes(section.entries[slot].data)
    donor = next(
        other
        for other in (Journal.from_bytes(section.entries[s].data) for s in slots if s != slot)
        if other.client_id == journal.client_id
    )
    forged = dataclasses.replace(journal, client_signature=donor.client_signature)
    entries = list(section.entries)
    entries[slot] = dataclasses.replace(
        entries[slot], data=forged.to_bytes(), retained_hash=forged.tx_hash()
    )
    section = dataclasses.replace(section, entries=tuple(entries))
    return dataclasses.replace(bundle, shards=(section,)), journal.jsn


def _who_findings(result):
    """The *who* findings, each as its check and message."""
    return [f"{f.check}: {f}" for f in result.findings if f.factor == "who"]


def test_forged_client_signature_is_reported_against_its_own_jsn(solo):
    _ledger, tsa_keys, bundle = solo
    forged, jsn = _forge_client_signature(bundle, 4)
    result = verify_bundle(forged, tsa_keys=tsa_keys)
    assert not result
    assert result.who is False
    assert _who_findings(result) == [f"who: shard 0: jsn {jsn} fails the client signature"]


def test_each_finding_is_one_counter_and_an_honest_bundle_counts_none(solo):
    from collections import Counter

    from repro import obs

    _ledger, tsa_keys, bundle = solo
    forged, jsn = _forge_client_signature(bundle, 4)
    with obs.scoped() as registry:
        assert verify_bundle(bundle, tsa_keys=tsa_keys)
        honest = dict(registry.snapshot()["counters"])
        result = verify_bundle(forged, tsa_keys=tsa_keys)
        counters = registry.snapshot()["counters"]
    assert not [name for name in honest if name.startswith("verify.findings")]
    assert {
        name: count for name, count in counters.items() if name.startswith("verify.findings")
    } == Counter(f"verify.findings{{factor={f.factor},check={f.check}}}" for f in result.findings)
    assert counters["verify.findings{factor=who,check=who}"] == 1
    assert ("who", "who", jsn) in {(f.factor, f.check, f.jsn) for f in result.findings}


def test_forgeries_on_either_side_of_a_who_group_boundary():
    """The who-pass hands the section's signatures to the kernel as one
    batch; the member's failed aggregate is halved, and halved again, so
    forgeries on either side of a split point are each named exactly."""
    from repro.core.journal import Journal

    ledger, tsa_keys = build_deployment(journals=300)
    bundle = export_bundle(ledger)
    assert verify_bundle(bundle, tsa_keys=tsa_keys).ok
    # Positions (among journals with data, in jsn order) of the member's own
    # journals: the order of its group in the kernel's batch.
    mine = [
        position
        for position, entry in enumerate(
            e for e in bundle.shards[0].entries if e.data is not None
        )
        if Journal.from_bytes(entry.data).client_id == "bundle-user"
    ]
    half, quarter = len(mine) // 2, len(mine) // 4
    forged, jsns = bundle, []
    for index in (quarter - 1, quarter, half - 1, half, len(mine) - 1):
        forged, jsn = _forge_client_signature(forged, mine[index])
        jsns.append(jsn)
    result = verify_bundle(forged, tsa_keys=tsa_keys)
    assert result.who is False
    assert _who_findings(result) == [
        f"who: shard 0: jsn {jsn} fails the client signature" for jsn in jsns
    ]
    # A member with no certificate on file is named the same way as before.
    stripped = dataclasses.replace(
        bundle,
        certificates=tuple(c for c in bundle.certificates if c.member_id != "bundle-user"),
    )
    findings = _who_findings(verify_bundle(stripped, tsa_keys=tsa_keys))
    assert len(findings) == 300
    assert findings[0] == "who: shard 0: jsn 1 has no certificate on file"  # jsn 0 is genesis
    assert all(finding.endswith("has no certificate on file") for finding in findings)
