"""Rebuild-from-truth: byte-identical reconstruction from bundles and raw
streams, typed refusal on tampered sources (DESIGN.md §17)."""

from pathlib import Path

import pytest

from repro.api import LedgerSession
from repro.core import Ledger, LedgerConfig
from repro.core.ledger import JOURNAL_FILE
from repro.crypto import KeyPair, Role
from repro.export.bundle import export_bundle
from repro.export.verifier import verify_bundle
from repro.export.rebuild import (
    RebuildError,
    RebuildReport,
    rebuild_from_bundle,
    rebuild_from_stream,
)
from repro.shard import ShardedLedger, new_deployment
from repro.storage.faults import flip_byte
from repro.timeauth import SimClock, TimeStampAuthority

URI = "ledger://rebuild-test"


def build_deployment(journals=18, shards=1, data_dir=None, build=new_deployment):
    clock = SimClock()
    tsa = TimeStampAuthority("rebuild-tsa", clock)
    kwargs = {}
    if data_dir is not None:
        kwargs = {"node_store": "paged", "data_dir": str(data_dir)}
    config = LedgerConfig(
        uri=URI, fractal_height=3, block_size=4, shards=shards, **kwargs
    )
    ledger = build(config, clock=clock)
    ledger.attach_tsa(tsa)
    user = KeyPair.generate(seed="rebuild-user")
    ledger.registry.register("rebuild-user", Role.USER, user.public)
    session = LedgerSession(ledger, client_id="rebuild-user", keypair=user)
    for index in range(journals):
        session.append(
            b"rebuild record %04d" % index, clues=(f"RB-{index % (3 * shards)}",)
        )
        clock.advance(0.25)
        if index % 6 == 5:
            ledger.anchor_time()
    ledger.anchor_time()
    ledger.commit_block()
    return ledger


# --------------------------------------------------------------- from bundle


def test_solo_rebuild_is_byte_identical():
    source = build_deployment()
    bundle = export_bundle(source)
    rebuilt, report = rebuild_from_bundle(bundle)

    assert report.ok, report.divergences
    assert report.source == "bundle"
    assert not report.divergences
    assert rebuilt.current_root() == source.current_root()
    assert dict(rebuilt.epoch_anchors().items()) == dict(
        source.epoch_anchors().items()
    )
    jsns = [0, 3, source.size - 1]
    for ours, theirs in zip(
        rebuilt.get_proofs(jsns, anchored=False),
        source.get_proofs(jsns, anchored=False),
    ):
        assert ours.to_bytes() == theirs.to_bytes()
    assert rebuilt.get_sth().root == source.get_sth().root
    for name in ("recover", "certificates", "root[0]", "anchors[0]", "sths[0]"):
        assert name in report.checks


def test_sharded_rebuild_reproduces_the_composite_root():
    source = build_deployment(journals=30, shards=3)
    bundle = export_bundle(source)
    rebuilt, report = rebuild_from_bundle(bundle)

    assert report.ok, report.divergences
    assert report.num_shards == 3
    assert rebuilt.composite_root() == source.composite_root()
    for ours, theirs in zip(rebuilt.shards, source.shards):
        assert ours.current_root() == theirs.current_root()
    assert "composite" in report.checks


def test_rebuild_cross_checks_the_live_instance():
    source = build_deployment()
    bundle = export_bundle(source)
    _rebuilt, report = rebuild_from_bundle(bundle, live=source)
    assert report.ok
    assert "live" in report.checks


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_export_verify_rebuild_round_trip(shards):
    """export → verify_bundle → rebuild_from_bundle(live=...) closes for the
    facade at every shard count; at one shard it exports a solo bundle."""
    source = build_deployment(journals=12 * shards, shards=shards, build=ShardedLedger)
    bundle = export_bundle(source)
    assert bundle.num_shards == shards
    assert bool(bundle.composite_sth) == (shards > 1)
    verdict = verify_bundle(bundle)
    assert verdict.ok, verdict.detail
    rebuilt, report = rebuild_from_bundle(bundle, live=source)
    assert report.ok, report.divergences
    assert "live" in report.checks
    assert rebuilt.current_root() == source.current_root()


def test_rebuild_accepts_pinned_heads_from_the_source():
    source = build_deployment()
    bundle = export_bundle(source)
    _rebuilt, report = rebuild_from_bundle(bundle, pinned_heads=[source.get_sth()])
    assert report.ok
    assert "pinned-heads" in report.checks


def test_alien_pinned_head_diverges():
    source = build_deployment()
    stranger = build_deployment(journals=7)
    bundle = export_bundle(source)
    _rebuilt, report = rebuild_from_bundle(bundle, pinned_heads=[stranger.get_sth()])
    assert not report.ok
    assert [(d.factor, d.check) for d in report.divergences] == [("consistency", "sth")]


def test_wrong_lsp_keypair_is_a_divergence_not_a_crash():
    source = build_deployment()
    bundle = export_bundle(source)
    _rebuilt, report = rebuild_from_bundle(
        bundle, lsp_keypair=KeyPair.generate(seed="not-the-lsp")
    )
    assert not report.ok
    assert ("who", "lsp-key", None) in {(d.factor, d.check, d.shard) for d in report.divergences}


def test_tampered_bundle_entry_never_rebuilds_clean():
    import dataclasses

    source = build_deployment()
    bundle = export_bundle(source)
    section = bundle.shards[0]
    entry = section.entries[2]
    entries = list(section.entries)
    entries[2] = dataclasses.replace(
        entry, data=entry.data[:-1] + bytes([entry.data[-1] ^ 0x20])
    )
    forged = dataclasses.replace(
        bundle, shards=(dataclasses.replace(section, entries=tuple(entries)),)
    )
    try:
        _rebuilt, report = rebuild_from_bundle(forged)
    except RebuildError:
        return  # typed refusal — acceptable
    assert not report.ok  # or it rebuilds but every root check diverges


# --------------------------------------------------------------- from stream


def test_stream_rebuild_matches_the_source(tmp_path):
    source = build_deployment(data_dir=tmp_path)
    root = source.current_root()
    source.close()

    rebuilt, report = rebuild_from_stream(tmp_path)
    try:
        assert report.ok
        assert report.source == "stream"
        assert rebuilt.current_root() == root
    finally:
        rebuilt.close(checkpoint=False)


def test_sharded_stream_rebuild_matches_the_source(tmp_path):
    source = build_deployment(journals=24, shards=2, data_dir=tmp_path)
    composite = source.composite_root()
    source.close()

    rebuilt, report = rebuild_from_stream(tmp_path)
    try:
        assert report.ok
        assert report.num_shards == 2
        assert rebuilt.composite_root() == composite
    finally:
        rebuilt.close(checkpoint=False)


def test_snapshot_reopened_source_exports_an_equivalent_bundle(tmp_path):
    """checkpoint → close → open → export must carry the same truth as the
    original process (the bundle is backend- and lifecycle-agnostic)."""
    source = build_deployment(data_dir=tmp_path)
    root = source.current_root()
    source.checkpoint()
    source.close()

    from repro.core import MemberRegistry

    registry = MemberRegistry()
    registry.register(
        "rebuild-user", Role.USER, KeyPair.generate(seed="rebuild-user").public
    )
    reopened = Ledger.open(
        str(tmp_path), registry, KeyPair.generate(seed=f"lsp:{URI}")
    )
    try:
        assert reopened.current_root() == root
        bundle = export_bundle(reopened)
        rebuilt, report = rebuild_from_bundle(bundle)
        assert report.ok, report.divergences
        assert rebuilt.current_root() == root
    finally:
        reopened.close(checkpoint=False)


def test_tampered_interior_stream_byte_refuses_to_rebuild(tmp_path):
    source = build_deployment(data_dir=tmp_path)
    source.close()

    stream_file = tmp_path / JOURNAL_FILE
    flip_byte(stream_file, stream_file.stat().st_size // 2)
    with pytest.raises(RebuildError):
        rebuild_from_stream(tmp_path)


def test_missing_data_dir_is_typed(tmp_path):
    with pytest.raises(RebuildError):
        rebuild_from_stream(tmp_path / "nowhere")


# -------------------------------------------------------------- the report


def test_report_round_trips_through_bytes():
    source = build_deployment()
    bundle = export_bundle(source)
    _rebuilt, report = rebuild_from_bundle(bundle)
    assert RebuildReport.from_bytes(report.to_bytes()) == report
    assert report.verify()


def test_report_with_divergences_round_trips():
    source = build_deployment()
    bundle = export_bundle(source)
    _rebuilt, report = rebuild_from_bundle(
        bundle, lsp_keypair=KeyPair.generate(seed="not-the-lsp")
    )
    assert report.divergences
    assert RebuildReport.from_bytes(report.to_bytes()) == report
    assert report.verify()
    assert not bool(report)


def test_report_is_an_artifact():
    from repro.artifacts import is_artifact

    source = build_deployment()
    _rebuilt, report = rebuild_from_bundle(export_bundle(source))
    assert is_artifact(report)
