"""The ``python -m repro`` command-line interface, and the one entry point of
the paper harness, ``python -m paper [--full] [experiment ...]``."""

import pytest

from paper.__main__ import main as paper_main
from repro.__main__ import main


def test_demo_succeeds(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "Dasein-complete=True" in out
    assert "passed=True" in out


def test_table1(capsys):
    assert paper_main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "LedgerDB" in out and "Factom" in out


def test_attack(capsys):
    assert paper_main(["fig5"]) == 0
    out = capsys.readouterr().out
    assert "one-way" in out and "two-way" in out


def test_bench_selected(capsys):
    assert paper_main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out


def test_bench_unknown_experiment(capsys):
    assert paper_main(["nonsense"]) == 2
    assert "unknown experiments" in capsys.readouterr().out


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_audit_passes(capsys):
    assert main(["audit", "--journals", "24"]) == 0
    out = capsys.readouterr().out
    assert "[ok ]" in out and "passed=True" in out


def test_audit_parallel_json(capsys):
    import json

    assert main(["audit", "--journals", "24", "--workers", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["journals_replayed"] > 0


def test_audit_checkpoint_then_resume(tmp_path, capsys):
    ckpt = str(tmp_path / "cli.ckpt")
    assert main(["audit", "--journals", "24", "--checkpoint", ckpt]) == 0
    first = capsys.readouterr().out
    assert main(["audit", "--journals", "24", "--resume", ckpt]) == 0
    second = capsys.readouterr().out
    assert "passed=True" in first and "passed=True" in second


def test_stats_includes_node_store_and_kv_cache(capsys):
    import json

    assert main(["stats", "--journals", "12", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["node_store"]["backend"] == "paged"
    assert snapshot["node_store"]["backend_reads"] > 0
    assert 0.0 <= snapshot["node_store"]["cache_hit_rate"] <= 1.0
    # The full-audit row moves the audit's counters.
    assert snapshot["counters"]["audit.journals.replayed"] > 0
    assert snapshot["counters"]["audit.signatures.verified"] > 0


def test_stats_table_renders_new_sections(capsys):
    assert main(["stats", "--journals", "12"]) == 0
    out = capsys.readouterr().out
    assert "node store" in out
    assert "cache_hit_rate" in out


def _make_paged_ledger(tmp_path):
    from repro.core import ClientRequest, Ledger, LedgerConfig
    from repro.core.members import MemberRegistry
    from repro.crypto import KeyPair, Role
    from repro.timeauth import SimClock

    registry = MemberRegistry()
    lsp = KeyPair.generate(seed="cli-lsp")
    user = KeyPair.generate(seed="cli-user")
    registry.register("user", Role.USER, user.public)
    clock = SimClock()
    ledger = Ledger(
        LedgerConfig(
            uri="ledger://cli", fractal_height=3, block_size=4,
            node_store="paged", data_dir=str(tmp_path),
        ),
        clock=clock, registry=registry, lsp_keypair=lsp,
    )
    for i in range(20):
        # Re-put churn: overwrite-heavy trie updates leave shadowed entries.
        request = ClientRequest.build(
            "ledger://cli", "user", b"cli-%04d" % i, clues=("C",),
            nonce=i.to_bytes(4, "big"), client_timestamp=clock.now(),
        ).signed_by(user)
        ledger.append(request)
        clock.advance(0.5)
    ledger.commit_block()
    return ledger, registry, lsp


def test_compact_command_preserves_reopen(tmp_path, capsys):
    import json

    from repro.core import Ledger

    ledger, registry, lsp, = _make_paged_ledger(tmp_path)
    root = ledger.current_root()
    ledger.close()  # checkpoints, so compact can use the snapshot's live set
    assert main(["compact", str(tmp_path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["pages_after"] <= result["pages_before"]
    assert result["entries_after"] <= result["entries_before"]
    from repro.timeauth import SimClock

    fresh = MemberRegistry_rebuild(registry)
    reopened = Ledger.open(str(tmp_path), fresh, lsp, clock=SimClock())
    assert reopened.current_root() == root
    reopened.close(checkpoint=False)


def MemberRegistry_rebuild(registry):
    from repro.core.members import MemberRegistry

    fresh = MemberRegistry()
    cert = registry.certificate("user")
    fresh.register("user", cert.role, cert.public_key)
    return fresh


def test_compact_rejects_missing_store(tmp_path, capsys):
    assert main(["compact", str(tmp_path / "nope")]) == 1
    assert "no paged node store" in capsys.readouterr().err


def test_audit_sharded(capsys):
    assert main(["audit", "--journals", "24", "--shards", "2"]) == 0
    out = capsys.readouterr().out
    assert "shard-0" in out and "shard-1" in out
    assert "passed=True" in out and "shards=2" in out


def test_audit_sharded_json(capsys):
    import json

    assert main(
        ["audit", "--journals", "24", "--shards", "2", "--json"]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["num_shards"] == 2
    assert len(report["shards"]) == 2


def test_compact_sharded_data_dir(tmp_path, capsys):
    """A sharded data_dir holds per-shard stores; compact reports each."""
    import json

    from repro.core import ClientRequest, LedgerConfig
    from repro.crypto import KeyPair, Role
    from repro.shard import ShardedLedger

    user = KeyPair.generate(seed="cli-shard-user")
    ledger = ShardedLedger(
        LedgerConfig(
            uri="ledger://cli-sharded", fractal_height=3, block_size=4,
            shards=2, node_store="paged", data_dir=str(tmp_path),
        )
    )
    ledger.registry.register("user", Role.USER, user.public)
    for i in range(16):
        ledger.append(
            ClientRequest.build(
                "ledger://cli-sharded", "user", b"cli-%04d" % i,
                clues=(f"C{i}",), nonce=i.to_bytes(4, "big"),
                client_timestamp=1.0 + i,
            ).signed_by(user)
        )
    ledger.close()
    assert main(["compact", str(tmp_path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert len(result) == 2
    for name, report in result.items():
        assert "shard-" in name
        assert report["pages_after"] <= report["pages_before"]


# --------------------------------------------- export / verify-bundle / rebuild


def test_export_verify_rebuild_chain(tmp_path, capsys):
    """The carry-it-away flow: export → standalone verify → rebuild."""
    import json

    bundle = tmp_path / "demo.bundle"
    data = tmp_path / "demo-ledger"
    assert main([
        "export", "--demo", "--journals", "20", "--data-dir", str(data),
        "--out", str(bundle), "--clue", "EXPORT", "--json",
    ]) == 0
    exported = json.loads(capsys.readouterr().out)
    assert exported["ledger_uri"] == "ledger://export-demo"
    assert exported["journals"] >= 20
    assert bundle.exists()

    assert main(["verify-bundle", str(bundle), "--json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["ok"] is True
    assert verdict["what"] is True
    assert verdict["when"] is None  # no out-of-band TSA keys on the CLI

    assert main(["rebuild", "--bundle", str(bundle), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["divergences"] == []

    assert main(["rebuild", "--data-dir", str(data), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["source"] == "stream"


def test_export_sharded_demo(tmp_path, capsys):
    import json

    bundle = tmp_path / "sharded.bundle"
    assert main([
        "export", "--demo", "--journals", "24", "--shards", "2",
        "--out", str(bundle), "--json",
    ]) == 0
    exported = json.loads(capsys.readouterr().out)
    assert exported["shards"] == 2
    assert main(["verify-bundle", str(bundle)]) == 0
    assert main(["rebuild", "--bundle", str(bundle)]) == 0


def test_verify_bundle_rejects_corruption(tmp_path, capsys):
    bundle = tmp_path / "rot.bundle"
    assert main(["export", "--demo", "--out", str(bundle)]) == 0
    capsys.readouterr()
    blob = bytearray(bundle.read_bytes())
    blob[len(blob) // 2] ^= 0x10
    bundle.write_bytes(bytes(blob))
    assert main(["verify-bundle", str(bundle)]) == 2
    err = capsys.readouterr().err
    assert "BundleCorruptionError" in err


def test_rebuild_requires_exactly_one_source(tmp_path, capsys):
    assert main(["rebuild"]) == 2
    assert main([
        "rebuild", "--bundle", str(tmp_path / "b"), "--data-dir", str(tmp_path),
    ]) == 2


def test_rebuild_missing_data_dir_is_typed(tmp_path, capsys):
    assert main(["rebuild", "--data-dir", str(tmp_path / "nowhere")]) == 2
    assert "RebuildError" in capsys.readouterr().err


def test_export_refuses_a_bundle_that_fails_its_own_verifier(tmp_path, capsys):
    """A reopened deployment has no member certificates (they live outside
    the stream), so its bundle fails *who*: export says so, exits 1, and
    writes nothing a third party could mistake for a checked bundle."""
    data = tmp_path / "ledger"
    assert main([
        "export", "--demo", "--journals", "20", "--data-dir", str(data),
        "--out", str(tmp_path / "seeded.bundle"),
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "reopened.bundle"
    assert main(["export", "--data-dir", str(data), "--out", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "[FAIL] who" in printed
    assert not out.exists()


def test_witness_detects_forks_and_censorship_only():
    from paper import witness

    result = witness.run()
    fork, censorship, honest = (scenario for scenario, _expected in result.outcomes)
    assert fork.scenario == "fork-equivocation"
    for attack in (fork, censorship):
        assert attack.detected and attack.evidence_verified
    assert honest.scenario == "honest-server" and not honest.detected
    assert result.deviations == 0
    assert "witness: 3/3 scenarios as expected" in witness.render(result)


def test_witness_exits_nonzero_when_a_scenario_deviates(capsys, monkeypatch):
    from paper import witness

    def quiet_fork(base_dir):  # a fork nobody caught
        return witness.ScenarioResult(
            scenario="fork-equivocation",
            detected=False,
            evidence_kinds=(),
            evidence_verified=True,
            alarms=(),
        )

    monkeypatch.setattr(witness, "SCENARIOS", ((quiet_fork, True),))
    assert paper_main(["witness"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] fork-equivocation" in out and "0/1 scenarios as expected" in out


# ------------------------------------------------------------------ serve


def _start_serve(data_dir):
    """``python -m repro serve`` on an ephemeral port; returns the process,
    its ``(host, port)`` and the LSP key it printed."""
    import os
    import subprocess
    import sys
    import threading
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(root / "src"), env.get("PYTHONPATH")) if part
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--data-dir", str(data_dir), "--seed-demo", "--fractal-height", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    watchdog = threading.Timer(60, proc.kill)  # a silent hang ends the read loop
    watchdog.start()
    address, printed = None, []
    try:
        for line in proc.stdout:
            printed.append(line)
            if "serving" in line:
                host, port = line.rsplit("ledger://", 1)[1].strip().rsplit(":", 1)
                address = (host, int(port))
            if line.startswith("lsp public key: "):
                return proc, address, bytes.fromhex(line.split(": ", 1)[1].strip())
    finally:
        watchdog.cancel()
    proc.wait(10)
    raise AssertionError(f"serve exited {proc.returncode}: {''.join(printed)}")


def _interrupt(proc):
    import signal

    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(60)
    except BaseException:
        proc.kill()
        raise
    return proc.returncode


def test_serve_restarts_on_its_own_data_dir(tmp_path):
    """SIGINT checkpoints the deployment; a second ``serve`` on the same
    directory reopens it under the same LSP key, and the first run's
    journal still verifies client-side."""
    from repro.crypto import KeyPair
    from repro.net import RemoteLedgerSession

    demo = KeyPair.generate(seed="demo-user")
    proc, (host, port), lsp_key = _start_serve(tmp_path)
    try:
        with RemoteLedgerSession(
            host, port, client_id="demo-user", keypair=demo, expected_lsp_key=lsp_key
        ) as session:
            receipts = [session.append(b"kept %d" % i, clue="KEEP") for i in range(6)]
    finally:
        assert _interrupt(proc) == 0, proc.stdout.read()
    assert (tmp_path / "snapshot.ckpt").exists()

    proc, (host, port), again = _start_serve(tmp_path)
    try:
        assert again == lsp_key
        with RemoteLedgerSession(
            host, port, client_id="demo-user", keypair=demo, expected_lsp_key=lsp_key
        ) as session:
            journal = session.client.get_journal(receipts[0].jsn)
            assert journal.payload == b"kept 0"
            assert session.verify("tx", txdata=[journal], level="client")
    finally:
        assert _interrupt(proc) == 0, proc.stdout.read()
