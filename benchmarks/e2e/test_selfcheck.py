"""Self-check of the end-to-end benchmark at smoke scale (about a minute).

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; it sits
outside tier-1's ``testpaths`` on purpose.  Everything but the restart
oracle's own test goes through ``run.py`` the way a user or the driver
would call it.
"""

from __future__ import annotations

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from run import UNLISTED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

WRITE_PATH = {
    "crypto.sign",
    "net.client.check_receipts",
    "service.submit",
    "service.commit",
    "core.admit",
    "core.commit",
    "merkle.fam_append",
    "merkle.cmtree_update",
    "storage.stream_write",
    "storage.fsync",
}
NET = {"net.frame_out", "net.frame_in", "net.read_frame", "net.server.dispatch", "net.client.rpc"}
READ_PATH = {"core.get_journal", "core.get_proof", "merkle.proof_gen", "storage.stream_read"}
AUDITOR = {"audit.run", "export.build", "export.encode", "export.decode", "export.verify"}
#: workload -> (spans it must record, spans it must not record)
EXPECTED = {
    "write_sharded": (WRITE_PATH | NET | {"crypto.verify"}, READ_PATH | AUDITOR),
    "verify_tcp": (READ_PATH | NET | {"merkle.proof_fold"}, WRITE_PATH | AUDITOR),
    "lineage_tcp": (
        READ_PATH | NET | {"merkle.proof_fold", "storage.page_get"},
        WRITE_PATH | AUDITOR,
    ),
    "audit_offline": (
        AUDITOR | {"core.open", "core.export_view", "crypto.verify"},
        NET | {"service.submit", "service.commit", "net.client.call"},
    ),
    "mixed_tcp": (WRITE_PATH | READ_PATH | NET | {"merkle.proof_fold"}, AUDITOR),
}


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True
    )


def result_line(*args: str) -> dict:
    done = run(*args)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def summary(tmp_path_factory) -> dict:
    """One default run: every workload, listed and unlisted, untraced then traced."""
    out = tmp_path_factory.mktemp("e2e") / "summary.json"
    done = run("--smoke", "--trace", "1", "--out", str(out))
    tail = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(tail)[-1] == "claim" and tail["claim"] is None
    # Exit 0 only if nothing failed; an unlisted workload may be red (1), never a false PASS (3).
    assert done.returncode == (1 if tail["incorrect"] else 0), done.stdout + done.stderr
    assert set(tail["incorrect"]) <= set(UNLISTED), done.stdout
    return json.loads(out.read_text())


def test_benchmark_json_is_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += LISTED + list(UNLISTED)
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(name) for name in names)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())  # the contract's limits
    assert bounds["setup_s"] == max(bounds.values())  # "give it the largest bound"
    assert bounds["stored_bytes_per_user_byte"] == 0.01  # an exact count on the fixtures
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_every_workload_prints_exactly_the_declared_metrics(summary):
    assert list(summary["workloads"]) == LISTED + list(UNLISTED)
    for name, modes in summary["workloads"].items():
        for mode in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[mode]}
            printed = {k: v["unit"] for k, v in modes[mode]["metrics"].items()}
            assert printed == declared, (name, mode)
            result = modes[mode]
            assert result["correct"] == (result["failed"] == 0), (name, mode)
            assert sum(result["causes"].values()) == result["failed"], (name, mode)
            if name in LISTED:
                assert result["correct"], (name, mode, result["causes"])
        for metric, entry in modes["end_to_end"]["metrics"].items():
            assert entry["value"] > 0, f"{metric} is 0 on {name}: end-to-end metrics are never 0"


def test_mixed_tcp_reads_every_acknowledged_append_back_after_restart(summary):
    """Whatever the program does under reads beside writes, the oracle must have looked."""
    for mode in ("end_to_end", "per_layer"):
        result = summary["workloads"]["mixed_tcp"][mode]
        assert result["facts"]["restart_checked"] > 0, mode
        assert result["attempted"] > result["facts"]["restart_checked"], mode


def test_restart_check_fires_on_a_damaged_stream(tmp_path):
    """The oracle itself: a stream that lost bytes must cost acknowledged appends."""
    import fixture
    from harness import Tally
    from repro.core.ledger import JOURNAL_FILE
    from workloads import restart_check

    fx = fixture.build(tmp_path / "fx", fixture.identities(), 256, checkpoint_at=128)
    acked = list(fx.payload_digest.items())
    intact = Tally()
    restart_check(intact, fx, acked)
    assert intact.failed == 0
    stream = fx.data_dir / JOURNAL_FILE
    data = bytearray(stream.read_bytes())
    data[len(data) // 2] ^= 0x01
    stream.write_bytes(data)
    damaged = Tally()
    restart_check(damaged, fx, acked)
    assert damaged.failed >= 1 and sum(damaged.causes.values()) == damaged.failed


def test_layers_are_exercised_where_predicted_and_bypassed_elsewhere(summary):
    for name, (exercised, bypassed) in EXPECTED.items():
        calls = summary["workloads"][name]["per_layer"]["detail"]["span_calls"]
        assert not {span for span in exercised if calls.get(span, 0) < 1}, name
        assert not {span for span in bypassed if calls.get(span, 0) > 0}, name


def test_exact_count_metrics_repeat_exactly(summary):
    again = result_line("--workload", "audit_offline", "--smoke", "--trace", "0")
    first = summary["workloads"]["audit_offline"]["end_to_end"]["metrics"]
    key = "stored_bytes_per_user_byte"
    assert again["metrics"][key]["value"] == first[key]["value"]
    again = result_line("--workload", "verify_tcp", "--smoke", "--trace", "1")
    first = summary["workloads"]["verify_tcp"]["per_layer"]["metrics"]
    key = "proof_bytes_per_verify"
    assert again["metrics"][key]["value"] == first[key]["value"] > 0


def test_result_line_has_exactly_the_contract_keys():
    line = result_line("--workload", "write_sharded", "--smoke", "--seed", "5", "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1


def test_no_program_no_result(tmp_path):
    """In a directory holding only the benchmark, it must fail without a result."""
    bare = tmp_path / "benchmarks" / "e2e"
    bare.mkdir(parents=True)
    for item in HERE.glob("*.py"):
        (bare / item.name).write_bytes(item.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "verify_tcp", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.skipif(importlib.util.find_spec("ruff") is None, reason="ruff is not installed")
@pytest.mark.parametrize("command", (["check"], ["format", "--check"]))
def test_new_files_pass_the_repo_linter(command):
    done = subprocess.run(
        [sys.executable, "-m", "ruff", *command, str(HERE)], cwd=ROOT, capture_output=True
    )
    assert done.returncode == 0, done.stdout.decode()
