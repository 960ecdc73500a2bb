"""Every example runs to completion against the current API.

Each ``examples/*.py`` is a guided tour of one public surface; one
subprocess per example (with ``src`` on the path, as the README runs them)
must exit 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert [path.stem for path in EXAMPLES] == [
        "copyright_notary",
        "light_client",
        "quickstart",
        "supply_chain",
        "timestamp_attacks",
        "verifiable_accounts",
    ]


@pytest.mark.parametrize("example", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_exits_zero(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    proc = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
