"""The product/harness boundary: nothing under ``src/repro`` loads ``paper``.

The paper's tables and figures are reproduced by the top-level ``paper``
program, which drives the ledger from outside.  A fresh interpreter imports
every module of the ``repro`` package (walking it, as any user import
could) and must end with no ``paper`` module loaded — no figure driver, no
comparator simulator, no tim/bim/bAMT/ccMPT baseline, no adversary
scenario, no Figure-1 demo front end — the same discipline
``tests/test_verify_kernel.py`` holds ``repro.verify`` to.  The harness, for
its part, must run without pytest installed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

#: Module basenames the harness and the demos brought into the tree before
#: they moved out.
HARNESS_NAMES = {
    "bench",
    "baselines",
    "sim",
    "workloads",
    "tim",
    "bim",
    "bamt",
    "ccmpt",
    "attacks",
    "proxy",
    "worldstate",
    "shared",
}

_WALK = """\
import importlib, json, pkgutil, sys
sys.path.insert(0, {src!r})
import repro
walked = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in walked:
    importlib.import_module(name)
print(json.dumps({{"walked": walked, "loaded": sorted(sys.modules)}}))
"""

_NO_PYTEST = """\
import sys
sys.path.insert(0, {src!r})
sys.modules["pytest"] = None  # any `import pytest` now raises ImportError
import paper.__main__
print(" ".join(paper.__main__.EXPERIMENTS))
"""


def _run(script: str) -> str:
    # cwd is the repository root, so `paper` *would* import if anything asked.
    proc = subprocess.run(
        [sys.executable, "-c", script.format(src=SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
    )
    return proc.stdout.strip()


def test_importing_all_of_repro_loads_no_harness_module():
    result = json.loads(_run(_WALK))
    assert "repro.verify.tracker" in result["walked"]  # the walk reached the leaves
    assert "repro.__main__" in result["walked"]
    leaked = [
        name
        for name in result["loaded"]
        if name == "paper"
        or name.startswith("paper.")
        or (name.startswith("repro.") and name.rsplit(".", 1)[-1] in HARNESS_NAMES)
    ]
    assert leaked == []


def test_the_harness_imports_without_pytest():
    assert _run(_NO_PYTEST).split() == [
        "table1", "table2", "fig5", "fig7", "fig8", "fig9", "fig10", "ablations", "witness"
    ]


def test_the_cli_has_no_witness_verb():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert "demo" in proc.stdout  # the verb list was printed
    assert "witness" not in proc.stdout
