"""Every entry point the end-to-end tracer wraps is still defined where it looks.

``benchmarks/e2e/trace.py`` patches ``vars(owner)[attr]`` for each of its
``BOUNDARIES``: a method must be defined on that class itself, not merely
inherited, and a function must live in that module.  A refactor that deletes
or moves one breaks only a traced benchmark run; this catches it in tier 1.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "trace.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("e2e_trace_boundaries", TRACE)
    module = importlib.util.module_from_spec(spec)
    # The module's dataclasses resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.BOUNDARIES


BOUNDARIES = _boundaries()


@pytest.mark.parametrize(
    "boundary", BOUNDARIES, ids=[f"{b.module}:{b.attr}" for b in BOUNDARIES]
)
def test_boundary_resolves_on_its_owner(boundary):
    module = importlib.import_module(boundary.module)
    owner_name, _, attr = boundary.attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert attr in vars(owner), f"{boundary.module}:{boundary.attr} is not defined there"
    raw = vars(owner)[attr]
    assert callable(getattr(raw, "__func__", raw))


CMTREE_UPDATES = [b for b in BOUNDARIES if b.span == "merkle.cmtree_update"]


@pytest.mark.parametrize(
    "boundary", CMTREE_UPDATES, ids=[f"{b.module}:{b.attr}" for b in CMTREE_UPDATES]
)
def test_cmtree_update_units_are_the_clue_updates_a_call_carries(boundary, monkeypatch):
    """The tracer's units for a CM-Tree update, applied to the arguments of
    real calls (the ledger's commit path and a direct ``add``), equal the
    CM-Tree2 entries each call appended."""
    from repro.api import LedgerSession
    from repro.core import Ledger, LedgerConfig
    from repro.crypto import KeyPair, Role
    from repro.crypto.hashing import sha256
    from repro.merkle.cmtree import CMTree
    from repro.timeauth import SimClock

    module = importlib.import_module(boundary.module)
    owner_name, _, attr = boundary.attr.rpartition(".")
    owner = getattr(module, owner_name)
    raw = vars(owner)[attr]
    seen = []

    def spy(tree, *args):
        before = sum(tree.entry_count(clue) for clue in tree.clues())
        result = raw(tree, *args)
        after = sum(tree.entry_count(clue) for clue in tree.clues())
        seen.append((boundary.units((tree, *args), result), float(after - before)))
        return result

    monkeypatch.setattr(owner, attr, spy)
    lsp = KeyPair.generate(seed="lsp:ledger://units")
    ledger = Ledger(LedgerConfig(uri="ledger://units", block_size=4), SimClock(), lsp_keypair=lsp)
    user = KeyPair.generate(seed="units-user")
    ledger.registry.register("units-user", Role.USER, user.public)
    session = LedgerSession(ledger, client_id="units-user", keypair=user)
    session.append_batch([(b"unit %d" % index, f"U-{index % 3}") for index in range(10)])
    CMTree().add("solo", sha256(b"solo"))
    assert seen
    assert all(units == appended for units, appended in seen), seen
