"""End-to-end attack scenarios: forked servers, censors, honest controls.

These tests run real TCP servers (the same :class:`~repro.net.server`
stack CI stresses elsewhere) against *stock* clients — no test-only
verification hooks.  Detection must come from the shipped transparency
surface: STH gossip for forks, ack deadlines for censorship, and every
piece of produced evidence must verify offline from its serialized bytes
alone.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import KeyPair
from repro.transparency import (
    CensorshipEvidence,
    EquivocationEvidence,
    Witness,
    verify_equivocation,
)

from paper.witness import (
    CensoringLedgerServer,
    ForkingServer,
    run_censorship,
    run_fork_equivocation,
    run_honest_server,
)


class TestForkEquivocation:
    def test_stock_clients_detect_fork_via_sth_gossip(self, tmp_path):
        result = run_fork_equivocation(tmp_path)
        assert result.detected
        assert result.evidence_verified
        assert "fork-heads" in result.evidence_kinds

    def test_each_fork_is_locally_flawless(self, tmp_path):
        """The attack is invisible to any client that talks to one fork:
        appends verify, proofs verify, a solo witness round stays clean."""
        with ForkingServer(tmp_path) as fork:
            fork.seed(4)
            fork.diverge(b"pays bob", b"pays mallory")
            fork.start()
            from paper.witness import _connect

            for address in (fork.address_a, fork.address_b):
                witness = Witness(fork.lsp_public_key)
                with _connect(address) as session:
                    head = session.get_sth()
                    assert head.verify(fork.lsp_public_key)
                    assert witness.audit(session).clean
                assert not witness.evidence

    def test_evidence_survives_serialization(self, tmp_path):
        with ForkingServer(tmp_path) as fork:
            fork.seed(4)
            fork.diverge(b"pays bob", b"pays mallory")
            fork.start()
            from paper.witness import _connect

            witness = Witness(fork.lsp_public_key)
            with _connect(fork.address_a) as session:
                witness.audit(session)
            with _connect(fork.address_b) as session:
                witness.audit(session)
            assert witness.evidence
            for evidence in witness.evidence:
                decoded = EquivocationEvidence.from_bytes(evidence.to_bytes())
                assert verify_equivocation(decoded, fork.lsp_public_key)
                # The transcript is key-bound: a different LSP refutes it.
                other = KeyPair.generate(seed="some-other-lsp").public
                assert not verify_equivocation(decoded, other)


class TestCensorship:
    def test_acked_then_dropped_yields_unrefutable_evidence(self, tmp_path):
        result = run_censorship(tmp_path)
        assert result.detected
        assert result.evidence_verified
        assert result.evidence_kinds == ("censorship",)
        assert result.refutation_succeeded is False
        # The forged receipt DID fool the stock client — receipts alone
        # cannot prove liveness; that is exactly what the ack closes.
        assert "fooled the client: True" in result.detail

    def test_evidence_matures_only_past_deadline(self, tmp_path):
        result = run_censorship(tmp_path, deadline_epochs=2)
        assert result.detected
        assert result.refutation_succeeded is False


class TestHonestControl:
    def test_honest_server_triggers_nothing(self, tmp_path):
        result = run_honest_server(tmp_path)
        assert not result.detected
        assert result.evidence_kinds == ()
        assert result.alarms == ()
        # The honest server refutes the censorship accusation with an
        # inclusion proof for the acked request.
        assert result.refutation_succeeded is True

    @pytest.mark.parametrize("rounds,appends", [(1, 2), (2, 7), (4, 3)])
    def test_honest_server_clean_across_workloads(self, tmp_path, rounds, appends):
        result = run_honest_server(
            tmp_path, rounds=rounds, appends_per_round=appends
        )
        assert not result.detected
        assert result.evidence_kinds == () and result.alarms == ()

    @settings(max_examples=5, deadline=None)
    @given(
        rounds=st.integers(min_value=1, max_value=4),
        appends=st.integers(min_value=1, max_value=9),
        height=st.integers(min_value=2, max_value=3),
    )
    def test_honest_server_never_accused(self, rounds, appends, height):
        """Property: no honest workload shape produces evidence or alarms —
        false positives would make the whole layer cry-wolf useless."""
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory(prefix="transparency-prop-") as tmp:
            result = run_honest_server(
                Path(tmp),
                fractal_height=height,
                rounds=rounds,
                appends_per_round=appends,
            )
        assert not result.detected
        assert result.evidence_kinds == () and result.alarms == ()
        assert result.refutation_succeeded is True


class TestCensoringServerDouble:
    def test_double_only_drops_marked_payloads(self, tmp_path):
        from repro.net import ServerThread
        from paper.witness import _build_ledger, _connect

        ledger = _build_ledger("ledger://selective", tmp_path / "led", 2)
        with ServerThread(ledger, server_cls=CensoringLedgerServer) as served:
            host, port = served.address
            with _connect((host, port), with_identity=True) as session:
                kept = session.append(b"innocuous", clue="OK")
                assert kept.verify(ledger.lsp_public_key)
                assert session.list_tx("OK")
                session.append(b"this one: censor-me", clue="GONE")
                assert session.list_tx("GONE") == []
            assert len(served.server.dropped) == 1
