"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``demo``   — run the guided end-to-end scenario (append → verify → audit);
* ``audit``  — build a deterministic ledger and run the §V Dasein-complete
  audit over it (optionally parallel, resumable, JSON output);
* ``witness`` — run the §16 transparency attack scenarios (forking server,
  censoring server, honest control) against live TCP servers and report
  which produced offline-verifiable evidence;
* ``stats``  — run an instrumented workload and print the observability
  snapshot (DESIGN.md §10): per-phase spans, cache hit rates, storage I/O;
* ``compact`` — rewrite a persistent ledger's paged node store down to its
  live node set (DESIGN.md §13) and refresh the snapshot's page manifest;
* ``serve``  — expose a ledger over TCP (DESIGN.md §14): the asyncio frame
  server fronting the group-commit service, for remote verifying clients;
* ``export`` — write an offline export bundle (DESIGN.md §17) from a
  persistent ledger or a seeded demo deployment;
* ``verify-bundle`` — standalone what/when/who + STH verification of a
  bundle file, no ledger kernel imported;
* ``rebuild`` — reconstruct a full deployment from a bundle or a raw
  journal stream and cross-check every root, anchor, and tree head.

Subcommands register declaratively in :data:`_SUBCOMMANDS`: shared options
(``--json``, ``--journals``, ``--shards``, ``--data-dir``) are installed
from one place, and every command's :class:`~repro.core.errors.LedgerError`
failures are formatted uniformly (typed name + message on stderr, exit 2)
instead of per-command try/except blocks.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Any, Callable


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro import (
        KeyPair,
        Ledger,
        LedgerConfig,
        Role,
        SimClock,
        TimeLedger,
        TimeStampAuthority,
    )
    from repro.api import LedgerSession

    clock = SimClock()
    tsa = TimeStampAuthority("demo-tsa", clock)
    tledger = TimeLedger(clock, tsa, finalize_interval=1.0, admission_tolerance=2.0)
    ledger = Ledger(LedgerConfig(uri="ledger://demo", fractal_height=4, block_size=4), clock=clock)
    ledger.attach_time_ledger(tledger)
    user = KeyPair.generate(seed="demo-user")
    ledger.registry.register("demo-user", Role.USER, user.public)
    print(f"created {ledger!r}")
    session = LedgerSession(ledger, client_id="demo-user", keypair=user)
    receipts = []
    for i in range(12):
        receipts.append(session.append(f"record {i}".encode(), clue="DEMO"))
        clock.advance(0.3)
        if i % 4 == 3:
            ledger.anchor_time()
    clock.advance(2.0)
    ledger.collect_time_evidence()
    ledger.commit_block()
    tsa_keys = {"demo-tsa": tsa.public_key}
    target = receipts[5]
    report = session.verify_dasein(target.jsn, target, tsa_keys=tsa_keys)
    print(
        f"journal {target.jsn}: what={report.what} "
        f"when=({report.when_bound.lower:.1f}, {report.when_bound.upper:.1f}) "
        f"who={report.who} -> Dasein-complete={report.ok}"
    )
    audit = session.audit(tsa_keys=tsa_keys)
    print(
        f"full audit: passed={audit.passed} "
        f"({audit.journals_replayed} journals, {audit.blocks_verified} blocks, "
        f"{audit.time_journals_verified} time anchors)"
    )
    return 0 if audit.passed and report else 1


def _seeded_deployment(
    name: str,
    uri: str,
    journals: int,
    shards: int,
    *,
    fractal_height: int,
    block_size: int,
    anchor_every: int,
    data_dir: str | None = None,
):
    """Deterministic demo deployment: seeded keys, sim clock, direct TSA.

    Returns ``(session, tsa_keys)`` — a v2 session over a ledger with
    ``journals`` clue-tagged records, periodic time anchors, and committed
    blocks, identical bytes for a given argument list on every run (which is
    what makes the CLI self-checks meaningful in CI).  Over several shards
    the same workload lands on a hash-partitioned
    :class:`~repro.shard.ShardedLedger`; with ``data_dir`` it persists there
    on the paged node store.
    """
    from repro import KeyPair, LedgerConfig, Role, SimClock, TimeStampAuthority
    from repro.api import LedgerSession
    from repro.shard import new_deployment

    clock = SimClock()
    tsa = TimeStampAuthority(f"{name}-tsa", clock)
    storage = {"node_store": "paged", "data_dir": data_dir} if data_dir else {}
    config = LedgerConfig(
        uri=uri,
        fractal_height=fractal_height,
        block_size=block_size,
        shards=shards,
        **storage,
    )
    ledger = new_deployment(config, clock=clock)
    ledger.attach_tsa(tsa)
    user = KeyPair.generate(seed=f"{name}-user")
    ledger.registry.register(f"{name}-user", Role.USER, user.public)
    session = LedgerSession(ledger, client_id=f"{name}-user", keypair=user)
    # The seeded lineage, plus four clues per further shard so that every
    # shard gets journals (routing hashes the first clue).
    lineage = name.upper()
    clues = [lineage, *(f"{lineage}-{k}" for k in range(1, 4 * (shards - 1) + 1))]
    for index in range(journals):
        session.append(f"{name} record {index}".encode(), clue=clues[index % len(clues)])
        clock.advance(0.25)
        if index % anchor_every == anchor_every - 1:
            ledger.anchor_time()
    ledger.commit_block()
    return session, {f"{name}-tsa": tsa.public_key}


def _cmd_audit(args: argparse.Namespace) -> int:
    import json

    session, tsa_keys = _seeded_deployment(
        "audit", "ledger://audit", args.journals, args.shards,
        fractal_height=5, block_size=8, anchor_every=16,
    )
    checkpoint = args.resume if args.resume is not None else args.checkpoint
    report = session.audit(
        tsa_keys=tsa_keys,
        workers=args.workers,
        checkpoint=checkpoint,
        resume=args.resume is not None,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for step in report.steps:  # a sharded report prefixes each with its shard
            marker = "ok " if step.passed else "FAIL"
            print(f"  [{marker}] {step.name}: {step.detail}")
        print(
            f"audit passed={report.passed} "
            f"({report.journals_replayed} journals, {report.blocks_verified} blocks, "
            f"{report.time_journals_verified} time anchors, "
            f"workers={args.workers}, shards={args.shards})"
        )
    return 0 if report.passed else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    """Run the §16 transparency attack scenarios against live TCP servers.

    Exit status is the number of scenarios whose outcome deviates from the
    expected one (forks and censorship detected, honest server clean), so
    the command doubles as a self-check in CI.
    """
    import json
    import tempfile
    from dataclasses import asdict
    from pathlib import Path

    from repro.transparency.attacks import (
        run_censorship,
        run_fork_equivocation,
        run_honest_server,
    )

    scenarios = [
        ("fork", run_fork_equivocation, True),
        ("censorship", run_censorship, True),
        ("honest", run_honest_server, False),
    ]
    failures = 0
    results = []
    with tempfile.TemporaryDirectory(prefix="repro-witness-") as tmp:
        for name, runner, expect_detected in scenarios:
            result = runner(Path(tmp) / name)
            ok = (
                result.detected == expect_detected
                and result.evidence_verified
            )
            failures += 0 if ok else 1
            results.append((result, ok))
    if args.json:
        print(json.dumps([asdict(r) for r, _ in results], indent=2))
        return failures
    for result, ok in results:
        verdict = "as expected" if ok else "UNEXPECTED"
        print(f"[{result.scenario}] detected={result.detected} ({verdict})")
        if result.evidence_kinds:
            print(f"  evidence: {', '.join(result.evidence_kinds)} "
                  f"(offline-verified: {result.evidence_verified})")
        if result.refutation_succeeded is not None:
            print(f"  refutation succeeded: {result.refutation_succeeded}")
        print(f"  {result.detail}")
    return failures


def _compact_one(data_dir) -> dict | None:
    """Compact one ledger directory; None when it holds no paged store."""
    from repro.core.errors import SnapshotError
    from repro.core.snapshot import load_snapshot, write_snapshot
    from repro.merkle.mpt import MPT
    from repro.storage.pagestore import PagedNodeStore

    nodes_dir = data_dir / "nodes"
    if not nodes_dir.is_dir():
        return None
    store = PagedNodeStore(nodes_dir)
    snapshot_path = data_dir / "snapshot.ckpt"
    try:
        state = load_snapshot(snapshot_path)
    except SnapshotError:
        state = None
    if state is not None:
        # Live set = nodes reachable from the checkpointed CM-Tree1 root.
        # Nodes written by post-snapshot appends may be dropped too: the
        # delta replay at the next open deterministically re-creates them.
        root = bytes(state["cmtree"]["root"])
        result = store.compact(MPT(store, root=root).reachable())
        state["page_manifest"] = [list(entry) for entry in store.manifest()]
        write_snapshot(snapshot_path, state)
    else:
        # No snapshot to anchor a live set: only drop shadowed/tombstoned
        # entries (every still-indexed key survives).
        result = store.compact()
    store.close()
    return result


def _cmd_compact(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.shard import iter_shard_dirs

    data_dir = Path(args.data_dir)
    shard_dirs = list(iter_shard_dirs(data_dir))
    # A sharded data_dir holds no store of its own — compact each shard.
    targets = shard_dirs or [data_dir]
    results = {}
    for target in targets:
        result = _compact_one(target)
        if result is not None:
            results[str(target)] = result
    if not results:
        print(f"no paged node store under {data_dir}", file=sys.stderr)
        return 1
    if args.json:
        if not shard_dirs:
            # Unsharded: keep the original flat report shape.
            print(json.dumps(results[str(data_dir)], indent=2, sort_keys=True))
        else:
            print(json.dumps(results, indent=2, sort_keys=True))
    else:
        for name, result in results.items():
            print(
                f"compacted {name}: pages {result['pages_before']} -> "
                f"{result['pages_after']}, entries {result['entries_before']} -> "
                f"{result['entries_after']}, bytes {result['bytes_before']} -> "
                f"{result['bytes_after']}"
            )
    return 0


def _stats_workload(journals: int) -> dict:
    """Run an instrumented end-to-end workload; return the metrics snapshot.

    Exercises every instrumented layer: single and batched appends onto a
    durable :class:`FileStream`, fam proofs, server-side verification, full
    client-side Dasein verification, a reopen (storage.open_scan), and a
    served leg — a real socket round trip through the §14 frame server so
    the ``net.*`` families are present in the snapshot.

    Runs inside :func:`repro.obs.scoped`: the process-global registry (and
    whatever it had accumulated) is untouched afterwards, so a ``stats``
    run can never skew later measurements.
    """
    import tempfile

    from repro import (
        KeyPair,
        Ledger,
        LedgerConfig,
        Role,
        SimClock,
        TimeLedger,
        TimeStampAuthority,
    )
    from repro import obs
    from repro.api import LedgerSession
    from repro.storage.stream import FileStream

    with obs.scoped() as scoped_registry, tempfile.TemporaryDirectory(
        prefix="repro-stats-"
    ) as tmp:
        clock = SimClock()
        tsa = TimeStampAuthority("stats-tsa", clock)
        tledger = TimeLedger(clock, tsa, finalize_interval=1.0, admission_tolerance=2.0)
        stream = FileStream(f"{tmp}/journal.stream", durable=True)
        ledger = Ledger(
            LedgerConfig(uri="ledger://stats", fractal_height=4, block_size=4),
            clock=clock,
            journal_stream=stream,
        )
        ledger.attach_time_ledger(tledger)
        user = KeyPair.generate(seed="stats-user")
        ledger.registry.register("stats-user", Role.USER, user.public)

        session = LedgerSession(ledger, client_id="stats-user", keypair=user)
        half = journals // 2
        receipts = []
        for i in range(half):
            receipts.append(session.append(f"record {i}".encode(), clue="STATS"))
            clock.advance(0.1)
            if i % 4 == 3:
                ledger.anchor_time()
        receipts.extend(
            session.append_batch(
                [(f"record {i}".encode(), "STATS") for i in range(half, journals)]
            )
        )
        ledger.anchor_time()
        clock.advance(2.0)
        ledger.collect_time_evidence()
        ledger.commit_block()
        for receipt in receipts[: min(8, len(receipts))]:
            proof = ledger.get_proof(receipt.jsn)
            assert ledger.verify_journal(ledger.get_journal(receipt.jsn), proof)
        target = receipts[1]
        report = session.verify_dasein(
            target.jsn, target, tsa_keys={"stats-tsa": tsa.public_key}
        )
        assert report.what and report.who
        stream.close()
        # Reopen to exercise the open-time scan path.
        FileStream(f"{tmp}/journal.stream", durable=True).close()

        # Paged node-store leg: same appends against the on-disk backend,
        # then proof reads so the page cache / node cache counters move.
        from repro.storage.kv import CachedKVStore

        paged = Ledger(
            LedgerConfig(
                uri="ledger://stats-paged", fractal_height=4, block_size=4,
                node_store="paged", cache_pages=8, data_dir=f"{tmp}/paged",
            ),
            clock=clock,
        )
        paged.registry.register("stats-user", Role.USER, user.public)
        paged_session = LedgerSession(paged, client_id="stats-user", keypair=user)
        for i in range(journals):
            paged_session.append(f"record {i}".encode(), clue=f"STATS-{i % 4}")
            clock.advance(0.1)
        paged.commit_block()
        for i in range(4):
            ok = paged.prove_clue(f"STATS-{i}").verify(
                {
                    v: paged._cmtree.entry_digest(f"STATS-{i}", v)
                    for v in range(paged.clue_entry_count(f"STATS-{i}"))
                },
                paged.state_root(),
            )
            if not ok:
                raise RuntimeError(f"stats workload clue proof STATS-{i} failed")
        paged.get_proofs(list(range(0, paged.size, 3)), anchored=False)
        node_store_stats = paged.node_store_stats()

        # Value-level cache layer over the same backend (kvcache.* counters).
        cached = CachedKVStore(paged.node_store, capacity=32)
        sample = [key for key, _ in zip(paged.node_store.keys(), range(16))]
        for _pass in range(2):
            for key in sample:
                cached.get(key)
        kv_cache_stats = cached.stats()
        paged.close(checkpoint=False)

        # Served leg: the same appends/proofs through a real socket (§14),
        # so the snapshot carries the net.* families a deployment watches.
        _stats_net_leg(journals=min(journals, 8))

        # Sharded leg: a small hash-partitioned deployment through its
        # per-shard group-commit services, so the per-instance
        # service.*{name=shard-k} families show up in the snapshot (§15).
        _stats_shard_leg(journals=min(journals, 12))

        # Transparency leg: acked appends, epoch-close head emission, and
        # a witness cross-audit round, so the transparency.* families a
        # deployment alarms on are all present (§16).
        _stats_transparency_leg(journals=min(journals, 12))

        snapshot = scoped_registry.snapshot()
    snapshot["node_store"] = node_store_stats
    snapshot["kv_cache"] = kv_cache_stats
    return snapshot


def _stats_net_leg(journals: int) -> None:
    """Round-trip a few appends/proofs through the asyncio frame server."""
    from repro import KeyPair, Ledger, LedgerConfig, Role
    from repro.net import RemoteLedgerSession, ServerThread

    ledger = Ledger(
        LedgerConfig(uri="ledger://stats-net", fractal_height=3, block_size=4)
    )
    user = KeyPair.generate(seed="stats-net-user")
    ledger.registry.register("stats-net-user", Role.USER, user.public)
    with ServerThread(ledger) as served:
        host, port = served.address
        with RemoteLedgerSession(host, port, client_id="stats-net-user", keypair=user) as session:
            receipts = [
                session.append(f"net record {i}".encode(), clue="NET")
                for i in range(journals)
            ]
            session.get_proofs([receipt.jsn for receipt in receipts])
            session.sync_anchors()
            if not session.verify_journal(session.client.get_journal(receipts[0].jsn)):
                raise RuntimeError("stats net leg: remote verification failed")


def _stats_shard_leg(journals: int) -> None:
    """Append/verify across a small sharded deployment (§15 families)."""
    from repro import KeyPair, LedgerConfig, Role
    from repro.api import LedgerSession
    from repro.shard import ShardedLedger, ShardedLedgerService

    ledger = ShardedLedger(
        LedgerConfig(uri="ledger://stats-shard", fractal_height=3, block_size=4, shards=2)
    )
    user = KeyPair.generate(seed="stats-shard-user")
    ledger.registry.register("stats-shard-user", Role.USER, user.public)
    with ShardedLedgerService(ledger) as service:
        LedgerSession(
            ledger, client_id="stats-shard-user", keypair=user, service=service
        ).append_batch(
            [(f"shard record {i}".encode(), f"SHARD-{i}") for i in range(journals)],
            timeout=30.0,
        )
    composite = ledger.composite_root()
    for gsn in ledger.list_tx("SHARD-0"):
        journal = ledger.get_journal(gsn)
        if not ledger.get_proof(gsn).verify(journal.tx_hash(), composite):
            raise RuntimeError("stats shard leg: cross-shard proof failed")
    ledger.close()


def _stats_transparency_leg(journals: int) -> None:
    """Acked appends + STH gossip + witness audit (§16 families)."""
    from repro import KeyPair, Ledger, LedgerConfig, Role, SimClock
    from repro.api import LedgerSession
    from repro.transparency import Witness

    ledger = Ledger(
        LedgerConfig(uri="ledger://stats-transparency", fractal_height=2),
        clock=SimClock(),
    )
    user = KeyPair.generate(seed="stats-transparency-user")
    ledger.registry.register("stats-transparency-user", Role.USER, user.public)
    witness = Witness(ledger.lsp_public_key)
    with LedgerSession(
        ledger,
        lgid=ledger.config.uri,
        client_id="stats-transparency-user",
        keypair=user,
    ) as session:
        receipt, ack = session.append_acked(b"acked record", clue="TRANSPARENCY")
        if not ack.verify(ledger.lsp_public_key):
            raise RuntimeError("stats transparency leg: ack failed to verify")
        witness.audit(session)
        for i in range(journals):
            session.append(f"transparency record {i}".encode(), clue="TRANSPARENCY")
        report = witness.audit(session)
        if not report.clean:
            raise RuntimeError("stats transparency leg: honest audit not clean")


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro import KeyPair, LedgerConfig, Role
    from repro.core.ledger import LSP_MEMBER_ID
    from repro.net import LedgerServer
    from repro.shard import deployment_service, new_deployment
    from repro.shard.shape import has_composite

    config_kwargs: dict = {
        "uri": args.uri,
        "fractal_height": args.fractal_height,
        "block_size": args.block_size,
        "shards": args.shards,
    }
    if args.data_dir:
        config_kwargs.update(node_store="paged", data_dir=args.data_dir)
    deployment = new_deployment(LedgerConfig(**config_kwargs))
    service = deployment_service(deployment)  # one writer loop per shard
    registry = deployment.registry
    if args.seed_demo:
        # Deterministic demo principal so `connect()` examples work out of
        # the box: seed "demo-user" → the same keypair on every run.
        demo = KeyPair.generate(seed="demo-user")
        registry.register("demo-user", Role.USER, demo.public)

    async def run() -> None:
        servers = []
        for index, shard_service in enumerate(service.services):
            # Shard k listens on port + k (each on an ephemeral port for 0).
            server = LedgerServer(
                shard_service,
                host=args.host,
                port=0 if args.port == 0 else args.port + index,
                allow_register=args.allow_register,
                shard_context=(deployment, index),
            )
            host, bound = await server.start()
            label = f"shard {index}: " if has_composite(len(service.services)) else ""
            print(f"{label}serving {args.uri} on ledger://{host}:{bound}", flush=True)
            servers.append(server)
        lsp_key = registry.public_key(LSP_MEMBER_ID)
        print(f"lsp public key: {lsp_key.to_bytes().hex()}", flush=True)
        try:
            await asyncio.gather(*(server.serve_forever() for server in servers))
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            print("draining...", flush=True)
            for server in servers:
                await server.close(drain=True)
            service.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def _render_stats_table(snapshot: dict) -> str:
    lines = []
    counters = snapshot["counters"]
    if counters:
        width = max(len(name) for name in counters)
        lines.append("counters")
        lines.extend(f"  {name:<{width}}  {value:>12}" for name, value in counters.items())
    gauges = snapshot["gauges"]
    if gauges:
        width = max(len(name) for name in gauges)
        lines.append("gauges")
        lines.extend(f"  {name:<{width}}  {value:>12g}" for name, value in gauges.items())
    histograms = snapshot["histograms"]
    if histograms:
        width = max(len(name) for name in histograms)
        lines.append("histograms (us)")
        header = f"  {'name':<{width}}  {'count':>8} {'mean':>10} {'min':>10} {'max':>10}"
        lines.append(header)
        for name, h in histograms.items():
            lines.append(
                f"  {name:<{width}}  {h['count']:>8} {h['mean']:>10.1f} "
                f"{h['min']:>10.1f} {h['max']:>10.1f}"
            )
    for section in ("node_store", "kv_cache"):
        table = snapshot.get(section)
        if table:
            width = max(len(name) for name in table)
            lines.append(section.replace("_", " "))
            for name, value in sorted(table.items()):
                rendered = f"{value:>12.3f}" if isinstance(value, float) else f"{value:>12}"
                lines.append(f"  {name:<{width}}  {rendered}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    snapshot = _stats_workload(args.journals)
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(_render_stats_table(snapshot))
    return 0


# ------------------------------------------------- export / verify / rebuild


def _export_workload(journals: int, shards: int, data_dir: str | None = None):
    """The deterministic export-demo deployment (persistent when ``data_dir``)."""
    session, _tsa_keys = _seeded_deployment(
        "export", "ledger://export-demo", journals, shards,
        fractal_height=4, block_size=8, anchor_every=8, data_dir=data_dir,
    )
    return session.ledger


def _open_persistent(data_dir: str):
    """Reopen a persistent deployment with deployment-deterministic keys.

    The default LSP keypair is the ``lsp:<uri>`` seed every default
    deployment uses; a ledger created with an explicit operator keypair
    cannot be reopened by the CLI (the append path would mis-sign) and
    refuses with a typed error from the kernel.
    """
    from pathlib import Path

    from repro.core.ledger import CONFIG_FILE
    from repro.core.snapshot import load_config_file
    from repro.crypto.keys import KeyPair
    from repro.core.members import MemberRegistry
    from repro.shard import open_deployment

    base = Path(data_dir)
    config = load_config_file(base / CONFIG_FILE, data_dir=str(base))
    lsp_keypair = KeyPair.generate(seed=f"lsp:{config.uri}")
    return open_deployment(base, MemberRegistry(), lsp_keypair)


def _close_quietly(ledger: Any) -> None:
    """Release a CLI-opened ledger without mutating its source directory."""
    import contextlib

    with contextlib.suppress(Exception):
        ledger.close(checkpoint=False)


def _cmd_export(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.export.bundle import export_bundle

    if args.data_dir and not args.demo:
        ledger = _open_persistent(args.data_dir)
    else:
        ledger = _export_workload(args.journals, args.shards, data_dir=args.data_dir)
    try:
        bundle = export_bundle(ledger, clues=tuple(args.clue or ()), path=args.out)
    finally:
        _close_quietly(ledger)
    size = Path(args.out).stat().st_size
    if args.json:
        print(
            json.dumps(
                {
                    "path": args.out,
                    "bytes": size,
                    "ledger_uri": bundle.ledger_uri,
                    "journals": bundle.journal_count,
                    "shards": bundle.num_shards,
                    "clues": sorted(args.clue or ()),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"exported {bundle.ledger_uri}: {bundle.journal_count} journals "
            f"across {bundle.num_shards} shard(s) -> {args.out} ({size} bytes)"
        )
    return 0


def _cmd_verify_bundle(args: argparse.Namespace) -> int:
    import json

    # Deliberately only the standalone slice: repro.export.verifier never
    # imports the ledger kernel, the service layer, or the network stack.
    from repro.export.bundle import ExportBundle
    from repro.export.verifier import verify_bundle

    bundle = ExportBundle.read(args.bundle)
    result = verify_bundle(bundle)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": result.ok,
                    "what": result.what,
                    "when": result.when,
                    "who": result.who,
                    "target": result.target,
                    "level": result.level,
                    "detail": result.detail,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"bundle {args.bundle}: ok={result.ok} what={result.what} "
            f"when={result.when} who={result.who}"
        )
        if result.detail:
            print(f"  {result.detail}")
    return 0 if result.ok else 1


def _cmd_rebuild(args: argparse.Namespace) -> int:
    import json

    if (args.bundle is None) == (args.data_dir is None):
        print(
            "rebuild: pass exactly one of --bundle or --data-dir",
            file=sys.stderr,
        )
        return 2
    if args.bundle is not None:
        from repro.export.bundle import ExportBundle
        from repro.export.rebuild import rebuild_from_bundle

        ledger, report = rebuild_from_bundle(ExportBundle.read(args.bundle))
    else:
        from repro.export.rebuild import rebuild_from_stream

        ledger, report = rebuild_from_stream(args.data_dir)
    _close_quietly(ledger)
    if args.json:
        print(
            json.dumps(
                {
                    "ok": report.ok,
                    "source": report.source,
                    "ledger_uri": report.ledger_uri,
                    "num_shards": report.num_shards,
                    "journals": report.journals,
                    "checks": list(report.checks),
                    "divergences": [
                        {
                            "kind": d.kind,
                            "shard_index": d.shard_index,
                            "coordinate": d.coordinate,
                            "detail": d.detail,
                        }
                        for d in report.divergences
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"rebuilt {report.ledger_uri} from {report.source}: ok={report.ok} "
            f"({report.journals} journals, {report.num_shards} shard(s), "
            f"checks: {', '.join(report.checks)})"
        )
        for divergence in report.divergences:
            print(
                f"  DIVERGED [{divergence.kind}] shard {divergence.shard_index} "
                f"{divergence.coordinate}: {divergence.detail}"
            )
    return 0 if report.ok else 1


# ----------------------------------------------------- subcommand registry

#: An installer takes the subcommand's parser and adds arguments to it.
_Installer = Callable[[argparse.ArgumentParser], None]


def _opt_json(help: str = "print machine-readable JSON") -> _Installer:
    def install(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--json", action="store_true", help=help)

    return install


def _opt_journals(default: int) -> _Installer:
    def install(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--journals", type=int, default=default,
            help=f"workload size (default: {default})",
        )

    return install


def _opt_shards(help: str) -> _Installer:
    def install(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--shards", type=int, default=1, help=help)

    return install


def _opt_data_dir(help: str, *, positional: bool = False) -> _Installer:
    def install(parser: argparse.ArgumentParser) -> None:
        if positional:
            parser.add_argument("data_dir", help=help)
        else:
            parser.add_argument("--data-dir", default=None, help=help)

    return install


def _args_audit(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=0,
        help="parallel signature workers (0 = sequential engine)",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="write resumable checkpoints to PATH while auditing",
    )
    parser.add_argument(
        "--resume", metavar="CHECKPOINT", default=None,
        help="resume from (and keep checkpointing to) CHECKPOINT",
    )


def _args_serve(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7468, help="bind port (0 = ephemeral)"
    )
    parser.add_argument("--uri", default="ledger://served", help="ledger URI")
    parser.add_argument(
        "--fractal-height", type=int, default=8, help="FAM epoch height (default: 8)"
    )
    parser.add_argument(
        "--block-size", type=int, default=64, help="journals per block (default: 64)"
    )
    parser.add_argument(
        "--seed-demo", action="store_true",
        help='register the deterministic "demo-user" principal',
    )
    parser.add_argument(
        "--allow-register", action="store_true",
        help="let remote peers self-register as role 'user' (off by default; "
        "privileged roles can never be registered over the wire)",
    )


def _args_export(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", required=True, metavar="PATH", help="bundle file to write"
    )
    parser.add_argument(
        "--demo", action="store_true",
        help="seed the deterministic export-demo workload (into --data-dir "
        "when given, else in memory) instead of opening an existing ledger",
    )
    parser.add_argument(
        "--clue", action="append", metavar="CLUE", default=None,
        help="include this clue lineage with its CM-Tree proof (repeatable)",
    )


def _args_rebuild(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--bundle", metavar="PATH", default=None,
        help="rebuild from this export bundle file",
    )


@dataclass(frozen=True)
class Subcommand:
    """One ``python -m repro`` command, declared instead of hand-wired."""

    name: str
    help: str
    fn: Callable[[argparse.Namespace], int]
    options: tuple[_Installer, ...] = ()


_SUBCOMMANDS: tuple[Subcommand, ...] = (
    Subcommand("demo", "guided end-to-end scenario", _cmd_demo),
    Subcommand(
        "audit", "run the §V Dasein-complete audit on a seeded workload",
        _cmd_audit,
        (
            _opt_json("print the report as JSON"),
            _opt_journals(96),
            _opt_shards(
                "hash-partition the workload over N shards and audit each "
                "in parallel (default: 1)"
            ),
            _args_audit,
        ),
    ),
    Subcommand(
        "witness",
        "run the §16 non-equivocation scenarios (fork, censorship, honest)",
        _cmd_witness,
        (_opt_json("print results as JSON"),),
    ),
    Subcommand(
        "stats", "instrumented workload + observability snapshot",
        _cmd_stats,
        (_opt_json("print raw snapshot JSON"), _opt_journals(24)),
    ),
    Subcommand(
        "serve", "expose a ledger over TCP for remote verifying clients",
        _cmd_serve,
        (
            _opt_data_dir(
                "persist to this directory (paged node store); default in-memory"
            ),
            _opt_shards(
                "run N hash-partitioned shards under one composite root; "
                "shard k listens on port+k (default: 1)"
            ),
            _args_serve,
        ),
    ),
    Subcommand(
        "compact", "compact a persistent ledger's paged node store",
        _cmd_compact,
        (
            _opt_data_dir("ledger data directory (holds nodes/)", positional=True),
            _opt_json("print stats as JSON"),
        ),
    ),
    Subcommand(
        "export", "write an offline export bundle (DESIGN.md §17)",
        _cmd_export,
        (
            _opt_data_dir(
                "persistent ledger to export — or, with --demo, where to "
                "seed the demo deployment"
            ),
            _opt_json(),
            _opt_journals(24),
            _opt_shards("seed the --demo workload over N shards (default: 1)"),
            _args_export,
        ),
    ),
    Subcommand(
        "verify-bundle",
        "standalone what/when/who verification of a bundle file",
        _cmd_verify_bundle,
        (
            _opt_json(),
            lambda parser: parser.add_argument("bundle", help="bundle file to verify"),
        ),
    ),
    Subcommand(
        "rebuild",
        "rebuild a deployment from a bundle or raw stream and cross-check it",
        _cmd_rebuild,
        (
            _opt_data_dir("rebuild from this directory's raw journal stream(s)"),
            _opt_json(),
            _args_rebuild,
        ),
    ),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="LedgerDB ubiquitous-verification reproduction (ICDE 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _SUBCOMMANDS:
        command_parser = sub.add_parser(command.name, help=command.help)
        for install in command.options:
            install(command_parser)
        command_parser.set_defaults(fn=command.fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        # Uniform error surface for every subcommand: repro's typed errors
        # print as "<command>: <Type>: <message>" and exit 2 instead of a
        # traceback; genuine bugs (non-LedgerError) still traceback.
        from repro.core.errors import LedgerError

        if not isinstance(exc, LedgerError):
            raise
        print(
            f"python -m repro {args.command}: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
