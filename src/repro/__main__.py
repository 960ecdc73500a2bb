"""Command-line entry point: ``python -m repro <command>`` (``-h`` lists them).

Every verb is a few calls into a :class:`~repro.session.Session` over one
seeded (:func:`_seeded_deployment`) or reopened (:func:`_open_persistent`)
deployment, and prints through :func:`_report`: one ``[ok ]``/``FAIL`` row
per check and a summary line, or with ``--json`` the artifact's dict.  A
:class:`~repro.core.errors.LedgerError` from any verb prints as
``<command>: <Type>: <message>`` on stderr with exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

#: One check of a verb: ``(check, passed, detail)``.
Row = tuple[str, bool, str]


def _report(args: argparse.Namespace, rows: list[Row], summary: str, payload: Any) -> None:
    """The one renderer: a marker per check then ``summary``, or the JSON payload."""
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for check, passed, detail in rows:
        marker = "ok " if passed else "FAIL"
        print(f"  [{marker}] {check}: {detail}")
    print(summary)


def _fields(obj: Any, *names: str) -> dict:
    return {name: getattr(obj, name) for name in names}


def _finding_rows(groups: Any) -> list[Row]:
    """A row per ``(check, findings, ok_detail)``: FAIL with the findings, if any."""
    from repro.artifacts import bounded

    return [
        (check, not findings, bounded([str(f) for f in findings]) or ok_detail)
        for check, findings, ok_detail in groups
    ]


def _findings_json(findings: Any) -> list[dict]:
    """Each finding's fields, roots and heads in hex."""
    hexed = lambda value: value.hex() if isinstance(value, bytes) else value
    return [{key: hexed(value) for key, value in vars(f).items()} for f in findings]


def _seeded_deployment(
    name: str,
    journals: int,
    shards: int = 1,
    *,
    uri: str | None = None,
    fractal_height: int = 4,
    block_size: int = 8,
    anchor_every: int = 8,
    data_dir: str | None = None,
):
    """Deterministic demo deployment: seeded keys, sim clock, direct TSA.

    Returns ``(session, tsa_keys)`` — a session over a ledger (URI
    ``ledger://<name>`` by default) with ``journals`` clue-tagged records,
    periodic time anchors, and committed blocks, identical bytes for a given
    argument list on every run (which is what makes the CLI self-checks
    meaningful in CI).  Over several shards the same workload lands on a
    hash-partitioned :class:`~repro.shard.ShardedLedger`; with ``data_dir``
    it persists there on the paged node store.
    """
    from repro import KeyPair, LedgerConfig, Role, SimClock, TimeStampAuthority
    from repro.api import LedgerSession
    from repro.shard import new_deployment

    clock = SimClock()
    tsa = TimeStampAuthority(f"{name}-tsa", clock)
    storage = {"node_store": "paged", "data_dir": data_dir} if data_dir else {}
    config = LedgerConfig(
        uri=uri or f"ledger://{name}",
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


def _open_persistent(data_dir: str):
    """Reopen a persistent deployment with deployment-deterministic keys.

    The default LSP keypair is the ``lsp:<uri>`` seed every default
    deployment uses; a ledger created with an explicit operator keypair
    cannot be reopened by the CLI (the append path would mis-sign) and
    refuses with a typed error from the kernel.  Member certificates live
    outside the stream (DESIGN.md §9): the registry comes back empty.
    """
    from repro.core.ledger import CONFIG_FILE
    from repro.core.members import MemberRegistry
    from repro.core.snapshot import load_config_file
    from repro.crypto.keys import KeyPair
    from repro.shard import open_deployment

    config = load_config_file(Path(data_dir) / CONFIG_FILE, data_dir=data_dir)
    lsp_keypair = KeyPair.generate(seed=f"lsp:{config.uri}")
    return open_deployment(data_dir, MemberRegistry(), lsp_keypair)


def _close_quietly(ledger: Any) -> None:
    """Release a CLI-opened ledger without mutating its source directory."""
    import contextlib

    with contextlib.suppress(Exception):
        ledger.close(checkpoint=False)


def _verdict_rows(result: Any) -> list[Row]:
    """The what/when/who rows of a :class:`~repro.artifacts.VerifyResult`,
    each from that factor's findings; a factor that was not checked
    (``None``, e.g. *when* without TSA keys) gets no row rather than a pass."""
    return _finding_rows(
        (factor, [f for f in result.findings if f.factor == factor], "verified")
        for factor in ("what", "when", "who")
        if getattr(result, factor) is not None
    )


# ------------------------------------------------------------------- verbs


def _cmd_demo(args: argparse.Namespace) -> int:
    session, tsa_keys = _seeded_deployment("demo", 12, block_size=4, anchor_every=4)
    print(f"created {session.ledger!r}")
    jsn = sorted(session.state.receipts)[5]
    report = session.verify_dasein(jsn, tsa_keys=tsa_keys)
    bound = report.when_bound
    when = f"({bound.lower:.1f}, {bound.upper:.1f})" if bound else "unbounded"
    audit = session.audit(tsa_keys=tsa_keys)
    rows = [
        (
            f"journal {jsn}",
            report.ok,
            f"what={report.what} when={when} who={report.who} -> Dasein-complete={report.ok}",
        ),
        (
            "full audit",
            audit.passed,
            f"passed={audit.passed} ({audit.journals_replayed} journals, "
            f"{audit.blocks_verified} blocks, {audit.time_journals_verified} time anchors)",
        ),
    ]
    ok = audit.passed and report.ok
    _report(args, rows, f"demo passed={ok}", None)
    return 0 if ok else 1


def _cmd_audit(args: argparse.Namespace) -> int:
    session, tsa_keys = _seeded_deployment(
        "audit", args.journals, args.shards, fractal_height=5, anchor_every=16
    )
    report = session.audit(
        tsa_keys=tsa_keys,
        workers=args.workers,
        checkpoint=args.resume if args.resume is not None else args.checkpoint,
        resume=args.resume is not None,
    )
    reports = getattr(report, "reports", [report])
    label = "shard-{} {}" if len(reports) > 1 else "{1}"  # a sharded row names its shard
    rows = _finding_rows(
        (label.format(k, step.name), [step.finding] if step.finding else [], step.detail)
        for k, shard_report in enumerate(reports)
        for step in shard_report.steps
    )
    summary = (
        f"audit passed={report.passed} "
        f"({report.journals_replayed} journals, {report.blocks_verified} blocks, "
        f"{report.time_journals_verified} time anchors, "
        f"workers={args.workers}, shards={args.shards})"
    )
    _report(args, rows, summary, {**report.to_dict(), "findings": _findings_json(report.findings)})
    return 0 if report.passed else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run an instrumented workload on the seeded deployment; print its
    checks and metrics.  Every instrumented layer moves: durable appends
    and fsyncs, server/client TX verifies, a clue lineage, a Dasein check,
    a full audit (§12), acked appends and witness rounds (§16), paged node
    reads (§13), and a served leg through the frame server (§14).  It runs inside
    :func:`repro.obs.scoped`, so the process-global registry is untouched.
    """
    import tempfile

    from repro import obs
    from repro.net import RemoteLedgerSession
    from repro.shard import ShardedServerThread
    from repro.transparency import Witness

    with obs.scoped() as registry, tempfile.TemporaryDirectory(prefix="repro-stats-") as tmp:
        session, tsa_keys = _seeded_deployment(
            "stats", args.journals, fractal_height=2, block_size=4, anchor_every=4, data_dir=tmp
        )
        ledger = session.ledger
        try:
            journals = session.list_tx("STATS")
            sample, target = journals[:8], journals[1].jsn
            proofs = session.get_proofs([journal.jsn for journal in sample])  # anchored
            checked = [session.verify("tx", txdata=[j], rho=p) for j, p in zip(sample, proofs)]
            folded = [session.verify("tx", txdata=[j], level="client") for j in sample]
            rows: list[Row] = [
                ("TX verify at server level", all(checked), f"{len(sample)} anchored proofs"),
                ("TX verify at client level", all(folded), f"{len(sample)} journals"),
            ]
            dasein = session.verify_dasein(target, tsa_keys=tsa_keys)
            rows.append(("Dasein check", dasein.ok, f"jsn {target}"))
            audit = session.audit(tsa_keys=tsa_keys)
            rows.append(("full audit", audit.passed, f"{audit.journals_replayed} journals"))
            witness = Witness(ledger.lsp_public_key)
            _receipt, ack = session.append_acked(b"acked record", clue="STATS")
            rows.append(("submission ack", ack.verify(ledger.lsp_public_key), "signed by the LSP"))
            witness.audit(session)
            signed = registry.snapshot()["counters"].get("receipt.batches.signed", 0)
            batch = session.append_batch([(b"stats record %d" % i, "STATS") for i in range(8)])
            signed = registry.snapshot()["counters"]["receipt.batches.signed"] - signed
            batched = {"receipts": len(batch), "lsp_signatures": signed}
            rows.append((
                "batched append",
                signed < len(batch) and all(r.verify(ledger.lsp_public_key) for r in batch),
                f"{len(batch)} receipts under {signed} LSP signature(s)",
            ))
            rows.append(("witness audit", witness.audit(session).clean, "two rounds"))
            ledger.commit_block()  # flush: the lineage is read from pages, then hit
            lineage = session.list_tx("STATS")
            clue = session.verify("clue", key="STATS", txdata=lineage, level="client")
            rows.append(("clue verify", clue.ok, f"STATS, {len(lineage)} journals"))
            with ShardedServerThread(ledger) as served:
                host, port = served.addresses[0]
                with RemoteLedgerSession(
                    host,
                    port,
                    client_id=session.client_id,
                    keypair=session.keypair,
                    expected_lsp_key=ledger.lsp_public_key,
                ) as remote:
                    clue = remote.verify("clue", key="STATS", txdata=lineage, level="client")
                    rows.append(("remote clue verify", clue.ok, "over TCP"))
                    receipts = [remote.append(b"net %d" % i, clue="NET") for i in range(8)]
                    remote.get_proofs([receipt.jsn for receipt in receipts])
                    remote.sync_anchors()
                    journal = remote.client.get_journal(receipts[0].jsn)
                    rows.append(("remote TX verify", remote.verify_journal(journal).ok, "over TCP"))
            snapshot = {
                **registry.snapshot(),
                "node_store": ledger.node_store_stats(),
                "batched_append": batched,
            }
        finally:
            ledger.close(checkpoint=False)
    _report(args, rows, _render_stats_table(snapshot), snapshot)
    return 0 if all(passed for _check, passed, _detail in rows) else 1


def _render_stats_table(snapshot: dict) -> str:
    lines = []
    for section in ("counters", "gauges", "node_store", "batched_append"):
        table = snapshot[section]
        if table:
            width = max(map(len, table))
            lines.append(section.replace("_", " "))
            for name, value in table.items():
                cell = f"{value:>12.3f}" if isinstance(value, float) else f"{value:>12}"
                lines.append(f"  {name:<{width}}  {cell}")
    histograms = snapshot["histograms"]
    if histograms:
        width = max(map(len, histograms))
        lines.append("histograms (us)")
        lines.append(f"  {'name':<{width}}  {'count':>8} {'mean':>10} {'min':>10} {'max':>10}")
        for name, h in histograms.items():
            timings = " ".join(f"{h[key]:>10.1f}" for key in ("mean", "min", "max"))
            lines.append(f"  {name:<{width}}  {h['count']:>8} {timings}")
    return "\n".join(lines) if lines else "(no metrics recorded)"


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.core.ledger import compact
    from repro.shard import iter_shard_dirs

    data_dir = Path(args.data_dir)
    # A sharded data_dir holds no store of its own — compact each shard.
    shard_dirs = list(iter_shard_dirs(data_dir))
    results = {}
    for target in shard_dirs or [data_dir]:
        result = compact(target)
        if result is not None:
            results[str(target)] = result
    if not results:
        print(f"no paged node store under {data_dir}", file=sys.stderr)
        return 1
    rows = [
        (
            name,
            True,
            f"pages {r['pages_before']} -> {r['pages_after']}, entries "
            f"{r['entries_before']} -> {r['entries_after']}, bytes "
            f"{r['bytes_before']} -> {r['bytes_after']}",
        )
        for name, r in results.items()
    ]
    # Unsharded: the store's own report; sharded: one per shard directory.
    payload = results if shard_dirs else results[str(data_dir)]
    _report(args, rows, f"compacted {len(results)} node store(s)", payload)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Host the deployment until SIGINT.  A ``--data-dir`` that holds a
    ledger is reopened (its stored config wins); every exit checkpoints."""
    import threading

    from repro import KeyPair, LedgerConfig, Role
    from repro.core.ledger import CONFIG_FILE, LSP_MEMBER_ID
    from repro.shard import ShardedServerThread, new_deployment

    if args.data_dir and (Path(args.data_dir) / CONFIG_FILE).exists():
        deployment = _open_persistent(args.data_dir)
    else:
        storage = {"node_store": "paged", "data_dir": args.data_dir} if args.data_dir else {}
        config = LedgerConfig(
            uri=args.uri,
            fractal_height=args.fractal_height,
            block_size=args.block_size,
            shards=args.shards,
            **storage,
        )
        deployment = new_deployment(config)
    try:
        if args.seed_demo:
            # Deterministic demo principal so `connect()` examples work out
            # of the box: seed "demo-user" → the same keypair on every run.
            demo = KeyPair.generate(seed="demo-user")
            deployment.registry.register("demo-user", Role.USER, demo.public)
        # Shard k listens on port + k (each on an ephemeral port for 0).
        with ShardedServerThread(
            deployment, args.host, args.port, allow_register=args.allow_register
        ) as served:
            for index, uri in enumerate(served.uris()):
                label = f"shard {index}: " if served.num_shards > 1 else ""
                print(f"{label}serving {deployment.config.uri} on {uri}", flush=True)
            lsp_key = deployment.registry.public_key(LSP_MEMBER_ID)
            print(f"lsp public key: {lsp_key.to_bytes().hex()}", flush=True)
            try:
                threading.Event().wait()
            except KeyboardInterrupt:
                print("draining...", flush=True)
    finally:
        deployment.close()
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.api import LedgerSession

    if args.data_dir and not args.demo:
        session = LedgerSession(_open_persistent(args.data_dir))
    else:
        session, _tsa_keys = _seeded_deployment(
            "export", args.journals, args.shards, uri="ledger://export-demo", data_dir=args.data_dir
        )
    try:
        bundle = session.export(clues=tuple(args.clue or ()))
    finally:
        _close_quietly(session.ledger)
    # A bundle is what a third party checks: never write one that fails it.
    result = bundle.verify()
    size = bundle.write(args.out).stat().st_size if result.ok else 0
    if result.ok:
        summary = (
            f"exported {bundle.ledger_uri}: {bundle.journal_count} journals "
            f"across {bundle.num_shards} shard(s) -> {args.out} ({size} bytes)"
        )
    else:
        summary = f"export refused: the bundle fails its own verification; {args.out} not written"
    payload = {
        "ok": result.ok,
        "path": args.out if result.ok else None,
        "bytes": size,
        "ledger_uri": bundle.ledger_uri,
        "journals": bundle.journal_count,
        "shards": bundle.num_shards,
        "clues": sorted(args.clue or ()),
        "detail": result.detail,
        "findings": _findings_json(result.findings),
    }
    _report(args, _verdict_rows(result), summary, payload)
    return 0 if result.ok else 1


def _cmd_verify_bundle(args: argparse.Namespace) -> int:
    # Deliberately only the standalone slice: repro.export.verifier never
    # imports the ledger kernel, the service layer, or the network stack.
    from repro.export.verifier import verify_bundle_path

    result = verify_bundle_path(args.bundle)
    summary = (
        f"bundle {args.bundle}: ok={result.ok} what={result.what} "
        f"when={result.when} who={result.who}"
    )
    payload = _fields(result, "ok", "what", "when", "who", "target", "level", "detail")
    payload["findings"] = _findings_json(result.findings)
    _report(args, _verdict_rows(result), summary, payload)
    return 0 if result.ok else 1


def _cmd_rebuild(args: argparse.Namespace) -> int:
    from repro.export.bundle import ExportBundle
    from repro.export.rebuild import rebuild_from_bundle, rebuild_from_stream

    if (args.bundle is None) == (args.data_dir is None):
        print("rebuild: pass exactly one of --bundle or --data-dir", file=sys.stderr)
        return 2
    if args.bundle is not None:
        ledger, report = rebuild_from_bundle(ExportBundle.read(args.bundle))
    else:
        ledger, report = rebuild_from_stream(args.data_dir)
    _close_quietly(ledger)
    rows = [("cross-check", report.ok, ", ".join(report.checks))]
    rows += _finding_rows((f"DIVERGED [{f.check}]", [f], "") for f in report.divergences)
    summary = (
        f"rebuilt {report.ledger_uri} from {report.source}: ok={report.ok} "
        f"({report.journals} journals, {report.num_shards} shard(s))"
    )
    payload = _fields(report, "ok", "source", "ledger_uri", "num_shards", "journals", "checks")
    payload["divergences"] = _findings_json(report.divergences)
    _report(args, rows, summary, payload)
    return 0 if report.ok else 1


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="LedgerDB ubiquitous-verification reproduction (ICDE 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    json_help = "print machine-readable JSON"

    demo = sub.add_parser("demo", help="guided end-to-end scenario")
    demo.set_defaults(fn=_cmd_demo)

    audit = sub.add_parser("audit", help="run the §V Dasein-complete audit on a seeded workload")
    audit.set_defaults(fn=_cmd_audit)
    audit.add_argument("--json", action="store_true", help=json_help)
    audit.add_argument("--journals", type=int, default=96, help="workload size (default: 96)")
    audit.add_argument(
        "--shards",
        type=int,
        default=1,
        help="hash-partition the workload over N shards, audited in parallel (default: 1)",
    )
    audit.add_argument(
        "--workers", type=int, default=0, help="parallel signature workers (0 = sequential)"
    )
    audit.add_argument(
        "--checkpoint", metavar="PATH", help="write resumable checkpoints to PATH while auditing"
    )
    audit.add_argument(
        "--resume", metavar="CHECKPOINT", help="resume from (and keep checkpointing to) CHECKPOINT"
    )

    stats = sub.add_parser("stats", help="instrumented workload + observability snapshot")
    stats.set_defaults(fn=_cmd_stats)
    stats.add_argument("--json", action="store_true", help="print raw snapshot JSON")
    stats.add_argument("--journals", type=int, default=24, help="workload size (default: 24)")

    serve = sub.add_parser("serve", help="expose a ledger over TCP for remote verifying clients")
    serve.set_defaults(fn=_cmd_serve)
    serve.add_argument(
        "--data-dir",
        help="persist to this directory (paged node store), reopening the ledger it "
        "holds; default in-memory",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run N hash-partitioned shards under one composite root; shard k "
        "listens on port+k (default: 1)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=7468, help="bind port (0 = ephemeral)")
    serve.add_argument("--uri", default="ledger://served", help="ledger URI")
    serve.add_argument(
        "--fractal-height", type=int, default=8, help="FAM epoch height (default: 8)"
    )
    serve.add_argument(
        "--block-size", type=int, default=64, help="journals per block (default: 64)"
    )
    serve.add_argument(
        "--seed-demo", action="store_true", help='register the deterministic "demo-user"'
    )
    serve.add_argument(
        "--allow-register",
        action="store_true",
        help="let remote peers self-register as role 'user' (off by default; "
        "privileged roles can never be registered over the wire)",
    )

    compact = sub.add_parser("compact", help="compact a persistent ledger's paged node store")
    compact.set_defaults(fn=_cmd_compact)
    compact.add_argument("data_dir", help="ledger data directory (holds nodes/)")
    compact.add_argument("--json", action="store_true", help=json_help)

    export = sub.add_parser("export", help="write an offline export bundle (DESIGN.md §17)")
    export.set_defaults(fn=_cmd_export)
    export.add_argument(
        "--data-dir",
        help="persistent ledger to export — or, with --demo, where to seed the demo deployment",
    )
    export.add_argument("--json", action="store_true", help=json_help)
    export.add_argument("--journals", type=int, default=24, help="workload size (default: 24)")
    export.add_argument(
        "--shards", type=int, default=1, help="seed the --demo workload over N shards"
    )
    export.add_argument("--out", required=True, metavar="PATH", help="bundle file to write")
    export.add_argument(
        "--demo",
        action="store_true",
        help="seed the deterministic export-demo workload (into --data-dir when "
        "given, else in memory) instead of opening an existing ledger",
    )
    export.add_argument(
        "--clue",
        action="append",
        metavar="CLUE",
        help="include this clue lineage with its CM-Tree proof (repeatable)",
    )

    verify = sub.add_parser(
        "verify-bundle", help="standalone what/when/who verification of a bundle file"
    )
    verify.set_defaults(fn=_cmd_verify_bundle)
    verify.add_argument("--json", action="store_true", help=json_help)
    verify.add_argument("bundle", help="bundle file to verify")

    rebuild = sub.add_parser(
        "rebuild", help="rebuild a deployment from a bundle or raw stream and cross-check it"
    )
    rebuild.set_defaults(fn=_cmd_rebuild)
    rebuild.add_argument("--data-dir", help="rebuild from this directory's raw journal stream(s)")
    rebuild.add_argument("--json", action="store_true", help=json_help)
    rebuild.add_argument("--bundle", metavar="PATH", help="rebuild from this export bundle file")
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
