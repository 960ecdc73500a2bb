"""Turn windows, counters and spans into the metrics ``BENCHMARK.json`` names.

``end_to_end`` is computed from the slices of one untraced window.  ``per_layer`` is
computed from a traced window (spans, counter deltas), an untraced reference
window taken just before it (tracing overhead, and the figures of single
request types that not every workload has and that therefore cannot be
end-to-end metrics under the driver's contract), and facts measured at
set-up or tear-down.  Every ``*_us_per_op`` is self-CPU microseconds per
journal the traced window's requests covered; a layer the workload bypasses
reads 0.
"""

from __future__ import annotations

from harness import Window, better_quartile, median, peak_rss_mb, percentile
from trace import TraceResult
from workloads import Workload

P99_MIN_SAMPLES = 1000


def end_to_end(workload: Workload, window: Window, setup_s: float) -> dict[str, float]:
    """The bounded figures: the better quartile over the window's slices."""
    slices = window.slices
    busy = [item for item in slices if item.journals > 0]
    return {
        "setup_s": setup_s,
        "op_tput": better_quartile([item.journals / item.seconds for item in slices], "higher"),
        "op_p50_ms": better_quartile(
            [median(item.latencies_s) * 1e3 for item in slices if item.latencies_s], "lower"
        ),
        "cpu_ms_per_op": better_quartile(
            [item.cpu_s / item.journals * 1e3 for item in busy], "lower"
        ),
        "stored_bytes_per_user_byte": workload.stored_bytes / max(workload.user_bytes, 1),
        "peak_rss_mb": peak_rss_mb(),
    }


def _p99_ms(samples: list[float]) -> float:
    return percentile(samples, 0.99) * 1e3 if len(samples) >= P99_MIN_SAMPLES else 0.0


def by_request_type(workload: Workload, window: Window) -> dict[str, float]:
    """What ``op_tput`` and ``op_p50_ms`` leave unsaid about single request types.

    The tail of the workload's own request, the verifying reader of
    ``mixed_tcp`` (its op is the append) and the three stages of an auditor
    round.  p99 is reported only from 1000 samples up; a type the workload
    does not issue reads 0.
    """
    own_p99 = _p99_ms(window.latencies_s)
    reader = window.samples.get("verify_s", [])
    audits = window.samples.get("audit_s", [])
    return {
        "append_p99_ms": own_p99 if workload.request == "append" else 0.0,
        "verify_p99_ms": own_p99 if workload.request == "verify" else _p99_ms(reader),
        "verify_tput": len(reader) / window.elapsed_s if reader else 0.0,
        "verify_p50_ms": median(reader) * 1e3,
        "audit_tput": window.counts["journals"] / median(audits) if audits else 0.0,
        "reopen_s": median(window.samples.get("reopen_s", [])),
        "bundle_roundtrip_s": median(window.samples.get("bundle_s", [])),
    }


def _delta(after: dict[str, float], before: dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def per_layer(
    workload: Workload,
    reference: Window,
    traced: Window,
    trace: TraceResult,
    before: dict[str, float],
    after: dict[str, float],
    *,
    traced_wall_s: float,
    traced_process_cpu_s: float,
    gc_s: float,
    ping_rtt_us: float,
    calib_score: float,
    proof_bytes: float,
) -> dict[str, float]:
    ops = max(traced.ops, 1)
    requests = max(len(traced.latencies_s), 1)

    def us_per_op(seconds: float) -> float:
        return seconds * 1e6 / ops

    def self_us(*prefixes: str) -> float:
        return us_per_op(trace.self_cpu(*prefixes))

    client_groups = ("client_loop", "generator")
    server_groups = ("server_loop", "server_pool")
    net_client = sum(trace.self_cpu("net.", group=group) for group in client_groups)
    net_server = sum(trace.self_cpu("net.", group=group) for group in server_groups)
    services = sorted({key.split(".")[0] for key in after if key.startswith("service")})
    committed = [_delta(after, before, f"{service}.committed") for service in services]
    batches = sum(_delta(after, before, f"{service}.batches") for service in services)
    hits = _delta(after, before, "pages.cache_hits")
    misses = _delta(after, before, "pages.cache_misses")
    frames = trace.get("net.frame_out")
    fsync = trace.get("storage.fsync")
    fold = trace.get("merkle.proof_fold")
    sth = trace.get("transparency.sth")
    covered = sum(item.self_cpu_s for item in trace.totals.values())
    user_bytes = max(workload.user_bytes, 1)
    facts = workload.facts
    journals = traced.counts.get("journals", 0.0)
    slice_tputs = [item.journals / item.seconds for item in reference.slices]
    quiet_tput = better_quartile(slice_tputs, "higher")

    metrics = {
        "crypto.sign_us_per_op": self_us("crypto.sign"),
        "crypto.verify_us_per_op": self_us("crypto.verify"),
        "crypto.verify_calls_per_op": trace.get("crypto.verify").units / ops,
        "encoding.encode_us_per_op": self_us("encoding.encode"),
        "encoding.decode_us_per_op": self_us("encoding.decode"),
        "net.client_us_per_op": us_per_op(net_client + trace.residual_cpu("client_loop")),
        "net.server_us_per_op": us_per_op(net_server + trace.residual_cpu(*server_groups)),
        "net.frames_per_op": frames.calls / ops,
        "net.frame_bytes_per_op": frames.units / ops,
        "net.ping_rtt_us": ping_rtt_us,
        "net.verify_retry_share": traced.retries / traced.retry_ops if traced.retry_ops else 0.0,
        "service.self_us_per_op": us_per_op(
            trace.self_cpu("service.") + trace.residual_cpu("writer_loop")
        ),
        "service.batch_size_mean": sum(committed) / batches if batches else 0.0,
        "service.queue_wait_us_p50": median(trace.samples.get("service.commit", [])) * 1e6,
        "core.admit_us_per_op": self_us("core.admit"),
        "core.commit_us_per_op": self_us("core.commit", "core.append"),
        "core.get_proof_us_per_op": self_us("core.get_proof", "core.get_journal"),
        "core.reopen_us_per_op": self_us("core.open", "core.export_view", "core.checkpoint"),
        "core.checkpoint_s": facts.get("checkpoint_s", 0.0),
        "merkle.fam_append_us_per_op": self_us("merkle.fam_append"),
        "merkle.cmtree_update_us_per_op": self_us("merkle.cmtree_update"),
        "merkle.proof_gen_us_per_op": self_us("merkle.proof_gen"),
        "merkle.proof_fold_us_per_op": self_us("merkle.proof_fold"),
        "merkle.proof_nodes_per_verify": fold.units / requests,
        "storage.stream_write_us_per_op": self_us("storage.stream_write"),
        "storage.fsync_wall_us_per_op": us_per_op(fsync.wall_s),
        "storage.fsyncs_per_op": fsync.calls / ops,
        "storage.stream_read_us_per_op": self_us("storage.stream_read"),
        "storage.page_get_us_per_op": self_us("storage.page_get"),
        "storage.page_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "storage.page_loads_per_verify": _delta(after, before, "pages.page_loads") / requests,
        "storage.page_flush_us_per_op": self_us("storage.page_flush"),
        "storage.page_bytes_per_user_byte": facts.get("page_bytes", 0.0) / user_bytes,
        "storage.stream_bytes_per_user_byte": facts.get("stream_bytes", 0.0) / user_bytes,
        "shard.imbalance": (
            max(committed) / (sum(committed) / len(committed))
            if len(committed) > 1 and sum(committed)
            else 0.0
        ),
        "timeauth.anchor_us_per_call": facts.get("anchor_us_per_call", 0.0),
        "transparency.sth_us_per_call": sth.cpu_s / sth.calls * 1e6 if sth.calls else 0.0,
        "audit.self_us_per_journal": self_us("audit.run"),
        "export.build_us_per_journal": self_us("export.build", "export.encode"),
        "export.decode_us_per_journal": self_us("export.decode"),
        "export.verify_us_per_journal": self_us("export.verify"),
        "export.bundle_bytes_per_journal": (
            traced.counts.get("bundle_bytes", 0.0) / journals if journals else 0.0
        ),
        "proc.cpu_cores_used": traced.cpu_s / traced_wall_s,
        "proc.gc_time_share": gc_s / traced_wall_s,
        "proc.slow_share": max(0.0, 1.0 - reference.tput / quiet_tput) if quiet_tput else 0.0,
        "sched.lag_p99_ms": percentile(traced.samples.get("lag_s", []), 0.99) * 1e3,
        "trace.cpu_coverage": covered / traced_process_cpu_s if traced_process_cpu_s else 0.0,
        "trace.overhead_share": 1.0 - traced.tput / reference.tput if reference.tput else 0.0,
        "trace.residual_client_us_per_op": us_per_op(trace.residual_cpu("client_loop")),
        "trace.residual_server_us_per_op": us_per_op(trace.residual_cpu(*server_groups)),
        "trace.residual_writer_us_per_op": us_per_op(trace.residual_cpu("writer_loop")),
        "trace.residual_generator_us_per_op": us_per_op(trace.residual_cpu("generator", "other")),
        "host.calib_score": calib_score,
        "proof_bytes_per_verify": proof_bytes,
        "failed_share": workload.tally.failed / max(workload.tally.attempted, 1),
    }
    metrics.update(by_request_type(workload, reference))
    return metrics
