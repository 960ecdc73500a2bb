"""repro.obs — the observability layer (metrics + tracing, DESIGN.md §10).

One module-level registry serves the whole process.  It starts as a
:class:`~repro.obs.metrics.NullRegistry` (every call a no-op) unless the
``REPRO_OBS`` environment variable is set truthy at import time; callers can
flip it at runtime with :func:`enable` / :func:`disable`, and
``Ledger(config=LedgerConfig(observability=True))`` enables it per-deployment.

Instrumented code uses exactly three entry points, all safe to call whether
or not observability is on::

    from .. import obs                    # or: from repro import obs

    with obs.span("ledger.append") as sp: # timing + nesting
        sp.add("journals", 1)             # per-span counter
    obs.inc("ecdsa.pubkey_cache.hit")     # bare counter
    obs.observe("storage.fsync.wall_us", dt_us)  # bare histogram sample

Overhead guarantee: with observability disabled, ``span()`` returns a shared
stateless no-op and ``inc``/``observe`` return after one module-global read —
no locks, no allocation, no string formatting.  Pinned by
``tests/test_obs.py::TestDisabledMode`` (``test_disabled_span_is_shared_noop``,
``test_disabled_calls_record_nothing``).

The registry is deliberately global: metrics from every subsystem (core,
merkle, storage, crypto) merge into one namespace so a single snapshot shows
where an ``append_batch`` spent its time.  ``snapshot()`` is JSON-serialisable
by construction.
"""

from __future__ import annotations

import os
from contextlib import contextmanager as _contextmanager

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, NullRegistry
from .tracing import NULL_SPAN, Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Span",
    "enable",
    "disable",
    "is_enabled",
    "registry",
    "span",
    "inc",
    "observe",
    "set_gauge",
    "snapshot",
    "reset",
    "scoped",
]

_NULL_REGISTRY = NullRegistry()

_enabled = os.environ.get("REPRO_OBS", "") not in ("", "0", "false", "no")
_registry: MetricsRegistry | NullRegistry = (
    MetricsRegistry() if _enabled else _NULL_REGISTRY
)


def enable() -> MetricsRegistry:
    """Install (or return the already-installed) live registry."""
    global _enabled, _registry
    if not isinstance(_registry, MetricsRegistry):
        _registry = MetricsRegistry()
    _enabled = True
    return _registry


def disable() -> None:
    """Return to the no-op registry.  Accumulated metrics are dropped."""
    global _enabled, _registry
    _enabled = False
    _registry = _NULL_REGISTRY


def is_enabled() -> bool:
    return _enabled


def registry() -> MetricsRegistry | NullRegistry:
    """The currently installed registry (null when disabled)."""
    return _registry


def span(name: str):
    """A timing span, or the shared no-op when observability is off."""
    if not _enabled:
        return NULL_SPAN
    return Span(name, _registry)


def inc(name: str, amount: int = 1) -> None:
    if _enabled:
        _registry.inc(name, amount)


def observe(name: str, value: float) -> None:
    if _enabled:
        _registry.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    if _enabled:
        _registry.set_gauge(name, value)


def snapshot() -> dict:
    """JSON-serialisable snapshot of every metric (empty shell when off)."""
    return _registry.snapshot()


def reset() -> None:
    _registry.reset()


@_contextmanager
def scoped():
    """Install a fresh registry for the block; restore the prior one after.

    Yields the temporary :class:`MetricsRegistry` so the caller can take a
    snapshot of *exactly* the block's activity.  Whatever registry (live or
    null) was installed before — including everything it had accumulated —
    comes back untouched on exit, so an instrumented workload (``python -m
    repro stats``) can run mid-process without skewing later measurements.

    The swap is process-global, like the registry itself: metrics emitted by
    *other* threads during the block also land in the scoped registry.  That
    is what lets a scoped workload capture its own background threads
    (service writers, the net server loop), and why two scoped workloads
    should not run concurrently.
    """
    global _enabled, _registry
    prior_enabled, prior_registry = _enabled, _registry
    fresh = MetricsRegistry()
    _registry = fresh
    _enabled = True
    try:
        yield fresh
    finally:
        _enabled, _registry = prior_enabled, prior_registry
