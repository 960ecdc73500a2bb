"""Group commit across shards: one writer loop (and one fsync pipeline) each.

:class:`ShardedLedgerService` fronts a :class:`~repro.shard.sharded.ShardedLedger`
with one :class:`~repro.service.LedgerService` per shard.  Each shard's
writer thread coalesces its own admission queue into its own
``append_batch`` — so the deployment runs N concurrent group-commit
pipelines whose stream fsyncs overlap in real time, instead of serialising
behind a single writer.  This is what breaks the single-ledger fsync
ceiling; ``write_sharded`` in ``BENCHMARK.json`` measures it end to end.

The public surface mirrors :class:`LedgerService` (``submit`` /
``submit_many`` / ``append`` / ``stats`` / ``close``), with requests routed
by the same public hash partition the ledger uses, so the network server
and the v2 session API front a sharded deployment unchanged.
"""

from __future__ import annotations

from concurrent.futures import Future

from typing import Any

from ..core.journal import ClientRequest
from ..core.receipt import Receipt
from ..service import LedgerService, ServiceConfig
from .shape import has_composite, shard_of_request
from .sharded import ShardedLedger

__all__ = ["ShardedLedgerService", "deployment_service"]


def deployment_service(
    deployment: Any, config: ServiceConfig | None = None
) -> "LedgerService | ShardedLedgerService":
    """The group-commit front end of a deployment: one writer loop per shard,
    and a solo deployment's is its shard's plain :class:`LedgerService`."""
    shards = deployment.shards
    if has_composite(len(shards)):
        return ShardedLedgerService(deployment, config)
    return LedgerService(shards[0], config)


class ShardedLedgerService:
    """One group-commit front end per shard, behind one submit surface.

    Shard ``k``'s service is named ``shard-k``, so its observability
    families are per-shard (``service.queue.depth{name=shard-k}`` …) and N
    writer loops never clobber one another's metrics.
    """

    def __init__(
        self, sharded: ShardedLedger, config: ServiceConfig | None = None
    ) -> None:
        self.ledger = sharded
        self.config = config or ServiceConfig()
        self._services = [
            LedgerService(shard, self.config, name=f"shard-{index}")
            for index, shard in enumerate(sharded.shards)
        ]

    @property
    def services(self) -> list[LedgerService]:
        """The per-shard services, by shard index (treat as read-only)."""
        return list(self._services)

    def service_for(self, request: ClientRequest) -> LedgerService:
        return self._services[shard_of_request(request, len(self._services))]

    # ------------------------------------------------------------ admission

    def submit(self, request: ClientRequest, *, timeout: float | None | object = ...) -> Future:
        """Queue one request on its shard's writer; semantics of
        :meth:`LedgerService.submit` (backpressure per shard queue)."""
        return self.service_for(request).submit(request, timeout=timeout)

    def submit_many(
        self,
        requests: list[ClientRequest],
        *,
        timeout: float | None | object = ...,
    ) -> list[Future]:
        """Admit a batch across shards; futures in the requests' order.

        All-or-nothing holds for the *first* shard group touched (nothing
        is admitted anywhere if it has no room), matching the retry
        contract callers rely on.  Later groups block for room rather than
        raise — a mid-batch overload must not leave a retryable-looking
        exception behind requests that are already queued elsewhere.
        """
        groups: dict[int, list[int]] = {}
        for position, request in enumerate(requests):
            groups.setdefault(shard_of_request(request, len(self._services)), []).append(position)
        futures: list[Future | None] = [None] * len(requests)
        for order, shard_index in enumerate(sorted(groups)):
            positions = groups[shard_index]
            group_futures = self._services[shard_index].submit_many(
                [requests[position] for position in positions],
                timeout=timeout if order == 0 else None,
            )
            for position, future in zip(positions, group_futures):
                futures[position] = future
        return futures  # type: ignore[return-value]

    def append(self, request: ClientRequest, *, timeout: float | None = None) -> Receipt:
        return self.service_for(request).append(request, timeout=timeout)

    # ------------------------------------------------------------- shutdown

    def close(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Close every shard service; first failure re-raised after all."""
        errors: list[Exception] = []
        for service in self._services:
            try:
                service.close(drain=drain, timeout=timeout)
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    @property
    def closed(self) -> bool:
        return all(service.closed for service in self._services)

    def __enter__(self) -> "ShardedLedgerService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Aggregate lifetime counters plus the per-shard breakdown."""
        per_shard = [service.stats() for service in self._services]
        totals = {
            key: sum(stats[key] for stats in per_shard)
            for key in ("submitted", "committed", "rejected", "batches", "salvaged_batches", "queued")
        }
        totals["mean_batch_size"] = (
            totals["committed"] / totals["batches"] if totals["batches"] else 0.0
        )
        totals["shards"] = per_shard
        return totals

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return (
            f"<ShardedLedgerService {self.ledger.config.uri} "
            f"shards={len(self._services)} {state}>"
        )
