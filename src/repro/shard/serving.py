"""Serve a deployment: one listener per shard, one trust root.

:class:`ShardedServerThread` hosts one :class:`~repro.net.server.ServerThread`
per shard — shard ``k`` on ``port + k`` (or an ephemeral port each for
``port=0``) — in front of that shard's writer loop.  Each listener speaks
the single-ledger protocol, so a :class:`~repro.session.Session` over a
:class:`~repro.net.client.RemoteLedgerClient` works against a shard unchanged; ``shard_info`` adds the shard's link into
the composite root (DESIGN.md §15).  Remote routing is client-side:
:meth:`ShardedServerThread.address_for` applies the public hash partition.
"""

from __future__ import annotations

from typing import Any

from ..core.errors import UsageError
from ..core.ledger import Ledger
from ..net.server import ServerThread
from ..service import LedgerService, ServiceConfig
from .service import ShardedLedgerService, deployment_service
from .shape import shard_of_key
from .sharded import ShardedLedger

__all__ = ["ShardedServerThread"]


class ShardedServerThread:
    """N per-shard :class:`ServerThread` listeners over one deployment.

    Pass a deployment — a :class:`ShardedLedger`, or a solo :class:`Ledger`
    served as its one shard — and its
    :func:`~repro.shard.service.deployment_service` is built and owned
    (closed with the servers); or pass an existing service over one
    (shared; caller keeps ownership).
    """

    def __init__(
        self,
        target: Ledger | ShardedLedger | LedgerService | ShardedLedgerService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        service_config: ServiceConfig | None = None,
        **kwargs: Any,
    ) -> None:
        if isinstance(target, (LedgerService, ShardedLedgerService)):
            if service_config is not None:
                raise UsageError("service_config only applies when passing a ledger")
            self.service = target
            self._owns_service = False
        elif isinstance(target, (Ledger, ShardedLedger)):
            self.service = deployment_service(target, service_config)
            self._owns_service = True
        else:
            raise UsageError(f"serve a ledger or a service, not {type(target).__name__}")
        self.ledger = self.service.ledger
        self.host = host
        self.servers: list[ServerThread] = []
        try:
            for index, shard_service in enumerate(self.service.services):
                self.servers.append(
                    ServerThread(
                        shard_service,
                        host,
                        0 if port == 0 else port + index,
                        close_service=False,
                        shard_context=(self.ledger, index),
                        **kwargs,
                    )
                )
        except BaseException:
            for server in self.servers:
                server.kill()
            if self._owns_service:
                self.service.close(drain=False)
            raise

    @property
    def num_shards(self) -> int:
        return len(self.servers)

    @property
    def addresses(self) -> list[tuple[str, int]]:
        """``(host, port)`` per shard, by shard index."""
        return [server.address for server in self.servers]

    def address_for(self, key: str) -> tuple[str, int]:
        """The listener that owns ``key`` under the public routing contract."""
        return self.servers[shard_of_key(key, self.num_shards)].address

    def uris(self) -> list[str]:
        """``ledger://host:port`` per shard — feed to :func:`repro.api.connect`."""
        return [f"ledger://{host}:{port}" for host, port in self.addresses]

    def close(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Close every listener (then the owned service); first error re-raised."""
        errors: list[Exception] = []
        for server in self.servers:
            try:
                server.close(drain=drain, timeout=timeout)
            except Exception as exc:
                errors.append(exc)
        if self._owns_service and not self.service.closed:
            try:
                self.service.close(drain=drain)
            except Exception as exc:
                errors.append(exc)
        if errors:
            raise errors[0]

    def kill(self, timeout: float = 30.0) -> None:
        """Abrupt shutdown of every listener — simulated deployment crash."""
        self.close(drain=False, timeout=timeout)

    def __enter__(self) -> "ShardedServerThread":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<ShardedServerThread {self.ledger.config.uri} "
            f"shards={self.num_shards} {self.addresses}>"
        )
