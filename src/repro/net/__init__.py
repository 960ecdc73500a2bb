"""repro.net — the wire boundary (DESIGN.md §14).

Everything built below this package is in-process; this is where the
paper's actual deployment model starts: clients talking to an *untrusted*
centralized ledger over a socket, re-verifying every proof locally.

* :mod:`repro.net.protocol` — length-prefixed binary frames, the op table
  (each op's request and reply as strict records), :class:`ProtocolError`;
* :mod:`repro.net.server` — the asyncio front end over
  :class:`~repro.service.LedgerService` (pipelined appends, bulk proofs,
  graceful drain);
* :mod:`repro.net.client` — :class:`AsyncRemoteLedger` (asyncio core),
  :class:`RemoteLedgerClient` (the sync TCP port of a
  :class:`~repro.session.Session`) and :class:`RemoteLedgerSession` (a
  session over it), which never trust the server: receipts, proofs, and
  epoch anchors are verified client-side before anything is accepted.
"""

from .client import (
    AsyncRemoteLedger,
    RemoteLedgerClient,
    RemoteLedgerError,
    RemoteLedgerSession,
)
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    encode_frame,
)
from .server import LedgerServer, ServerThread

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "AsyncRemoteLedger",
    "FrameDecoder",
    "LedgerServer",
    "ProtocolError",
    "RemoteLedgerClient",
    "RemoteLedgerError",
    "RemoteLedgerSession",
    "ServerThread",
    "encode_frame",
]
