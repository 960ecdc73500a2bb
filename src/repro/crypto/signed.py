"""LSP-signed statements — the pi_s primitive, written once.

Receipts, signed tree heads, consistency assertions and submission acks are
all the same thing to a verifier: a set of fields the LSP signed.  A subclass
is a frozen dataclass with an ``lsp_signature`` field that names its
``SCHEME`` and lists its signed fields in :meth:`statement`; signing,
verifying and the wire form follow from that.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, ClassVar, Mapping

from ..encoding import encode
from .ecdsa import Signature
from .hashing import sha256
from .keys import KeyPair, PublicKey

__all__ = ["LspSigned"]


class LspSigned:
    SCHEME: ClassVar[str]
    lsp_signature: Signature | None

    def statement(self) -> dict[str, Any]:
        """The signed fields, as encodable primitives."""
        raise NotImplementedError

    def signing_payload(self) -> bytes:
        return encode({"scheme": self.SCHEME, **self.statement()})

    def signed_by(self, lsp_keypair: KeyPair):
        """Return a copy carrying the LSP's signature pi_s."""
        return replace(self, lsp_signature=lsp_keypair.sign(sha256(self.signing_payload())))

    def verify(self, lsp_public_key: PublicKey) -> bool:
        """Check the LSP's signature.  Never raises."""
        if self.lsp_signature is None:
            return False
        return lsp_public_key.verify(sha256(self.signing_payload()), self.lsp_signature)

    def to_bytes(self) -> bytes:
        signature = self.lsp_signature.to_bytes() if self.lsp_signature else b""
        return encode({**self.statement(), "lsp_signature": signature})

    @staticmethod
    def _signature_of(obj: Mapping[str, Any]) -> Signature | None:
        """The ``lsp_signature`` field of a decoded wire form."""
        blob = bytes(obj["lsp_signature"])
        return Signature.from_bytes(blob) if blob else None
