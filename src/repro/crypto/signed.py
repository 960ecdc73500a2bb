"""LSP-signed statements — the pi_s primitive, written once.

Receipt batches, signed tree heads, consistency assertions and submission
acks are all the same thing to a verifier: a set of fields the LSP signed.
A subclass is a frozen dataclass with an ``lsp_signature`` field that names
its ``SCHEME`` and declares its signed fields' kinds in ``FIELDS``; the
signed statement, signing, verifying and the wire form follow from that.

A receipt is signed through its batch: its wire form also carries
``PROOF_FIELDS`` (the path to the batch root), and its
:meth:`~LspSigned.signed_statement` is the batch statement that path folds
to.  :meth:`~LspSigned.verify` checks whatever that method returns.
"""

from __future__ import annotations

from dataclasses import replace
from typing import ClassVar, Mapping

from ..encoding import BYTES, EncodingError, Kind, Record, mapped, optional
from .ecdsa import Signature
from .hashing import sha256
from .keys import KeyPair, PublicKey

__all__ = ["LspSigned", "SIGNATURE"]


def _load_signature(blob: bytes) -> Signature:
    try:
        return Signature.from_bytes(blob)
    except ValueError as exc:
        raise EncodingError(str(exc)) from None


#: A signature field (64 or 96 bytes); ``optional(SIGNATURE)`` where an
#: unsigned record writes the empty string.
SIGNATURE = mapped(BYTES, _load_signature, Signature.to_bytes)


class LspSigned:
    SCHEME: ClassVar[str]
    #: The signed fields and their kinds.
    FIELDS: ClassVar[Mapping[str, Kind]]
    #: Unsigned fields the wire form carries: what ties the signed fields
    #: to the statement the signature covers.
    PROOF_FIELDS: ClassVar[Mapping[str, Kind]] = {}
    lsp_signature: Signature | None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._statement = Record(**cls.FIELDS, scheme=cls.SCHEME)
        cls._wire = Record(**cls.FIELDS, **cls.PROOF_FIELDS, lsp_signature=optional(SIGNATURE))

    def signing_payload(self) -> bytes:
        return self._statement.encode(vars(self))

    def signed_by(self, lsp_keypair: KeyPair):
        """Return a copy carrying the LSP's signature pi_s."""
        return replace(self, lsp_signature=lsp_keypair.sign(sha256(self.signing_payload())))

    def signed_statement(self) -> "LspSigned | None":
        """The statement ``lsp_signature`` covers, carrying it: this one."""
        return self

    def verify(self, lsp_public_key: PublicKey) -> bool:
        """Check the LSP's signature.  Never raises."""
        statement = self.signed_statement()
        if statement is None or statement.lsp_signature is None:
            return False
        return lsp_public_key.verify(
            sha256(statement.signing_payload()), statement.lsp_signature
        )

    def to_bytes(self) -> bytes:
        return self._wire.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes):
        return cls(**cls._wire.decode(data))
