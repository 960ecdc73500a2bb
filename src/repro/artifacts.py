"""The artifact layer: self-describing, carry-away verification objects.

Every serializable piece of evidence the system hands a client — receipts,
fam proofs, signed tree heads, submission acks, equivocation/censorship
evidence, export bundles, rebuild reports, verify results — follows one
convention, captured by the :class:`Artifact` protocol:

* ``to_bytes()`` — canonical encoding over :mod:`repro.encoding`;
* ``from_bytes(data)`` — the symmetric constructor (a classmethod);
* ``verify(...)`` — a check that **never raises**, taking only out-of-band
  trust anchors (a public key, a trusted root), never the — possibly
  hostile — service that produced the artifact.

``verify`` signatures necessarily differ per artifact (a receipt checks one
signature, a proof folds to a root), so the protocol pins the byte-symmetry
pair and documents the verify convention; :func:`is_artifact` is the runtime
structural check.

This module is deliberately **kernel-free**: it imports only
:mod:`repro.crypto`, :mod:`repro.merkle`, :mod:`repro.encoding`,
:mod:`repro.obs` and leaf :mod:`repro.timeauth` modules, so a standalone
offline verifier can load it without pulling in the ledger kernel, the
service layer, or the network stack (see ``repro/export/verifier.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Protocol, runtime_checkable

from . import obs
from .crypto.hashing import Digest
from .encoding import BOOL, BYTES, FLOAT, INT, STR, EncodingError, Record, list_of, mapped
from .encoding import nullable, row
from .merkle.fam import FamProof
from .timeauth.pegging import TimeBound

__all__ = [
    "Artifact",
    "DaseinReport",
    "Finding",
    "OpaqueProof",
    "VerifyLevel",
    "VerifyResult",
    "VerifyTarget",
    "is_artifact",
    "lift",
]


@runtime_checkable
class Artifact(Protocol):
    """Structural contract for carry-away evidence objects.

    ``isinstance(obj, Artifact)`` checks that both byte-symmetry methods
    exist.  Implementors additionally expose some ``verify(...)`` surface
    whose arguments are trust anchors only; that part is a documented
    convention rather than a protocol member because the anchor types
    legitimately differ per artifact.
    """

    def to_bytes(self) -> bytes: ...

    @classmethod
    def from_bytes(cls, data: bytes) -> "Artifact": ...


def is_artifact(obj: Any) -> bool:
    """True when ``obj`` satisfies the :class:`Artifact` byte-symmetry pair."""
    return isinstance(obj, Artifact)


class VerifyTarget(Enum):
    """What a Verify call checks: one journal, or a clue lineage."""

    TX = "tx"
    CLUE = "clue"


class VerifyLevel(Enum):
    """Where verification runs (§IV-B): inside the LSP, or client-side."""

    SERVER = "server"
    CLIENT = "client"


@dataclass(frozen=True)
class Finding:
    """Why one check failed, as every verifier reports it: the ``factor`` it
    costs (``what``/``when``/``who``/``consistency``/``mutation``), the
    ``check``'s stable name, where (``shard``, ``jsn``), the root or head
    judged against and the one found, and whether the evidence was
    ``absent`` rather than wrong.  ``str()`` is the message."""

    factor: str
    check: str
    detail: str
    shard: int | None = None
    jsn: int | None = None
    expected: bytes | None = None
    actual: bytes | None = None
    absent: bool = False

    def __str__(self) -> str:
        return self.detail if self.shard is None else f"shard {self.shard}: {self.detail}"


#: A :class:`Finding` inline in the records that carry findings.
FINDING = Record(
    factor=STR, check=STR, detail=STR, shard=nullable(INT), jsn=nullable(INT),
    expected=nullable(BYTES), actual=nullable(BYTES), absent=BOOL,
).of(Finding)


#: How many messages :func:`bounded` shows before it counts the rest.
SHOWN = 8


def bounded(messages: list[str]) -> str:
    """The first :data:`SHOWN` of ``messages`` joined by ``"; "``, then a count of the rest."""
    more = [f"(+{len(messages) - SHOWN} more)"] if len(messages) > SHOWN else []
    return "; ".join(messages[:SHOWN] + more)


def counted(findings: Any) -> tuple[Finding, ...]:
    """``findings`` as a tuple, each counted as ``verify.findings{factor=,check=}``."""
    findings = tuple(findings)
    for finding in findings:
        obs.inc(f"verify.findings{{factor={finding.factor},check={finding.check}}}")
    return findings


@dataclass(frozen=True)
class DaseinReport:
    """Outcome of a full 3w verification for one journal."""

    jsn: int
    what: bool
    when_valid: bool
    when_bound: TimeBound | None
    who: bool

    @property
    def dasein_complete(self) -> bool:
        """All three factors rigorously verified."""
        return self.what and self.when_valid and self.who


@dataclass(frozen=True)
class OpaqueProof:
    """A proof round-tripped through :class:`VerifyResult` byte form.

    Proof objects from layers this module cannot import (shard links,
    clue proofs) survive serialization as ``(kind, data)`` so nothing is
    silently dropped; callers that know the kind can decode ``data`` with
    the matching ``from_bytes``.
    """

    kind: str
    data: bytes

    def to_bytes(self) -> bytes:
        return self.data


def _encode_proof(proof: Any) -> tuple[str, bytes]:
    if proof is None:
        return "", b""
    if isinstance(proof, FamProof):
        return "fam", proof.to_bytes()
    if isinstance(proof, OpaqueProof):
        return proof.kind, proof.data
    to_bytes = getattr(proof, "to_bytes", None)
    if callable(to_bytes):
        return type(proof).__name__, to_bytes()
    return "", b""


def _decode_proof(kind: str, data: bytes) -> Any:
    if not kind:
        if data:
            raise EncodingError("proof bytes without a proof kind")
        return None
    if kind == "fam":
        return FamProof.from_bytes(data)
    return OpaqueProof(kind=kind, data=data)


@dataclass(frozen=True)
class VerifyResult:
    """Structured outcome of a Verify call — evidence, not a trust-me bool.

    Every field beyond ``ok`` is machine-checkable context: which ``target``
    was verified at which ``level``, the per-factor Dasein verdicts where the
    flow produced them (``None`` = that factor was not part of this check)
    with the ``findings`` behind each FALSE one, the ``proof`` object actually
    folded, and the ``trusted_root`` it was folded against — enough for a
    distrusting caller to re-run the check or archive the evidence.

    Truthy-compatible with the old ``bool`` return: ``bool(result)`` is
    ``result.ok``, so ``assert verify(...)`` keeps working unchanged.

    As an :class:`Artifact`, results round-trip through ``to_bytes`` /
    ``from_bytes`` (a ``fam`` proof comes back as a real :class:`FamProof`;
    other proof kinds as :class:`OpaqueProof`), and ``verify()`` checks the
    result's *internal consistency*: ``ok`` must equal the conjunction of
    whichever Dasein factors are present, and the findings must name
    exactly the FALSE factors.
    """

    ok: bool
    target: str  # "tx" | "clue" | "dasein" | "bundle" | "rebuild"
    level: str  # "server" | "client" | "standalone"
    what: bool | None = None
    when: bool | None = None
    who: bool | None = None
    when_bound: TimeBound | None = None
    proof: Any = None
    trusted_root: Digest | None = None
    jsn: int | None = None
    detail: str = ""
    findings: tuple[Finding, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def from_dasein(
        cls,
        report: DaseinReport,
        *,
        proof: FamProof | None = None,
        trusted_root: Digest | None = None,
        level: str = "client",
    ) -> "VerifyResult":
        """Lift a :class:`DaseinReport` into the structured verify surface."""
        return lift(
            "dasein",
            level,
            what=report.what,
            when=report.when_valid,
            who=report.who,
            when_bound=report.when_bound,
            proof=proof,
            trusted_root=trusted_root,
            jsn=report.jsn,
        )

    def verify(self) -> bool:
        """Internal consistency, never raising: ``ok`` agrees with the factors
        present, and the findings name exactly the FALSE ones (evidence found
        absent while *when* went unchecked excepted)."""
        verdicts = {"what": self.what, "when": self.when, "who": self.who}
        failed = {factor for factor, verdict in verdicts.items() if verdict is False}
        excepted = {"when"} if self.when is None else set()
        explained = {f.factor for f in self.findings if not (f.absent and f.factor in excepted)}
        factors = [verdict for verdict in verdicts.values() if verdict is not None]
        return explained == failed and (not factors or self.ok == all(factors))

    def to_bytes(self) -> bytes:
        proof_kind, proof_bytes = _encode_proof(self.proof)
        return _RESULT.encode({**vars(self), "proof_kind": proof_kind, "proof": proof_bytes})

    @classmethod
    def from_bytes(cls, data: bytes) -> "VerifyResult":
        fields = _RESULT.decode(data)
        proof = _decode_proof(fields.pop("proof_kind"), fields.pop("proof"))
        return cls(**fields, proof=proof)


_VERDICT = nullable(BOOL)
_RESULT = Record(
    scheme="repro.verify_result.v2",
    ok=BOOL,
    target=STR,
    level=STR,
    what=_VERDICT,
    when=_VERDICT,
    who=_VERDICT,
    when_bound=nullable(
        mapped(row(FLOAT, FLOAT), lambda pair: TimeBound(*pair), lambda b: (b.lower, b.upper))
    ),
    proof_kind=STR,
    proof=BYTES,
    trusted_root=nullable(BYTES),
    jsn=nullable(INT),
    detail=STR,
    findings=list_of(FINDING, tuple),
)


def lift(
    target: Enum | str,
    level: Enum | str,
    *,
    what: bool,
    when: bool | None = None,
    who: bool | None = None,
    findings: Any = (),
    **evidence: Any,
) -> VerifyResult:
    """Lift per-factor verdicts into the one structured result every entry
    point returns: ``ok`` is the conjunction of the factors checked (``None``
    = not checked), ``findings`` the caller's reasons (a FALSE factor none
    explains gets :func:`_unexplained`'s), ``evidence`` the other
    :class:`VerifyResult` fields."""
    target = target.value if isinstance(target, Enum) else target
    verdicts = {"what": what, "when": when, "who": who}
    explained = {finding.factor for finding in findings}
    unexplained = [f for f, verdict in verdicts.items() if verdict is False and f not in explained]
    return VerifyResult(
        ok=all(verdict for verdict in verdicts.values() if verdict is not None),
        target=target,
        level=level.value if isinstance(level, Enum) else level,
        findings=counted([*findings, *(_unexplained(f, target, evidence) for f in unexplained)]),
        **verdicts,
        **evidence,
    )


def _unexplained(factor: str, target: str, evidence: dict) -> Finding:
    """A FALSE ``factor``'s finding when its caller had none: the fold (a
    clue's lineage), the time bracket, or the signatures."""
    jsn = evidence.get("jsn")
    subject = f"the {target}" if jsn is None else f"jsn {jsn}"
    check, reason = _UNEXPLAINED[factor]
    return Finding(
        factor,
        "clue" if factor == "what" and target == "clue" else check,
        f"{subject} {reason}",
        jsn=jsn,
        expected=evidence.get("trusted_root") if factor == "what" else None,
        absent=factor == "when" and evidence.get("when_bound") is None,
    )


_UNEXPLAINED = {
    "what": ("fold", "does not fold to the trusted root"),
    "when": ("time-evidence", "has no verified time ceiling"),
    "who": ("signature", "fails pi_c or pi_s"),
}
