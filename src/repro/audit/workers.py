"""Worker-side functions for the parallel audit engine.

Every function here is a plain module-level callable so it pickles by
reference into a ``ProcessPoolExecutor`` (and runs unchanged on a thread
pool, or inline in the sequential engine).  Payloads are deliberately small
and flat: per-journal client signatures travel as
``(x, y, digest, signature_bytes)`` tuples — a few hundred bytes per check —
never as whole journals or views.

Each function returns *data* (verdict lists, error strings), not report
steps: the coordinator owns ordering, message selection, and the
deterministic merge, so the report comes out byte-identical no matter how
chunks were scheduled.
"""

from __future__ import annotations

from ..crypto.ecdsa import Point, Signature, verify_digests
from ..crypto.multisig import MultiSignatureError
from ..verify import check_time_evidence

__all__ = [
    "verify_signature_chunk",
    "verify_certificate_chunk",
    "verify_multisig_task",
    "check_time_evidence_chunk",
]

#: One client-signature check: (pubkey x, pubkey y, digest, signature bytes).
SignatureItem = tuple[int, int, bytes, bytes]


def verify_signature_chunk(items: list[SignatureItem]) -> list[bool]:
    """Batch-verify one chunk of raw ECDSA checks (shared s^-1 inversions)."""
    checks = []
    malformed = [False] * len(items)
    for index, (x, y, digest, sig_bytes) in enumerate(items):
        try:
            signature = Signature.from_bytes(sig_bytes)
        except ValueError:
            malformed[index] = True
            signature = Signature(0, 0)  # fails range check, never verifies
        checks.append((Point(x, y), digest, signature))
    verdicts = verify_digests(checks)
    return [ok and not bad for ok, bad in zip(verdicts, malformed)]


def verify_certificate_chunk(certificates: list, ca_public_key) -> list[bool]:
    """Verify a chunk of CA certificate signatures; verdicts in input order."""
    return [certificate.verify(ca_public_key) for certificate in certificates]


def verify_multisig_task(approvals, signer_certs: dict) -> str | None:
    """Run one Π1/Π2 multi-signature check; the exact error string or None.

    Runs the same :meth:`MultiSignature.verify` the sequential engine calls,
    so failure details match character-for-character.
    """
    try:
        approvals.verify(signer_certs)
    except MultiSignatureError as exc:
        return str(exc)
    return None


def check_time_evidence_chunk(
    entries: list[tuple[dict, object]], tsa_keys: dict
) -> list[tuple[float, bool]]:
    """Verify a chunk of time-journal evidence; (timestamp, valid) per entry."""
    return [check_time_evidence(info, evidence, tsa_keys) for info, evidence in entries]
