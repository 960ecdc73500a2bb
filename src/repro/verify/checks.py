"""The what / when / who checks — pure functions of (evidence, trust anchors).

Nothing here fetches, caches or talks to a ledger: every argument is either
a piece of evidence somebody handed the verifier (a journal, a proof, a
receipt, a certificate) or a trust anchor obtained out of band (a root, a
CA or TSA key).  No function raises on bad evidence; the verdict is the
return value.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Sequence

from ..core.journal import Journal, JournalType
from ..core.receipt import Receipt
from ..crypto.ca import Certificate
from ..crypto.ecdsa import Signature
from ..crypto.hashing import Digest
from ..crypto.keys import PublicKey, verify_batch
from ..crypto.signed import SIGNATURE
from ..encoding import BYTES, FLOAT, STR, UINT, EncodingError, Record
from ..merkle.cmtree import ClueProof
from ..merkle.fam import FamAccumulator, FamProof
from ..timeauth.pegging import TimeBound
from ..timeauth.tledger import NotaryReceipt, TimeEvidence
from ..timeauth.tsa import TimeStampToken

__all__ = [
    "check_time_evidence",
    "clue_what",
    "parse_time_journal",
    "signature_check",
    "signed_by",
    "signed_by_many",
    "time_marks",
    "time_payload",
    "tx_what",
    "when_bracket",
    "who",
]

#: One time journal as the *when* check sees it: (jsn, timestamp, evidence valid).
TimeMark = tuple[int, float, bool]


# --------------------------------------------------------------------- what


def tx_what(digest: Digest, proof: Any, trusted_root: Digest) -> bool:
    """Existence: ``digest`` folds through ``proof`` to ``trusted_root``.

    A :class:`FamProof` must be full-chain (non-anchored), since the caller
    holds one externally-trusted commitment; anchored proofs go through
    :meth:`~repro.verify.AnchorTracker.fold_anchored` instead.  Any other
    proof object (a sharded deployment's shard-to-root composition) brings
    its own ``verify(digest, root)``.
    """
    if isinstance(proof, FamProof):
        return FamAccumulator.verify_full(digest, proof, trusted_root)
    return bool(proof.verify(digest, trusted_root))


def clue_what(
    clue: str, digests: Sequence[Digest], proof: ClueProof, trusted_root: Digest
) -> bool:
    """N-lineage: ``digests`` are *all* versions of ``clue``, in order.

    The proof must speak for this clue — a valid lineage of some other clue
    proves nothing about this one — and fold every version, no more and no
    fewer, to the trusted CM-Tree1 root.
    """
    return proof.clue == clue and proof.verify(dict(enumerate(digests)), trusted_root)


# --------------------------------------------------------------------- when


# A time journal's payload, one record per mode: the anchored fam root, the
# jsn it was taken at, and the authority's evidence — a TSA token inline, or
# the T-Ledger submission whose evidence arrives out of band.
_TSA_TIME = Record(
    mode="tsa",
    anchored_root=BYTES,
    as_of_jsn=UINT,
    timestamp=FLOAT,
    tsa_id=STR,
    signature=SIGNATURE,
)
_TLEDGER_TIME = Record(
    mode="tledger", seq=UINT, anchored_root=BYTES, as_of_jsn=UINT, notary_timestamp=FLOAT
)


def time_payload(
    anchored_root: Digest, as_of_jsn: int, evidence: TimeStampToken | NotaryReceipt
) -> bytes:
    """The payload of the time journal anchoring ``anchored_root`` at ``as_of_jsn``."""
    fields = {"anchored_root": anchored_root, "as_of_jsn": as_of_jsn, **vars(evidence)}
    if isinstance(evidence, TimeStampToken):
        return _TSA_TIME.encode(fields)
    return _TLEDGER_TIME.encode(fields)


def parse_time_journal(journal: Journal) -> dict:
    """A time journal's payload: ``mode``, ``anchored_root``, ``as_of_jsn``,
    and the TSA ``token`` (tsa mode) or ``seq`` and ``notary_timestamp``
    (tledger mode).

    Raises:
        ValueError: ``journal`` is not a time journal.
        EncodingError: its payload is neither mode's record.
    """
    if journal.journal_type is not JournalType.TIME:
        raise ValueError(f"journal {journal.jsn} is not a time journal")
    try:
        info = _TSA_TIME.decode(journal.payload)
    except EncodingError:
        info = _TLEDGER_TIME.decode(journal.payload)
        info["mode"] = "tledger"
        return info
    token = TimeStampToken(
        digest=info["anchored_root"],
        timestamp=info.pop("timestamp"),
        tsa_id=info.pop("tsa_id"),
        signature=info.pop("signature"),
    )
    return {**info, "mode": "tsa", "token": token}


def check_time_evidence(
    info: dict,
    evidence: TimeEvidence | TimeStampToken | None,
    tsa_keys: Mapping[str, PublicKey],
) -> tuple[float, bool]:
    """Validate one time journal's authority evidence: (timestamp, valid).

    ``info`` is a :func:`parse_time_journal` payload.  "tsa" mode checks
    the token the journal itself carries; "tledger" mode checks the
    supplied cross-ledger evidence.  Stateless on purpose — the audit
    engine's worker pool calls it from forked processes.
    """
    if info["mode"] == "tsa":
        token = info["token"]
        key = tsa_keys.get(token.tsa_id)
        return token.timestamp, key is not None and token.verify(key)
    if not isinstance(evidence, TimeEvidence):
        return 0.0, False
    if evidence.entry.digest != info["anchored_root"]:
        return 0.0, False
    if not evidence.verify(tsa_keys):
        return 0.0, False
    return evidence.finalization.token.timestamp, True


def time_marks(
    journals: Iterable[Journal],
    time_evidence: Mapping[int, Any],
    tsa_keys: Mapping[str, PublicKey],
) -> list[TimeMark]:
    """One :data:`TimeMark` per time journal among ``journals``, in order.

    ``time_evidence`` maps jsn to out-of-payload authority evidence
    (T-Ledger mode); a holder with none passes ``{}`` and those anchors
    simply bound nothing.  A payload that does not decode is an anchor
    whose evidence fails.
    """
    return [
        _time_mark(journal, time_evidence.get(journal.jsn), tsa_keys)
        for journal in journals
        if journal.journal_type is JournalType.TIME
    ]


def _time_mark(journal: Journal, evidence: Any, tsa_keys: Mapping[str, PublicKey]) -> TimeMark:
    try:
        info = parse_time_journal(journal)
    except EncodingError:
        return journal.jsn, 0.0, False
    return (journal.jsn, *check_time_evidence(info, evidence, tsa_keys))


def when_bracket(jsn: int, marks: Sequence[TimeMark]) -> tuple[TimeBound | None, bool]:
    """Bracket ``jsn`` between verified time journals: ``(bound, valid)``.

    ``marks`` must be in jsn order.  ``valid`` is False when the covering
    anchor's evidence fails to verify, or when no upper-bounding time
    journal exists yet (the journal's existence has no credible ceiling, so
    no one-sided bound is fabricated).
    """
    lower = float("-inf")
    for time_jsn, timestamp, evidence_ok in marks:
        if time_jsn < jsn:
            if evidence_ok:
                lower = max(lower, timestamp)
        elif time_jsn > jsn:
            # The first covering anchor is the tight one.
            return TimeBound(lower=lower, upper=timestamp), evidence_ok
    return None, False


# ---------------------------------------------------------------------- who


#: What pi_c stands for: the issuer's key, the digest it signed, the signature.
SignatureCheck = tuple[PublicKey, Digest, Signature]


def signature_check(journal: Journal, certificate: Certificate | None) -> SignatureCheck | None:
    """The one definition of pi_c: the ECDSA check ``journal``'s client
    signature stands for against ``certificate`` (whose CA validation is
    the caller's, done once), or ``None`` when the certificate or the
    signature is missing — a pi_c that fails without a curve operation.

    Every offline verifier (:func:`signed_by`, :func:`signed_by_many`, the
    audit's chunks) decides what a client signature covers here.
    """
    if certificate is None or journal.client_signature is None:
        return None
    return certificate.public_key, journal.request_hash, journal.client_signature


def signed_by(journal: Journal, certificate: Certificate | None) -> bool:
    """pi_c: the issuer's signature checks against ``certificate``."""
    check = signature_check(journal, certificate)
    return check is not None and check[0].verify(check[1], check[2])


def signed_by_many(pairs: Sequence[tuple[Journal, Certificate | None]]) -> list[bool]:
    """pi_c for many journals: element for element ``signed_by(journal, cert)``.

    A missing certificate or signature is ``False`` without a curve
    operation; the rest share one batch, whose same-key aggregate equation
    is split in halves on any mismatch, down to exact per-signature checks —
    a bad signature is still attributed to its own index.
    """
    checks = [signature_check(journal, certificate) for journal, certificate in pairs]
    verdicts = iter(verify_batch([check for check in checks if check is not None]))
    return [check is not None and next(verdicts) for check in checks]


def who(
    journal: Journal,
    receipt: Receipt | None,
    certificates: Mapping[str, Certificate],
    ca_public_key: PublicKey,
    lsp_member_id: str,
) -> bool:
    """Non-repudiation: pi_c against the member's CA-certified key, and —
    when a receipt is presented — pi_s against the LSP's.

    The receipt must be *this* journal's receipt: a genuine LSP signature
    over some other jsn proves nothing about this journal, so a mismatch is
    a failure, not a skip.
    """
    certificate = certificates.get(journal.client_id)
    if certificate is None or not certificate.verify(ca_public_key):
        return False
    if not signed_by(journal, certificate):
        return False
    if receipt is None:
        return True
    lsp_certificate = certificates.get(lsp_member_id)
    return (
        lsp_certificate is not None
        and lsp_certificate.verify(ca_public_key)
        and receipt.verify(lsp_certificate.public_key)
        and receipt.jsn == journal.jsn
        and receipt.tx_hash == journal.tx_hash()
    )
