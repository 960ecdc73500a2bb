"""Typed proof containers shared by all Merkle models.

A proof never carries enough information to *reconstruct* payloads — only
digests — so proofs are safe to hand to untrusted auditors.  All containers
serialize via :mod:`repro.encoding` so client-side verifiers can receive them
over a wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..crypto.hashing import Digest, node_hash
from ..encoding import (
    BOOL,
    BYTES,
    BYTES_LIST,
    UINT,
    EncodingError,
    Kind,
    Record,
    bytes_head,
    encode,
    list_head,
    list_of,
    mapped,
    read_list_size,
    row,
)

__all__ = [
    "PathStep",
    "MembershipProof",
    "BatchProof",
    "fold_path",
    "bag_peaks",
    "peak_positions",
]


def peak_positions(size: int) -> list[tuple[int, int]]:
    """Frontier node positions for an accumulator holding ``size`` leaves.

    One peak per set bit of ``size``, highest level first (left to right).
    """
    peaks: list[tuple[int, int]] = []
    consumed = 0
    for level in range(size.bit_length() - 1, -1, -1):
        if size & (1 << level):
            peaks.append((level, consumed >> level))
            consumed += 1 << level
    return peaks


@dataclass(frozen=True)
class PathStep:
    """One sibling on a Merkle path.

    ``sibling_on_left`` states which side the *sibling* digest combines on:
    ``True`` means ``parent = H(sibling, current)``.
    """

    digest: Digest
    sibling_on_left: bool


def fold_path(leaf_digest: Digest, path: list[PathStep]) -> Digest:
    """Fold a leaf digest up a Merkle path, returning the subtree root."""
    current = leaf_digest
    for step in path:
        if step.sibling_on_left:
            current = node_hash(step.digest, current)
        else:
            current = node_hash(current, step.digest)
    return current


def bag_peaks(peaks: list[Digest]) -> Digest:
    """Combine an accumulator frontier into one commitment digest.

    Right-to-left fold, as in Merkle Mountain Range "bagging": with peaks
    ``[p0, p1, p2]`` the root is ``H(p0, H(p1, p2))``.  An empty frontier has
    no commitment — callers must special-case it.
    """
    if not peaks:
        raise ValueError("cannot bag an empty frontier")
    acc = peaks[-1]
    for peak in reversed(peaks[:-1]):
        acc = node_hash(peak, acc)
    return acc


@dataclass(frozen=True)
class MembershipProof:
    """Proof that one leaf is committed by an accumulator of ``tree_size`` leaves.

    * ``path`` climbs from the leaf to its covering peak;
    * ``peaks_left`` / ``peaks_right`` are the other frontier peaks, in order,
      so the verifier can re-bag the full commitment.

    Size-binding caveat: a bagged frontier root does not itself commit the
    leaf count (two sizes with the same peak *digests* bag identically), so
    ``tree_size`` is advisory relative to the root alone.  Every layer of
    this system where the count carries meaning binds it explicitly
    alongside the commitment: CM-Tree1 values encode ``(size, frontier)``
    (lineage completeness), T-Ledger evidence checks ``tree_size`` against
    the finalization's ``covered_size``, and consistency proofs re-derive
    peak structure from their stated sizes.
    """

    leaf_index: int
    tree_size: int
    path: list[PathStep]
    peaks_left: list[Digest] = field(default_factory=list)
    peaks_right: list[Digest] = field(default_factory=list)

    def computed_peak(self, leaf_digest: Digest) -> Digest:
        return fold_path(leaf_digest, self.path)

    def computed_root(self, leaf_digest: Digest) -> Digest:
        """Recompute the bagged commitment implied by this proof."""
        peak = self.computed_peak(leaf_digest)
        return bag_peaks(list(self.peaks_left) + [peak] + list(self.peaks_right))

    def implied_leaf_index(self) -> int | None:
        """The leaf index this proof's *structure* actually addresses.

        Path directions encode the leaf's offset within its covering peak's
        subtree, and the flank sizes identify which peak that is — so a
        proof whose claimed ``leaf_index`` disagrees with its structure is
        forged.  Returns None when the structure is inconsistent.
        """
        positions = peak_positions(self.tree_size)
        if len(self.peaks_left) + len(self.peaks_right) + 1 != len(positions):
            return None
        level, index = positions[len(self.peaks_left)]
        if len(self.path) != level:
            return None
        offset = 0
        for bit, step in enumerate(self.path):
            if step.sibling_on_left:
                offset |= 1 << bit
        return (index << level) + offset

    def root_for(self, leaf_digest: Digest) -> Digest | None:
        """The commitment this proof folds ``leaf_digest`` to, or None when
        its structure does not address ``leaf_index`` of ``tree_size``.
        Never raises."""
        if not 0 <= self.leaf_index < self.tree_size:
            return None
        if self.implied_leaf_index() != self.leaf_index:
            return None
        try:
            return self.computed_root(leaf_digest)
        except (ValueError, TypeError):
            return None

    def verify(self, leaf_digest: Digest, expected_root: Digest) -> bool:
        """Check the proof against a trusted commitment.  Never raises.

        Binds the claimed ``leaf_index`` to the path structure as well as
        folding the hashes, so position-forged proofs fail.
        """
        root = self.root_for(leaf_digest)
        return root is not None and root == expected_root

    def verify_against_frontier(self, leaf_digest: Digest, frontier: list[Digest]) -> bool:
        """Node-set verification (§III-A1): the folded peak must be a frontier node."""
        try:
            return self.computed_peak(leaf_digest) in frontier
        except (ValueError, TypeError):
            return False

    def to_bytes(self) -> bytes:
        return _MEMBERSHIP.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "MembershipProof":
        return cls(**_MEMBERSHIP.decode(data))


# A path step is ``[digest, sibling_on_left]`` on the wire; a 32-byte digest
# (every step a hash function writes) is matched as one constant head.
_STEP = row(BYTES, BOOL)
_STEP_HEAD = list_head(2)
_STEP_DIGEST_HEAD = _STEP_HEAD + bytes_head(32)
_STEP_SIZE = len(_STEP_DIGEST_HEAD) + 33
_STEP_FLAGS = {ord("t"): True, ord("f"): False}
_FLAG_BYTES = {True: encode(True), False: encode(False)}


def _write_path(path: list[PathStep], out: bytearray) -> None:
    out += list_head(len(path))
    for step in path:
        out += _STEP_HEAD
        out += bytes_head(len(step.digest))
        out += step.digest
        out += _FLAG_BYTES[bool(step.sibling_on_left)]


def _read_path(data: bytes, pos: int) -> tuple[list[PathStep], int] | None:
    got = read_list_size(data, pos)
    if got is None:
        return None
    size, pos = got
    path = []
    for _ in range(size):
        if data.startswith(_STEP_DIGEST_HEAD, pos):
            end = pos + _STEP_SIZE
            flag = _STEP_FLAGS.get(data[end - 1])
            if flag is None:
                return None
            path.append(PathStep(data[end - 33 : end - 1], flag))
            pos = end
        else:
            got = _STEP.read(data, pos)
            if got is None:
                return None
            (digest, flag), pos = got
            path.append(PathStep(digest, flag))
    return path, pos


_MEMBERSHIP = Record(
    leaf_index=UINT,
    tree_size=UINT,
    path=Kind(_read_path, _write_path),
    peaks_left=BYTES_LIST,
    peaks_right=BYTES_LIST,
)


def _load_tiles(rows: list[tuple[int, int, Digest]]) -> dict[tuple[int, int], Digest]:
    """``[level, index, digest]`` rows as a position map; strictly sorted by
    position, as the writer sorts them, so the map re-encodes to its bytes."""
    tiles = {(level, index): digest for level, index, digest in rows}
    if list(tiles) != sorted(tiles) or len(tiles) != len(rows):
        raise EncodingError("tiles must be sorted by (level, index) without repeats")
    return tiles


#: A map of tree positions to digests, written as sorted ``[level, index, digest]`` rows.
TILES = mapped(
    list_of(row(UINT, UINT, BYTES)),
    _load_tiles,
    lambda tiles: [(level, index, digest) for (level, index), digest in sorted(tiles.items())],
)


@dataclass(frozen=True)
class BatchProof:
    """Proof for a *set* of leaves against one accumulator commitment.

    ``nodes`` maps (level, index) positions to digests for exactly the helper
    nodes a verifier cannot derive from the proven leaves themselves — the
    paper's step-3 set N = N2 - (N2 ∩ N3) (§IV-C), plus the other frontier
    peaks.  Verification recomputes every covering peak bottom-up.
    """

    leaf_indices: list[int]
    tree_size: int
    nodes: dict[tuple[int, int], Digest]
    peaks_left: list[Digest] = field(default_factory=list)
    peaks_right: list[Digest] = field(default_factory=list)

    def to_bytes(self) -> bytes:
        return _BATCH.encode(vars(self))

    @classmethod
    def from_bytes(cls, data: bytes) -> "BatchProof":
        return cls(**_BATCH.decode(data))


_BATCH = Record(
    leaf_indices=list_of(UINT),
    tree_size=UINT,
    nodes=TILES,
    peaks_left=BYTES_LIST,
    peaks_right=BYTES_LIST,
)
