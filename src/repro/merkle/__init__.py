"""Merkle tree family: Shrubs, fam, MPT, and CM-Tree."""

from .cmtree import ClueProof, ClueVerificationError, CMTree
from .consistency import ConsistencyProof, prove_consistency
from .fam import AnchorStore, FamAccumulator, FamProof
from .mpt import MPT, MPTProof, key_to_nibbles, nibbles_to_key
from .proofs import BatchProof, MembershipProof, PathStep, bag_peaks, fold_path
from .shrubs import FrontierAccumulator, ShrubsAccumulator, peak_positions

__all__ = [
    "ClueProof",
    "ClueVerificationError",
    "CMTree",
    "ConsistencyProof",
    "prove_consistency",
    "AnchorStore",
    "FamAccumulator",
    "FamProof",
    "MPT",
    "MPTProof",
    "key_to_nibbles",
    "nibbles_to_key",
    "BatchProof",
    "MembershipProof",
    "PathStep",
    "bag_peaks",
    "fold_path",
    "ShrubsAccumulator",
    "FrontierAccumulator",
    "peak_positions",
]
