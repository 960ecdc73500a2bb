"""Factom-like notarization blockchain (simulated comparator, Table I).

Factom is "a typical permissionless blockchain broadly used for electronic
data notarization.  It satisfies rigorous what, non-judicial when and
unrigorous who (with anonymous mechanism)" (§II-A), at the *Highest* storage
overhead of Table I.

Modelled structure (after the Factom whitepaper [30]):

* applications write entries into per-application **chains**;
* every block interval, each chain's new entries form an **entry block**
  and the entry-block Merkle roots form a **directory block**;
* directory-block key Merkle roots are **anchored one-way into Bitcoin** —
  which is exactly why its *when* is only an upper bound (and why the §III-B
  amplification analysis applies to the anchoring operator).

The "Highest storage" rating is structural: every layer (entries, entry
blocks, directory blocks, anchors) is retained forever; :meth:`storage_units`
measures it against the journal count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.ecdsa import Signature
from repro.crypto.hashing import Digest, leaf_hash, sha256
from repro.crypto.keys import KeyPair, PublicKey
from repro.encoding import encode
from repro.merkle.proofs import PathStep, fold_path
from repro.timeauth.clock import Clock
from repro.timeauth.pegging import NotaryEvidence, OneWayPegger, PublicChainNotary, TimeBound
from paper.merkle.bim import merkle_path_padded, merkle_root_padded

__all__ = ["FactomEntry", "EntryProof", "FactomSimulator"]


@dataclass(frozen=True)
class FactomEntry:
    """One notarized record in a chain.

    ``signature`` is optional and self-asserted (any key pair, no CA): the
    "anonymous mechanism" that makes Factom's *who* unrigorous — the
    signature proves key possession, not a real-world identity.
    """

    chain_id: str
    sequence: int
    content: bytes
    public_key: PublicKey | None = None
    signature: Signature | None = None

    def entry_digest(self) -> Digest:
        return leaf_hash(
            encode(
                {
                    "chain_id": self.chain_id,
                    "sequence": self.sequence,
                    "content": self.content,
                    "public_key": self.public_key.to_bytes() if self.public_key else b"",
                }
            )
        )

    def verify_signature(self) -> bool:
        """Key-possession check only — no identity binding (unrigorous who)."""
        if self.public_key is None or self.signature is None:
            return False
        return self.public_key.verify(sha256(self.content), self.signature)


@dataclass(frozen=True)
class EntryProof:
    """Entry -> entry block -> directory block (-> Bitcoin anchor)."""

    entry_path: list[PathStep]  # within the entry block
    entry_block_root: Digest
    directory_path: list[PathStep]  # within the directory block
    directory_root: Digest
    directory_height: int
    anchor: NotaryEvidence | None  # Bitcoin inclusion, once mined


@dataclass
class _DirectoryBlock:
    height: int
    time: float
    root: Digest
    entry_block_roots: list[Digest]
    entry_blocks: dict[str, list[FactomEntry]]


class FactomSimulator:
    """The chains / entry-blocks / directory-blocks pipeline."""

    def __init__(
        self,
        clock: Clock,
        notary: PublicChainNotary | None = None,
        block_interval: float = 600.0,
    ) -> None:
        self.clock = clock
        self.notary = notary or PublicChainNotary(clock, block_interval=600.0)
        self._pegger = OneWayPegger(self.notary)
        self.block_interval = block_interval
        self._pending: dict[str, list[FactomEntry]] = {}
        self._directory: list[_DirectoryBlock] = []
        self._next_block_time = clock.now() + block_interval
        self._entry_index: dict[Digest, tuple[int, str, int]] = {}

    # ------------------------------------------------------------------- API

    def add_entry(
        self, chain_id: str, content: bytes, keypair: KeyPair | None = None
    ) -> FactomEntry:
        """Append a (optionally self-signed) entry to a chain."""
        self.tick()
        chain = self._pending.setdefault(chain_id, [])
        sequence = self._chain_length(chain_id) + len(chain)
        entry = FactomEntry(
            chain_id=chain_id,
            sequence=sequence,
            content=content,
            public_key=keypair.public if keypair else None,
            signature=keypair.sign(sha256(content)) if keypair else None,
        )
        chain.append(entry)
        return entry

    def _chain_length(self, chain_id: str) -> int:
        return sum(
            len(block.entry_blocks.get(chain_id, ())) for block in self._directory
        )

    def tick(self) -> None:
        """Seal due directory blocks and submit their anchors."""
        now = self.clock.now()
        while self._next_block_time <= now:
            block_time = self._next_block_time
            entry_blocks = {cid: entries for cid, entries in self._pending.items() if entries}
            self._pending = {}
            roots = []
            for chain_id in sorted(entry_blocks):
                entries = entry_blocks[chain_id]
                root = merkle_root_padded([e.entry_digest() for e in entries])
                roots.append(root)
            directory_root = merkle_root_padded(roots) if roots else leaf_hash(b"empty")
            block = _DirectoryBlock(
                height=len(self._directory),
                time=block_time,
                root=directory_root,
                entry_block_roots=roots,
                entry_blocks=entry_blocks,
            )
            self._directory.append(block)
            for chain_id in sorted(entry_blocks):
                for position, entry in enumerate(entry_blocks[chain_id]):
                    self._entry_index[entry.entry_digest()] = (block.height, chain_id, position)
            # One-way anchoring of the key Merkle root into Bitcoin.
            self._pegger.peg(directory_root)
            self._next_block_time += self.block_interval
        self.notary.tick()

    @property
    def height(self) -> int:
        return len(self._directory)

    # --------------------------------------------------------------- proving

    def prove_entry(self, entry: FactomEntry) -> EntryProof:
        """Full existence proof with the Bitcoin anchor when available."""
        self.tick()
        located = self._entry_index.get(entry.entry_digest())
        if located is None:
            raise KeyError("entry not yet sealed into a directory block")
        height, chain_id, position = located
        block = self._directory[height]
        entries = block.entry_blocks[chain_id]
        digests = [e.entry_digest() for e in entries]
        entry_path = merkle_path_padded(digests, position)
        entry_block_root = merkle_root_padded(digests)
        root_index = block.entry_block_roots.index(entry_block_root)
        directory_path = merkle_path_padded(block.entry_block_roots, root_index)
        return EntryProof(
            entry_path=entry_path,
            entry_block_root=entry_block_root,
            directory_path=directory_path,
            directory_root=block.root,
            directory_height=height,
            anchor=self.notary.evidence_for(block.root),
        )

    @staticmethod
    def verify_entry(entry: FactomEntry, proof: EntryProof) -> bool:
        """Rigorous *what*: fold entry -> entry block -> directory root."""
        entry_block_root = fold_path(entry.entry_digest(), proof.entry_path)
        if entry_block_root != proof.entry_block_root:
            return False
        return fold_path(entry_block_root, proof.directory_path) == proof.directory_root

    @staticmethod
    def time_bound(proof: EntryProof) -> TimeBound | None:
        """Non-judicial *when*: an upper bound only (one-way anchoring)."""
        if proof.anchor is None:
            return None
        return TimeBound(lower=float("-inf"), upper=proof.anchor.block_time)

    # --------------------------------------------------------------- storage

    def storage_units(self) -> dict[str, int]:
        """Retained objects per layer — the 'Highest' overhead of Table I."""
        entries = sum(
            len(block_entries)
            for block in self._directory
            for block_entries in block.entry_blocks.values()
        )
        entry_blocks = sum(len(block.entry_blocks) for block in self._directory)
        return {
            "entries": entries,
            "entry_blocks": entry_blocks,
            "directory_blocks": len(self._directory),
            "anchors": self.notary.height,
            "total": entries + entry_blocks + len(self._directory) + self.notary.height,
        }
