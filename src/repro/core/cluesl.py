"""cSL — the write-optimised clue SkipList index (§IV-A).

The cSL maps each clue to the ordered list of jsns that carry it.  It is a
retrieval *index*, not an authenticated structure — clue verification always
re-validates retrieved journals against CM-Tree — so it is free to optimise
for writes: "fast O(1) insertion and O(log n) read".

Implementation: a classic probabilistic skip list over clue keys (ordered,
supporting range scans over clue names) whose nodes hold append-only jsn
arrays (``array("q")``: eight bytes a jsn, no int object per entry).  A
hot-path hash cache makes repeat insertions for a known clue O(1);
first-touch insertion pays the O(log c) tower walk once per clue.  The coin
flips derive deterministically from the clue name, so structures are
reproducible across runs.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Iterator

__all__ = ["ClueSkipList"]

_MAX_LEVEL = 16


class _Node:
    __slots__ = ("clue", "jsns", "forward")

    def __init__(self, clue: str, level: int) -> None:
        self.clue = clue
        self.jsns = array("q")
        self.forward: list["_Node | None"] = [None] * level


def _tower_height(clue: str) -> int:
    """Deterministic geometric(1/2) level draw from the clue name."""
    digest = hashlib.sha256(b"cSL:" + clue.encode("utf-8")).digest()
    bits = int.from_bytes(digest[:8], "big")
    level = 1
    while level < _MAX_LEVEL and (bits & 1):
        level += 1
        bits >>= 1
    return level


class ClueSkipList:
    """Ordered clue -> [jsn, ...] index."""

    def __init__(self) -> None:
        self._head = _Node("", _MAX_LEVEL)
        self._level = 1
        self._fastpath: dict[str, _Node] = {}
        self._size = 0  # total (clue, jsn) pairs

    # ---------------------------------------------------------------- insert

    def insert(self, clue: str, jsn: int) -> None:
        """Record that journal ``jsn`` carries ``clue`` (O(1) for known clues)."""
        node = self._fastpath.get(clue)
        if node is None:
            node = self._insert_node(clue)
            self._fastpath[clue] = node
        if node.jsns and jsn <= node.jsns[-1]:
            raise ValueError(
                f"jsn {jsn} not monotonically increasing for clue {clue!r} "
                f"(last was {node.jsns[-1]})"
            )
        node.jsns.append(jsn)
        self._size += 1

    def _insert_node(self, clue: str) -> _Node:
        update: list[_Node] = [self._head] * _MAX_LEVEL
        current = self._head
        for level in range(self._level - 1, -1, -1):
            while current.forward[level] is not None and current.forward[level].clue < clue:
                current = current.forward[level]
            update[level] = current
        candidate = current.forward[0]
        if candidate is not None and candidate.clue == clue:
            return candidate
        height = _tower_height(clue)
        self._level = max(self._level, height)
        node = _Node(clue, height)
        for level in range(height):
            node.forward[level] = update[level].forward[level]
            update[level].forward[level] = node
        return node

    # ----------------------------------------------------------------- reads

    def _find(self, clue: str) -> _Node | None:
        node = self._fastpath.get(clue)
        if node is not None:
            return node
        current = self._head
        for level in range(self._level - 1, -1, -1):
            while current.forward[level] is not None and current.forward[level].clue < clue:
                current = current.forward[level]
        candidate = current.forward[0]
        return candidate if candidate is not None and candidate.clue == clue else None

    def get(self, clue: str) -> list[int]:
        """All jsns recorded for ``clue``, in append order ([] if unknown)."""
        node = self._find(clue)
        return node.jsns.tolist() if node is not None else []

    def count(self, clue: str) -> int:
        node = self._find(clue)
        return len(node.jsns) if node is not None else 0

    def __contains__(self, clue: str) -> bool:
        return self._find(clue) is not None

    def __len__(self) -> int:
        """Total number of (clue, jsn) pairs indexed."""
        return self._size

    def num_clues(self) -> int:
        return len(self._fastpath)

    def clues(self) -> Iterator[str]:
        """All clue names in lexicographic order (skip-list level-0 walk)."""
        node = self._head.forward[0]
        while node is not None:
            yield node.clue
            node = node.forward[0]

    def range(self, low: str, high: str) -> Iterator[tuple[str, list[int]]]:
        """Clues in ``[low, high)`` with their jsn lists (ordered scan)."""
        current = self._head
        for level in range(self._level - 1, -1, -1):
            while current.forward[level] is not None and current.forward[level].clue < low:
                current = current.forward[level]
        node = current.forward[0]
        while node is not None and node.clue < high:
            yield node.clue, node.jsns.tolist()
            node = node.forward[0]
