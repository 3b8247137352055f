"""Trace-driven set-associative LRU cache simulator.

The analytic residency model in :mod:`repro.machine.traffic` is what
the big experiments use; this simulator is the ground-truth LRU that
:mod:`repro.machine.tracesim` replays per-format SpMV address traces
through to validate that model on small matrices.

Addresses are byte addresses; the cache maps them to lines of
``line_bytes`` and maintains true LRU order per set.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import MachineModelError


@dataclass
class CacheStats:
    """Hit/miss counters for one simulation run."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits


class LRUCache:
    """Set-associative cache with true LRU replacement.

    Parameters
    ----------
    capacity_bytes:
        Total capacity; must be ``assoc * line_bytes * nsets`` for a
        power-of-two number of sets.
    assoc:
        Ways per set.
    line_bytes:
        Line size (power of two).
    """

    def __init__(self, capacity_bytes: int, assoc: int = 8, line_bytes: int = 64):
        if line_bytes <= 0 or line_bytes & (line_bytes - 1):
            raise MachineModelError("line_bytes must be a positive power of two")
        if assoc < 1:
            raise MachineModelError("associativity must be >= 1")
        nsets = capacity_bytes // (assoc * line_bytes)
        if nsets < 1:
            raise MachineModelError(
                f"capacity {capacity_bytes} too small for {assoc}-way "
                f"{line_bytes}-byte lines"
            )
        if nsets & (nsets - 1):
            raise MachineModelError(f"set count {nsets} must be a power of two")
        self.capacity_bytes = nsets * assoc * line_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.nsets = nsets
        # Per set: OrderedDict of tag -> None, LRU first.
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(nsets)]
        self.stats = CacheStats()

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.nsets, line // self.nsets

    def access(self, addr: int) -> bool:
        """Access one byte address; returns True on hit."""
        set_idx, tag = self._locate(addr)
        ways = self._sets[set_idx]
        self.stats.accesses += 1
        if tag in ways:
            ways.move_to_end(tag)
            self.stats.hits += 1
            return True
        if len(ways) >= self.assoc:
            ways.popitem(last=False)
        ways[tag] = None
        return False

    def contains(self, addr: int) -> bool:
        """Non-mutating residency probe."""
        set_idx, tag = self._locate(addr)
        return tag in self._sets[set_idx]

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def flush(self) -> None:
        for s in self._sets:
            s.clear()
        self.stats = CacheStats()

