"""Tests for the trace-driven LRU cache simulator."""

import numpy as np
import pytest

from repro.errors import MachineModelError
from repro.machine.cache import LRUCache


def _last_pass_hits(cache: LRUCache, addrs, passes: int) -> list[bool]:
    """Hit flags of the final pass when *addrs* is replayed *passes* times."""
    for _ in range(passes - 1):
        for a in addrs:
            cache.access(int(a))
    return [cache.access(int(a)) for a in addrs]


class TestConstruction:
    def test_geometry(self):
        c = LRUCache(8192, assoc=4, line_bytes=64)
        assert c.nsets == 32
        assert c.capacity_bytes == 8192

    def test_bad_line_size(self):
        with pytest.raises(MachineModelError):
            LRUCache(8192, line_bytes=48)

    def test_bad_assoc(self):
        with pytest.raises(MachineModelError):
            LRUCache(8192, assoc=0)

    def test_too_small(self):
        with pytest.raises(MachineModelError):
            LRUCache(32, assoc=4, line_bytes=64)

    def test_non_power_of_two_sets(self):
        with pytest.raises(MachineModelError):
            LRUCache(3 * 64 * 4, assoc=4, line_bytes=64)


class TestLRUBehaviour:
    def test_hit_after_access(self):
        c = LRUCache(4096)
        assert not c.access(0)
        assert c.access(0)
        assert c.access(63)  # same line
        assert not c.access(64)  # next line

    def test_lru_eviction_order(self):
        """Direct-mapped-ish: a 2-way set evicts its least recent way."""
        c = LRUCache(2 * 64, assoc=2, line_bytes=64)  # 1 set, 2 ways
        c.access(0)
        c.access(64)
        c.access(0)  # 0 is now most recent
        c.access(128)  # evicts 64
        assert c.contains(0)
        assert not c.contains(64)

    def test_associativity_conflicts(self):
        """Addresses mapping to one set thrash regardless of capacity."""
        c = LRUCache(4 * 64 * 8, assoc=4, line_bytes=64)  # 8 sets
        stride = c.nsets * 64  # same set every time
        for i in range(5):
            c.access(i * stride)
        assert not c.contains(0)  # evicted by the 5th way demand

    def test_resident_lines(self):
        c = LRUCache(4096)
        for i in range(10):
            c.access(i * 64)
        assert c.resident_lines() == 10

    def test_flush(self):
        c = LRUCache(4096)
        c.access(0)
        c.flush()
        assert c.resident_lines() == 0
        assert c.stats.accesses == 0

    def test_cyclic_thrash_property(self):
        """Cyclic streaming over ws > capacity yields ~zero hits --
        the physical behaviour the residency exponent approximates."""
        c = LRUCache(64 * 16, assoc=16, line_bytes=64)  # 16 lines, 1 set
        addrs = np.arange(0, 64 * 32, 64)  # 32 lines, cyclic
        assert not any(_last_pass_hits(c, addrs, 3))

    def test_fitting_workload_all_hits_steady_state(self):
        c = LRUCache(64 * 64, assoc=8, line_bytes=64)
        addrs = np.arange(0, 64 * 16, 64)
        assert all(_last_pass_hits(c, addrs, 2))
