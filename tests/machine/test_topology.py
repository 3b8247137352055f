"""Tests for machine topology and thread placement."""

import pytest

from repro.errors import MachineModelError
from repro.machine.topology import (
    Core,
    MachineSpec,
    clovertown_8core,
    place_threads,
)


class TestClovertown:
    def test_structure_matches_fig6(self):
        """Fig. 6: 2 packages x 2 dies x 2 cores, 4 MB L2 per die, 2 GHz."""
        m = clovertown_8core()
        assert m.ncores == 8
        assert m.clock_hz == 2.0e9
        assert m.l2_bytes == 4 * 1024 * 1024
        dies = m.dies()
        assert len(dies) == 4
        assert all(len(cores) == 2 for cores in dies.values())
        packages = m.packages()
        assert len(packages) == 2
        assert sorted(packages[0]) == [0, 1, 2, 3]

    def test_total_l2(self):
        m = clovertown_8core()
        assert m.l2_bytes * len(m.dies()) == 16 * 1024 * 1024


class TestValidation:
    def _base(self, **overrides):
        kwargs = dict(
            name="t",
            clock_hz=1e9,
            cores=(Core(0, 0, 0),),
            l1_bytes=1024,
            l2_bytes=4096,
            l2_assoc=4,
            line_bytes=64,
            core_bw=1e9,
            die_bw=1e9,
            fsb_bw=1e9,
            mem_bw=1e9,
        )
        kwargs.update(overrides)
        return MachineSpec(**kwargs)

    def test_valid(self):
        assert self._base().ncores == 1

    def test_bad_clock(self):
        with pytest.raises(MachineModelError):
            self._base(clock_hz=0)

    def test_no_cores(self):
        with pytest.raises(MachineModelError):
            self._base(cores=())

    def test_sparse_core_ids(self):
        with pytest.raises(MachineModelError):
            self._base(cores=(Core(1, 0, 0),))

    def test_bad_bandwidth(self):
        with pytest.raises(MachineModelError):
            self._base(mem_bw=-1)

    def test_bad_effectiveness(self):
        with pytest.raises(MachineModelError):
            self._base(cache_effectiveness=0.0)

    def test_bad_overlap(self):
        with pytest.raises(MachineModelError):
            self._base(overlap=1.5)

    def test_bad_x_reload(self):
        with pytest.raises(MachineModelError):
            self._base(x_reload=0.5)


class TestScaled:
    def test_shrinks_caches_only(self):
        m = clovertown_8core()
        s = m.scaled(0.25)
        assert s.l2_bytes == m.l2_bytes // 4
        assert s.core_bw == m.core_bw
        assert s.clock_hz == m.clock_hz
        assert s.ncores == m.ncores

    def test_bad_factor(self):
        with pytest.raises(MachineModelError):
            clovertown_8core().scaled(0)


class TestPlacement:
    def test_close_packs_shared_l2(self):
        m = clovertown_8core()
        assert place_threads(m, 2, "close") == (0, 1)  # same die = shared L2
        assert place_threads(m, 4, "close") == (0, 1, 2, 3)  # one package

    def test_spread_2_same_package_separate_l2(self):
        """The paper's 2 (2xL2) config: different dies, same package."""
        m = clovertown_8core()
        cores = place_threads(m, 2, "spread")
        info = {c.core_id: c for c in m.cores}
        a, b = (info[c] for c in cores)
        assert a.die_id != b.die_id
        assert a.package_id == b.package_id

    def test_spread_4_uses_all_dies(self):
        m = clovertown_8core()
        cores = place_threads(m, 4, "spread")
        info = {c.core_id: c for c in m.cores}
        assert len({info[c].die_id for c in cores}) == 4

    def test_full_machine(self):
        m = clovertown_8core()
        assert sorted(place_threads(m, 8, "close")) == list(range(8))
        assert sorted(place_threads(m, 8, "spread")) == list(range(8))

    def test_too_many_threads(self):
        with pytest.raises(MachineModelError):
            place_threads(clovertown_8core(), 9)

    def test_zero_threads(self):
        with pytest.raises(MachineModelError):
            place_threads(clovertown_8core(), 0)

    def test_unknown_policy(self):
        with pytest.raises(MachineModelError):
            place_threads(clovertown_8core(), 2, "diagonal")
