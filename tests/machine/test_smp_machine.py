"""Tests for the configurable SMP machine builder."""

import pytest

from repro.errors import MachineModelError
from repro.machine.topology import place_threads, smp_machine


class TestSmpMachine:
    def test_default_topology(self):
        m = smp_machine(8)
        assert m.ncores == 8
        assert len(m.dies()) == 4
        assert len(m.packages()) == 2

    def test_cores_per_die(self):
        m = smp_machine(32, cores_per_die=8)
        assert len(m.dies()) == 4
        assert all(len(c) == 8 for c in m.dies().values())

    def test_ragged_last_die(self):
        m = smp_machine(5, cores_per_die=2)
        assert m.ncores == 5
        assert len(m.dies()) == 3

    def test_matches_clovertown_shape(self):
        from repro.machine.topology import clovertown_8core

        clover = clovertown_8core()
        smp = smp_machine(8)
        assert smp.dies().keys() == clover.dies().keys()
        assert smp.packages().keys() == clover.packages().keys()
        assert smp.core_bw == clover.core_bw
        assert smp.mem_bw == clover.mem_bw

    def test_placement_works(self):
        m = smp_machine(16, cores_per_die=4)
        assert len(place_threads(m, 16, "close")) == 16
        spread = place_threads(m, 4, "spread")
        info = {c.core_id: c for c in m.cores}
        assert len({info[c].die_id for c in spread}) == 4

    def test_bad_args(self):
        with pytest.raises(MachineModelError):
            smp_machine(0)
        with pytest.raises(MachineModelError):
            smp_machine(4, cores_per_die=0)

    def test_simulation_runs_at_32_cores(self):
        from repro.formats.conversions import convert
        from repro.machine.simulate import simulate_spmv
        from repro.matrices.collection import realize

        m = smp_machine(32, cores_per_die=8).scaled(1 / 64)
        matrix = convert(realize(69, scale=1 / 64), "csr")
        res = simulate_spmv(matrix, 32, m)
        assert res.time_s > 0
        assert len(res.compute_s) == 32
