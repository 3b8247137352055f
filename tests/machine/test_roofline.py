"""The roofline analysis, read off :func:`repro.perf.attribution.attribute_cell`.

``attribute_cell`` is the one roofline: given a model-clock
``simulate_spmv`` result it reports the cell's flops, DRAM bytes,
attainable rate and whether the cell is memory bound.
"""

import pytest

from repro.formats import convert
from repro.machine.costmodel import default_cost_model
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core
from repro.matrices.collection import realize
from repro.perf.attribution import attribute_cell, machine_peak_flops

SCALE = 1 / 64


@pytest.fixture(scope="module")
def machine():
    return clovertown_8core().scaled(SCALE)


@pytest.fixture(scope="module")
def cost():
    return default_cost_model()


def _model_cell(matrix, threads, machine, cost):
    """attribute_cell on one model-clock simulate_spmv result."""
    sim = simulate_spmv(matrix, threads, machine, cost_model=cost)
    return attribute_cell(
        matrix,
        threads=threads,
        placement="close",
        time_s=sim.time_s,
        machine=machine,
        cost_model=cost,
        sim=sim,
    )


@pytest.fixture(scope="module")
def cells(machine, cost):
    matrix = realize(69, scale=SCALE)  # ML_vi: memory bound
    return {
        fmt: _model_cell(convert(matrix, fmt), 8, machine, cost)
        for fmt in ("csr", "csr-du", "csr-vi", "csr-du-vi")
    }


class TestRoofline:
    def test_peak_scales_with_threads(self, machine, cost):
        assert machine_peak_flops(machine, 8, cost) == pytest.approx(
            8 * machine_peak_flops(machine, 1, cost)
        )

    def test_spmv_is_memory_bound(self, cells):
        """The paper's premise as a roofline statement."""
        att = cells["csr"]
        assert att.memory_bound
        assert att.flops / att.dram_bytes < 1.0  # well under 1 flop/byte

    def test_compression_raises_intensity(self, cells):
        """Compression moves the kernel rightward on the roofline."""
        intensity = {f: a.flops / a.dram_bytes for f, a in cells.items()}
        assert intensity["csr-du"] > intensity["csr"]
        assert intensity["csr-vi"] > intensity["csr"]
        assert intensity["csr-du-vi"] > intensity["csr-du"]

    def test_attainable_bounds_achieved(self, cells):
        """The engine's prediction respects the roofline ceiling within
        modeling slack (per-row overheads, partial overlap)."""
        for att in cells.values():
            assert att.mflops <= att.attainable_mflops * 1.05

    def test_attainable_tracks_intensity_when_bound(self, cells, machine, cost):
        att = cells["csr"]
        assert att.memory_bound
        assert att.attainable_mflops < machine_peak_flops(machine, 8, cost) / 1e6

    def test_resident_matrix_infinite_intensity(self, cost):
        """A fully cache-resident matrix has no DRAM traffic."""
        m = realize(44, scale=SCALE)  # MS: small working set
        big = clovertown_8core()  # unscaled caches: everything fits
        att = _model_cell(convert(m, "csr"), 1, big, cost)
        assert att.dram_bytes == 0.0
        assert not att.memory_bound
