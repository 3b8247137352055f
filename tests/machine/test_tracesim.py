"""Trace-driven simulation tests: the analytic model's ground truth."""

import pytest

from repro.errors import MachineModelError
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core
from repro.machine.tracesim import (
    csr_du_trace,
    csr_trace,
    csr_vi_trace,
    format_trace,
    run_trace,
)

from tests.conftest import random_sparse_dense


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(
        random_sparse_dense(48, 48, density=0.2, seed=170, quantize=8)
    )


class TestTraceGeneration:
    def test_csr_trace_length(self, csr):
        trace = csr_trace(csr)
        # row_ptr + y per row; col_ind + values + x per nonzero.
        assert trace.size == 2 * csr.nrows + 3 * csr.nnz

    def test_csr_vi_trace_length(self, csr):
        vi = convert(csr, "csr-vi")
        trace = csr_vi_trace(vi)
        # Extra val_ind and vals_unique access per nonzero.
        assert trace.size == 2 * csr.nrows + 4 * csr.nnz

    def test_csr_du_trace_covers_ctl(self, csr):
        du = convert(csr, "csr-du")
        trace = csr_du_trace(du)
        # One access per ctl byte + 2 per nnz + 1 y per unit.
        assert trace.size == len(du.ctl) + 2 * csr.nnz + du.units.nunits

    def test_dispatch(self, csr):
        assert format_trace(csr).size
        assert format_trace(convert(csr, "csr-du")).size
        assert format_trace(convert(csr, "csr-vi")).size

    def test_dispatch_unknown(self, csr):
        with pytest.raises(MachineModelError):
            format_trace(convert(csr, "coo"))

    def test_addresses_disjoint_regions(self, csr):
        """Different arrays never alias (64-byte aligned regions)."""
        vi = convert(csr, "csr-vi")
        trace = csr_vi_trace(vi)
        assert trace.min() >= 0
        total = (
            vi.row_ptr.nbytes
            + vi.col_ind.nbytes
            + vi.val_ind.nbytes
            + vi.vals_unique.nbytes
            + vi.ncols * 8
            + vi.nrows * 8
        )
        assert trace.max() < total + 6 * 64


class TestRunTrace:
    def test_fitting_regime_no_dram(self, csr):
        """Everything fits in L2 -> zero steady-state DRAM traffic."""
        res = run_trace(csr_trace(csr), l2_bytes=1024 * 1024, repeats=2)
        assert res.dram_bytes == 0

    def test_streaming_regime_traffic(self, csr):
        """Tiny L2 -> the matrix streams from DRAM every iteration."""
        res = run_trace(
            csr_trace(csr), l1_bytes=512, l1_assoc=2, l2_bytes=2048, l2_assoc=2
        )
        streamed = csr.nnz * 12  # col_ind + values
        assert res.dram_bytes > 0.5 * streamed

    def test_compressed_formats_move_fewer_bytes(self, csr):
        """The paper's core mechanism, measured on real address traces:
        CSR-DU and CSR-VI cut steady-state DRAM traffic."""
        kwargs = dict(l1_bytes=512, l1_assoc=2, l2_bytes=2048, l2_assoc=2)
        base = run_trace(csr_trace(csr), **kwargs).dram_bytes
        du = run_trace(csr_du_trace(convert(csr, "csr-du")), **kwargs).dram_bytes
        vi = run_trace(csr_vi_trace(convert(csr, "csr-vi")), **kwargs).dram_bytes
        assert du < base
        assert vi < base

    def test_repeats_required(self, csr):
        with pytest.raises(MachineModelError):
            run_trace(csr_trace(csr), repeats=0)


class TestModelAgreement:
    """Pin the analytic residency/traffic model to trace measurements."""

    @pytest.mark.parametrize("fmt", ["csr", "csr-du", "csr-vi"])
    def test_both_regimes(self, csr, fmt):
        m = convert(csr, fmt)
        trace = format_trace(m)

        # Fitting regime.
        fit = run_trace(trace, l2_bytes=1024 * 1024)
        machine_fit = clovertown_8core().scaled(0.25)  # 1 MB L2
        model_fit = simulate_spmv(m, 1, machine_fit)
        assert fit.dram_bytes == 0
        assert model_fit.resident_fraction > 0.95

        # Streaming regime: model traffic within 3x of trace-measured
        # (the analytic model works at array granularity and inflates x
        # by the reload factor; agreement here is about magnitude).
        stream = run_trace(trace, l1_bytes=256, l1_assoc=2, l2_bytes=1024, l2_assoc=2)
        machine_stream = clovertown_8core().scaled(0.00025)  # ~1 KB L2
        model_stream = simulate_spmv(m, 1, machine_stream)
        measured = stream.dram_bytes
        modeled = model_stream.total_traffic
        assert measured > 0 and modeled > 0
        assert 1 / 3 < modeled / measured < 3
