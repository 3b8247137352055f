"""Domain metrics: the instrumented encode/partition/simulate paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.compress.ctl import encode_ctl_reference
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core
from repro.parallel.partition import row_partition
from repro.telemetry.core import metric_key
from repro.telemetry.metrics import KNOWN_EVENTS, WIDTH_LABELS
from tests.conftest import random_sparse_dense


@pytest.fixture
def csr() -> CSRMatrix:
    return CSRMatrix.from_dense(random_sparse_dense(80, 80, seed=2, quantize=8))


class TestCsrDuEncodeMetrics:
    def test_unit_width_histogram(self, collector, csr):
        du = convert(csr, "csr-du")
        width_counts = {
            key: v
            for key, v in collector.counters.items()
            if key[0] == "encode.csr_du.units"
        }
        assert width_counts, "no unit-width counters recorded"
        # The telemetry histogram is the format's own census.
        classes, counts = np.unique(du.units.classes, return_counts=True)
        hist = dict(zip(classes.tolist(), counts.tolist()))
        for cls, n in hist.items():
            key = metric_key("encode.csr_du.units", {"width": WIDTH_LABELS[cls]})
            assert width_counts[key] == n
        assert sum(width_counts.values()) == sum(hist.values())

    def test_ctl_bytes_and_new_rows(self, collector, csr):
        du = convert(csr, "csr-du")
        assert collector.counters[("encode.csr_du.ctl_bytes", ())] == len(du.ctl)
        nonempty = int(np.count_nonzero(np.diff(csr.row_ptr)))
        assert collector.counters[("encode.csr_du.new_rows", ())] == nonempty

    def test_encode_span_emitted(self, collector, csr):
        convert(csr, "csr-du")
        spans = [
            ev for ev in collector.snapshot() if ev.name == "encode.batched"
        ]
        assert len(spans) == 1
        assert spans[0].attrs["policy"] == "greedy"
        assert spans[0].attrs["nnz"] == csr.nnz
        assert spans[0].attrs["kind"] == "csr-du"

    def test_unitize_span_emitted_by_reference_encoder(self, collector, csr):
        encode_ctl_reference(csr.row_ptr, csr.col_ind)
        spans = [
            ev for ev in collector.snapshot() if ev.name == "encode.csr_du.unitize"
        ]
        assert len(spans) == 1
        assert spans[0].attrs["policy"] == "greedy"
        assert spans[0].attrs["nnz"] == csr.nnz

    def test_census_reported_once_per_writer(self, collector, csr):
        du = convert(csr, "csr-du")
        du.storage()  # re-reads nothing; getvalue already consumed
        total = sum(
            v
            for key, v in collector.counters.items()
            if key[0] == "encode.csr_du.units"
        )
        assert total == du.units.nunits


class TestCsrViEncodeMetrics:
    def test_unique_table_gauges(self, collector, csr):
        vi = convert(csr, "csr-vi")
        assert collector.gauges[
            metric_key("encode.csr_vi.unique_vals", {"nnz": csr.nnz})
        ] == vi.unique_count
        assert (
            collector.gauges[("encode.csr_vi.val_ind_bits", ())]
            == vi.val_ind.dtype.itemsize * 8
        )
        assert collector.gauges[("encode.csr_vi.ttu", ())] == pytest.approx(vi.ttu)

    def test_unique_span(self, collector, csr):
        convert(csr, "csr-vi")
        assert any(
            ev.name == "encode.csr_vi.unique" for ev in collector.snapshot()
        )


class TestPartitionMetrics:
    def test_per_thread_nnz_counters(self, collector, csr):
        part = row_partition(csr.row_ptr, 4)
        events = [ev for ev in collector.snapshot() if ev.name == "partition.nnz"]
        assert len(events) == 4
        for t, ev in enumerate(events):
            assert ev.attrs["thread"] == t
            assert ev.value == float(part.nnz_per_thread[t])
            lo, hi = part.rows_of(t)
            assert (ev.attrs["lo"], ev.attrs["hi"]) == (lo, hi)
        key = metric_key("partition.imbalance", {"kind": "row"})
        assert collector.gauges[key] == pytest.approx(part.imbalance())

    def test_nnz_totals_cover_matrix(self, collector, csr):
        row_partition(csr.row_ptr, 8)
        total = sum(
            v
            for key, v in collector.counters.items()
            if key[0] == "partition.nnz"
        )
        assert total == csr.nnz


class TestSimMetrics:
    def test_sim_span_and_bound(self, collector, csr):
        machine = clovertown_8core().scaled(1 / 64)
        res = simulate_spmv(csr, threads=4, machine=machine)
        events = collector.snapshot()
        spans = [ev for ev in events if ev.name == "sim.spmv"]
        assert len(spans) == 1
        assert spans[0].attrs == {
            "format": "csr",
            "threads": 4,
            "placement": "close",
        }
        assert collector.counters[metric_key("sim.bound", {"bound": res.bound})] == 1
        key = metric_key(
            "sim.dram_bytes", {"format": "csr", "placement": "close", "threads": 4}
        )
        assert collector.counters[key] == pytest.approx(res.total_traffic)
        key = metric_key("sim.resident_fraction", {"format": "csr"})
        assert collector.gauges[key] == pytest.approx(res.resident_fraction)

    def test_all_emitted_names_are_documented(self, collector, csr):
        convert(csr, "csr-du")
        convert(csr, "csr-vi")
        machine = clovertown_8core().scaled(1 / 64)
        simulate_spmv(csr, threads=2, machine=machine)
        names = {ev.name for ev in collector.snapshot()}
        assert names <= KNOWN_EVENTS
