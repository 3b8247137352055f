"""Attribution records: roofline math, speedup filling, telemetry."""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentConfig, run_format_matrix, run_set
from repro.formats.conversions import convert
from repro.machine.costmodel import default_cost_model
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core
from repro.perf.attribution import (
    attribute_cell,
    compression_speedup_correlation,
    machine_peak_flops,
    record,
)
from repro.perf.bytes import bytes_per_iteration
from repro.telemetry import metric_key


@pytest.fixture(scope="module")
def machine():
    return clovertown_8core()


@pytest.fixture(scope="module")
def cost():
    return default_cost_model()


class TestAttributeCell:
    def test_model_clock_fields(self, paper_matrix, machine, cost):
        sim = simulate_spmv(paper_matrix, 2, machine, cost_model=cost)
        att = attribute_cell(
            paper_matrix,
            threads=2,
            placement="close",
            time_s=sim.time_s,
            machine=machine,
            cost_model=cost,
            matrix_id=7,
            sim=sim,
        )
        bd = bytes_per_iteration(paper_matrix, 2)
        assert att.format_name == "csr"
        assert att.matrix_id == 7
        assert att.flops == 2 * paper_matrix.nnz
        assert att.bytes_per_iter == bd.total_bytes
        assert att.index_bytes == bd.index_bytes
        assert att.mflops == pytest.approx(att.flops / sim.time_s / 1e6)
        assert att.effective_gbps == pytest.approx(
            bd.total_bytes / sim.time_s / 1e9
        )
        assert att.dram_bytes == sim.total_traffic
        assert att.bound == sim.bound
        # The model never beats its own roofline ceiling.
        assert 0.0 < att.roofline_pct <= 100.0 + 1e-9
        assert att.attainable_mflops <= machine_peak_flops(machine, 2, cost) / 1e6

    def test_compression_ratio_vs_csr(self, paper_matrix, machine, cost):
        csr_storage = paper_matrix.storage()
        vi = convert(paper_matrix, "csr-vi")
        att = attribute_cell(
            vi,
            threads=1,
            placement="close",
            time_s=1e-6,
            machine=machine,
            cost_model=cost,
            sim=simulate_spmv(vi, 1, machine, cost_model=cost),
            csr_storage=csr_storage,
        )
        assert att.compression_ratio == pytest.approx(
            vi.storage().total_bytes / csr_storage.total_bytes
        )
        assert att.compression_ratio < 1.0

    def test_with_speedup(self, paper_matrix, machine, cost):
        att = attribute_cell(
            paper_matrix,
            threads=1,
            placement="close",
            time_s=2e-6,
            machine=machine,
            cost_model=cost,
            sim=simulate_spmv(paper_matrix, 1, machine, cost_model=cost),
        )
        assert att.speedup_vs_csr == 0.0
        filled = att.with_speedup(3e-6)
        assert filled.speedup_vs_csr == pytest.approx(1.5)
        assert att.speedup_vs_csr == 0.0  # frozen original untouched
        assert att.with_speedup(0.0) is att


class TestTelemetry:
    def test_record_emits_full_payload(
        self, paper_matrix, machine, cost, collector
    ):
        att = attribute_cell(
            paper_matrix,
            threads=4,
            placement="spread",
            time_s=1e-6,
            machine=machine,
            cost_model=cost,
            sim=simulate_spmv(
                paper_matrix, 4, machine, placement="spread", cost_model=cost
            ),
        )
        record(att)
        events = [
            ev for ev in collector.snapshot() if ev.name == "perf.attribution"
        ]
        assert len(events) == 1
        attrs = events[0].attrs
        assert attrs["format"] == "csr"
        assert attrs["threads"] == 4
        assert attrs["placement"] == "spread"
        assert attrs["bytes_per_iter"] == att.bytes_per_iter
        assert attrs["roofline_pct"] == pytest.approx(att.roofline_pct)
        assert attrs["bound"] == att.bound
        key = metric_key(
            "perf.attribution",
            {"format": "csr", "placement": "spread", "threads": 4},
        )
        assert collector.counters[key] == 1


class TestHarnessIntegration:
    """Acceptance: every bench cell gets an Attribution for all four
    paper formats."""

    @pytest.mark.parametrize(
        "fmt", ["csr", "csr-du", "csr-vi", "csr-du-vi"]
    )
    def test_every_cell_attributed(self, paper_matrix, fmt):
        config = ExperimentConfig()
        res = run_format_matrix(paper_matrix, fmt, config, matrix_id=3)
        assert set(res.attributions) == set(res.times)
        for key, att in res.attributions.items():
            threads, placement = key
            assert att.threads == threads
            assert att.placement == placement
            assert att.format_name == fmt
            assert att.time_s == res.times[key]
            assert att.bytes_per_iter > 0
            assert att.effective_gbps > 0
            assert 0 < att.roofline_pct <= 100.0 + 1e-9

    def test_run_set_fills_speedups(self):
        out = run_set((1,), ("csr", "csr-du"), ExperimentConfig(scale=0.02))
        du = out[1]["csr-du"]
        csr = out[1]["csr"]
        for key, att in du.attributions.items():
            assert att.speedup_vs_csr == pytest.approx(
                csr.times[key] / du.times[key]
            )
        for att in csr.attributions.values():
            assert att.speedup_vs_csr == 0.0


class TestCorrelation:
    def test_perfect_positive(self):
        pts = [(0.1, 1.1), (0.2, 1.2), (0.3, 1.3)]
        assert compression_speedup_correlation(pts) == pytest.approx(1.0)

    def test_perfect_negative(self):
        pts = [(0.1, 1.3), (0.2, 1.2), (0.3, 1.1)]
        assert compression_speedup_correlation(pts) == pytest.approx(-1.0)

    def test_degenerate_cases(self):
        assert compression_speedup_correlation([]) == 0.0
        assert compression_speedup_correlation([(0.5, 2.0)]) == 0.0
        assert compression_speedup_correlation([(0.5, 1.0), (0.5, 2.0)]) == 0.0
