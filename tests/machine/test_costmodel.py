"""Tests for the kernel cost model."""

import pytest

from repro.errors import MachineModelError
from repro.machine.costmodel import CostModel, KernelCost, default_cost_model


@pytest.fixture
def cost():
    return default_cost_model()


class TestKernelCost:
    def test_total(self):
        k = KernelCost(element_cycles=10, row_cycles=5, dispatch_cycles=2)
        assert k.total == 17


class TestRelationships:
    """The qualitative relationships the paper's Section III-B needs."""

    def test_du_costs_more_compute_than_csr(self, cost):
        assert cost.csr_du(1000, 10, 20).total > cost.csr(1000, 10).total

    def test_vi_costs_more_compute_than_csr(self, cost):
        assert cost.csr_vi(1000, 10).total > cost.csr(1000, 10).total

    def test_du_vi_costs_most(self, cost):
        assert (
            cost.csr_du_vi(1000, 10, 20).total
            > cost.csr_du(1000, 10, 20).total
        )

    def test_dcsr_dispatch_dominates_du(self, cost):
        """Same matrix: DCSR has ~1 command/element vs ~1 unit/50
        elements for CSR-DU, and a worse mispredict rate -> the
        fine-grained dispatch penalty of [19]."""
        nnz, rows = 10_000, 100
        du = cost.csr_du(nnz, rows, units=rows)  # large units
        dcsr = cost.dcsr(nnz, rows, commands=rows + nnz // 3)
        assert dcsr.dispatch_cycles > du.dispatch_cycles

    def test_unit_cost_amortizes(self, cost):
        """More elements per unit -> lower cost per element (the
        paper's coarse-grain argument)."""
        fine = cost.csr_du(1000, 10, units=500).total / 1000
        coarse = cost.csr_du(1000, 10, units=20).total / 1000
        assert coarse < fine

    def test_scaling_linear_in_elements(self, cost):
        assert cost.csr(2000, 10).element_cycles == 2 * cost.csr(1000, 10).element_cycles

    def test_zero_work_zero_cost(self, cost):
        assert cost.csr(0, 0).total == 0.0


class TestValidation:
    def test_negative_base_rejected(self):
        with pytest.raises(MachineModelError):
            CostModel(per_element=-1)

    def test_mildly_negative_decode_allowed(self):
        m = CostModel(du_decode_per_element=-0.5)
        assert m.csr_du(100, 1, 1).total > 0

    def test_decode_cannot_make_free(self):
        with pytest.raises(MachineModelError):
            CostModel(per_element=2.0, du_decode_per_element=-3.0)

    def test_bad_rate(self):
        with pytest.raises(MachineModelError):
            CostModel(dcsr_mispredict_rate=1.5)


class TestSequentialUnits:
    def test_seq_elements_cheaper(self, cost):
        """Sequential units skip the per-element delta load."""
        plain = cost.csr_du(1000, 10, 20, seq_elements=0).total
        seq = cost.csr_du(1000, 10, 20, seq_elements=1000).total
        assert seq < plain

    def test_seq_still_dearer_than_csr(self, cost):
        """Even all-sequential decode isn't free."""
        assert (
            cost.csr_du(1000, 10, 20, seq_elements=1000).total
            > cost.csr(1000, 10).total
        )

    def test_du_vi_inherits_seq_discount(self, cost):
        a = cost.csr_du_vi(1000, 10, 20, seq_elements=0).total
        b = cost.csr_du_vi(1000, 10, 20, seq_elements=1000).total
        assert b < a
