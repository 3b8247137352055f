"""Hand-computed byte accounting for the exact per-iteration stream.

Every expected number below is derived on paper from the format's wire
layout (DESIGN.md / compress.ctl docstrings), not from running the
code -- these tests pin the accounting, they don't mirror it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MachineModelError
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.machine.costmodel import default_cost_model
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core
from repro.perf.attribution import attribute_cell
from repro.perf.bytes import breakdown_from_works, bytes_per_iteration
from tests.conftest import PAPER_DENSE, random_sparse_dense


class TestCSRPaperMatrix:
    """The paper's 6x6 Fig. 1 matrix: 16 nnz, int32 indices.

    Hand accounting (one thread):

    * row_ptr: 7 entries x 4 B  = 28
    * col_ind: 16 x 4 B         = 64
    * values:  16 x 8 B         = 128
    * y:       6 x 8 B          = 48
    * x: all columns 0..5 land in cache line 0 -> one 64 B line
    """

    def test_serial_breakdown(self, paper_matrix):
        bd = bytes_per_iteration(paper_matrix, 1)
        assert bd.arrays == {
            "row_ptr": 28,
            "col_ind": 64,
            "values": 128,
            "y": 48,
            "x": 64,
        }
        assert bd.index_bytes == 28 + 64
        assert bd.value_bytes == 128
        assert bd.vector_bytes == 48 + 64
        assert bd.total_bytes == 332
        assert bd.nnz == 16
        assert bd.flops == 32
        assert bd.flops_per_byte == pytest.approx(32 / 332)

    def test_two_threads_share_x_line(self, paper_matrix):
        """Each thread gathers from the same single x line; the shared
        footprint is capped at the whole vector (64 B), not doubled.
        Private row_ptr grows by one overlapping boundary entry."""
        bd = bytes_per_iteration(paper_matrix, 2)
        assert bd.arrays["x"] == 64
        assert bd.arrays["row_ptr"] == 32  # (r0+1)*4 + (r1+1)*4, r0+r1=6
        assert bd.arrays["col_ind"] == 64
        assert bd.arrays["values"] == 128
        assert bd.arrays["y"] == 48
        # 16 nnz over 2 threads, best static split is 9/7: max/mean 9/8.
        assert bd.nnz_imbalance == pytest.approx(9 / 8)


class TestCSRVIPaperMatrix:
    """CSR-VI: values indirect through 9 unique doubles (Table I).

    val_ind needs one uint8 per nnz (9 < 256); vals_unique is 9 x 8 B
    and counted once however many threads read it.
    """

    def test_serial_breakdown(self, paper_matrix):
        vi = convert(paper_matrix, "csr-vi")
        bd = bytes_per_iteration(vi, 1)
        assert bd.arrays == {
            "row_ptr": 28,
            "col_ind": 64,
            "val_ind": 16,  # 16 nnz x 1 B
            "y": 48,
            "x": 64,
            "vals_unique": 72,  # 9 unique x 8 B
        }
        assert bd.index_bytes == 92
        assert bd.value_bytes == 16 + 72
        assert bd.vector_bytes == 112

    def test_vals_unique_counted_once_across_threads(self, paper_matrix):
        vi = convert(paper_matrix, "csr-vi")
        assert bytes_per_iteration(vi, 2).arrays["vals_unique"] == 72
        assert bytes_per_iteration(vi, 1).arrays["vals_unique"] == 72


class TestCSRDUMixedWidths:
    """CSR-DU with one u8 unit and one u16 unit, ctl hand-assembled.

    Matrix: 2 x 1008, row 0 holds columns [0, 1, 2], row 1 holds
    [0, 1000].  Wire format per unit:
    ``uflags(1) + usize(1) + ujmp varint + (usize-1) deltas``:

    * unit 0 (row 0, u8):  1 + 1 + 1 (ujmp=0) + 2 x 1 B deltas = 5 B
    * unit 1 (row 1, u16): 1 + 1 + 1 (ujmp=0) + 1 x 2 B delta  = 5 B

    The x gather touches lines 0 (cols 0..2) and 125 (col 1000):
    2 x 64 B, far below the 1008-column full-vector cap.
    """

    @pytest.fixture
    def mixed(self):
        dense = np.zeros((2, 1008))
        dense[0, [0, 1, 2]] = [1.5, 2.5, 3.5]
        dense[1, [0, 1000]] = [4.5, 5.5]
        return CSRMatrix.from_dense(dense)

    def test_ctl_bytes_hand_assembled(self, mixed):
        du = convert(mixed, "csr-du")
        bd = bytes_per_iteration(du, 1)
        assert bd.arrays == {
            "ctl": 10,
            "values": 40,  # 5 nnz x 8 B
            "y": 16,  # 2 rows x 8 B
            "x": 128,  # lines 0 and 125
        }
        assert bd.index_bytes == 10
        assert bd.value_bytes == 40
        assert bd.vector_bytes == 144
        # Both width classes really are present (u8 + u16).
        assert sorted(du.units.classes.tolist()) == [0, 1]

    def test_du_vi_swaps_values_for_indirection(self, mixed):
        """CSR-DU-VI replaces the 40 B value stream with a 1 B/nnz
        val_ind plus the unique pool (4 distinct values... all 5 are
        distinct here: 5 x 8 B pool, 5 x 1 B indices)."""
        duvi = convert(mixed, "csr-du-vi")
        bd = bytes_per_iteration(duvi, 1)
        assert bd.arrays["ctl"] == 10
        assert bd.arrays["val_ind"] == 5
        assert bd.arrays["vals_unique"] == 40  # 5 unique x 8 B
        assert "values" not in bd.arrays


class TestPaperMatrixCSRDU:
    def test_ctl_replaces_row_ptr_and_col_ind(self, paper_matrix):
        """On the Fig. 1 matrix the whole structure compresses to a
        28 B ctl stream (6 units, all u8) vs CSR's 92 B of indices."""
        du = convert(paper_matrix, "csr-du")
        bd = bytes_per_iteration(du, 1)
        assert bd.arrays == {"ctl": 28, "values": 128, "y": 48, "x": 64}
        assert bd.index_bytes == 28
        csr_bd = bytes_per_iteration(paper_matrix, 1)
        assert csr_bd.index_bytes == 92


def _with_empty_rows() -> CSRMatrix:
    """A band, every third row and the last ten rows hold no nonzeros."""
    dense = random_sparse_dense(
        80, 96, density=0.1, seed=5, quantize=8, empty_rows=True
    )
    dense[::3] = 0.0
    dense[-10:] = 0.0
    return CSRMatrix.from_dense(dense)


class TestSimulationCensus:
    """The attribution folds the census the simulation already ran; the
    fold must equal the standalone byte census exactly."""

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    @pytest.mark.parametrize("fmt", ["csr", "csr-du", "csr-vi", "csr-du-vi"])
    @pytest.mark.parametrize("which", ["paper", "empty-rows"])
    def test_sim_works_fold_equals_bytes_per_iteration(self, which, fmt, threads):
        base = (
            CSRMatrix.from_dense(PAPER_DENSE)
            if which == "paper"
            else _with_empty_rows()
        )
        matrix = convert(base, fmt)
        machine, cost = clovertown_8core(), default_cost_model()
        sim = simulate_spmv(matrix, threads, machine, cost_model=cost)
        want = bytes_per_iteration(matrix, threads)
        assert breakdown_from_works(matrix, sim.works) == want
        att = attribute_cell(
            matrix,
            threads=threads,
            placement="close",
            time_s=sim.time_s,
            machine=machine,
            cost_model=cost,
            sim=sim,
        )
        assert att.bytes_per_iter == want.total_bytes
        assert (att.index_bytes, att.value_bytes, att.vector_bytes) == (
            want.index_bytes,
            want.value_bytes,
            want.vector_bytes,
        )
        assert att.nnz_imbalance == want.nnz_imbalance
        assert att.flops == want.flops


class TestErrors:
    def test_unsupported_format_raises(self, paper_matrix):
        coo = convert(paper_matrix, "coo")
        with pytest.raises(MachineModelError):
            bytes_per_iteration(coo, 1)

    def test_bad_thread_count(self, paper_matrix):
        with pytest.raises(MachineModelError):
            bytes_per_iteration(paper_matrix, 0)
