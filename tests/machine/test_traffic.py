"""Tests for per-thread work/traffic accounting (exact byte counts)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MachineModelError
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_du_vi import CSRDUVIMatrix
from repro.formats.csr_vi import CSRVIMatrix
from repro.formats.dcsr import DCSRMatrix
from repro.machine.traffic import (
    LINE_SIZE,
    _distinct_cols_bytes,
    analyze_threads,
)

from tests.conftest import random_sparse_dense


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(
        random_sparse_dense(40, 50, seed=80, quantize=8, empty_rows=True)
    )


class TestCSRAccounting:
    def test_totals_match_storage(self, csr):
        """Summed per-thread stream bytes equal the matrix's arrays."""
        for threads in (1, 2, 4):
            _, works = analyze_threads(csr, threads)
            assert sum(w.nnz for w in works) == csr.nnz
            col_bytes = sum(w.private_bytes["col_ind"] for w in works)
            assert col_bytes == csr.col_ind.nbytes
            val_bytes = sum(w.private_bytes["values"] for w in works)
            assert val_bytes == csr.values.nbytes
            y_bytes = sum(w.private_bytes["y"] for w in works)
            assert y_bytes == csr.nrows * 8

    def test_serial_is_whole_matrix(self, csr):
        _, works = analyze_threads(csr, 1)
        w = works[0]
        assert w.nnz == csr.nnz
        assert w.rows_assigned == csr.nrows
        assert w.flops == 2 * csr.nnz

    def test_x_footprint_line_granular(self, csr):
        _, works = analyze_threads(csr, 1)
        x = works[0].shared_bytes["x"]
        assert x % LINE_SIZE == 0
        lines = np.unique(csr.col_ind.astype(np.int64) // 8).size
        assert x == lines * LINE_SIZE

    def test_nonempty_rows(self):
        dense = np.zeros((6, 6))
        dense[0, 1] = dense[5, 3] = 1.0
        csr = CSRMatrix.from_dense(dense)
        _, works = analyze_threads(csr, 1)
        assert works[0].rows_nonempty == 2
        assert works[0].rows_assigned == 6


class TestCSRDUAccounting:
    def test_ctl_bytes_partition_exactly(self, csr):
        du = CSRDUMatrix.from_csr(csr)
        for threads in (1, 2, 3, 4):
            _, works = analyze_threads(du, threads)
            assert sum(w.private_bytes["ctl"] for w in works) == len(du.ctl)
            assert sum(w.units for w in works) == du.units.nunits

    def test_format_name(self, csr):
        du = CSRDUMatrix.from_csr(csr)
        _, works = analyze_threads(du, 2)
        assert all(w.format_name == "csr-du" for w in works)


class TestCSRVIAccounting:
    def test_val_ind_width(self, csr):
        vi = CSRVIMatrix.from_csr(csr)
        _, works = analyze_threads(vi, 2)
        total = sum(w.private_bytes["val_ind"] for w in works)
        assert total == vi.val_ind.nbytes
        for w in works:
            assert w.shared_bytes["vals_unique"] == vi.vals_unique.nbytes

    def test_du_vi(self, csr):
        duvi = CSRDUVIMatrix.from_csr(csr)
        _, works = analyze_threads(duvi, 2)
        assert sum(w.private_bytes["ctl"] for w in works) == len(duvi.ctl)
        assert sum(w.private_bytes["val_ind"] for w in works) == duvi.val_ind.nbytes


class TestDCSRAccounting:
    def test_commands_close_to_whole(self, csr):
        dcsr = DCSRMatrix.from_csr(csr)
        _, works = analyze_threads(dcsr, 2)
        total_cmds = sum(w.commands for w in works)
        # Per-thread re-encoding may alter a couple of row commands at
        # the seams, nothing more.
        assert abs(total_cmds - dcsr.command_count) <= 4
        stream_total = sum(w.private_bytes["stream"] for w in works)
        assert abs(stream_total - len(dcsr.stream)) <= 8


class TestValidation:
    def test_bad_threads(self, csr):
        with pytest.raises(MachineModelError):
            analyze_threads(csr, 0)

    def test_unsupported_format(self):
        from repro.formats.coo import COOMatrix

        coo = COOMatrix.from_dense(np.eye(3))
        with pytest.raises(MachineModelError):
            analyze_threads(coo, 1)


@st.composite
def thread_cols(draw):
    """Random int32 column indices of one thread over ``ncols`` columns."""
    ncols = draw(st.integers(min_value=1, max_value=1 << 20))
    n = draw(st.integers(min_value=0, max_value=200))
    seed = draw(st.integers(0, 1 << 30))
    cols = np.random.default_rng(seed).integers(0, ncols, size=n, dtype=np.int32)
    if draw(st.booleans()) and n:
        cols[draw(st.integers(0, n - 1))] = ncols - 1
    return cols


class TestDistinctLines:
    """The mask count is pinned to ``np.unique``'s line count."""

    @settings(max_examples=60, deadline=None)
    @given(thread_cols())
    @example(np.array([], dtype=np.int32))
    @example(np.array([7], dtype=np.int32))
    @example(np.full(50, 12345, dtype=np.int32))
    @example(np.array([0, (1 << 20) - 1], dtype=np.int32))
    def test_equals_unique_line_count(self, cols):
        expected = np.unique(cols.astype(np.int64) // 8).size * LINE_SIZE
        assert _distinct_cols_bytes(cols) == expected
