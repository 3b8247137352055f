"""Tests for matrix statistics and the paper's classification rules."""

import numpy as np
import pytest

from repro.formats.base import working_set_bytes
from repro.formats.csr import CSRMatrix
from repro.matrices.stats import MatrixStats, compute_stats

from tests.conftest import random_sparse_dense

_MB = 1024 * 1024


class TestComputeStats:
    def test_paper_example(self, paper_matrix):
        s = compute_stats(paper_matrix)
        assert (s.nrows, s.ncols, s.nnz) == (6, 6, 16)
        assert s.ws_bytes == working_set_bytes(paper_matrix)
        assert s.unique_values == 9
        assert s.ttu == pytest.approx(16 / 9)
        assert s.row_len_mean == pytest.approx(16 / 6)
        assert s.row_len_max == 4
        assert s.empty_rows == 0
        assert s.delta_u8_frac == 1.0  # Table I: all u8
        assert s.bandwidth == 5  # entry (5, 0)

    def test_empty_rows_counted(self):
        dense = random_sparse_dense(16, 16, seed=90, empty_rows=True)
        s = compute_stats(CSRMatrix.from_dense(dense))
        assert s.empty_rows >= 4

    def test_delta_fracs_sum_below_one(self):
        dense = random_sparse_dense(20, 20, seed=91)
        s = compute_stats(CSRMatrix.from_dense(dense))
        assert 0.0 <= s.delta_u16_frac <= 1.0
        assert s.delta_u8_frac + s.delta_u16_frac <= 1.0 + 1e-12

    def test_wide_matrix_u16_deltas(self):
        cols = np.array([0, 300, 600], dtype=np.int32)
        csr = CSRMatrix(1, 700, np.array([0, 3]), cols, np.ones(3))
        s = compute_stats(csr)
        assert s.delta_u16_frac == pytest.approx(2 / 3)

    def test_empty_matrix(self):
        csr = CSRMatrix(2, 2, np.array([0, 0, 0]), np.array([], dtype=np.int32), [])
        s = compute_stats(csr)
        assert s.nnz == 0
        assert s.ttu == 0.0
        assert s.row_len_max == 0


class TestClassification:
    def _stats(self, ws_bytes, ttu=1.0):
        return MatrixStats(
            nrows=1, ncols=1, nnz=1, ws_bytes=ws_bytes, ttu=ttu,
            unique_values=1, row_len_mean=1, row_len_max=1, row_len_std=0,
            empty_rows=0, delta_u8_frac=1, delta_u16_frac=0, bandwidth=0,
        )

    def test_m0_rule(self):
        """M0: ws >= 3/4 L2 = 3 MB for the 4 MB Clovertown L2."""
        assert self._stats(3 * _MB).in_m0()
        assert not self._stats(3 * _MB - 1).in_m0()

    def test_ml_rule(self):
        """ML: ws >= 4 x L2 + 1 MB = 17 MB."""
        assert self._stats(17 * _MB).in_ml()
        assert not self._stats(17 * _MB - 1).in_ml()

    def test_vi_rule(self):
        """CSR-VI applicability: ttu > 5 (strict)."""
        assert self._stats(0, ttu=5.01).vi_applicable()
        assert not self._stats(0, ttu=5.0).vi_applicable()

    def test_custom_l2(self):
        assert self._stats(6 * _MB).in_ml(l2_bytes=1 * _MB + 256 * 1024)
