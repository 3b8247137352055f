"""Tests for CSR -- including the paper's Fig. 1 example, exactly."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix

from tests.conftest import random_sparse_dense


class TestPaperExample:
    """Fig. 1 of the paper gives the exact CSR arrays for the 6x6 matrix."""

    def test_row_ptr(self, paper_matrix):
        assert paper_matrix.row_ptr.tolist() == [0, 2, 5, 6, 9, 12, 16]

    def test_col_ind(self, paper_matrix):
        assert paper_matrix.col_ind.tolist() == [
            0, 1, 1, 3, 5, 2, 2, 4, 5, 0, 3, 4, 0, 2, 3, 5,
        ]

    def test_values(self, paper_matrix):
        assert paper_matrix.values.tolist() == [
            5.4, 1.1, 6.3, 7.7, 8.8, 1.1, 2.9, 3.7, 2.9, 9.0, 1.1, 4.5, 1.1, 2.9, 3.7, 1.1,
        ]

    def test_spmv(self, paper_matrix, paper_dense):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.allclose(paper_matrix.spmv(x), paper_dense @ x)


class TestInvariants:
    def test_row_ptr_length(self):
        with pytest.raises(FormatError, match="row_ptr"):
            CSRMatrix(3, 3, np.array([0, 1]), np.array([0], dtype=np.int32), [1.0])

    def test_row_ptr_range(self):
        with pytest.raises(FormatError):
            CSRMatrix(
                1, 3, np.array([0, 2]), np.array([0], dtype=np.int32), [1.0]
            )

    def test_row_ptr_monotone(self):
        with pytest.raises(FormatError, match="non-decreasing"):
            CSRMatrix(
                3,
                3,
                np.array([0, 2, 1, 2]),
                np.array([0, 1], dtype=np.int32),
                [1.0, 2.0],
            )

    def test_col_out_of_range(self):
        with pytest.raises(FormatError):
            CSRMatrix(1, 2, np.array([0, 1]), np.array([2], dtype=np.int32), [1.0])

    def test_columns_strictly_increasing_within_row(self):
        with pytest.raises(FormatError, match="strictly increasing"):
            CSRMatrix(
                1,
                5,
                np.array([0, 2]),
                np.array([3, 1], dtype=np.int32),
                [1.0, 2.0],
            )

    def test_duplicate_columns_rejected(self):
        with pytest.raises(FormatError, match="strictly increasing"):
            CSRMatrix(
                1,
                5,
                np.array([0, 2]),
                np.array([3, 3], dtype=np.int32),
                [1.0, 2.0],
            )

    def test_decreasing_between_rows_allowed(self):
        m = CSRMatrix(
            2,
            5,
            np.array([0, 1, 2]),
            np.array([4, 0], dtype=np.int32),
            [1.0, 2.0],
        )
        assert m.nnz == 2

    def test_value_length_mismatch(self):
        with pytest.raises(FormatError):
            CSRMatrix(1, 2, np.array([0, 1]), np.array([0], dtype=np.int32), [1.0, 2.0])


class TestHelpers:
    def test_row_lengths(self, paper_matrix):
        assert paper_matrix.row_lengths().tolist() == [2, 3, 1, 3, 3, 4]

    def test_row_of_entry(self, paper_matrix):
        rows = paper_matrix.row_of_entry()
        assert rows.tolist() == [0, 0, 1, 1, 1, 2, 3, 3, 3, 4, 4, 4, 5, 5, 5, 5]

    def test_row_slice(self, paper_matrix, paper_dense):
        sub = paper_matrix.row_slice(1, 4)
        assert sub.shape == (3, 6)
        assert np.allclose(sub.to_dense(), paper_dense[1:4])

    def test_row_slice_empty(self, paper_matrix):
        sub = paper_matrix.row_slice(2, 2)
        assert sub.nnz == 0
        assert sub.nrows == 0

    def test_row_slice_out_of_range(self, paper_matrix):
        with pytest.raises(FormatError):
            paper_matrix.row_slice(4, 9)

    def test_row_slices_cover(self, paper_matrix):
        parts = [paper_matrix.row_slice(0, 3), paper_matrix.row_slice(3, 6)]
        stacked = np.vstack([p.to_dense() for p in parts])
        assert np.allclose(stacked, paper_matrix.to_dense())


class TestConversions:
    def test_coo_round_trip(self):
        dense = random_sparse_dense(15, 12, seed=7, empty_rows=True)
        csr = CSRMatrix.from_dense(dense)
        back = CSRMatrix.from_coo(csr.to_coo())
        assert np.allclose(back.to_dense(), dense)

    def test_from_coo_empty_rows(self):
        coo = COOMatrix(
            4, 4, np.array([0, 3], dtype=np.int32), np.array([1, 2], dtype=np.int32),
            np.array([1.0, 2.0]),
        )
        csr = CSRMatrix.from_coo(coo)
        assert csr.row_ptr.tolist() == [0, 1, 1, 1, 2]

    def test_with_index_dtype(self, paper_matrix):
        narrow = paper_matrix.with_index_dtype(np.int16)
        assert narrow.col_ind.dtype == np.int16
        assert narrow.storage().index_bytes == (6 + 1 + 16) * 2
        assert np.allclose(narrow.to_dense(), paper_matrix.to_dense())

    def test_spmv_out(self, paper_matrix, paper_dense):
        x = np.ones(6)
        out = np.empty(6)
        paper_matrix.spmv(x, out=out)
        assert np.allclose(out, paper_dense @ x)

    def test_empty_matrix(self):
        csr = CSRMatrix(
            0, 0, np.array([0]), np.array([], dtype=np.int32), np.array([])
        )
        assert csr.nnz == 0
        assert csr.spmv(np.array([])).size == 0

    def test_empty_rows_spmv(self):
        dense = random_sparse_dense(16, 9, seed=8, empty_rows=True)
        csr = CSRMatrix.from_dense(dense)
        x = np.random.default_rng(2).random(9)
        assert np.allclose(csr.spmv(x), dense @ x)
