"""Tests for CSC (column-major mirror, column-partitioning substrate)."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import COOMatrix, CSCMatrix, CSRMatrix

from tests.conftest import random_sparse_dense


class TestConstruction:
    def test_from_csr_matches_dense(self, paper_matrix, paper_dense):
        csc = CSCMatrix.from_csr(paper_matrix)
        assert np.allclose(csc.to_dense(), paper_dense)

    def test_col_ptr_validated(self):
        with pytest.raises(FormatError, match="col_ptr"):
            CSCMatrix(2, 2, np.array([0, 1]), np.array([0], dtype=np.int32), [1.0])

    def test_row_out_of_range(self):
        with pytest.raises(FormatError):
            CSCMatrix(
                1, 1, np.array([0, 1]), np.array([1], dtype=np.int32), [1.0]
            )


class TestOperations:
    def test_spmv_matches_dense(self):
        dense = random_sparse_dense(14, 22, seed=17)
        csc = CSCMatrix.from_coo(COOMatrix.from_dense(dense))
        x = np.random.default_rng(3).random(22)
        assert np.allclose(csc.spmv(x), dense @ x)

    def test_round_trip_through_coo(self):
        dense = random_sparse_dense(10, 13, seed=18, empty_rows=True)
        csc = CSCMatrix.from_coo(COOMatrix.from_dense(dense))
        back = CSRMatrix.from_coo(csc.to_coo())
        assert np.allclose(back.to_dense(), dense)

    def test_iter_entries_row_major(self, paper_matrix):
        csc = CSCMatrix.from_csr(paper_matrix)
        assert list(csc.iter_entries()) == list(paper_matrix.iter_entries())

    def test_storage(self, paper_matrix):
        csc = CSCMatrix.from_csr(paper_matrix)
        st = csc.storage()
        assert st.index_bytes == (6 + 1) * 4 + 16 * 4
        assert st.value_bytes == 16 * 8
