"""Tests for CSR-VI -- including the paper's Fig. 4 example."""

import numpy as np
import pytest

from repro.compress.unique import TTU_THRESHOLD
from repro.errors import FormatError
from repro.formats import CSRMatrix, CSRVIMatrix

from tests.conftest import random_sparse_dense


class TestPaperExample:
    """Fig. 4: the Fig. 1 matrix's 16 values collapse to 9 uniques."""

    def test_unique_values(self, paper_matrix):
        vi = CSRVIMatrix.from_csr(paper_matrix)
        assert vi.vals_unique.tolist() == [1.1, 2.9, 3.7, 4.5, 5.4, 6.3, 7.7, 8.8, 9.0]
        assert vi.unique_count == 9
        assert vi.val_ind.dtype == np.uint8

    def test_val_ind_reconstructs(self, paper_matrix):
        vi = CSRVIMatrix.from_csr(paper_matrix)
        assert np.array_equal(
            vi.vals_unique[vi.val_ind], paper_matrix.values
        )

    def test_structure_unchanged(self, paper_matrix):
        vi = CSRVIMatrix.from_csr(paper_matrix)
        assert vi.row_ptr.tolist() == paper_matrix.row_ptr.tolist()
        assert vi.col_ind.tolist() == paper_matrix.col_ind.tolist()

    def test_spmv_fig5(self, paper_matrix, paper_dense):
        vi = CSRVIMatrix.from_csr(paper_matrix)
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.allclose(vi.spmv(x), paper_dense @ x)

    def test_ttu(self, paper_matrix):
        vi = CSRVIMatrix.from_csr(paper_matrix)
        assert vi.ttu == pytest.approx(16 / 9)
        assert vi.ttu <= TTU_THRESHOLD  # 16/9 < 5


class TestCompression:
    def test_value_bytes_shrink_with_redundancy(self):
        dense = random_sparse_dense(40, 40, seed=12, quantize=8)
        csr = CSRMatrix.from_dense(dense)
        vi = CSRVIMatrix.from_csr(csr)
        assert vi.storage().value_bytes < csr.storage().value_bytes
        assert vi.storage().index_bytes == csr.storage().index_bytes

    def test_profitability_threshold(self):
        dense = random_sparse_dense(40, 40, seed=13, quantize=4)
        vi = CSRVIMatrix.from_csr(CSRMatrix.from_dense(dense))
        assert vi.ttu > TTU_THRESHOLD

    def test_unprofitable_all_unique(self):
        dense = random_sparse_dense(30, 30, seed=14)
        vi = CSRVIMatrix.from_csr(CSRMatrix.from_dense(dense))
        assert vi.ttu == pytest.approx(1.0)
        # All-unique: value storage is *larger* than plain values
        # (vals_unique same size + val_ind on top).
        csr = CSRMatrix.from_dense(dense)
        assert vi.storage().value_bytes > csr.storage().value_bytes

    def test_wider_val_ind(self):
        rng = np.random.default_rng(15)
        values = rng.random(400)  # ~400 unique -> uint16
        csr = CSRMatrix(
            1, 400, np.array([0, 400]), np.arange(400, dtype=np.int32), values
        )
        vi = CSRVIMatrix.from_csr(csr)
        assert vi.val_ind.dtype == np.uint16


class TestRoundTripAndValidation:
    def test_round_trip(self):
        dense = random_sparse_dense(25, 19, seed=16, quantize=16, empty_rows=True)
        csr = CSRMatrix.from_dense(dense)
        back = CSRVIMatrix.from_csr(csr).to_csr()
        assert np.allclose(back.to_dense(), dense)
        assert np.array_equal(back.values, csr.values)

    def test_empty_matrix(self):
        csr = CSRMatrix(2, 2, np.array([0, 0, 0]), np.array([], dtype=np.int32), [])
        vi = CSRVIMatrix.from_csr(csr)
        assert vi.nnz == 0
        assert vi.ttu == 0.0
        assert vi.spmv(np.ones(2)).tolist() == [0.0, 0.0]

    def test_val_ind_must_be_unsigned(self, paper_matrix):
        vi = CSRVIMatrix.from_csr(paper_matrix)
        with pytest.raises(FormatError, match="unsigned"):
            CSRVIMatrix(
                6, 6, vi.row_ptr, vi.col_ind, vi.vals_unique,
                vi.val_ind.astype(np.int32),
            )

    def test_val_ind_range_checked(self, paper_matrix):
        vi = CSRVIMatrix.from_csr(paper_matrix)
        bad = vi.val_ind.copy()
        bad[0] = 200
        with pytest.raises(FormatError, match="unique"):
            CSRVIMatrix(6, 6, vi.row_ptr, vi.col_ind, vi.vals_unique, bad)

    def test_iter_entries(self, paper_matrix):
        vi = CSRVIMatrix.from_csr(paper_matrix)
        assert list(vi.iter_entries()) == list(paper_matrix.iter_entries())
