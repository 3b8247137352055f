"""Tests for the combined CSR-DU-VI format."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_du_vi import CSRDUVIMatrix
from repro.formats.csr_vi import CSRVIMatrix

from tests.conftest import random_sparse_dense


class TestCombined:
    def test_round_trip(self):
        dense = random_sparse_dense(22, 26, seed=25, quantize=8, empty_rows=True)
        csr = CSRMatrix.from_dense(dense)
        duvi = CSRDUVIMatrix.from_csr(csr)
        assert np.allclose(duvi.to_csr().to_dense(), dense)

    def test_spmv(self, paper_matrix, paper_dense):
        duvi = CSRDUVIMatrix.from_csr(paper_matrix)
        x = np.arange(6.0)
        assert np.allclose(duvi.spmv(x), paper_dense @ x)

    def test_combines_both_compressions(self, paper_matrix):
        """Index bytes equal CSR-DU's; value bytes equal CSR-VI's."""
        duvi = CSRDUVIMatrix.from_csr(paper_matrix)
        du = CSRDUMatrix.from_csr(paper_matrix)
        vi = CSRVIMatrix.from_csr(paper_matrix)
        assert duvi.storage().index_bytes == du.storage().index_bytes
        assert duvi.storage().value_bytes == vi.storage().value_bytes
        assert duvi.storage().total_bytes < paper_matrix.storage().total_bytes

    def test_ttu(self, paper_matrix):
        duvi = CSRDUVIMatrix.from_csr(paper_matrix)
        assert duvi.ttu == pytest.approx(16 / 9)

    def test_iter_entries(self, paper_matrix):
        duvi = CSRDUVIMatrix.from_csr(paper_matrix)
        assert list(duvi.iter_entries()) == list(paper_matrix.iter_entries())

    def test_validation(self, paper_matrix):
        duvi = CSRDUVIMatrix.from_csr(paper_matrix)
        with pytest.raises(FormatError, match="bytes"):
            CSRDUVIMatrix(6, 6, [0], duvi.vals_unique, duvi.val_ind)
        bad = duvi.val_ind.copy()
        bad[0] = 99
        with pytest.raises(FormatError):
            CSRDUVIMatrix(6, 6, duvi.ctl, duvi.vals_unique, bad)

    def test_empty(self):
        csr = CSRMatrix(2, 2, np.array([0, 0, 0]), np.array([], dtype=np.int32), [])
        duvi = CSRDUVIMatrix.from_csr(csr)
        assert duvi.nnz == 0
        assert duvi.ttu == 0.0
