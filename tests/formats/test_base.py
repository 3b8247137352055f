"""Tests for the format base class, Storage accounting and the format table."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.base import Storage, working_set_bytes
from repro.formats.conversions import FORMATS, available_formats, convert
from repro.formats.csr import CSRMatrix


class TestStorage:
    def test_total(self):
        st = Storage(index_bytes=100, value_bytes=200)
        assert st.total_bytes == 300

    def test_ratio(self):
        a = Storage(50, 50)
        b = Storage(100, 100)
        assert a.ratio_to(b) == 0.5

    def test_ratio_to_empty_rejected(self):
        with pytest.raises(FormatError):
            Storage(1, 1).ratio_to(Storage(0, 0))


class TestWorkingSet:
    def test_matches_paper_formula(self, paper_matrix):
        """ws = nnz*(idx+val) + (nrows+1)*idx + (nrows+ncols)*val."""
        nnz, nrows, ncols = paper_matrix.nnz, *paper_matrix.shape
        expected = nnz * 12 + (nrows + 1) * 4 + (nrows + ncols) * 8
        assert working_set_bytes(paper_matrix) == expected


class TestRegistry:
    def test_known_formats(self):
        assert available_formats() == (
            "coo",
            "csr",
            "csr-du",
            "csr-du-vi",
            "csr-vi",
            "dcsr",
        )

    def test_get_format(self):
        assert FORMATS["csr"] is CSRMatrix

    def test_unknown_format(self, paper_matrix):
        with pytest.raises(FormatError, match="unknown format"):
            convert(paper_matrix, "csr-magic")


class TestSparseMatrixBasics:
    def test_shape_properties(self, paper_matrix):
        assert paper_matrix.shape == (6, 6)
        assert paper_matrix.nrows == 6
        assert paper_matrix.ncols == 6

    def test_matmul_operator(self, paper_matrix, paper_dense):
        x = np.arange(6.0)
        assert np.allclose(paper_matrix @ x, paper_dense @ x)

    def test_to_dense(self, paper_matrix, paper_dense):
        assert np.allclose(paper_matrix.to_dense(), paper_dense)

    def test_negative_shape_rejected(self):
        with pytest.raises(FormatError):
            CSRMatrix(-1, 3, np.array([0]), np.array([], dtype=np.int32), np.array([]))
