"""Tests for the format base class, Storage accounting and the registry."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import (
    CSRMatrix,
    available_formats,
    get_format,
)
from repro.formats.base import (
    Storage,
    register_format,
    working_set_bytes,
)


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
        assert get_format("csr") is CSRMatrix

    def test_unknown_format(self):
        with pytest.raises(FormatError, match="unknown format"):
            get_format("csr-magic")

    def test_duplicate_registration_rejected(self):
        class Fake:
            name = "csr"

        with pytest.raises(FormatError, match="already registered"):
            register_format(Fake)

    def test_unnamed_registration_rejected(self):
        class Nameless:
            name = ""

        with pytest.raises(FormatError):
            register_format(Nameless)


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
