"""Tests for Matrix Market I/O."""

import io

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.csr import CSRMatrix
from repro.matrices.mmio import read_matrix_market, write_matrix_market

from tests.conftest import random_sparse_dense


class TestRoundTrip:
    def test_memory_round_trip(self, paper_matrix, paper_dense):
        buf = io.StringIO()
        write_matrix_market(paper_matrix, buf)
        buf.seek(0)
        coo = read_matrix_market(buf)
        assert np.allclose(coo.to_dense(), paper_dense)

    def test_file_round_trip(self, tmp_path):
        dense = random_sparse_dense(12, 9, seed=95)
        path = tmp_path / "m.mtx"
        write_matrix_market(CSRMatrix.from_dense(dense), path)
        coo = read_matrix_market(path)
        assert np.allclose(coo.to_dense(), dense)

    def test_values_exact(self, tmp_path):
        """repr-based writing preserves doubles bit-for-bit."""
        dense = np.zeros((2, 2))
        dense[0, 0] = 1.0 / 3.0
        dense[1, 1] = np.nextafter(2.0, 3.0)
        path = tmp_path / "exact.mtx"
        write_matrix_market(CSRMatrix.from_dense(dense), path)
        coo = read_matrix_market(path)
        assert np.array_equal(coo.to_dense(), dense)


class TestReader:
    def _read(self, text):
        return read_matrix_market(io.StringIO(text))

    def test_general_real(self):
        coo = self._read(
            "%%MatrixMarket matrix coordinate real general\n"
            "% comment\n"
            "2 3 2\n"
            "1 1 1.5\n"
            "2 3 -2.0\n"
        )
        assert coo.shape == (2, 3)
        assert coo.to_dense()[1, 2] == -2.0

    def test_symmetric_expansion(self):
        coo = self._read(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n"
            "1 1 1.0\n"
            "2 1 5.0\n"
            "3 3 2.0\n"
        )
        d = coo.to_dense()
        assert d[0, 1] == 5.0 and d[1, 0] == 5.0
        assert coo.nnz == 4  # diagonal not duplicated

    def test_skew_symmetric(self):
        coo = self._read(
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n"
            "2 1 3.0\n"
        )
        d = coo.to_dense()
        assert d[1, 0] == 3.0 and d[0, 1] == -3.0

    def test_pattern(self):
        coo = self._read(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 2 2\n"
            "1 2\n"
            "2 1\n"
        )
        assert np.all(coo.values == 1.0)

    def test_integer(self):
        coo = self._read(
            "%%MatrixMarket matrix coordinate integer general\n"
            "1 1 1\n"
            "1 1 7\n"
        )
        assert coo.values[0] == 7.0

    def test_bad_header(self):
        with pytest.raises(FormatError, match="header"):
            self._read("%%NotMatrixMarket\n1 1 0\n")

    def test_array_layout_rejected(self):
        with pytest.raises(FormatError, match="coordinate"):
            self._read("%%MatrixMarket matrix array real general\n")

    def test_complex_rejected(self):
        with pytest.raises(FormatError, match="field"):
            self._read("%%MatrixMarket matrix coordinate complex general\n")

    def test_hermitian_rejected(self):
        with pytest.raises(FormatError, match="symmetry"):
            self._read("%%MatrixMarket matrix coordinate real hermitian\n")

    def test_bad_size_line(self):
        with pytest.raises(FormatError, match="size"):
            self._read("%%MatrixMarket matrix coordinate real general\nfoo bar\n")

    def test_truncated_entries(self):
        with pytest.raises(FormatError, match="truncated"):
            self._read(
                "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
            )


class TestMalformedLineNumbers:
    """Every malformed-input path names the offending 1-based line."""

    HEADER = "%%MatrixMarket matrix coordinate real general\n"

    def _read(self, text):
        return read_matrix_market(io.StringIO(text))

    def _fails_at(self, text, lineno, match):
        with pytest.raises(FormatError, match=match) as ei:
            self._read(text)
        assert f"line {lineno}:" in str(ei.value)

    def test_empty_file(self):
        self._fails_at("", 1, "missing MatrixMarket header")

    def test_bad_header_line(self):
        self._fails_at("%%MatrixMarket tensor whatever\n", 1, "header")

    def test_missing_size_line(self):
        self._fails_at(self.HEADER, 2, "missing size line")

    def test_bad_size_line_counts_comments(self):
        """Comment lines still advance the reported line number."""
        self._fails_at(
            self.HEADER + "% a comment\n% another\nnot numbers\n",
            4,
            "bad size line",
        )

    def test_negative_dimensions(self):
        self._fails_at(self.HEADER + "-2 3 1\n", 2, "negative dimensions")

    def test_truncated_entry(self):
        self._fails_at(
            self.HEADER + "2 2 2\n1 1 1.0\n", 4, "truncated entry 2 of 2"
        )

    def test_short_entry_line(self):
        self._fails_at(self.HEADER + "2 2 1\n1 1\n", 3, "truncated")

    def test_non_numeric_entry(self):
        self._fails_at(self.HEADER + "2 2 1\n1 x 1.0\n", 3, "non-numeric")

    def test_out_of_range_entry(self):
        self._fails_at(
            self.HEADER + "2 2 1\n3 1 1.0\n", 3, r"outside the declared"
        )
        self._fails_at(
            self.HEADER + "2 2 1\n0 1 1.0\n", 3, "1-based"
        )

    def test_file_path_round_trip_still_works(self, tmp_path):
        dense = random_sparse_dense(7, 5, seed=4)
        path = tmp_path / "ok.mtx"
        write_matrix_market(CSRMatrix.from_dense(dense), path)
        assert np.allclose(read_matrix_market(path).to_dense(), dense)
