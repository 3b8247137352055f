"""Tests for the DCSR baseline (Willcock & Lumsdaine)."""

import numpy as np
import pytest

from repro.errors import EncodingError, FormatError
from repro.formats.csr import CSRMatrix
from repro.formats.dcsr import (
    CMD_DELTA16,
    CMD_DELTA8,
    CMD_NEWROW,
    CMD_RUN8,
    MIN_RUN,
    DCSRMatrix,
    decode_dcsr,
    encode_dcsr,
)

from tests.conftest import random_sparse_dense


class TestEncoding:
    def test_single_small_row_uses_run(self):
        stream = encode_dcsr(np.array([0, 4]), np.array([0, 1, 2, 3]))
        assert stream[0] == CMD_NEWROW
        assert stream[1] == CMD_RUN8
        assert stream[2] == 4  # run length

    def test_short_rows_use_individual_deltas(self):
        stream = encode_dcsr(np.array([0, 2]), np.array([0, 1]))
        # 2 < MIN_RUN: two DELTA8 commands.
        assert stream[1] == CMD_DELTA8
        assert MIN_RUN > 2

    def test_wide_delta_commands(self):
        stream = encode_dcsr(np.array([0, 2]), np.array([0, 70000]))
        assert CMD_DELTA16 not in (stream[0],)
        dec = decode_dcsr(stream, 1, 2)
        assert dec.columns.tolist() == [0, 70000]

    def test_huge_delta_rejected(self):
        with pytest.raises(EncodingError):
            encode_dcsr(np.array([0, 2]), np.array([0, 1 << 33]))

    def test_nonincreasing_rejected(self):
        with pytest.raises(EncodingError):
            encode_dcsr(np.array([0, 2]), np.array([5, 5]))

    def test_long_run_split_at_255(self):
        n = 600
        stream = encode_dcsr(np.array([0, n]), np.arange(n))
        dec = decode_dcsr(stream, 1, n)
        assert dec.columns.tolist() == list(range(n))
        assert dec.run_count >= 3


class TestDecoding:
    def test_empty_rows_rowjmp(self):
        row_ptr = np.array([0, 1, 1, 1, 2])
        cols = np.array([3, 4])
        stream = encode_dcsr(row_ptr, cols)
        dec = decode_dcsr(stream, 4, 2)
        assert dec.row_ptr.tolist() == row_ptr.tolist()

    def test_command_count(self):
        stream = encode_dcsr(np.array([0, 4]), np.array([0, 1, 2, 3]))
        dec = decode_dcsr(stream, 1, 4)
        assert dec.command_count == 2  # NEWROW + RUN8

    def test_unknown_command(self):
        with pytest.raises(EncodingError, match="unknown"):
            decode_dcsr(bytes([99]), 1, 0)

    def test_truncated(self):
        stream = encode_dcsr(np.array([0, 2]), np.array([0, 70000]))
        with pytest.raises(EncodingError):
            decode_dcsr(stream[:-1], 1, 2)

    def test_nnz_mismatch(self):
        stream = encode_dcsr(np.array([0, 1]), np.array([5]))
        with pytest.raises(EncodingError, match="expected"):
            decode_dcsr(stream, 1, 3)

    def test_row_overflow(self):
        stream = encode_dcsr(np.array([0, 0, 1]), np.array([5]))
        with pytest.raises(EncodingError, match="row"):
            decode_dcsr(stream, 1, 1)


class TestFormat:
    def test_round_trip(self):
        dense = random_sparse_dense(30, 40, seed=19, empty_rows=True)
        csr = CSRMatrix.from_dense(dense)
        dcsr = DCSRMatrix.from_csr(csr)
        assert np.allclose(dcsr.to_csr().to_dense(), dense)

    def test_spmv(self, paper_matrix, paper_dense):
        dcsr = DCSRMatrix.from_csr(paper_matrix)
        x = np.arange(6.0) + 1
        assert np.allclose(dcsr.spmv(x), paper_dense @ x)

    def test_compresses_index_data(self):
        n = 3000
        csr = CSRMatrix(
            1, n, np.array([0, n]), np.arange(n, dtype=np.int32), np.ones(n)
        )
        dcsr = DCSRMatrix.from_csr(csr)
        assert dcsr.storage().index_bytes < csr.storage().index_bytes / 3

    def test_command_count_property(self, paper_matrix):
        dcsr = DCSRMatrix.from_csr(paper_matrix)
        assert dcsr.command_count == dcsr.decoded.command_count
        assert dcsr.command_count >= 6  # at least one command per row

    def test_stream_type_checked(self):
        with pytest.raises(FormatError, match="bytes"):
            DCSRMatrix(1, 1, [0], np.array([1.0]))

    def test_column_overflow_detected(self, paper_matrix):
        dcsr = DCSRMatrix.from_csr(paper_matrix)
        bad = DCSRMatrix(6, 3, dcsr.stream, dcsr.values)
        with pytest.raises(FormatError, match="column"):
            bad.decoded

    def test_comparable_to_csr_du(self, paper_matrix):
        """Sanity for the Section III-B comparison: similar byte counts."""
        from repro.formats.csr_du import CSRDUMatrix

        dcsr = DCSRMatrix.from_csr(paper_matrix)
        du = CSRDUMatrix.from_csr(paper_matrix)
        assert dcsr.storage().index_bytes < paper_matrix.storage().index_bytes
        ratio = dcsr.storage().index_bytes / du.storage().index_bytes
        assert 0.5 < ratio < 2.0


class TestDecoderHardening:
    def test_zero_length_run_rejected(self):
        """Regression: a corrupted RUN8 with length 0 used to crash the
        decoder with an IndexError (found by the corruption fuzzer)."""
        import pytest as _pytest

        from repro.formats.dcsr import CMD_NEWROW, CMD_RUN8, decode_dcsr

        stream = bytes([CMD_NEWROW, CMD_RUN8, 0])
        with _pytest.raises(EncodingError, match="zero length"):
            decode_dcsr(stream, 1, 0)
