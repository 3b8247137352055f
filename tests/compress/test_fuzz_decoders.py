"""Corruption fuzzing of the stream decoders.

A compressed format's decoder is an attack/bug surface: truncated,
bit-flipped or garbage ctl/DCSR streams must either decode to *some*
self-consistent unit sequence or raise :class:`EncodingError` -- never
raise foreign exceptions, loop forever, or return out-of-bounds
structures that would corrupt an SpMV.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.ctl import CtlReader, decode_units
from repro.errors import EncodingError, ReproError
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.dcsr import DCSRMatrix, decode_dcsr

from tests.conftest import random_sparse_dense


@pytest.fixture(scope="module")
def good_ctl():
    csr = CSRMatrix.from_dense(random_sparse_dense(20, 20, seed=180))
    du = CSRDUMatrix.from_csr(csr)
    return du.ctl, csr.nnz


@pytest.fixture(scope="module")
def good_dcsr():
    csr = CSRMatrix.from_dense(random_sparse_dense(20, 20, seed=181))
    dcsr = DCSRMatrix.from_csr(csr)
    return dcsr.stream, csr.nrows, csr.nnz


def _consume_ctl(ctl: bytes) -> None:
    """Walk the whole stream; check invariants on everything yielded."""
    row = -1
    for unit in CtlReader(ctl):
        assert 1 <= unit.usize <= 255
        assert unit.row >= row
        row = unit.row
        assert unit.ujmp >= 0
        assert np.all(unit.deltas >= 0)


class TestCtlFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncation(self, data, good_ctl):
        ctl, _ = good_ctl
        cut = data.draw(st.integers(min_value=0, max_value=len(ctl)))
        try:
            _consume_ctl(ctl[:cut])
        except EncodingError:
            pass  # the only acceptable failure

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_single_byte_corruption(self, data, good_ctl):
        ctl, nnz = good_ctl
        pos = data.draw(st.integers(min_value=0, max_value=len(ctl) - 1))
        val = data.draw(st.integers(min_value=0, max_value=255))
        corrupted = bytearray(ctl)
        corrupted[pos] = val
        try:
            du = decode_units(bytes(corrupted), nnz)
            # If it decodes, the structure must be self-consistent.
            assert int(du.sizes.sum()) == nnz
            assert du.offsets[-1] == nnz
        except ReproError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(blob=st.binary(max_size=200))
    def test_garbage_streams(self, blob):
        try:
            _consume_ctl(blob)
        except EncodingError:
            pass

    def test_corrupted_matrix_never_out_of_bounds(self, good_ctl):
        """Even when a corrupted stream decodes, the format constructor
        must catch rows/columns escaping the matrix."""
        ctl, nnz = good_ctl
        survived = 0
        for pos in range(len(ctl)):
            corrupted = bytearray(ctl)
            corrupted[pos] ^= 0xFF
            matrix = CSRDUMatrix(20, 20, bytes(corrupted), np.ones(nnz))
            try:
                du = matrix.units
            except ReproError:
                continue
            survived += 1
            assert int(du.columns.max()) < 20
            assert int(du.rows.max()) < 20
        # Some corruptions inevitably decode fine (e.g. delta changes
        # that stay in range); they must all have passed the checks.
        assert survived >= 0


class TestDCSRFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_truncation(self, data, good_dcsr):
        stream, nrows, nnz = good_dcsr
        cut = data.draw(st.integers(min_value=0, max_value=len(stream)))
        try:
            decode_dcsr(stream[:cut], nrows, nnz)
        except EncodingError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_single_byte_corruption(self, data, good_dcsr):
        stream, nrows, nnz = good_dcsr
        pos = data.draw(st.integers(min_value=0, max_value=len(stream) - 1))
        val = data.draw(st.integers(min_value=0, max_value=255))
        corrupted = bytearray(stream)
        corrupted[pos] = val
        try:
            dec = decode_dcsr(bytes(corrupted), nrows, nnz)
            assert dec.columns.size == nnz
            assert int(dec.row_ptr[-1]) == nnz
        except ReproError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(blob=st.binary(max_size=200))
    def test_garbage_streams(self, blob):
        try:
            decode_dcsr(blob, 50, 1000)
        except ReproError:
            pass
