"""Property-based whole-format tests: any sparse matrix, any format,
SpMV must equal the dense product and round-trips must be exact."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.formats.conversions import convert, to_csr
from repro.formats.csr import CSRMatrix

FORMATS = ("coo", "csr", "csr-du", "csr-vi", "csr-du-vi", "dcsr")


@st.composite
def sparse_dense(draw):
    """Small random dense matrices with controllable sparsity/values."""
    nrows = draw(st.integers(min_value=1, max_value=12))
    ncols = draw(st.integers(min_value=1, max_value=12))
    # Values from a small pool (exercises CSR-VI) or continuous.
    pool = draw(st.booleans())
    if pool:
        elements = st.sampled_from([0.0, 0.0, 0.0, 1.5, -2.25, 3.0])
    else:
        elements = st.one_of(
            st.just(0.0),
            st.floats(min_value=-10, max_value=10, allow_nan=False, width=32),
        )
    return draw(
        arrays(np.float64, (nrows, ncols), elements=elements)
    )


class TestSpMVProperty:
    @settings(max_examples=30, deadline=None)
    @given(sparse_dense(), st.sampled_from(FORMATS), st.integers(0, 1 << 30))
    def test_spmv_equals_dense(self, dense, fmt, seed):
        csr = CSRMatrix.from_dense(dense)
        m = convert(csr, fmt)
        x = np.random.default_rng(seed).random(dense.shape[1]) - 0.5
        assert np.allclose(m.spmv(x), dense @ x, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(sparse_dense(), st.sampled_from(FORMATS))
    def test_round_trip_exact(self, dense, fmt):
        csr = CSRMatrix.from_dense(dense)
        back = to_csr(convert(csr, fmt))
        assert np.array_equal(back.to_dense(), csr.to_dense())

    @settings(max_examples=30, deadline=None)
    @given(sparse_dense(), st.sampled_from(FORMATS))
    def test_nnz_preserved(self, dense, fmt):
        """Every format stores exactly the pattern's nonzeros."""
        csr = CSRMatrix.from_dense(dense)
        m = convert(csr, fmt)
        assert m.nnz == csr.nnz

    @settings(max_examples=20, deadline=None)
    @given(sparse_dense())
    def test_compressed_index_never_larger_much(self, dense):
        """CSR-DU's ctl is bounded: worst case ~(2 + 8) bytes + varint
        per element, best ~1 byte; never pathologically bigger."""
        csr = CSRMatrix.from_dense(dense)
        du = convert(csr, "csr-du")
        if csr.nnz:
            assert du.storage().index_bytes <= 16 * csr.nnz + 4
