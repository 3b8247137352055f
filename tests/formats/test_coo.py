"""Tests for the COO interchange format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.formats import COOMatrix, CSRMatrix

from tests.conftest import random_sparse_dense


class TestConstruction:
    def test_canonical_order(self):
        coo = COOMatrix(
            3,
            3,
            np.array([2, 0, 1], dtype=np.int32),
            np.array([1, 2, 0], dtype=np.int32),
            np.array([3.0, 1.0, 2.0]),
        )
        assert coo.rows.tolist() == [0, 1, 2]
        assert coo.cols.tolist() == [2, 0, 1]
        assert coo.values.tolist() == [1.0, 2.0, 3.0]

    def test_duplicates_summed(self):
        coo = COOMatrix(
            2,
            2,
            np.array([0, 0, 1], dtype=np.int32),
            np.array([1, 1, 0], dtype=np.int32),
            np.array([1.0, 2.5, 4.0]),
        )
        assert coo.nnz == 2
        assert coo.to_dense()[0, 1] == pytest.approx(3.5)

    def test_duplicates_rejected_when_asked(self):
        with pytest.raises(FormatError, match="duplicate"):
            COOMatrix(
                2,
                2,
                np.array([0, 0], dtype=np.int32),
                np.array([1, 1], dtype=np.int32),
                np.array([1.0, 2.0]),
                sum_duplicates=False,
            )

    def test_length_mismatch(self):
        with pytest.raises(FormatError, match="length mismatch"):
            COOMatrix(
                2, 2, np.array([0], dtype=np.int32), np.array([0, 1], dtype=np.int32),
                np.array([1.0]),
            )

    def test_out_of_range(self):
        with pytest.raises(FormatError):
            COOMatrix(
                2, 2, np.array([2], dtype=np.int32), np.array([0], dtype=np.int32),
                np.array([1.0]),
            )

    def test_empty(self):
        coo = COOMatrix(
            3, 4, np.array([], dtype=np.int32), np.array([], dtype=np.int32),
            np.array([]),
        )
        assert coo.nnz == 0
        assert coo.to_dense().shape == (3, 4)


class TestOperations:
    def test_spmv_matches_dense(self):
        dense = random_sparse_dense(20, 17, seed=4)
        coo = COOMatrix.from_dense(dense)
        x = np.random.default_rng(1).random(17)
        assert np.allclose(coo.spmv(x), dense @ x)

    def test_spmv_out_parameter(self):
        dense = random_sparse_dense(10, 10, seed=5)
        coo = COOMatrix.from_dense(dense)
        x = np.ones(10)
        out = np.full(10, 99.0)
        result = coo.spmv(x, out=out)
        assert result is out
        assert np.allclose(out, dense @ x)

    def test_spmv_shape_check(self):
        coo = COOMatrix.from_dense(np.eye(3))
        with pytest.raises(FormatError):
            coo.spmv(np.ones(4))

    def test_storage(self):
        coo = COOMatrix.from_dense(np.eye(5))
        st = coo.storage()
        assert st.index_bytes == 5 * 4 * 2
        assert st.value_bytes == 5 * 8

    def test_iter_entries_row_major(self):
        dense = random_sparse_dense(8, 8, seed=6)
        coo = COOMatrix.from_dense(dense)
        entries = list(coo.iter_entries())
        assert entries == sorted(entries)

    def test_row_ptr(self):
        dense = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 3.0]])
        coo = COOMatrix.from_dense(dense)
        assert coo.row_ptr().tolist() == [0, 1, 1, 3]

    def test_from_dense_rejects_1d(self):
        with pytest.raises(FormatError):
            COOMatrix.from_dense(np.ones(4))


def _lexsort_oracle(rows, cols, values):
    """Canonical COO by ``np.lexsort``, duplicates summed left to right."""
    order = np.lexsort((cols, rows))
    out_r, out_c, out_v = [], [], []
    for r, c, v in zip(rows[order].tolist(), cols[order].tolist(), values[order].tolist()):
        if out_r and out_r[-1] == r and out_c[-1] == c:
            out_v[-1] += v
        else:
            out_r.append(r)
            out_c.append(c)
            out_v.append(0.0 + v)
    return np.array(out_r), np.array(out_c), np.array(out_v)


@st.composite
def duplicate_heavy_coo(draw):
    """Few distinct coordinates, values whose summation order matters."""
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=0, max_value=60))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 30)))
    rows = rng.integers(0, nrows, size=n, dtype=np.int32)
    cols = rng.integers(0, ncols, size=n, dtype=np.int32)
    values = rng.choice(np.array([1e16, 1.0, -1e16, 0.5, -0.0, 3.0]), size=n)
    return nrows, ncols, rows, cols, values


class TestCanonicalOrder:
    """The packed-key stable sort is pinned to the ``np.lexsort`` order."""

    @settings(max_examples=80, deadline=None)
    @given(duplicate_heavy_coo())
    def test_matches_lexsort_oracle(self, case):
        nrows, ncols, rows, cols, values = case
        coo = COOMatrix(nrows, ncols, rows, cols, values)
        exp_rows, exp_cols, exp_values = _lexsort_oracle(rows, cols, values)
        assert coo.rows.tolist() == exp_rows.tolist()
        assert coo.cols.tolist() == exp_cols.tolist()
        assert np.array_equal(coo.values, exp_values)

    def test_summation_follows_input_order(self):
        # (1e16 + 1.0) - 1e16 == 0.0, but (1e16 - 1e16) + 1.0 == 1.0.
        rows = np.zeros(3, dtype=np.int32)
        cols = np.zeros(3, dtype=np.int32)
        coo = COOMatrix(1, 1, rows, cols, np.array([1e16, 1.0, -1e16]))
        assert coo.values.tolist() == [0.0]
        coo = COOMatrix(1, 1, rows, cols, np.array([1e16, -1e16, 1.0]))
        assert coo.values.tolist() == [1.0]

    def test_indices_near_int32_max(self):
        top = np.iinfo(np.int32).max
        rows = np.array([top - 1, 0, top - 1, 5, top - 1, 0], dtype=np.int32)
        cols = np.array([top - 1, top - 1, 0, 5, top - 2, 0], dtype=np.int32)
        values = np.arange(1.0, 7.0)
        coo = COOMatrix(top, top, rows, cols, values)
        assert coo.rows.tolist() == [0, 0, 5, top - 1, top - 1, top - 1]
        assert coo.cols.tolist() == [0, top - 1, 5, 0, top - 2, top - 1]
        assert coo.values.tolist() == [6.0, 2.0, 4.0, 3.0, 5.0, 1.0]

    def test_presorted_round_trip_unchanged(self):
        csr = CSRMatrix.from_dense(random_sparse_dense(30, 25, seed=11))
        coo = csr.to_coo()
        again = COOMatrix(coo.nrows, coo.ncols, coo.rows, coo.cols, coo.values)
        assert np.array_equal(coo.rows, csr.row_of_entry())
        assert np.array_equal(coo.cols, csr.col_ind)
        assert np.array_equal(coo.values, csr.values)
        assert np.array_equal(again.rows, coo.rows)
        assert np.array_equal(again.cols, coo.cols)
        assert np.array_equal(again.values, coo.values)
