"""Tests for work partitioning (the paper's static nnz balancing)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.formats import CSRMatrix
from repro.parallel.partition import balance_by_nnz, row_partition

from tests.conftest import random_sparse_dense


def ptr_strategy():
    return st.lists(
        st.integers(min_value=0, max_value=30), min_size=1, max_size=60
    ).map(lambda lens: np.concatenate(([0], np.cumsum(lens))).astype(np.int64))


class TestBalanceByNnz:
    def test_uniform_rows(self):
        ptr = np.arange(0, 101, 10)  # 10 rows x 10 nnz
        bounds = balance_by_nnz(ptr, 5)
        assert bounds.tolist() == [0, 2, 4, 6, 8, 10]

    def test_single_part(self):
        ptr = np.array([0, 3, 9])
        assert balance_by_nnz(ptr, 1).tolist() == [0, 2]

    def test_skewed_rows(self):
        # One huge row dominates; it must land alone-ish in one part.
        ptr = np.array([0, 1, 2, 102, 103, 104])
        bounds = balance_by_nnz(ptr, 2)
        counts = np.diff(ptr[bounds])
        assert counts.sum() == 104
        assert counts.max() <= 102  # the huge row is unsplittable

    def test_more_parts_than_segments(self):
        ptr = np.array([0, 5, 10])
        bounds = balance_by_nnz(ptr, 6)
        assert bounds.size == 7
        assert bounds[0] == 0 and bounds[-1] == 2
        assert np.all(np.diff(bounds) >= 0)

    def test_empty_matrix(self):
        bounds = balance_by_nnz(np.array([0]), 3)
        assert bounds.tolist() == [0, 0, 0, 0]

    def test_bad_nparts(self):
        with pytest.raises(PartitionError):
            balance_by_nnz(np.array([0, 1]), 0)

    @given(ptr_strategy(), st.integers(min_value=1, max_value=9))
    def test_invariants(self, ptr, nparts):
        bounds = balance_by_nnz(ptr, nparts)
        # Cover, ordered, within range.
        assert bounds.size == nparts + 1
        assert bounds[0] == 0 and bounds[-1] == ptr.size - 1
        assert np.all(np.diff(bounds) >= 0)
        # Element-count balance bound: no part exceeds the ideal share
        # plus one maximal segment.
        counts = ptr[bounds[1:]] - ptr[bounds[:-1]]
        total = int(ptr[-1])
        max_seg = int(np.diff(ptr).max()) if ptr.size > 1 else 0
        assert counts.sum() == total
        assert counts.max() <= total / nparts + max_seg + 1e-9


class TestRowPartition:
    def test_balanced_nnz(self):
        dense = random_sparse_dense(50, 30, seed=50)
        csr = CSRMatrix.from_dense(dense)
        part = row_partition(csr.row_ptr, 4)
        assert part.nthreads == 4
        assert part.nnz_per_thread.sum() == csr.nnz
        assert part.imbalance() < 1.5

    def test_rows_of(self):
        part = row_partition(np.arange(0, 41, 10), 2)
        lo, hi = part.rows_of(0)
        assert (lo, hi) == (0, 2)

    def test_slices_reassemble(self, paper_matrix, paper_dense):
        part = row_partition(paper_matrix.row_ptr, 3)
        pieces = [
            paper_matrix.row_slice(*part.rows_of(t)).to_dense()
            for t in range(3)
        ]
        assert np.allclose(np.vstack(pieces), paper_dense)

    def test_imbalance_of_empty(self):
        part = row_partition(np.array([0, 0, 0]), 2)
        assert part.imbalance() == 1.0
