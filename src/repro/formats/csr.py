"""Compressed Sparse Row (CSR) -- the paper's baseline format.

Three arrays (Fig. 1 of the paper): ``values`` holds the nonzeros in
row-major order, ``col_ind`` their column numbers, and ``row_ptr`` the
offset of each row's first nonzero (``nrows + 1`` entries).

The paper's experimental setup uses 32-bit indices and 64-bit values;
those are the defaults here.  A 16-bit ``col_ind`` option is provided
because Williams et al. [11] use exactly that as a simple index
reduction when ``ncols < 2**16`` -- it is the ABL-3 ablation baseline.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseMatrix, Storage
from repro.formats.coo import COOMatrix
from repro.kernels.plan import _check_x, get_plan
from repro.nputil.segops import segment_ids_from_offsets
from repro.util.validation import (
    as_index_array,
    as_value_array,
    check_in_range,
    check_monotone,
)


class CSRMatrix(SparseMatrix):
    """CSR matrix with the paper's canonical invariants.

    Invariants enforced at construction: ``row_ptr`` is non-decreasing
    with ``row_ptr[0] == 0`` and ``row_ptr[-1] == nnz``; within each row
    the columns are strictly increasing (sorted, no duplicates).
    """

    name = "csr"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        row_ptr,
        col_ind,
        values,
        *,
        index_dtype=np.int32,
        col_index_dtype=None,
    ):
        super().__init__(nrows, ncols)
        col_index_dtype = col_index_dtype or index_dtype
        row_ptr = as_index_array(row_ptr, "row_ptr", dtype=np.dtype(index_dtype))
        col_ind = as_index_array(col_ind, "col_ind", dtype=np.dtype(col_index_dtype))
        values = as_value_array(values, "values")
        if row_ptr.size != nrows + 1:
            raise FormatError(
                f"row_ptr has {row_ptr.size} entries, expected nrows+1={nrows + 1}"
            )
        if row_ptr.size and (row_ptr[0] != 0 or int(row_ptr[-1]) != values.size):
            raise FormatError(
                f"row_ptr must run from 0 to nnz={values.size}, "
                f"got [{row_ptr[0]}, {row_ptr[-1]}]"
            )
        if col_ind.size != values.size:
            raise FormatError(
                f"col_ind ({col_ind.size}) and values ({values.size}) length mismatch"
            )
        check_monotone(row_ptr, "row_ptr")
        check_in_range(col_ind, ncols, "col_ind")
        # Strictly increasing columns within each row: the only places a
        # non-positive col diff may occur are row starts (a mask indexed
        # by row_ptr, which is checked monotone from 0 to nnz above).
        if col_ind.size > 1:
            bad = np.flatnonzero(np.diff(col_ind.astype(np.int64)) <= 0) + 1
            if bad.size:
                starts = np.zeros(col_ind.size + 1, dtype=bool)
                starts[row_ptr[1:-1]] = True
                ok = starts[bad]
                if not ok.all():
                    idx = int(bad[~ok][0])
                    raise FormatError(
                        f"columns not strictly increasing at position {idx}"
                    )
        self.row_ptr = row_ptr
        self.col_ind = col_ind
        self.values = values

    # -- SparseMatrix interface ----------------------------------------
    @property
    def nnz(self) -> int:
        return self.values.size

    def storage(self) -> Storage:
        return Storage(
            index_bytes=self.row_ptr.nbytes + self.col_ind.nbytes,
            value_bytes=self.values.nbytes,
        )

    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        for row in range(self.nrows):
            for k in range(int(self.row_ptr[row]), int(self.row_ptr[row + 1])):
                yield row, int(self.col_ind[k]), float(self.values[k])

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Vectorized CSR SpMV: gather x, multiply, row-reduce.

        Runs through the cached kernel plan (:mod:`repro.kernels.plan`),
        so the ``int64`` row-pointer cast and the offsets validation are
        paid once per matrix, not per call.
        """
        x = _check_x(x, self.ncols)
        return get_plan(self).spmv(self.values, x, out=out)

    # -- helpers ----------------------------------------------------------
    def row_lengths(self) -> np.ndarray:
        """Nonzeros per row."""
        return np.diff(self.row_ptr.astype(np.int64))

    def row_of_entry(self) -> np.ndarray:
        """Row index of each stored nonzero."""
        return segment_ids_from_offsets(self.row_ptr.astype(np.int64), self.nnz)

    def row_slice(self, start: int, stop: int) -> "CSRMatrix":
        """Sub-matrix of rows ``[start, stop)`` (shares column space).

        This is what row partitioning hands each thread: a contiguous
        block of rows with re-based ``row_ptr``.
        """
        if not 0 <= start <= stop <= self.nrows:
            raise FormatError(f"row slice [{start}, {stop}) out of range")
        lo, hi = int(self.row_ptr[start]), int(self.row_ptr[stop])
        return CSRMatrix(
            stop - start,
            self.ncols,
            (self.row_ptr[start : stop + 1].astype(np.int64) - lo).astype(
                self.row_ptr.dtype
            ),
            self.col_ind[lo:hi],
            self.values[lo:hi],
        )

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, *, index_dtype=np.int32) -> "CSRMatrix":
        """Build from (canonicalized) COO in ``O(nnz)``."""
        return cls(
            coo.nrows,
            coo.ncols,
            coo.row_ptr().astype(index_dtype),
            coo.cols,
            coo.values,
            index_dtype=index_dtype,
        )

    @classmethod
    def from_dense(cls, dense, *, index_dtype=np.int32) -> "CSRMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense), index_dtype=index_dtype)

    @classmethod
    def from_csr(cls, csr: "CSRMatrix") -> "CSRMatrix":
        return csr

    def to_coo(self) -> COOMatrix:
        return COOMatrix(
            self.nrows,
            self.ncols,
            self.row_of_entry().astype(np.int32),
            self.col_ind,
            self.values,
        )

    def with_index_dtype(self, index_dtype, *, cols_only: bool = False) -> "CSRMatrix":
        """Same matrix with a different index width (ABL-3 ablation).

        With ``cols_only`` the narrower dtype applies to ``col_ind``
        alone, leaving ``row_ptr`` untouched -- the Williams et al. [11]
        variant, usable whenever ``ncols`` (not nnz) fits the width.
        Overflowing indices raise rather than wrap.
        """
        index_dtype = np.dtype(index_dtype)
        info = np.iinfo(index_dtype)
        if self.ncols - 1 > info.max:
            raise FormatError(
                f"ncols={self.ncols} does not fit index dtype {index_dtype}"
            )
        if not cols_only and self.nnz > info.max:
            raise FormatError(
                f"nnz={self.nnz} does not fit row_ptr dtype {index_dtype}; "
                "use cols_only=True to narrow col_ind alone"
            )
        row_dtype = self.row_ptr.dtype if cols_only else index_dtype
        return CSRMatrix(
            self.nrows,
            self.ncols,
            self.row_ptr.astype(row_dtype),
            self.col_ind.astype(index_dtype),
            self.values,
            index_dtype=row_dtype,
            col_index_dtype=index_dtype,
        )
