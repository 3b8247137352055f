"""Compressed Sparse Column (CSC).

The column-major mirror of CSR (Section II-B mentions it as the other
generic format).  Its column slices are the natural unit of the
paper's *column partitioning* (Section II-C), which the paper
describes but does not evaluate; no executor here partitions by
column.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseMatrix, Storage, register_format
from repro.formats.coo import COOMatrix
from repro.formats.csr import CSRMatrix
from repro.nputil.segops import segment_ids_from_offsets
from repro.util.validation import (
    as_index_array,
    as_value_array,
    check_in_range,
    check_monotone,
)


@register_format
class CSCMatrix(SparseMatrix):
    """CSC matrix: ``col_ptr`` offsets, ``row_ind`` per nonzero, ``values``."""

    name = "csc"

    def __init__(self, nrows: int, ncols: int, col_ptr, row_ind, values):
        super().__init__(nrows, ncols)
        col_ptr = as_index_array(col_ptr, "col_ptr")
        row_ind = as_index_array(row_ind, "row_ind")
        values = as_value_array(values, "values")
        if col_ptr.size != ncols + 1:
            raise FormatError(
                f"col_ptr has {col_ptr.size} entries, expected ncols+1={ncols + 1}"
            )
        if col_ptr.size and (col_ptr[0] != 0 or int(col_ptr[-1]) != values.size):
            raise FormatError("col_ptr must run from 0 to nnz")
        if row_ind.size != values.size:
            raise FormatError("row_ind and values length mismatch")
        check_monotone(col_ptr, "col_ptr")
        check_in_range(row_ind, nrows, "row_ind")
        self.col_ptr = col_ptr
        self.row_ind = row_ind
        self.values = values

    @property
    def nnz(self) -> int:
        return self.values.size

    def storage(self) -> Storage:
        return Storage(
            index_bytes=self.col_ptr.nbytes + self.row_ind.nbytes,
            value_bytes=self.values.nbytes,
        )

    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        # Row-major order required by the interface: go through COO.
        coo = self.to_coo()
        yield from coo.iter_entries()

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Column-oriented SpMV: scatter-add each column's contribution."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise FormatError(f"x has shape {x.shape}, expected ({self.ncols},)")
        col_of = segment_ids_from_offsets(self.col_ptr.astype(np.int64), self.nnz)
        y = out if out is not None else np.zeros(self.nrows, dtype=np.float64)
        if out is not None:
            y[:] = 0.0
        np.add.at(y, self.row_ind, self.values * x[col_of])
        return y

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSCMatrix":
        order = np.lexsort((coo.rows, coo.cols))
        counts = np.bincount(coo.cols, minlength=coo.ncols)
        col_ptr = np.zeros(coo.ncols + 1, dtype=np.int64)
        np.cumsum(counts, out=col_ptr[1:])
        return cls(
            coo.nrows,
            coo.ncols,
            col_ptr.astype(np.int32),
            coo.rows[order],
            coo.values[order],
        )

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "CSCMatrix":
        return cls.from_coo(csr.to_coo())

    def to_coo(self) -> COOMatrix:
        col_of = segment_ids_from_offsets(self.col_ptr.astype(np.int64), self.nnz)
        return COOMatrix(
            self.nrows,
            self.ncols,
            self.row_ind,
            col_of.astype(np.int32),
            self.values,
        )
