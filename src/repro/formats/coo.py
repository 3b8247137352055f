"""Coordinate (COO) format: one ``(row, col, value)`` triplet per nonzero.

COO is the interchange format of this library: generators emit it,
Matrix Market I/O reads into it, and every compressed format can be
reached from it through CSR.  Duplicate coordinates are summed during
canonicalization, matching the usual assembly semantics of FEM codes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import FormatError
from repro.formats.base import SparseMatrix, Storage, register_format
from repro.util.validation import (
    as_index_array,
    as_value_array,
    check_in_range,
)


@register_format
class COOMatrix(SparseMatrix):
    """Coordinate-format sparse matrix.

    Construction canonicalizes: entries are sorted row-major and
    duplicate coordinates are summed (use ``sum_duplicates=False`` to
    forbid duplicates instead, raising on any).  The order comes from
    one stable argsort of the packed int64 key ``row << 32 | col``, so
    duplicates are summed onto their first occurrence in input order
    and already-sorted input (timsort) costs linear time.
    """

    name = "coo"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        rows,
        cols,
        values,
        *,
        sum_duplicates: bool = True,
    ):
        super().__init__(nrows, ncols)
        rows = as_index_array(rows, "rows")
        cols = as_index_array(cols, "cols")
        values = as_value_array(values, "values")
        if not (rows.size == cols.size == values.size):
            raise FormatError(
                f"length mismatch: rows={rows.size} cols={cols.size} values={values.size}"
            )
        check_in_range(rows, self.nrows, "rows")
        check_in_range(cols, self.ncols, "cols")
        # Canonical order: row-major, then by column.  Both indices are
        # non-negative int32 here, so the packed key fits int64.
        order = np.argsort((rows.astype(np.int64) << 32) | cols, kind="stable")
        rows, cols, values = rows[order], cols[order], values[order]
        if rows.size:
            dup = np.flatnonzero((np.diff(rows) == 0) & (np.diff(cols) == 0))
            if dup.size:
                if not sum_duplicates:
                    raise FormatError(f"{dup.size} duplicate coordinates")
                keep = np.ones(rows.size, dtype=bool)
                keep[dup + 1] = False
                # Sum runs of duplicates onto their first occurrence.
                group = np.cumsum(keep) - 1
                summed = np.zeros(int(group[-1]) + 1, dtype=values.dtype)
                np.add.at(summed, group, values)
                rows, cols, values = rows[keep], cols[keep], summed
        self.rows = rows
        self.cols = cols
        self.values = values

    # -- SparseMatrix interface ----------------------------------------
    @property
    def nnz(self) -> int:
        return self.values.size

    def storage(self) -> Storage:
        return Storage(
            index_bytes=self.rows.nbytes + self.cols.nbytes,
            value_bytes=self.values.nbytes,
        )

    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        for i, j, v in zip(
            self.rows.tolist(), self.cols.tolist(), self.values.tolist()
        ):
            yield i, j, v

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise FormatError(f"x has shape {x.shape}, expected ({self.ncols},)")
        y = out if out is not None else np.zeros(self.nrows, dtype=np.float64)
        if out is not None:
            y[:] = 0.0
        np.add.at(y, self.rows, self.values * x[self.cols])
        return y

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_dense(cls, dense) -> "COOMatrix":
        """Build from a dense 2-D array, storing its nonzero entries."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise FormatError(f"dense input must be 2-D, got {dense.ndim}-D")
        rows, cols = np.nonzero(dense)
        return cls(
            dense.shape[0],
            dense.shape[1],
            rows.astype(np.int32),
            cols.astype(np.int32),
            dense[rows, cols],
        )

    @classmethod
    def from_coo(cls, coo: "COOMatrix") -> "COOMatrix":
        return coo

    def row_ptr(self) -> np.ndarray:
        """CSR-style row offsets of the canonical entry order."""
        counts = np.bincount(self.rows, minlength=self.nrows)
        out = np.zeros(self.nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=out[1:])
        return out
