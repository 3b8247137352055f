"""CSR-VI: CSR with Value-Indexed numerical data (Section V).

Structure (Fig. 4 of the paper): ``row_ptr`` and ``col_ind`` as in CSR;
``values`` replaced by ``vals_unique`` (distinct values) and ``val_ind``
(per-nonzero index into ``vals_unique``, at the narrowest width that
addresses the unique count).

With 8-byte values and, say, a 1-byte ``val_ind``, value storage drops
by nearly 8x for high-redundancy matrices -- which is why the paper's
CSR-VI gains (Table IV) exceed the CSR-DU gains (Table III): values are
2/3 of the CSR working set.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.compress.unique import UniqueValues, unique_index_values
from repro.errors import FormatError
from repro.formats.base import SparseMatrix, Storage, register_format
from repro.formats.csr import CSRMatrix
from repro.util.validation import (
    as_index_array,
    as_value_array,
    check_in_range,
    check_monotone,
)


@register_format
class CSRVIMatrix(SparseMatrix):
    """CSR Value Index matrix."""

    name = "csr-vi"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        row_ptr,
        col_ind,
        vals_unique,
        val_ind,
    ):
        super().__init__(nrows, ncols)
        row_ptr = as_index_array(row_ptr, "row_ptr")
        col_ind = as_index_array(col_ind, "col_ind")
        vals_unique = as_value_array(vals_unique, "vals_unique")
        val_ind = np.asarray(val_ind)
        if val_ind.ndim != 1 or not np.issubdtype(val_ind.dtype, np.unsignedinteger):
            raise FormatError("val_ind must be a 1-D unsigned integer array")
        if row_ptr.size != nrows + 1:
            raise FormatError(f"row_ptr has {row_ptr.size} entries, expected {nrows + 1}")
        if row_ptr.size and (row_ptr[0] != 0 or int(row_ptr[-1]) != val_ind.size):
            raise FormatError("row_ptr must run from 0 to nnz")
        if col_ind.size != val_ind.size:
            raise FormatError("col_ind and val_ind length mismatch")
        check_monotone(row_ptr, "row_ptr")
        check_in_range(col_ind, ncols, "col_ind")
        if val_ind.size and int(val_ind.max()) >= vals_unique.size:
            raise FormatError(
                f"val_ind reaches {int(val_ind.max())} but only "
                f"{vals_unique.size} unique values exist"
            )
        self.row_ptr = row_ptr
        self.col_ind = col_ind
        self.vals_unique = vals_unique
        self.val_ind = val_ind

    # -- SparseMatrix interface --------------------------------------------
    @property
    def nnz(self) -> int:
        return self.val_ind.size

    @property
    def unique_count(self) -> int:
        return self.vals_unique.size

    @property
    def ttu(self) -> float:
        """Total-to-unique ratio (the paper's applicability criterion)."""
        return self.nnz / self.unique_count if self.unique_count else 0.0

    def storage(self) -> Storage:
        return Storage(
            index_bytes=self.row_ptr.nbytes + self.col_ind.nbytes,
            value_bytes=self.vals_unique.nbytes + self.val_ind.nbytes,
        )

    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        values = self.vals_unique[self.val_ind]
        row = 0
        for k in range(self.nnz):
            while k >= int(self.row_ptr[row + 1]):
                row += 1
            yield row, int(self.col_ind[k]), float(values[k])

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Fig. 5 kernel, vectorized: one extra gather through val_ind.

        Plan-cached: the row-pointer cast and reducer validation are
        built once (:mod:`repro.kernels.plan`); the value gather stays
        per call, as in the paper's kernel.
        """
        from repro.kernels.plan import _check_x, get_plan

        x = _check_x(x, self.ncols)
        return get_plan(self).spmv(self.vals_unique[self.val_ind], x, out=out)

    # -- conversions ----------------------------------------------------------
    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "CSRVIMatrix":
        uv: UniqueValues = unique_index_values(csr.values)
        return cls(
            csr.nrows,
            csr.ncols,
            csr.row_ptr,
            csr.col_ind,
            uv.vals_unique,
            uv.val_ind,
        )

    def to_csr(self) -> CSRMatrix:
        return CSRMatrix(
            self.nrows,
            self.ncols,
            self.row_ptr,
            self.col_ind,
            self.vals_unique[self.val_ind],
        )
