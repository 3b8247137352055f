"""CSR-DU-VI: both compressions at once.

The companion paper (Kourtis et al., CF'08 [8]) combines the delta-unit
index stream with value indexing; ICPP'08 evaluates them separately but
builds directly on that work.  This format is the ABL-5 ablation
subject: it shows whether the two reductions compose (they do -- index
and value bytes are independent) and where the extra per-element
indirection stops paying off.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from repro.compress.ctl import DecodedUnits
from repro.compress.delta import MAX_UNIT_SIZE
from repro.compress.unique import unique_index_values
from repro.errors import FormatError
from repro.formats.base import SparseMatrix, Storage, register_format
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix, units_to_csr
from repro.util.validation import as_value_array


@register_format
class CSRDUVIMatrix(SparseMatrix):
    """Delta-unit index stream + value-indexed numerical data."""

    name = "csr-du-vi"

    def __init__(self, nrows: int, ncols: int, ctl: bytes, vals_unique, val_ind):
        super().__init__(nrows, ncols)
        if not isinstance(ctl, (bytes, bytearray)):
            raise FormatError(f"ctl must be bytes, got {type(ctl).__name__}")
        self.ctl = bytes(ctl)
        self.vals_unique = as_value_array(vals_unique, "vals_unique")
        val_ind = np.asarray(val_ind)
        if val_ind.ndim != 1 or not np.issubdtype(val_ind.dtype, np.unsignedinteger):
            raise FormatError("val_ind must be a 1-D unsigned integer array")
        if val_ind.size and int(val_ind.max()) >= self.vals_unique.size:
            raise FormatError("val_ind out of range of vals_unique")
        self.val_ind = val_ind

    @cached_property
    def units(self) -> DecodedUnits:
        """The kernel plan's unit table (see :attr:`CSRDUMatrix.units`)."""
        from repro.kernels.plan import plan_units

        return plan_units(self)

    @property
    def nnz(self) -> int:
        return self.val_ind.size

    @property
    def ttu(self) -> float:
        return self.nnz / self.vals_unique.size if self.vals_unique.size else 0.0

    def storage(self) -> Storage:
        return Storage(
            index_bytes=len(self.ctl),
            value_bytes=self.vals_unique.nbytes + self.val_ind.nbytes,
        )

    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        du = self.units
        rows = np.repeat(du.rows, du.sizes)
        values = self.vals_unique[self.val_ind]
        for i, j, v in zip(rows.tolist(), du.columns.tolist(), values.tolist()):
            yield i, j, v

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Batched ctl decode plus the value-index gather (plan-cached)."""
        from repro.kernels.plan import _check_x, get_plan

        x = _check_x(x, self.ncols)
        return get_plan(self).spmv(self.vals_unique[self.val_ind], x, out=out)

    @classmethod
    def from_csr(
        cls,
        csr: CSRMatrix,
        *,
        policy: str = "greedy",
        max_unit: int = MAX_UNIT_SIZE,
    ) -> "CSRDUVIMatrix":
        du = CSRDUMatrix.from_csr(csr, policy=policy, max_unit=max_unit)
        uv = unique_index_values(csr.values)
        matrix = cls(csr.nrows, csr.ncols, du.ctl, uv.vals_unique, uv.val_ind)
        matrix._unit_table = du._unit_table
        return matrix

    def to_csr(self) -> CSRMatrix:
        return units_to_csr(self, self.vals_unique[self.val_ind])
