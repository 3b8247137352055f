"""CSR-DU: CSR with Delta-Unit compressed column indices (Section IV).

The ``col_ind`` and ``row_ptr`` arrays of CSR are replaced by a single
byte stream ``ctl`` (see :mod:`repro.compress.ctl` for the wire format);
``values`` is unchanged.  Index storage drops from
``(nnz + nrows + 1) * 4`` bytes to roughly ``nnz * (1..2)`` bytes for
matrices with local column patterns, which is exactly the paper's
working-set reduction.

Two SpMV tiers exist for this format (:mod:`repro.kernels.registry`):

* :meth:`CSRDUMatrix.spmv` (tier ``"cached"``) -- the width-class
  batched decode through the cached kernel plan
  (:mod:`repro.kernels.plan`); column indices are re-decoded from the
  ``ctl`` bytes every call, which is the decode-on-the-fly work the
  paper's kernel does (the *memory traffic* of that kernel is what the
  machine model accounts for, from the actual ``ctl`` byte counts);
* :func:`repro.kernels.reference.spmv_csr_du_reference` (tier
  ``"reference"``) -- the paper's Fig. 3 kernel, line for line, in pure
  Python, and the oracle the plan is tested against.

:attr:`CSRDUMatrix.units` is the plan's unit table as
:class:`~repro.compress.ctl.DecodedUnits` (per-unit rows, sizes and ctl
offsets, plus the decoded columns) for the machine model;
:func:`repro.compress.ctl.decode_units` is its test oracle.

:meth:`CSRDUMatrix.from_csr` encodes with the batched one-pass encoder;
:func:`repro.compress.ctl.encode_ctl_reference` is the per-unit encode
the tests hold it to.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

# decode_units is unused here; the e2e benchmark wraps this binding by name.
from repro.compress.ctl import DecodedUnits, decode_units  # noqa: F401
from repro.compress.delta import MAX_UNIT_SIZE
from repro.compress.encode_batched import encode_ctl_batched
from repro.errors import FormatError
from repro.formats.base import SparseMatrix, Storage, register_format
from repro.formats.csr import CSRMatrix
from repro.util.validation import as_value_array


@register_format
class CSRDUMatrix(SparseMatrix):
    """CSR Delta Unit matrix.

    Parameters
    ----------
    nrows, ncols:
        Matrix shape.
    ctl:
        Serialized unit stream (see :mod:`repro.compress.ctl`).
    values:
        Nonzero values in row-major order (same as CSR).
    policy, max_unit:
        Recorded encoding parameters (informational; the stream itself
        is self-describing).
    """

    name = "csr-du"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        ctl: bytes,
        values,
        *,
        policy: str = "greedy",
        max_unit: int = MAX_UNIT_SIZE,
    ):
        super().__init__(nrows, ncols)
        if not isinstance(ctl, (bytes, bytearray)):
            raise FormatError(f"ctl must be bytes, got {type(ctl).__name__}")
        self.ctl = bytes(ctl)
        self.values = as_value_array(values, "values")
        self.policy = policy
        self.max_unit = max_unit

    # -- decode cache -----------------------------------------------------
    @cached_property
    def units(self) -> DecodedUnits:
        """The kernel plan's unit table (the plan build checks the shape)."""
        from repro.kernels.plan import plan_units

        return plan_units(self)

    # -- SparseMatrix interface --------------------------------------------
    @property
    def nnz(self) -> int:
        return self.values.size

    def storage(self) -> Storage:
        return Storage(index_bytes=len(self.ctl), value_bytes=self.values.nbytes)

    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        du = self.units
        rows = np.repeat(du.rows, du.sizes)
        for i, j, v in zip(rows.tolist(), du.columns.tolist(), self.values.tolist()):
            yield i, j, v

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Width-class batched SpMV through the cached kernel plan.

        The plan amortizes the unit-header parse; the column indices
        are still re-decoded from the ctl bytes every call, and rows
        accumulate in element order (bit-identical to the reference
        kernel).
        """
        from repro.kernels.plan import _check_x, get_plan

        x = _check_x(x, self.ncols)
        return get_plan(self).spmv(self.values, x, out=out)

    # -- conversions ----------------------------------------------------------
    @classmethod
    def from_csr(
        cls,
        csr: CSRMatrix,
        *,
        policy: str = "greedy",
        max_unit: int = MAX_UNIT_SIZE,
    ) -> "CSRDUMatrix":
        """Encode a CSR matrix (one ``O(nnz)`` pass, Section IV).

        Runs the whole-matrix batched encoder and hands its unit table
        to the kernel plan, so the first ``spmv`` skips the header scan.
        """
        enc = encode_ctl_batched(
            csr.row_ptr.astype(np.int64),
            csr.col_ind.astype(np.int64),
            policy=policy,
            max_unit=max_unit,
        )
        matrix = cls(
            csr.nrows,
            csr.ncols,
            enc.ctl,
            csr.values,
            policy=policy,
            max_unit=max_unit,
        )
        matrix._unit_table = enc.table
        return matrix

    def to_csr(self) -> CSRMatrix:
        """Decode back to plain CSR (exact round-trip)."""
        return units_to_csr(self, self.values)


def units_to_csr(matrix, values) -> CSRMatrix:
    """CSR with a delta-unit matrix's structure and the given *values*."""
    du = matrix.units
    return CSRMatrix(
        matrix.nrows,
        matrix.ncols,
        du.row_ptr(matrix.nrows).astype(np.int32),
        du.columns.astype(np.int32),
        values,
    )
