"""Reusable kernel plans: per-matrix decode state for the hot SpMV path.

A *plan* is everything about one matrix's structure that every SpMV
iteration would otherwise recompute -- the ``int64`` cast of CSR's
``row_ptr``, the offsets validation behind the segmented row reduction,
and (for CSR-DU) the variable-length unit-header parse of the ctl
stream.  :func:`get_plan` builds the plan on first use, caches it on
the matrix object, and hands the cached instance back on every later
call; the formats' ``spmv`` methods and
:class:`~repro.parallel.executor.ParallelSpMV` share it.

Two plan families cover the four plannable formats:

* :class:`CSRPlan` (csr, csr-vi) -- cached ``row_ptr`` cast plus a
  pre-validated :class:`~repro.nputil.segops.SegmentedReducer`;
* :class:`CSRDUPlan` (csr-du, csr-du-vi) -- a
  :class:`~repro.compress.unit_table.BatchedColumnDecoder` over the
  scanned unit table, plus the per-nonzero row ids the row reduction
  scatters into.

Plans hold *structure only*; numerical values are passed in per call,
so a plan never pins a stale values array.  CSR-DU plans re-decode all
column indices from the ctl bytes on every call (decode-on-the-fly is
preserved -- see DESIGN.md, "Kernel plans"), and also serve the machine
model's ``units`` view (:func:`plan_units`).

The CSR-DU row reduction deliberately uses ``np.add.at`` (element
order, one scalar add per nonzero): that is bitwise identical to the
reference kernel's sequential per-row accumulation, which is what lets
the cross-kernel tests demand exact equality instead of tolerances.

Telemetry: ``plan.build`` span on construction, ``plan.miss`` /
``plan.hit`` counters on every lookup (labelled by format).
"""

from __future__ import annotations

import numpy as np

from repro.compress.ctl import DecodedUnits
from repro.compress.unit_table import BatchedColumnDecoder, scan_units
from repro.errors import FormatError
from repro.nputil.segops import SegmentedReducer
from repro.telemetry import core as telemetry

#: Attribute under which the plan is cached on the matrix object.
PLAN_ATTR = "_kernel_plan"

#: Formats :func:`get_plan` can build a plan for.
PLANNABLE_FORMATS = ("csr", "csr-vi", "csr-du", "csr-du-vi")


def _check_x(x, ncols: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (ncols,):
        raise FormatError(f"x has shape {x.shape}, expected ({ncols},)")
    return x


class CSRPlan:
    """Plan for row-pointer formats (CSR, CSR-VI).

    Caches the ``int64`` ``row_ptr`` cast (previously re-done on every
    kernel call) and the validated segmented reducer over it.
    """

    __slots__ = ("nrows", "ncols", "nnz", "row_ptr64", "col_ind", "reducer")

    def __init__(self, nrows: int, ncols: int, row_ptr, col_ind):
        row_ptr = np.asarray(row_ptr)
        self.row_ptr64 = (
            row_ptr if row_ptr.dtype == np.int64 else row_ptr.astype(np.int64)
        )
        self.nrows = nrows
        self.ncols = ncols
        self.col_ind = col_ind
        self.nnz = int(col_ind.size)
        self.reducer = SegmentedReducer(self.row_ptr64, self.nnz)

    def spmv(self, values, x, out=None):
        products = values * x[self.col_ind]
        return self.reducer.reduce(products, out=out)


class CSRDUPlan:
    """Plan for delta-unit formats (CSR-DU, CSR-DU-VI).

    Built from the ctl stream alone: one header scan (skipped when the
    batched encoder already produced the unit table), one batched
    column decoder, and the per-nonzero row ids.  Each :meth:`spmv`
    re-decodes the column indices from the ctl bytes (width-class
    batched) and reduces per row in element order.

    The build rejects, with :class:`~repro.errors.FormatError`, a
    stream that reaches a row or column outside the matrix, holds a
    delta of ``ncols`` or more (a wrapped u64 delta lands here), or
    decodes a negative column.
    """

    __slots__ = ("nrows", "ncols", "nnz", "table", "decoder", "elem_rows")

    def __init__(self, nrows: int, ncols: int, ctl: bytes, nnz: int, table=None):
        if table is None:
            table = scan_units(ctl)
        decoder = BatchedColumnDecoder(ctl, table, nnz)
        if table.nunits and int(table.rows[-1]) >= nrows:
            raise FormatError(
                f"ctl stream reaches row {int(table.rows[-1])} "
                f"but the matrix has {nrows} rows"
            )
        if table.nunits and int(decoder.last_cols.max()) >= ncols:
            raise FormatError("ctl stream reaches a column beyond ncols")
        if decoder.max_delta >= ncols:
            raise FormatError(
                f"ctl stream holds a column delta of {decoder.max_delta} "
                f"but the matrix has {ncols} columns"
            )
        if table.nunits and int(decoder.first_cols.min()) < 0:
            raise FormatError("ctl stream decodes a negative column")
        self.nrows = nrows
        self.ncols = ncols
        self.nnz = nnz
        self.table = table
        self.decoder = decoder
        self.elem_rows = np.repeat(table.rows, table.sizes)

    def spmv(self, values, x, out=None):
        cols = self.decoder.columns()
        products = values * x[cols]
        if out is None:
            out = np.zeros(self.nrows, dtype=np.float64)
        else:
            out[...] = 0.0
        # One scalar add per nonzero, in element order == the reference
        # kernel's accumulation order, bit for bit.
        np.add.at(out, self.elem_rows, products)
        return out


def _build_plan(matrix):
    name = matrix.name
    if name in ("csr", "csr-vi"):
        return CSRPlan(matrix.nrows, matrix.ncols, matrix.row_ptr, matrix.col_ind)
    if name in ("csr-du", "csr-du-vi"):
        # The batched encoder emits the unit table as a byproduct; a
        # matrix carrying one skips the per-unit header re-scan here.
        return CSRDUPlan(
            matrix.nrows,
            matrix.ncols,
            matrix.ctl,
            matrix.nnz,
            table=getattr(matrix, "_unit_table", None),
        )
    raise FormatError(
        f"no kernel plan for format {name!r}; plannable: {PLANNABLE_FORMATS}"
    )


def plan_units(matrix) -> DecodedUnits:
    """A delta-unit matrix's plan table, as :class:`~repro.compress.ctl.DecodedUnits`.

    Reading it is not a kernel call: a cached plan is used without
    counting a lookup, and only a missing one goes through :func:`get_plan`.
    """
    plan = getattr(matrix, PLAN_ATTR, None) or get_plan(matrix)
    table = plan.table
    return DecodedUnits(
        rows=table.rows,
        sizes=table.sizes,
        classes=table.classes,
        offsets=plan.decoder.offsets,
        columns=plan.decoder.columns(),
        new_row=table.new_row,
        ctl_offsets=table.ctl_offsets,
        seq=table.seq,
    )


def has_plan(matrix) -> bool:
    """True if *matrix* already carries a cached plan."""
    return getattr(matrix, PLAN_ATTR, None) is not None


def get_plan(matrix):
    """The matrix's kernel plan, building and caching it on first use."""
    plan = getattr(matrix, PLAN_ATTR, None)
    if plan is not None:
        telemetry.count("plan.hit", 1, format=matrix.name)
        return plan
    telemetry.count("plan.miss", 1, format=matrix.name)
    with telemetry.span("plan.build", format=matrix.name) as sp:
        plan = _build_plan(matrix)
        sp.add(nnz=plan.nnz)
    setattr(matrix, PLAN_ATTR, plan)
    return plan
