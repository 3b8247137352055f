"""Exact bytes-per-iteration accounting from each format's real layout.

:func:`breakdown_from_works` folds the machine model's per-thread
traffic census (:func:`repro.machine.traffic.analyze_threads`, which
reads the *actual* arrays: ``ctl_offsets`` byte ranges for CSR-DU,
``val_ind`` item sizes for CSR-VI, ...) into one job-level
:class:`ByteBreakdown`: how many bytes one steady-state SpMV iteration
streams, split the way the paper splits storage --

* **index bytes** -- structure (``row_ptr``/``col_ind``, the ctl
  stream, DCSR command stream);
* **value bytes** -- numerics (``values``, ``vals_unique`` +
  ``val_ind``);
* **vector bytes** -- the dense ``x`` gather footprint (cache-line
  granular, unioned across threads) plus the ``y`` writes.

No cache modeling happens here: this is the numerator of the paper's
"compression shrinks the stream" argument, before residency.  The
machine model's post-residency DRAM traffic rides along separately in
the :class:`~repro.perf.attribution.Attribution` record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.formats.base import SparseMatrix
from repro.machine.traffic import (
    LINE_SIZE,
    VALUE_SIZE,
    ThreadWork,
    analyze_threads,
)

#: Array names charged as index (structure) bytes.
INDEX_ARRAYS = frozenset({"row_ptr", "col_ind", "ctl", "stream"})

#: Array names charged as value (numeric) bytes.
VALUE_ARRAYS = frozenset({"values", "val_ind", "vals_unique"})

#: Array names charged as dense-vector bytes.
VECTOR_ARRAYS = frozenset({"x", "y"})


@dataclass(frozen=True)
class ByteBreakdown:
    """Bytes one SpMV iteration streams, job-wide.

    ``arrays`` maps array names to per-iteration bytes; shared arrays
    (``x``, ``vals_unique``) are counted once at their cross-thread
    union, not per thread.  ``nnz_imbalance`` is the static
    nnz-balanced partitioner's max/mean ratio for this thread count.
    """

    format_name: str
    threads: int
    nnz: int
    arrays: dict[str, int]
    index_bytes: int
    value_bytes: int
    vector_bytes: int
    nnz_imbalance: float

    @property
    def total_bytes(self) -> int:
        return self.index_bytes + self.value_bytes + self.vector_bytes

    @property
    def flops(self) -> int:
        """Useful floating-point operations (2 per nonzero)."""
        return 2 * self.nnz

    @property
    def flops_per_byte(self) -> float:
        total = self.total_bytes
        return self.flops / total if total else float("inf")


def _full_x_lines_bytes(ncols: int) -> int:
    """Upper bound on the x gather footprint: every line of x, once."""
    if ncols <= 0:
        return 0
    elems_per_line = LINE_SIZE // VALUE_SIZE
    lines = (ncols + elems_per_line - 1) // elems_per_line
    return lines * LINE_SIZE


def breakdown_from_works(
    matrix: SparseMatrix, works: Sequence[ThreadWork]
) -> ByteBreakdown:
    """Fold one per-thread traffic census of *matrix* into a breakdown.

    Private arrays sum across threads (each thread streams its own
    slice); the shared ``x`` footprint is capped by the whole vector's
    line-rounded size (threads overlap on shared lines) and
    ``vals_unique`` is counted once -- it is one physical array however
    many threads read it.  *works* is the census
    :func:`~repro.machine.traffic.analyze_threads` returns, e.g. the one
    a :class:`~repro.machine.engine.SimResult` carries.
    """
    arrays: dict[str, int] = {}
    for w in works:
        for name, nbytes in w.private_bytes.items():
            arrays[name] = arrays.get(name, 0) + int(nbytes)
    x_sum = sum(w.shared_bytes.get("x", 0) for w in works)
    if x_sum:
        arrays["x"] = min(int(x_sum), _full_x_lines_bytes(matrix.ncols))
    for w in works:
        if "vals_unique" in w.shared_bytes:
            arrays["vals_unique"] = int(w.shared_bytes["vals_unique"])
            break
    index_bytes = sum(b for n, b in arrays.items() if n in INDEX_ARRAYS)
    value_bytes = sum(b for n, b in arrays.items() if n in VALUE_ARRAYS)
    vector_bytes = sum(b for n, b in arrays.items() if n in VECTOR_ARRAYS)
    unclassified = set(arrays) - INDEX_ARRAYS - VALUE_ARRAYS - VECTOR_ARRAYS
    if unclassified:
        # A new ThreadWork array name must be classified above, or the
        # index/value/vector split silently undercounts.
        raise ValueError(f"unclassified traffic arrays {sorted(unclassified)}")
    # RowPartition.imbalance()'s arithmetic over the census's own nnz.
    nnz_per = np.array([w.nnz for w in works], dtype=np.int64)
    mean = nnz_per.mean()
    return ByteBreakdown(
        format_name=works[0].format_name,
        threads=len(works),
        nnz=sum(w.nnz for w in works),
        arrays=arrays,
        index_bytes=index_bytes,
        value_bytes=value_bytes,
        vector_bytes=vector_bytes,
        nnz_imbalance=float(nnz_per.max() / mean) if mean > 0 else 1.0,
    )


def bytes_per_iteration(matrix: SparseMatrix, threads: int = 1) -> ByteBreakdown:
    """Exact per-iteration byte stream of *matrix* across *threads*.

    Runs its own census; the bench harness folds the one its
    simulation already ran (:func:`breakdown_from_works`), and tests
    check that fold against this.
    """
    _, works = analyze_threads(matrix, threads)
    return breakdown_from_works(matrix, works)
