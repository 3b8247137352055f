"""Work partitioning for multithreaded SpMV (Section II-C of the paper).

Row partitioning, the paper's choice (Fig. 2): each thread gets a
contiguous block of rows.  Threads write disjoint parts of ``y`` and
share read-only ``x``.  (The paper also describes column and block
partitioning but evaluates neither; they are not built here.)

Balancing follows the paper's *static nnz-based scheme*: boundaries are
chosen so every thread receives approximately the same number of
nonzero elements, hence the same floating-point work.  For the offsets
array ``row_ptr``, :func:`balance_by_nnz` picks the boundary before
which at most ``k * nnz / nthreads`` elements lie -- a binary search
per boundary, ``O(nthreads * log n)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.telemetry import core as telemetry
from repro.telemetry.metrics import record_partition


def balance_by_nnz(ptr: np.ndarray, nparts: int) -> np.ndarray:
    """Boundaries splitting ``len(ptr) - 1`` segments into *nparts* groups
    of approximately equal total element count.

    Returns an array of ``nparts + 1`` segment indices starting at 0 and
    ending at ``len(ptr) - 1``, non-decreasing.  Groups may be empty when
    there are more parts than segments or the distribution is extreme.
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    if nparts < 1:
        raise PartitionError(f"nparts must be >= 1, got {nparts}")
    if ptr.ndim != 1 or ptr.size < 1:
        raise PartitionError("ptr must be a 1-D offsets array")
    nseg = ptr.size - 1
    total = int(ptr[-1])
    targets = (np.arange(1, nparts) * total) / nparts
    # Boundary k goes where the cumulative count first reaches target k.
    inner = np.searchsorted(ptr[1:], targets, side="left") + 1
    inner = np.minimum(inner, nseg)
    bounds = np.concatenate(([0], inner, [nseg])).astype(np.int64)
    return np.maximum.accumulate(bounds)


@dataclass(frozen=True)
class RowPartition:
    """Assignment of contiguous row blocks to threads.

    ``boundaries`` has ``nthreads + 1`` entries; thread ``t`` owns rows
    ``[boundaries[t], boundaries[t+1])``.
    """

    boundaries: np.ndarray
    nnz_per_thread: np.ndarray

    @property
    def nthreads(self) -> int:
        return self.boundaries.size - 1

    def rows_of(self, thread: int) -> tuple[int, int]:
        return int(self.boundaries[thread]), int(self.boundaries[thread + 1])

    def imbalance(self) -> float:
        """max/mean nonzeros per thread (1.0 is perfect balance)."""
        mean = self.nnz_per_thread.mean()
        return float(self.nnz_per_thread.max() / mean) if mean > 0 else 1.0


def row_partition(row_ptr: np.ndarray, nthreads: int) -> RowPartition:
    """The paper's scheme: contiguous rows, nnz-balanced."""
    bounds = balance_by_nnz(row_ptr, nthreads)
    ptr = np.asarray(row_ptr, dtype=np.int64)
    nnz_per = ptr[bounds[1:]] - ptr[bounds[:-1]]
    partition = RowPartition(boundaries=bounds, nnz_per_thread=nnz_per)
    if telemetry.enabled():
        record_partition(partition)
    return partition
