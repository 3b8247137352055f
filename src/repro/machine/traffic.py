"""Per-thread work and memory-traffic accounting.

:func:`analyze_threads` takes a matrix in any supported format, splits
it with the paper's nnz-balanced row partitioning, and returns one
:class:`ThreadWork` per thread with

* the operation census the cost model charges cycles for (elements,
  non-empty rows, units, commands), and
* the exact per-iteration byte counts of every array the kernel
  streams, taken from the format's real storage (ctl byte ranges from
  ``ctl_offsets``, ``val_ind`` item sizes, ...), plus the thread's
  distinct-x footprint (computed exactly from its column indices).

This is deliberately *exact* accounting of the format's layout -- the
only modeled quantities downstream are cache residency and bandwidth
contention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MachineModelError
from repro.formats.base import SparseMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_du_vi import CSRDUVIMatrix
from repro.formats.csr_vi import CSRVIMatrix
from repro.formats.dcsr import DCSRMatrix, encode_dcsr
from repro.parallel.partition import RowPartition, row_partition

#: Bytes per dense-vector element (the paper's 64-bit values).
VALUE_SIZE = 8


@dataclass(frozen=True)
class ThreadWork:
    """One thread's share of an SpMV iteration.

    ``private_bytes`` maps array names to this thread's streamed bytes
    per iteration; ``shared_bytes`` maps job-wide shared arrays (the
    ``x`` vector footprint of *this thread*, ``vals_unique``) that
    overlap between threads on a shared cache.
    """

    thread: int
    format_name: str
    nnz: int
    rows_assigned: int
    rows_nonempty: int
    private_bytes: dict[str, int] = field(default_factory=dict)
    shared_bytes: dict[str, int] = field(default_factory=dict)
    units: int = 0
    seq_units: int = 0
    seq_elements: int = 0
    commands: int = 0

    @property
    def flops(self) -> int:
        """Useful floating-point operations (2 per original nonzero)."""
        return 2 * self.nnz


#: Cache-line size assumed for x-gather footprints (64 B = 8 doubles).
LINE_SIZE = 64


def _distinct_cols_bytes(cols: np.ndarray) -> int:
    """Distinct-column footprint of a thread's x accesses, in bytes.

    Counted at cache-line granularity: the gather pulls whole 64-byte
    lines, so a thread touching scattered columns moves up to 8x the
    useful bytes.  This is the effect that keeps the compressed
    formats' bus savings from translating 1:1 into speedup (both
    formats pay the same x-line traffic), as the paper's sub-2x
    multithreaded gains reflect.  Distinct lines are counted exactly
    with a boolean mask over line ids (``ncols / 8`` bytes), not by
    hashing.
    """
    if cols.size == 0:
        return 0
    lines = np.asarray(cols, dtype=np.intp) // (LINE_SIZE // VALUE_SIZE)
    seen = np.zeros(int(lines.max()) + 1, dtype=bool)
    seen[lines] = True
    return int(np.count_nonzero(seen)) * LINE_SIZE


def _nonempty_rows(row_ptr: np.ndarray, lo: int, hi: int) -> int:
    seg = np.asarray(row_ptr[lo : hi + 1], dtype=np.int64)
    return int(np.count_nonzero(np.diff(seg) > 0))


def _row_ptr_of(matrix: SparseMatrix) -> np.ndarray:
    """Row offsets for partitioning, for any supported format."""
    if isinstance(matrix, (CSRMatrix, CSRVIMatrix)):
        return matrix.row_ptr.astype(np.int64)
    if isinstance(matrix, (CSRDUMatrix, CSRDUVIMatrix)):
        return matrix.units.row_ptr(matrix.nrows)
    if isinstance(matrix, DCSRMatrix):
        return matrix.decoded.row_ptr.astype(np.int64)
    raise MachineModelError(
        f"traffic analysis does not support {type(matrix).__name__}"
    )


def analyze_threads(
    matrix: SparseMatrix, nthreads: int
) -> tuple[RowPartition, list[ThreadWork]]:
    """Partition *matrix* across *nthreads* and account each thread's work."""
    if nthreads < 1:
        raise MachineModelError(f"nthreads must be >= 1, got {nthreads}")
    row_ptr = _row_ptr_of(matrix)
    part = row_partition(row_ptr, nthreads)
    works = []
    for t in range(nthreads):
        lo, hi = part.rows_of(t)
        works.append(_thread_work(matrix, row_ptr, t, lo, hi))
    return part, works


def _thread_work(
    matrix: SparseMatrix, row_ptr: np.ndarray, t: int, lo: int, hi: int
) -> ThreadWork:
    e_lo, e_hi = int(row_ptr[lo]), int(row_ptr[hi])
    nnz_t = e_hi - e_lo
    rows_assigned = hi - lo
    rows_ne = _nonempty_rows(row_ptr, lo, hi)
    y_bytes = rows_assigned * VALUE_SIZE
    index_size = 4

    if isinstance(matrix, CSRMatrix):
        cols = matrix.col_ind[e_lo:e_hi]
        index_size = matrix.col_ind.dtype.itemsize
        return ThreadWork(
            thread=t,
            format_name="csr",
            nnz=nnz_t,
            rows_assigned=rows_assigned,
            rows_nonempty=rows_ne,
            private_bytes={
                "row_ptr": (rows_assigned + 1) * matrix.row_ptr.dtype.itemsize,
                "col_ind": nnz_t * index_size,
                "values": nnz_t * VALUE_SIZE,
                "y": y_bytes,
            },
            shared_bytes={"x": _distinct_cols_bytes(cols)},
        )

    if isinstance(matrix, CSRVIMatrix):
        cols = matrix.col_ind[e_lo:e_hi]
        return ThreadWork(
            thread=t,
            format_name="csr-vi",
            nnz=nnz_t,
            rows_assigned=rows_assigned,
            rows_nonempty=rows_ne,
            private_bytes={
                "row_ptr": (rows_assigned + 1) * matrix.row_ptr.dtype.itemsize,
                "col_ind": nnz_t * matrix.col_ind.dtype.itemsize,
                "val_ind": nnz_t * matrix.val_ind.dtype.itemsize,
                "y": y_bytes,
            },
            shared_bytes={
                "x": _distinct_cols_bytes(cols),
                "vals_unique": matrix.vals_unique.nbytes,
            },
        )

    if isinstance(matrix, (CSRDUMatrix, CSRDUVIMatrix)):
        du = matrix.units
        u_lo = int(np.searchsorted(du.rows, lo, side="left"))
        u_hi = int(np.searchsorted(du.rows, hi, side="left"))
        ctl_bytes = int(du.ctl_offsets[u_hi] - du.ctl_offsets[u_lo])
        seq_mask = du.seq[u_lo:u_hi]
        seq_units = int(np.count_nonzero(seq_mask))
        seq_elements = int(du.sizes[u_lo:u_hi][seq_mask].sum())
        cols = du.columns[int(du.offsets[u_lo]) : int(du.offsets[u_hi])]
        if isinstance(matrix, CSRDUVIMatrix):
            private = {
                "ctl": ctl_bytes,
                "val_ind": nnz_t * matrix.val_ind.dtype.itemsize,
                "y": y_bytes,
            }
            shared = {
                "x": _distinct_cols_bytes(cols),
                "vals_unique": matrix.vals_unique.nbytes,
            }
            fmt = "csr-du-vi"
        else:
            private = {
                "ctl": ctl_bytes,
                "values": nnz_t * VALUE_SIZE,
                "y": y_bytes,
            }
            shared = {"x": _distinct_cols_bytes(cols)}
            fmt = "csr-du"
        return ThreadWork(
            thread=t,
            format_name=fmt,
            nnz=nnz_t,
            rows_assigned=rows_assigned,
            rows_nonempty=rows_ne,
            private_bytes=private,
            shared_bytes=shared,
            units=u_hi - u_lo,
            seq_units=seq_units,
            seq_elements=seq_elements,
        )

    if isinstance(matrix, DCSRMatrix):
        dec = matrix.decoded
        cols = dec.columns[e_lo:e_hi]
        # Exact per-thread stream: re-encode the thread's row slice (the
        # stream is row-aligned, so the slice encodes identically except
        # possibly a cheaper leading row command).
        sub_ptr = dec.row_ptr[lo : hi + 1] - dec.row_ptr[lo]
        sub_stream = encode_dcsr(sub_ptr, cols)
        commands = _count_dcsr_commands(sub_stream)
        return ThreadWork(
            thread=t,
            format_name="dcsr",
            nnz=nnz_t,
            rows_assigned=rows_assigned,
            rows_nonempty=rows_ne,
            private_bytes={
                "stream": len(sub_stream),
                "values": nnz_t * VALUE_SIZE,
                "y": y_bytes,
            },
            shared_bytes={"x": _distinct_cols_bytes(cols)},
            commands=commands,
        )

    raise MachineModelError(
        f"traffic analysis does not support {type(matrix).__name__}"
    )


def _count_dcsr_commands(stream: bytes) -> int:
    from repro.formats.dcsr import (
        CMD_DELTA8,
        CMD_DELTA16,
        CMD_DELTA32,
        CMD_NEWROW,
        CMD_ROWJMP,
        CMD_RUN8,
    )
    from repro.util.bitops import decode_varint

    pos = 0
    n = len(stream)
    commands = 0
    while pos < n:
        cmd = stream[pos]
        pos += 1
        commands += 1
        if cmd == CMD_NEWROW:
            pass
        elif cmd == CMD_ROWJMP:
            _, pos = decode_varint(stream, pos)
        elif cmd == CMD_DELTA8:
            pos += 1
        elif cmd == CMD_DELTA16:
            pos += 2
        elif cmd == CMD_DELTA32:
            pos += 4
        elif cmd == CMD_RUN8:
            pos += 1 + stream[pos]
        else:
            raise MachineModelError(f"unknown DCSR command {cmd}")
    return commands
