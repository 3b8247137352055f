"""Structural feature extraction: one cheap pass, one hashable record.

Everything the cost model needs to rank configurations without
converting the matrix to any compressed format:

* row-length statistics (mean/stdev/max nnz per row, empty rows) --
  the partitioner-balance and per-row-overhead signals;
* the delta-width histogram over the exact per-element column deltas
  CSR-DU would encode (:func:`repro.compress.delta.matrix_deltas`, the
  same vectorized pass the encoder itself starts from) plus an
  estimate of the unit count the greedy splitter would produce -- the
  ctl-stream-size and per-unit-overhead signals;
* the unique-value ratio (``ttu``, the paper's CSR-VI applicability
  criterion) via the same sort-based unique the encoder uses;
* diagonal fraction and normalized mean bandwidth -- locality signals
  for the x-gather;
* density.

The whole extraction is vectorized: one ``matrix_deltas`` pass
(``O(nnz)``), one ``np.unique`` (``O(nnz log nnz)``, the only
super-linear step, identical to what a CSR-VI encode would pay), and a
handful of reductions.  No Python-level per-element loop runs.

:class:`MatrixFeatures` is frozen and hashable so callers can memoize
advice per matrix (``{features: choice}``) and so it can serve as a
cache key across the bench harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compress.delta import MAX_UNIT_SIZE, matrix_deltas
from repro.formats.base import SparseMatrix
from repro.formats.conversions import to_csr

__all__ = ["MatrixFeatures", "extract_features"]


@dataclass(frozen=True)
class MatrixFeatures:
    """Structural summary of one matrix (frozen, hashable).

    ``delta_hist`` counts column deltas by CSR-DU width class
    (u8/u16/u32/u64, row-opening deltas measured from column 0 exactly
    as the encoder does).  ``units_est`` estimates the greedy
    splitter's unit count from class-change run boundaries and the
    255-element size cap -- an estimate, not the encoder's exact count
    (greedy singleton-stealing is approximated), documented to land
    within a few percent on the catalog.  ``ttu`` is the paper's
    total-to-unique value ratio; ``bandwidth_mean`` is the mean
    ``|col - row|`` normalized by the column count (0 for a pure
    diagonal, ~1/3 for a dense matrix).
    """

    nrows: int
    ncols: int
    nnz: int
    density: float
    nnz_row_mean: float
    nnz_row_std: float
    nnz_row_max: int
    empty_rows: int
    delta_hist: tuple[int, int, int, int]
    units_est: int
    ttu: float
    unique_values: int
    diag_fraction: float
    bandwidth_mean: float


def _estimated_units(
    classes: np.ndarray, starts: np.ndarray, nnz: int
) -> int:
    """Greedy-splitter unit count estimate from one vectorized pass.

    A unit boundary falls wherever the width class changes or a row
    opens; runs longer than the 255-element cap split further.  The
    greedy policy additionally *steals* a singleton run as the next
    unit's opening varint -- approximated here by discounting singleton
    runs that have a same-row successor (alternating singletons merge
    only pairwise, so this over-corrects slightly on pathological
    checkerboard delta patterns; the exact count is only known after a
    real encode).
    """
    if nnz == 0:
        return 0
    is_start = np.zeros(nnz, dtype=bool)
    is_start[starts] = True
    run_open = is_start.copy()
    if nnz > 1:
        run_open[1:] |= (classes[1:] != classes[:-1]) & ~is_start[1:]
    run_starts = np.flatnonzero(run_open)
    run_lengths = np.diff(np.append(run_starts, nnz))
    units = int(np.sum((run_lengths + MAX_UNIT_SIZE - 1) // MAX_UNIT_SIZE))
    # Singleton runs followed by another run of the *same row* vanish
    # into that run's opening varint under the greedy policy.
    if run_starts.size > 1:
        singleton = run_lengths[:-1] == 1
        successor_same_row = ~is_start[run_starts[1:]]
        units -= int(np.count_nonzero(singleton & successor_same_row))
    return max(units, int(starts.size))


def extract_features(matrix: SparseMatrix) -> MatrixFeatures:
    """One cheap pass over *matrix* (converted to CSR if it is not).

    The conversion is free for CSR input and is the same ``to_csr``
    every executor already performs; callers holding an exotic format
    pay one decode, never a compressed re-encode.
    """
    csr = to_csr(matrix)
    nrows, ncols, nnz = int(csr.nrows), int(csr.ncols), int(csr.nnz)
    row_ptr = np.asarray(csr.row_ptr, dtype=np.int64)
    col_ind = np.asarray(csr.col_ind, dtype=np.int64)
    row_lengths = np.diff(row_ptr)
    empty_rows = int(np.count_nonzero(row_lengths == 0)) if nrows else 0

    deltas, classes, starts = matrix_deltas(row_ptr, col_ind)
    del deltas  # only the classes and run structure matter here
    hist = [0, 0, 0, 0]
    if nnz:
        counts = np.bincount(classes, minlength=4)
        hist = [int(c) for c in counts[:4]]

    if nnz:
        values = np.asarray(csr.values)
        unique_values = int(np.unique(values).size)
        ttu = nnz / unique_values
        rows_of = np.repeat(
            np.arange(nrows, dtype=np.int64), row_lengths
        )
        diag_fraction = float(np.count_nonzero(col_ind == rows_of) / nnz)
        spread = np.abs(col_ind - rows_of)
        bandwidth_mean = float(spread.mean() / max(1, ncols - 1))
        nnz_row_mean = float(row_lengths.mean())
        nnz_row_std = float(row_lengths.std())
        nnz_row_max = int(row_lengths.max())
    else:
        unique_values = 0
        ttu = 0.0
        diag_fraction = 0.0
        bandwidth_mean = 0.0
        nnz_row_mean = nnz_row_std = 0.0
        nnz_row_max = 0

    return MatrixFeatures(
        nrows=nrows,
        ncols=ncols,
        nnz=nnz,
        density=nnz / (nrows * ncols) if nrows and ncols else 0.0,
        nnz_row_mean=nnz_row_mean,
        nnz_row_std=nnz_row_std,
        nnz_row_max=nnz_row_max,
        empty_rows=empty_rows,
        delta_hist=(hist[0], hist[1], hist[2], hist[3]),
        units_est=_estimated_units(classes, starts, nnz),
        ttu=float(ttu),
        unique_values=unique_values,
        diag_fraction=diag_fraction,
        bandwidth_mean=bandwidth_mean,
    )
