"""Segmented array operations.

A *segmentation* of a length-``n`` array is given CSR-style by an offsets
array ``off`` of length ``nseg + 1`` with ``off[0] == 0``,
``off[-1] == n`` and ``off`` non-decreasing; segment ``s`` is the slice
``[off[s], off[s+1])``.  Empty segments are allowed everywhere -- sparse
matrices have empty rows, and every helper here is tested against them.

These primitives are the substrate of the vectorized SpMV kernels: the
CSR and CSR-VI plans reduce rows with a :class:`SegmentedReducer` over
``row_ptr``, and DCSR's kernel calls :func:`segmented_reduce` over the
row pointer its command stream decodes to.  (CSR-DU's delta decoding is
not segmented here: :class:`~repro.compress.unit_table.BatchedColumnDecoder`
does it.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import FormatError


def _check_offsets(offsets: np.ndarray, n: int) -> np.ndarray:
    offsets = np.asarray(offsets)
    if offsets.ndim != 1 or offsets.size == 0:
        raise FormatError("offsets must be a non-empty 1-D array")
    if offsets[0] != 0 or offsets[-1] != n:
        raise FormatError(
            f"offsets must start at 0 and end at {n}, got [{offsets[0]}, {offsets[-1]}]"
        )
    if np.any(np.diff(offsets) < 0):
        raise FormatError("offsets must be non-decreasing")
    return offsets


def segment_lengths(offsets: np.ndarray) -> np.ndarray:
    """Lengths of each segment: ``diff(offsets)``."""
    return np.diff(np.asarray(offsets))


def segment_ids_from_offsets(offsets: np.ndarray, n: int) -> np.ndarray:
    """Expand CSR-style *offsets* into a per-element segment-id array.

    >>> segment_ids_from_offsets(np.array([0, 2, 2, 5]), 5).tolist()
    [0, 0, 2, 2, 2]
    """
    offsets = _check_offsets(offsets, n)
    nseg = offsets.size - 1
    return np.repeat(np.arange(nseg, dtype=np.intp), segment_lengths(offsets))


def segmented_reduce(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of each segment; empty segments contribute ``0``.

    This is ``np.add.reduceat`` made safe for empty segments (reduceat's
    documented behaviour for an empty slice is to return the *single
    element at the start index*, which is wrong for our purposes).

    >>> segmented_reduce(np.array([1., 2., 3.]), np.array([0, 2, 2, 3])).tolist()
    [3.0, 0.0, 3.0]

    Callers reducing many value arrays over one fixed segmentation (the
    SpMV hot path) should build a :class:`SegmentedReducer` once instead:
    it validates the offsets a single time and skips the per-call dtype
    normalization done here.
    """
    values = np.asarray(values)
    offsets = _check_offsets(offsets, values.size)
    nseg = offsets.size - 1
    out_dtype = values.dtype if values.dtype.kind == "f" else np.result_type(values.dtype, np.int64)
    if nseg == 0:
        return np.empty(0, dtype=out_dtype)
    if values.size == 0:
        return np.zeros(nseg, dtype=out_dtype)
    starts = np.asarray(offsets[:-1], dtype=np.intp)
    lens = segment_lengths(offsets)
    out = np.zeros(nseg, dtype=out_dtype)
    nonempty = lens > 0
    if not np.any(nonempty):
        return out
    # reduceat over the starts of non-empty segments only, then scatter.
    ne_starts = starts[nonempty]
    vals = values if values.dtype == out_dtype else values.astype(out_dtype)
    reduced = np.add.reduceat(vals, ne_starts)
    out[nonempty] = reduced
    return out


class SegmentedReducer:
    """Pre-validated segmented sum over one fixed offsets array.

    The constructor does everything :func:`segmented_reduce` does per
    call that depends only on the segmentation -- offsets validation,
    the non-empty-segment scan, the ``intp`` cast of the reduceat start
    indices -- so each :meth:`reduce` is just a ``reduceat`` plus (when
    empty segments exist) a scatter.  This is the fast-path entry point
    the SpMV kernel plans use: one reducer per matrix, one call per
    SpMV iteration.

    ``reduce`` takes the 1-D SpMV products.  The caller guarantees
    ``values.shape == (self.n,)`` and a float dtype; neither is
    re-checked here.
    """

    __slots__ = ("n", "nseg", "_ne_starts", "_nonempty", "_all_nonempty")

    def __init__(self, offsets: np.ndarray, n: int | None = None):
        offsets = np.asarray(offsets)
        if n is None:
            n = int(offsets[-1]) if offsets.size else 0
        offsets = _check_offsets(offsets, n)
        self.n = int(n)
        self.nseg = offsets.size - 1
        lens = np.diff(offsets)
        nonempty = np.asarray(lens > 0)
        self._all_nonempty = bool(nonempty.all()) if self.nseg else True
        self._nonempty = nonempty
        self._ne_starts = np.asarray(offsets[:-1], dtype=np.intp)[nonempty]

    def reduce(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Per-segment sums of the 1-D *values*.

        With ``out=`` the result is written in place (the whole buffer
        is overwritten, empty segments included) and returned.
        """
        if self._ne_starts.size == 0:
            if out is None:
                return np.zeros(self.nseg, dtype=values.dtype)
            out[...] = 0
            return out
        reduced = np.add.reduceat(values, self._ne_starts)
        if self._all_nonempty:
            if out is None:
                return reduced
            np.copyto(out, reduced)
            return out
        if out is None:
            out = np.zeros(self.nseg, dtype=values.dtype)
        else:
            out[...] = 0
        out[self._nonempty] = reduced
        return out
