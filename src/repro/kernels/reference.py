"""Reference SpMV kernels -- the paper's pseudocode, line for line.

These are the ground truth the formats' plan-backed ``spmv`` and the
cost model are validated against, and the last tier of every guarded
fallback chain (:mod:`repro.kernels.registry`).  They are pure Python (slow, tests-and-small-
matrices only) and deliberately mirror the listings in the paper:

* :func:`spmv_csr_reference` -- the CSR loop of Section II-B;
* :func:`spmv_csr_du_reference` -- Fig. 3 (ctl byte stream decode);
* :func:`spmv_csr_vi_reference` -- Fig. 5 (value indirection);
* :func:`spmv_csr_du_vi_reference` -- Fig. 3 over Fig. 5's values;
* :func:`spmv_dcsr_reference` -- the command-dispatch loop of [19].

Each kernel also returns an *operation census* via an optional
``counters`` dict: per-unit / per-command dispatch counts and per-class
element counts.  The machine cost model is defined over exactly these
counters, so the tests can pin the model to what the kernels really do.
"""

from __future__ import annotations

import numpy as np

from repro.compress.ctl import FLAG_NR, FLAG_RJMP, FLAG_SEQ
from repro.errors import EncodingError, FormatError
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_du_vi import CSRDUVIMatrix
from repro.formats.csr_vi import CSRVIMatrix
from repro.formats.dcsr import (
    CMD_DELTA8,
    CMD_DELTA16,
    CMD_DELTA32,
    CMD_NEWROW,
    CMD_ROWJMP,
    CMD_RUN8,
    DCSRMatrix,
)
from repro.util.bitops import WIDTH_BYTES, decode_varint


def spmv_csr_reference(
    matrix: CSRMatrix, x: np.ndarray, counters: dict | None = None
) -> np.ndarray:
    """The paper's CSR kernel (Section II-B)::

        for (i=0; i<N; i++)
            for (j=row_ptr[i]; j<row_ptr[i+1]; j++)
                y[i] += values[j]*x[col_ind[j]];

    With the paper's stated optimization of keeping ``y[i]`` in a
    register until the end of the inner loop.
    """
    row_ptr, col_ind, values = matrix.row_ptr, matrix.col_ind, matrix.values
    y = np.zeros(matrix.nrows, dtype=np.float64)
    rows = 0
    for i in range(matrix.nrows):
        acc = 0.0
        lo, hi = int(row_ptr[i]), int(row_ptr[i + 1])
        if lo != hi:
            rows += 1
        for j in range(lo, hi):
            acc += values[j] * x[col_ind[j]]
        y[i] = acc
    if counters is not None:
        counters["elements"] = matrix.nnz
        counters["rows"] = rows
    return y


def spmv_csr_du_reference(
    matrix: CSRDUMatrix, x: np.ndarray, counters: dict | None = None
) -> np.ndarray:
    """Fig. 3 of the paper: decode the ctl stream unit by unit.

    The structure matches the listing: read ``uflags``/``usize``, handle
    the new-row flag, add the ``ujmp`` distance, then run the per-class
    inner multiplication loop over the fixed-width deltas.
    """
    return _csr_du_walk(matrix.ctl, matrix.values, matrix.nrows, x, counters)


def spmv_csr_du_vi_reference(
    matrix: CSRDUVIMatrix, x: np.ndarray, counters: dict | None = None
) -> np.ndarray:
    """CSR-DU-VI: the Fig. 3 ctl decode over ``vals_unique[val_ind]``.

    The value gather happens once up front; the multiply loop, and so
    the per-row accumulation order, is exactly the CSR-DU kernel's.
    """
    values = matrix.vals_unique[matrix.val_ind]
    return _csr_du_walk(matrix.ctl, values, matrix.nrows, x, counters)


def _csr_du_walk(
    ctl: bytes,
    values: np.ndarray,
    nrows: int,
    x: np.ndarray,
    counters: dict | None,
) -> np.ndarray:
    y = np.zeros(nrows, dtype=np.float64)
    pos = 0
    vidx = 0
    y_indx = -1
    x_indx = 0
    n = len(ctl)
    units = 0
    class_elems = [0, 0, 0, 0]
    try:
        while pos < n:
            if pos + 2 > n:
                raise EncodingError("truncated unit header")
            uflags = ctl[pos]
            usize = ctl[pos + 1]
            pos += 2
            units += 1
            if uflags & FLAG_NR:
                jump = 1
                if uflags & FLAG_RJMP:
                    extra, pos = decode_varint(ctl, pos)
                    jump += extra
                y_indx += jump
                x_indx = 0
            ujmp, pos = decode_varint(ctl, pos)
            x_indx += ujmp
            cls = uflags & 0x03
            width = WIDTH_BYTES[cls]
            class_elems[cls] += usize
            acc = y[y_indx]
            if uflags & FLAG_SEQ:
                stride, pos = decode_varint(ctl, pos)
                remaining = usize
                while True:
                    acc += values[vidx] * x[x_indx]
                    vidx += 1
                    remaining -= 1
                    if remaining == 0:
                        break
                    x_indx += stride
            else:
                if pos + (usize - 1) * width > n:
                    # A short slice below would silently read a smaller
                    # delta instead of failing; reject the stream up front.
                    raise EncodingError("truncated fixed-width run")
                remaining = usize
                while True:
                    acc += values[vidx] * x[x_indx]
                    vidx += 1
                    remaining -= 1
                    if remaining == 0:
                        break
                    x_indx += int.from_bytes(ctl[pos : pos + width], "little")
                    pos += width
            y[y_indx] = acc
    except (IndexError, OverflowError) as exc:
        # Python ints never wrap, so a stream that steps past x, y or
        # the values ends here (a u64 delta of 2**63 or more included).
        raise FormatError(f"ctl stream indexes outside the matrix: {exc}") from exc
    if vidx != values.size:
        raise EncodingError(f"decoded {vidx} elements, expected {values.size}")
    if counters is not None:
        counters["units"] = units
        counters["elements"] = vidx
        counters["class_elements"] = class_elems
    return y


def spmv_csr_vi_reference(
    matrix: CSRVIMatrix, x: np.ndarray, counters: dict | None = None
) -> np.ndarray:
    """Fig. 5 of the paper::

        for(i=0; i<N; i++)
            for(j=row_ptr[i]; j<row_ptr[i+1]; j++){
                val = vals_unique[val_ind[j]];
                y[i] += val*x[col_ind[j]];
            }
    """
    row_ptr, col_ind = matrix.row_ptr, matrix.col_ind
    vals_unique, val_ind = matrix.vals_unique, matrix.val_ind
    y = np.zeros(matrix.nrows, dtype=np.float64)
    for i in range(matrix.nrows):
        acc = 0.0
        for j in range(int(row_ptr[i]), int(row_ptr[i + 1])):
            val = vals_unique[val_ind[j]]
            acc += val * x[col_ind[j]]
        y[i] = acc
    if counters is not None:
        counters["elements"] = matrix.nnz
        counters["indirections"] = matrix.nnz
    return y


def spmv_dcsr_reference(
    matrix: DCSRMatrix, x: np.ndarray, counters: dict | None = None
) -> np.ndarray:
    """Command-dispatch SpMV over the DCSR stream of [19].

    Every iteration decodes one command byte and branches on it -- the
    fine-grained dispatch the paper's Section III-B identifies as
    DCSR's weakness.
    """
    stream = matrix.stream
    values = matrix.values
    y = np.zeros(matrix.nrows, dtype=np.float64)
    pos = 0
    vidx = 0
    row = -1
    col = 0
    n = len(stream)
    commands = 0
    while pos < n:
        cmd = stream[pos]
        pos += 1
        commands += 1
        if cmd == CMD_NEWROW:
            row += 1
            col = 0
        elif cmd == CMD_ROWJMP:
            extra, pos = decode_varint(stream, pos)
            row += 1 + extra
            col = 0
        elif cmd == CMD_DELTA8:
            col += stream[pos]
            pos += 1
            y[row] += values[vidx] * x[col]
            vidx += 1
        elif cmd == CMD_DELTA16:
            col += int.from_bytes(stream[pos : pos + 2], "little")
            pos += 2
            y[row] += values[vidx] * x[col]
            vidx += 1
        elif cmd == CMD_DELTA32:
            col += int.from_bytes(stream[pos : pos + 4], "little")
            pos += 4
            y[row] += values[vidx] * x[col]
            vidx += 1
        elif cmd == CMD_RUN8:
            length = stream[pos]
            pos += 1
            acc = y[row]
            for _ in range(length):
                col += stream[pos]
                pos += 1
                acc += values[vidx] * x[col]
                vidx += 1
            y[row] = acc
        else:
            raise EncodingError(f"unknown DCSR command {cmd}")
    if vidx != values.size:
        raise EncodingError(f"decoded {vidx} elements, expected {values.size}")
    if counters is not None:
        counters["commands"] = commands
        counters["elements"] = vidx
    return y
