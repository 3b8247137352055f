"""DCSR: the Willcock & Lumsdaine delta-compression baseline [19].

The paper's related-work comparison (Section III-B) is against DCSR,
which encodes the matrix as a stream of *six command codes* for
primitive sub-operations, each followed by its operands.  Our encoding
keeps that fine-grained byte-oriented character (that is what produces
the frequent hard-to-predict dispatch branches the paper criticizes --
and what the machine model charges a per-command branch penalty for):

====  =========  =============================================
code  operands   meaning
====  =========  =============================================
0     --         NEWROW: advance one row, reset column to 0
1     varint     ROWJMP: advance ``1 + varint`` rows (empty rows)
2     u8         DELTA8: one element, 1-byte column delta
3     u16        DELTA16: one element, 2-byte column delta
4     u32        DELTA32: one element, 4-byte column delta
5     u8, u8*n   RUN8: ``n`` elements with 1-byte deltas each
====  =========  =============================================

DELTA* deltas are the distance from the previous column (from column 0
at a row start), exactly as in CSR-DU; RUN8 amortizes the command byte
over a run of small deltas (the "unrolling" flavor of [19] that groups
frequent sub-operation instances).

The comparison the benchmarks draw: DCSR compresses about as well as
CSR-DU (sometimes slightly better -- no 1-byte ``usize`` per unit), but
pays a dispatch branch per *command* instead of per *unit*, which the
cost model turns into the performance gap Section III-B describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from repro.errors import EncodingError, FormatError
from repro.formats.base import SparseMatrix, Storage
from repro.formats.csr import CSRMatrix
from repro.nputil.segops import segmented_reduce
from repro.util.bitops import decode_varint, encode_varint
from repro.util.validation import as_value_array

CMD_NEWROW = 0
CMD_ROWJMP = 1
CMD_DELTA8 = 2
CMD_DELTA16 = 3
CMD_DELTA32 = 4
CMD_RUN8 = 5

#: Minimum run length for which RUN8 beats individual DELTA8 commands
#: (RUN8 costs 2 + n bytes; n DELTA8 commands cost 2n bytes).
MIN_RUN = 3

MAX_RUN = 255


@dataclass(frozen=True)
class DecodedDCSR:
    """Structure-of-arrays decode of a DCSR stream (cached per matrix).

    ``command_count`` drives the cost model's branch accounting.
    """

    row_ptr: np.ndarray
    columns: np.ndarray
    command_count: int
    run_count: int


def encode_dcsr(row_ptr: np.ndarray, col_ind: np.ndarray) -> bytes:
    """Encode CSR structure into a DCSR command stream."""
    out = bytearray()
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    col_ind = np.asarray(col_ind, dtype=np.int64)
    pending_rows = 0
    for row in range(row_ptr.size - 1):
        start, stop = int(row_ptr[row]), int(row_ptr[row + 1])
        if start == stop:
            pending_rows += 1
            continue
        if pending_rows == 0:
            out.append(CMD_NEWROW)
        else:
            out.append(CMD_ROWJMP)
            encode_varint(pending_rows, out)
        pending_rows = 0
        cols = col_ind[start:stop]
        deltas = np.empty(cols.size, dtype=np.int64)
        deltas[0] = cols[0]
        np.subtract(cols[1:], cols[:-1], out=deltas[1:])
        if deltas.size > 1 and int(deltas[1:].min()) <= 0:
            raise EncodingError("row columns must be strictly increasing")
        small = deltas < 256
        k = 0
        n = deltas.size
        while k < n:
            if small[k]:
                run_end = k
                while run_end < n and small[run_end] and run_end - k < MAX_RUN:
                    run_end += 1
                length = run_end - k
                if length >= MIN_RUN:
                    out.append(CMD_RUN8)
                    out.append(length)
                    out += deltas[k:run_end].astype(np.uint8).tobytes()
                    k = run_end
                    continue
                out.append(CMD_DELTA8)
                out.append(int(deltas[k]))
                k += 1
            elif deltas[k] < 1 << 16:
                out.append(CMD_DELTA16)
                out += int(deltas[k]).to_bytes(2, "little")
                k += 1
            elif deltas[k] < 1 << 32:
                out.append(CMD_DELTA32)
                out += int(deltas[k]).to_bytes(4, "little")
                k += 1
            else:
                raise EncodingError(f"delta {int(deltas[k])} exceeds 32 bits")
    return bytes(out)


def decode_dcsr(stream: bytes, nrows: int, nnz: int) -> DecodedDCSR:
    """Decode a DCSR command stream back to CSR structure."""
    cols: list[int] = []
    row_counts = np.zeros(nrows, dtype=np.int64)
    row = -1
    col = 0
    pos = 0
    n = len(stream)
    commands = 0
    runs = 0
    count_in_row = 0

    def flush_row() -> None:
        if row >= 0:
            row_counts[row] = count_in_row

    while pos < n:
        cmd = stream[pos]
        pos += 1
        commands += 1
        if cmd in (CMD_NEWROW, CMD_ROWJMP):
            flush_row()
            jump = 1
            if cmd == CMD_ROWJMP:
                extra, pos = decode_varint(stream, pos)
                jump += extra
            row += jump
            if row >= nrows:
                raise EncodingError(f"DCSR stream reaches row {row} >= nrows {nrows}")
            col = 0
            count_in_row = 0
        elif cmd == CMD_DELTA8:
            if pos >= n:
                raise EncodingError("truncated DELTA8")
            col += stream[pos]
            pos += 1
            cols.append(col)
            count_in_row += 1
        elif cmd == CMD_DELTA16:
            if pos + 2 > n:
                raise EncodingError("truncated DELTA16")
            col += int.from_bytes(stream[pos : pos + 2], "little")
            pos += 2
            cols.append(col)
            count_in_row += 1
        elif cmd == CMD_DELTA32:
            if pos + 4 > n:
                raise EncodingError("truncated DELTA32")
            col += int.from_bytes(stream[pos : pos + 4], "little")
            pos += 4
            cols.append(col)
            count_in_row += 1
        elif cmd == CMD_RUN8:
            if pos >= n:
                raise EncodingError("truncated RUN8 header")
            length = stream[pos]
            pos += 1
            if length == 0:
                raise EncodingError("RUN8 with zero length is invalid")
            if pos + length > n:
                raise EncodingError("truncated RUN8 body")
            deltas = np.frombuffer(stream, dtype=np.uint8, count=length, offset=pos)
            pos += length
            run_cols = col + np.cumsum(deltas.astype(np.int64))
            col = int(run_cols[-1])
            cols.extend(run_cols.tolist())
            count_in_row += length
            runs += 1
        else:
            raise EncodingError(f"unknown DCSR command {cmd}")
    flush_row()
    if len(cols) != nnz:
        raise EncodingError(f"DCSR stream decodes {len(cols)} nonzeros, expected {nnz}")
    row_ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(row_counts, out=row_ptr[1:])
    return DecodedDCSR(
        row_ptr=row_ptr,
        columns=np.asarray(cols, dtype=np.int64),
        command_count=commands,
        run_count=runs,
    )


class DCSRMatrix(SparseMatrix):
    """Delta-Compressed Sparse Row matrix (baseline from [19])."""

    name = "dcsr"

    def __init__(self, nrows: int, ncols: int, stream: bytes, values):
        super().__init__(nrows, ncols)
        if not isinstance(stream, (bytes, bytearray)):
            raise FormatError(f"stream must be bytes, got {type(stream).__name__}")
        self.stream = bytes(stream)
        self.values = as_value_array(values, "values")

    @cached_property
    def decoded(self) -> DecodedDCSR:
        dec = decode_dcsr(self.stream, self.nrows, self.values.size)
        if dec.columns.size and int(dec.columns.max()) >= self.ncols:
            raise FormatError("DCSR stream reaches a column beyond ncols")
        return dec

    @property
    def nnz(self) -> int:
        return self.values.size

    @property
    def command_count(self) -> int:
        """Commands in the stream -- each is a dispatch branch at run time."""
        return self.decoded.command_count

    def storage(self) -> Storage:
        return Storage(index_bytes=len(self.stream), value_bytes=self.values.nbytes)

    def iter_entries(self) -> Iterator[tuple[int, int, float]]:
        dec = self.decoded
        rows = np.repeat(
            np.arange(self.nrows), np.diff(dec.row_ptr).astype(np.int64)
        )
        for i, j, v in zip(rows.tolist(), dec.columns.tolist(), self.values.tolist()):
            yield i, j, v

    def spmv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise FormatError(f"x has shape {x.shape}, expected ({self.ncols},)")
        dec = self.decoded
        products = self.values * x[dec.columns]
        y = segmented_reduce(products, dec.row_ptr)
        if out is not None:
            out[:] = y
            return out
        return y

    @classmethod
    def from_csr(cls, csr: CSRMatrix) -> "DCSRMatrix":
        stream = encode_dcsr(csr.row_ptr, csr.col_ind)
        return cls(csr.nrows, csr.ncols, stream, csr.values)

    def to_csr(self) -> CSRMatrix:
        dec = self.decoded
        return CSRMatrix(
            self.nrows,
            self.ncols,
            dec.row_ptr.astype(np.int32),
            dec.columns.astype(np.int32),
            self.values,
        )
