"""Structure-of-arrays unit table and width-class batched ctl decode.

A CSR-DU kernel that walks the ctl stream unit by unit in Python (as
the paper's Fig. 3 listing, :func:`repro.kernels.reference.
spmv_csr_du_reference`, does) pays one interpreter loop iteration *per
unit*: for a million-nonzero matrix with ~8-element units that is ~125k
interpreter round-trips per SpMV, so its throughput floor is the
interpreter, not memory bandwidth -- the opposite of the regime the
paper reasons about.  This module removes that floor in two steps:

1. :func:`scan_units` walks the ctl byte stream **once** and records
   every unit's header fields -- flags, width class, size, absolute
   row, ``ujmp``, stride, and the byte offset of its fixed-width delta
   body -- into a :class:`UnitTable` (structure-of-arrays, one NumPy
   array per field).  The scan parses headers only; delta bodies are
   skipped, not decoded.

2. :class:`BatchedColumnDecoder` groups the units of a
   :class:`UnitTable` by *width class* (u8/u16/u32/u64, plus the
   SEQ-stride and singleton cases) and decodes each class with a
   constant number of vectorized passes: one byte gather over the ctl
   stream, one ``view`` at the class's fixed width, one cumulative sum
   restarted per unit (exact integer arithmetic), one scatter.  Total
   per-call work is O(#classes) NumPy operations over O(nnz) data --
   the same asymptotics a C decode loop has.

The decoder still re-reads every delta byte of the ctl stream and
recomputes all ``nnz`` column indices on every :meth:`~
BatchedColumnDecoder.columns` call; what is amortized across calls is
only the *variable-length header parse* (unit boundaries, varints),
which a C kernel resolves in a couple of cycles per unit but Python
cannot.  See DESIGN.md ("Kernel plans") for why this preserves the
paper's decode-on-the-fly timing semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compress.ctl import FLAG_NR, FLAG_RJMP, FLAG_SEQ, _KNOWN_MASK
from repro.errors import EncodingError
from repro.util.bitops import WIDTH_BYTES, WIDTH_DTYPES, decode_varint


@dataclass(frozen=True)
class UnitTable:
    """One ctl stream's unit headers, as parallel arrays.

    Attributes
    ----------
    flags, sizes, classes:
        Raw ``uflags`` byte, ``usize`` and width class of each unit.
    rows:
        Absolute row of each unit (NR/RJMP flags resolved).
    new_row, seq:
        First-of-row and sequential-unit masks.
    ujmps:
        Column distance of each unit's first nonzero from the previous
        nonzero (from column 0 at a row start).
    strides:
        Constant delta of sequential units (0 for plain units).
    body_offsets:
        Byte offset of each unit's fixed-width delta body in the ctl
        stream (the position right after the header varints; plain
        units own ``(usize - 1) * WIDTH_BYTES[cls]`` bytes there).
    ctl_offsets:
        Byte offset of each unit's header, plus the stream length as a
        final entry (``nunits + 1`` values) -- the per-thread ctl split
        points the paper's multithreaded CSR-DU needs.
    """

    flags: np.ndarray
    sizes: np.ndarray
    classes: np.ndarray
    rows: np.ndarray
    new_row: np.ndarray
    seq: np.ndarray
    ujmps: np.ndarray
    strides: np.ndarray
    body_offsets: np.ndarray
    ctl_offsets: np.ndarray

    @property
    def nunits(self) -> int:
        return self.sizes.size

    @property
    def nnz(self) -> int:
        return int(self.sizes.sum()) if self.sizes.size else 0


def scan_units(ctl: bytes) -> UnitTable:
    """Parse every unit header of *ctl* in one pass (bodies skipped).

    Raises :class:`~repro.errors.EncodingError` on the same malformed
    streams :class:`~repro.compress.ctl.CtlReader` rejects: truncated
    headers or bodies, unknown flag bits, zero unit sizes, RJMP without
    NR, and streams that do not open with a new-row unit.
    """
    n = len(ctl)
    pos = 0
    row = -1
    flags_l: list[int] = []
    sizes_l: list[int] = []
    rows_l: list[int] = []
    ujmps_l: list[int] = []
    strides_l: list[int] = []
    body_l: list[int] = []
    ctl_off: list[int] = []
    width_bytes = WIDTH_BYTES
    while pos < n:
        ctl_off.append(pos)
        if pos + 2 > n:
            raise EncodingError("truncated unit header")
        flags = ctl[pos]
        usize = ctl[pos + 1]
        pos += 2
        if flags & ~_KNOWN_MASK:
            raise EncodingError(f"unknown flag bits 0x{flags & ~_KNOWN_MASK:02x}")
        if usize == 0:
            raise EncodingError("unit size 0 is invalid")
        if flags & FLAG_NR:
            jump = 1
            if flags & FLAG_RJMP:
                extra, pos = decode_varint(ctl, pos)
                jump += extra
            row += jump
        else:
            if flags & FLAG_RJMP:
                raise EncodingError("RJMP flag without NR")
            if row < 0:
                raise EncodingError("stream does not start with a new-row unit")
        ujmp, pos = decode_varint(ctl, pos)
        if flags & FLAG_SEQ:
            stride, pos = decode_varint(ctl, pos)
            body = pos
        else:
            stride = 0
            body = pos
            pos += (usize - 1) * width_bytes[flags & 0x03]
            if pos > n:
                raise EncodingError("truncated fixed-width run")
        flags_l.append(flags)
        sizes_l.append(usize)
        rows_l.append(row)
        ujmps_l.append(ujmp)
        strides_l.append(stride)
        body_l.append(body)
    ctl_off.append(pos)
    flags_arr = np.asarray(flags_l, dtype=np.uint8)
    try:
        rows, ujmps, strides = (
            np.asarray(field, dtype=np.int64) for field in (rows_l, ujmps_l, strides_l)
        )
    except OverflowError as exc:
        raise EncodingError("unit header field exceeds the int64 range") from exc
    return UnitTable(
        flags=flags_arr,
        sizes=np.asarray(sizes_l, dtype=np.int64),
        classes=(flags_arr & 0x03).astype(np.int8),
        rows=rows,
        new_row=(flags_arr & FLAG_NR).astype(bool),
        seq=(flags_arr & FLAG_SEQ).astype(bool),
        ujmps=ujmps,
        strides=strides,
        body_offsets=np.asarray(body_l, dtype=np.int64),
        ctl_offsets=np.asarray(ctl_off, dtype=np.int64),
    )


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenated ``[start, start + len)`` ranges, as one int64 array.

    ``_ranges([3, 10], [2, 3]) == [3, 4, 10, 11, 12]``.  Zero-length
    ranges must be filtered out by the caller.
    """
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    if starts.size > 1:
        ends = np.cumsum(lens)
        out[ends[:-1]] = starts[1:] - (starts[:-1] + lens[:-1] - 1)
    return np.cumsum(out)


def _prefix_sums(deltas: np.ndarray) -> np.ndarray:
    """``[0, cumsum(deltas)]`` in int64 arithmetic.

    The explicit ``dtype`` keeps the sum in integers (left to itself,
    NumPy sums u64 deltas through float64).  A u64 delta of ``2**63`` or
    more wraps negative; kernel plans reject any stream whose
    :attr:`BatchedColumnDecoder.max_delta` reaches ``ncols``.
    """
    ext = np.empty(deltas.size + 1, dtype=np.int64)
    ext[0] = 0
    np.cumsum(deltas, dtype=np.int64, out=ext[1:])
    return ext


class _ClassGroup:
    """Per-call decode state for one width class's plain multi-delta units."""

    __slots__ = ("dtype", "body_index", "base_idx", "rest_pos", "firsts_rep")

    def __init__(self, dtype, body_index, base_idx, rest_pos, firsts_rep):
        self.dtype = dtype
        self.body_index = body_index  # byte gather index into the ctl stream
        self.base_idx = base_idx  # per delta: its unit's start in the class stream
        self.rest_pos = rest_pos  # per delta: global element position
        self.firsts_rep = firsts_rep  # per delta: its unit's first column


class BatchedColumnDecoder:
    """Width-class batched decode of a ctl stream's column indices.

    Built once per matrix (the *plan build*); :meth:`columns` then
    yields the absolute column index of every nonzero with O(#classes)
    NumPy passes.  It serves both the SpMV kernel and the machine
    model's unit view (:func:`repro.kernels.plan.plan_units`).  The
    integer arithmetic is exact, so the result is element-for-element
    identical to the unit-by-unit decode the tests hold it to
    (:func:`~repro.compress.ctl.decode_units`).

    Static structure -- sequential-unit ramps, singleton columns and
    every unit's first column -- is resolved at build time into a
    template; per call only the fixed-width delta bodies are re-read
    from the stream (they are the only per-element bytes the stream
    stores for plain units; SEQ units store a single stride varint
    that the header scan already consumed).

    ``first_cols``/``last_cols`` hold every unit's first and last
    column, and ``max_delta`` the largest delta in the stream (body
    deltas and SEQ strides): the bounds a plan checks against the
    matrix shape.
    """

    def __init__(self, ctl: bytes, table: UnitTable, nnz: int):
        self.table = table
        self._ctl_arr = np.frombuffer(ctl, dtype=np.uint8)
        sizes = table.sizes
        nunits = table.nunits
        offsets = np.zeros(nunits + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        if int(offsets[-1]) != nnz:
            raise EncodingError(
                f"ctl stream decodes {int(offsets[-1])} nonzeros, expected {nnz}"
            )
        self.offsets = offsets
        self.nnz = nnz

        plain = ~table.seq
        multi = plain & (sizes > 1)
        groups: list[_ClassGroup] = []
        delta_sums = np.zeros(nunits, dtype=np.int64)
        max_delta = 0
        for cls in range(4):
            sel = np.flatnonzero(multi & (table.classes == cls))
            if not sel.size:
                continue
            width = WIDTH_BYTES[cls]
            lens = sizes[sel] - 1
            body_index = _ranges(table.body_offsets[sel], lens * width)
            dstarts = np.zeros(sel.size, dtype=np.int64)
            np.cumsum(lens[:-1], out=dstarts[1:])
            rep = np.repeat(np.arange(sel.size, dtype=np.intp), lens)
            group = _ClassGroup(
                dtype=WIDTH_DTYPES[cls],
                body_index=body_index,
                base_idx=dstarts[rep],
                rest_pos=_ranges(offsets[sel] + 1, lens),
                firsts_rep=sel[rep],  # patched to first columns below
            )
            # Decode this class once now: the per-unit delta sums feed
            # the first-column reconstruction.
            deltas = self._class_deltas(group)
            max_delta = max(max_delta, int(deltas.max()))
            ext = _prefix_sums(deltas)
            delta_sums[sel] = ext[dstarts + lens] - ext[dstarts]
            groups.append((sel, rep, group))

        sel_seq = np.flatnonzero(table.seq)
        if sel_seq.size:
            delta_sums[sel_seq] = table.strides[sel_seq] * (sizes[sel_seq] - 1)
            max_delta = max(max_delta, int(table.strides[sel_seq].max()))
        self.max_delta = max_delta

        # Units chain within a row: each unit spans ujmp + sum(deltas)
        # columns from the previous nonzero (column 0 at a row start).
        # A cumulative sum over unit spans, restarted at new-row units,
        # gives every unit's last column; first = last - sum(deltas).
        spans = table.ujmps + delta_sums
        ext_span = np.zeros(nunits + 1, dtype=np.int64)
        np.cumsum(spans, out=ext_span[1:])
        if nunits:
            row_start_units = np.flatnonzero(table.new_row)
            grp = np.cumsum(table.new_row) - 1
            last_cols = ext_span[1:] - ext_span[row_start_units][grp]
        else:
            last_cols = np.empty(0, dtype=np.int64)
        self.first_cols = last_cols - delta_sums
        self.last_cols = last_cols

        # Static column template: unit first elements, SEQ ramps and
        # singletons never change between calls.
        static = np.zeros(nnz, dtype=np.int64)
        if nunits:
            static[offsets[:-1]] = self.first_cols
        seq_multi = np.flatnonzero(table.seq & (sizes > 1))
        if seq_multi.size:
            lens = sizes[seq_multi] - 1
            rep = np.repeat(np.arange(seq_multi.size, dtype=np.intp), lens)
            ramp = _ranges(np.ones(seq_multi.size, dtype=np.int64), lens)
            static[_ranges(offsets[seq_multi] + 1, lens)] = (
                self.first_cols[seq_multi][rep] + table.strides[seq_multi][rep] * ramp
            )
        self._static_cols = static
        self._groups = [g for _, _, g in groups]
        for sel, rep, g in groups:
            g.firsts_rep = self.first_cols[sel][rep]

    def _class_deltas(self, group: _ClassGroup) -> np.ndarray:
        """Gather one class's delta bytes, viewed at the class's width."""
        return self._ctl_arr[group.body_index].view(group.dtype)

    def columns(self) -> np.ndarray:
        """Absolute column of every nonzero (fresh int64 array per call).

        Per width class: gather the delta bytes from the ctl stream,
        reinterpret at the fixed width, prefix-sum with per-unit
        restarts, add the unit first columns, scatter into place.
        """
        cols = self._static_cols.copy()
        for g in self._groups:
            ext = _prefix_sums(self._class_deltas(g))
            cols[g.rest_pos] = g.firsts_rep + ext[1:] - ext[g.base_idx]
        return cols
