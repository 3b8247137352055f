"""The CSR-DU ``ctl`` byte stream (serializer / deserializer).

Wire layout per unit (Section IV, Table I of the paper)::

    +--------+-------+----------------+----------------+-----------------------+
    | uflags | usize | [rjmp: varint] | ujmp: varint   | ucis: (usize-1)*width |
    +--------+-------+----------------+----------------+-----------------------+

``uflags`` bit layout:

* bits 0-1: width class of the ``ucis`` deltas (0 -> u8 ... 3 -> u64);
* bit 6 (``FLAG_NR``): the unit opens a new row;
* bit 5 (``FLAG_RJMP``): the new row is more than one row below the
  previous one; the extra advance (``row_jump - 1``) follows as a varint.
  This is our extension for matrices with empty rows -- the paper's
  scheme implicitly assumes none (its evaluation matrices have none) and
  degenerates to it when the flag is never set;
* bit 4 (``FLAG_SEQ``): a *sequential* unit -- instead of ``ucis``, a
  single varint stride follows ``ujmp`` and all ``usize - 1`` deltas
  equal it (the ``"seq"`` encoder policy's extension; see
  :mod:`repro.compress.delta`).

The decoder starts at row ``-1`` so the very first unit's NR flag
advances to row 0, exactly as the paper's Fig. 3 kernel does
(``y_indx++`` on NR with ``y_indx`` initialized before row 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.compress.delta import MAX_UNIT_SIZE, Unit, unitize
from repro.errors import EncodingError
from repro.telemetry import core as telemetry
from repro.telemetry.metrics import record_ctl_stream
from repro.util.bitops import (
    WIDTH_BYTES,
    decode_varint,
    encode_varint,
    pack_fixed,
    unpack_fixed,
    varint_size,
)

FLAG_NR = 0x40
FLAG_RJMP = 0x20
FLAG_SEQ = 0x10
_CLASS_MASK = 0x03
_KNOWN_MASK = _CLASS_MASK | FLAG_NR | FLAG_RJMP | FLAG_SEQ


class CtlWriter:
    """Accumulates units into a ctl byte stream.

    Alongside the stream the writer keeps the encode census --
    ``class_counts`` (units per delta width class), ``new_rows`` and
    ``seq_units`` -- which :meth:`getvalue` reports to the telemetry
    collector when one is active (the paper's Table I statistics, per
    encode).

    :meth:`getvalue` *finalizes* the writer: the census is reported
    exactly once, and both a second ``getvalue()`` and any further
    ``append()`` raise :class:`~repro.errors.EncodingError`.  (An
    earlier version silently skipped the census on re-reads, which made
    double-report bugs undetectable; now misuse is loud.)
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self.nunits = 0
        self.class_counts = [0, 0, 0, 0]
        self.new_rows = 0
        self.seq_units = 0
        self._finalized = False

    @property
    def finalized(self) -> bool:
        """True once :meth:`getvalue` has consumed the writer."""
        return self._finalized

    def append(self, unit: Unit) -> None:
        """Serialize one :class:`~repro.compress.delta.Unit`."""
        if self._finalized:
            raise EncodingError("CtlWriter is finalized; cannot append after getvalue")
        usize = unit.usize
        if not 1 <= usize <= 255:
            raise EncodingError(f"unit size {usize} out of [1, 255]")
        flags = unit.cls & _CLASS_MASK
        if unit.new_row:
            flags |= FLAG_NR
            if unit.row_jump > 1:
                flags |= FLAG_RJMP
        elif unit.row_jump != 1:
            raise EncodingError("row_jump > 1 requires new_row")
        if unit.seq:
            if unit.deltas.size and np.any(unit.deltas != unit.deltas[0]):
                raise EncodingError("sequential unit requires constant deltas")
            flags |= FLAG_SEQ
        self._buf.append(flags)
        self._buf.append(usize)
        if flags & FLAG_RJMP:
            encode_varint(unit.row_jump - 1, self._buf)
        encode_varint(unit.ujmp, self._buf)
        if unit.seq:
            encode_varint(unit.stride, self._buf)
        elif unit.deltas.size:
            self._buf += pack_fixed(unit.deltas, unit.cls)
        self.nunits += 1
        self.class_counts[unit.cls & _CLASS_MASK] += 1
        if unit.new_row:
            self.new_rows += 1
        if unit.seq:
            self.seq_units += 1

    def getvalue(self) -> bytes:
        """Finalize the writer and return the stream as immutable bytes.

        Reports the encode census to the active telemetry collector and
        marks the writer finished; calling :meth:`getvalue` a second
        time (or :meth:`append` afterwards) raises
        :class:`~repro.errors.EncodingError`.
        """
        if self._finalized:
            raise EncodingError(
                "CtlWriter.getvalue called twice; the census is reported once "
                "per encode -- keep the returned bytes instead"
            )
        self._finalized = True
        if telemetry.enabled():
            record_ctl_stream(
                self.class_counts,
                new_rows=self.new_rows,
                seq_units=self.seq_units,
                ctl_bytes=len(self._buf),
            )
        return bytes(self._buf)


def encode_ctl_reference(
    row_ptr: np.ndarray,
    col_ind: np.ndarray,
    *,
    policy: str = "greedy",
    max_unit: int = MAX_UNIT_SIZE,
) -> bytes:
    """The per-unit CSR-DU encode: :func:`~repro.compress.delta.unitize`
    feeding a :class:`CtlWriter`.

    The executable specification of the ctl stream.  Production code
    encodes with :func:`~repro.compress.encode_batched.encode_ctl_batched`;
    the tests and ``benchmarks/microbench_encode.py`` hold it to these
    bytes.
    """
    writer = CtlWriter()
    for unit in unitize(row_ptr, col_ind, policy=policy, max_unit=max_unit):
        writer.append(unit)
    return writer.getvalue()


class CtlReader:
    """Iterates the units of a ctl stream.

    The reader tracks the current row itself (from NR/RJMP flags), so
    the yielded :class:`~repro.compress.delta.Unit` objects carry
    absolute row numbers.
    """

    def __init__(self, ctl: bytes) -> None:
        self._ctl = ctl

    def __iter__(self) -> Iterator[Unit]:
        ctl = self._ctl
        pos = 0
        n = len(ctl)
        row = -1
        while pos < n:
            if pos + 2 > n:
                raise EncodingError("truncated unit header")
            flags = ctl[pos]
            usize = ctl[pos + 1]
            pos += 2
            if flags & ~_KNOWN_MASK:
                raise EncodingError(f"unknown flag bits 0x{flags & ~_KNOWN_MASK:02x}")
            if usize == 0:
                raise EncodingError("unit size 0 is invalid")
            cls = flags & _CLASS_MASK
            new_row = bool(flags & FLAG_NR)
            jump = 1
            if flags & FLAG_RJMP:
                if not new_row:
                    raise EncodingError("RJMP flag without NR")
                extra, pos = decode_varint(ctl, pos)
                jump += extra
            ujmp, pos = decode_varint(ctl, pos)
            if new_row:
                row += jump
            elif row < 0:
                raise EncodingError("stream does not start with a new-row unit")
            seq = bool(flags & FLAG_SEQ)
            if seq:
                stride, pos = decode_varint(ctl, pos)
                deltas = np.full(usize - 1, stride, dtype=np.int64)
            else:
                deltas, pos = unpack_fixed(ctl, usize - 1, cls, pos)
            yield Unit(
                row=row,
                new_row=new_row,
                row_jump=jump,
                ujmp=ujmp,
                deltas=deltas.astype(np.int64),
                cls=cls,
                seq=seq,
            )


@dataclass(frozen=True)
class DecodedUnits:
    """Structure-of-arrays view of a whole ctl stream.

    Produced by the matrix's kernel plan (:func:`repro.kernels.plan.
    plan_units`, behind ``CSRDUMatrix.units``) and consumed by the
    machine model's traffic accounting; :func:`decode_units` builds the
    same bundle unit by unit, as the tests' oracle.

    Attributes
    ----------
    rows:
        Row of each unit.
    sizes:
        ``usize`` of each unit.
    classes:
        Width class of each unit.
    offsets:
        CSR-style offsets into ``columns`` per unit (``nunits + 1``).
    columns:
        Absolute column indices of every nonzero, unit-concatenated --
        i.e. the fully decoded ``col_ind``.
    new_row:
        Boolean mask of first-of-row units.
    seq:
        Boolean mask of sequential (constant-stride) units.
    ctl_offsets:
        Byte offset of each unit in the ctl stream (``nunits + 1``
        entries, last is the stream length) -- this is exactly the
        per-thread ctl offset the paper's multithreaded CSR-DU needs
        (Section IV, last paragraph), and the traffic model's source of
        exact per-thread byte counts.
    """

    rows: np.ndarray
    sizes: np.ndarray
    classes: np.ndarray
    offsets: np.ndarray
    columns: np.ndarray
    new_row: np.ndarray
    ctl_offsets: np.ndarray
    seq: np.ndarray

    @property
    def nunits(self) -> int:
        return self.rows.size

    def row_ptr(self, nrows: int) -> np.ndarray:
        """CSR row offsets (``nrows + 1`` entries); rows without units are empty."""
        return self.offsets[np.searchsorted(self.rows, np.arange(nrows + 1))]


def decode_units(ctl: bytes, nnz: int) -> DecodedUnits:
    """Decode a full ctl stream into a :class:`DecodedUnits` bundle.

    The per-unit executable specification of the decode, kept as the
    tests' oracle (next to :func:`encode_ctl_reference`): production
    code reads the kernel plan's table instead.  ``nnz`` is the
    expected nonzero count; a mismatch raises
    :class:`~repro.errors.EncodingError` (it means the stream was built
    for a different matrix).
    """
    rows: list[int] = []
    sizes: list[int] = []
    classes: list[int] = []
    new_row: list[bool] = []
    seq: list[bool] = []
    col_chunks: list[np.ndarray] = []
    ctl_offsets: list[int] = [0]
    col = 0
    total = 0
    pos = 0
    for unit in CtlReader(ctl):
        if unit.new_row:
            col = 0
        cols = unit.columns(col)
        col = int(cols[-1])
        rows.append(unit.row)
        sizes.append(unit.usize)
        classes.append(unit.cls)
        new_row.append(unit.new_row)
        seq.append(unit.seq)
        col_chunks.append(cols)
        total += unit.usize
        pos += (
            2
            + (varint_size(unit.row_jump - 1) if unit.row_jump > 1 else 0)
            + varint_size(unit.ujmp)
            + (
                varint_size(unit.stride)
                if unit.seq
                else (unit.usize - 1) * WIDTH_BYTES[unit.cls]
            )
        )
        ctl_offsets.append(pos)
    if pos != len(ctl):
        raise EncodingError(
            f"reconstructed ctl length {pos} != stream length {len(ctl)}"
        )
    if total != nnz:
        raise EncodingError(f"ctl stream decodes {total} nonzeros, expected {nnz}")
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes_arr, out=offsets[1:])
    columns = (
        np.concatenate(col_chunks) if col_chunks else np.empty(0, dtype=np.int64)
    )
    return DecodedUnits(
        rows=np.asarray(rows, dtype=np.int64),
        sizes=sizes_arr,
        classes=np.asarray(classes, dtype=np.int8),
        offsets=offsets,
        columns=columns.astype(np.int64),
        new_row=np.asarray(new_row, dtype=bool),
        ctl_offsets=np.asarray(ctl_offsets, dtype=np.int64),
        seq=np.asarray(seq, dtype=bool),
    )
