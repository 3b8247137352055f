"""Integrity validators for the stored matrix formats.

The compressed formats are hand-rolled serializations — ``ctl`` byte
streams, narrow ``val_ind`` arrays, bit-packed deltas — exactly the
kind of data where one flipped byte silently corrupts ``y = A x``
instead of crashing.  This module is the trust layer:

* :func:`walk_ctl` — a **non-decoding** walk of a CSR-DU ``ctl``
  stream.  It advances through the unit headers without materializing
  any column array, checking flag bits, unit sizes, varint bounds,
  column monotonicity within rows, and row/nonzero coverage against
  the declared shape.  Failures raise :class:`~repro.errors.
  IntegrityError` carrying the byte offset and row where the walk
  stopped.
* :func:`verify_matrix` — per-format invariant checkers (``row_ptr``
  monotone, ``col_ind`` in range, ``val_ind < len(vals_unique)``,
  NaN/Inf policy) dispatched by registry name and exposed as
  ``matrix.verify()`` on every :class:`~repro.formats.base.
  SparseMatrix`.
* :func:`seal` / :func:`check_seal` — opt-in CRC32 checksums over the
  stored arrays.  Structural checks cannot catch a corruption that
  stays *plausible* (an in-range bit flip in a delta byte or a value);
  a sealed matrix closes that hole: ``verify()`` on a sealed matrix
  re-hashes every array and any byte difference raises.  Sealing is
  explicit, so unverified hot paths pay nothing.

Everything here is read-only and allocation-light: ``verify()`` never
mutates the matrix, and when no seal is present the checks are pure
NumPy reductions over the stored arrays.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.compress.ctl import FLAG_NR, FLAG_RJMP, FLAG_SEQ, _CLASS_MASK, _KNOWN_MASK
from repro.errors import EncodingError, IntegrityError
from repro.telemetry import core as telemetry
from repro.util.bitops import WIDTH_BYTES, WIDTH_DTYPES, decode_varint

#: Attribute carrying a matrix's checksum seal (``{field: crc32}``).
SEAL_ATTR = "_integrity_seal"

#: Cache attributes excluded from sealing/verification (derived data,
#: rebuilt from the stored arrays; corruption there is caught when the
#: consumer decodes, and the fault injector clears them anyway).
_NON_CONTENT_ATTRS = frozenset({SEAL_ATTR})

#: Value policies for :func:`check_values` / :func:`verify_matrix`.
VALUE_POLICIES = ("finite", "no-nan", "any")


# ---------------------------------------------------------------------------
# Checksum seals
# ---------------------------------------------------------------------------


def _content_arrays(matrix) -> list[tuple[str, object]]:
    """``(name, array-or-bytes)`` pairs of the matrix's stored data.

    Every ``np.ndarray`` / ``bytes`` attribute in the instance dict
    participates (sorted by name, so the seal is deterministic); cached
    derived objects (decoded units, kernel plans, unit tables) are not
    arrays and fall out naturally.
    """
    out = []
    for name, value in sorted(vars(matrix).items()):
        if name in _NON_CONTENT_ATTRS:
            continue
        if isinstance(value, (np.ndarray, bytes, bytearray)):
            out.append((name, value))
    return out


def _digest(value) -> int:
    """CRC32 of one stored array/stream, covering dtype and shape too."""
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        crc = zlib.crc32(f"{arr.dtype.str}{arr.shape}".encode("ascii"))
        return zlib.crc32(arr.tobytes(), crc)
    return zlib.crc32(bytes(value))


def seal(matrix):
    """Stamp CRC32 digests of every stored array onto *matrix*.

    Returns the matrix (chaining).  A subsequent :func:`verify_matrix`
    (or ``matrix.verify()``) re-hashes the arrays and raises
    :class:`IntegrityError` on any difference — the only way to catch
    corruptions that keep the structure plausible, like an in-range bit
    flip inside a delta byte or a value.
    """
    setattr(matrix, SEAL_ATTR, {name: _digest(v) for name, v in _content_arrays(matrix)})
    return matrix


def is_sealed(matrix) -> bool:
    """Whether *matrix* carries a checksum seal."""
    return getattr(matrix, SEAL_ATTR, None) is not None


def check_seal(matrix) -> None:
    """Re-hash a sealed matrix's arrays; raise on any mismatch.

    A no-op for unsealed matrices.  The error names the corrupted field
    via its ``field`` attribute.
    """
    sealed = getattr(matrix, SEAL_ATTR, None)
    if sealed is None:
        return
    current = dict(_content_arrays(matrix))
    for name, expected in sealed.items():
        value = current.pop(name, None)
        if value is None:
            raise IntegrityError(
                f"sealed array {name!r} is missing from the matrix", field=name
            )
        if _digest(value) != expected:
            raise IntegrityError(
                f"checksum mismatch on stored array {name!r}: "
                "data changed since seal()",
                field=name,
            )
    if current:
        extra = sorted(current)
        raise IntegrityError(
            f"unsealed stored arrays appeared after seal(): {extra}",
            field=extra[0],
        )


# ---------------------------------------------------------------------------
# Non-decoding ctl stream walker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CtlStats:
    """What a full :func:`walk_ctl` pass learned about a stream."""

    nunits: int
    nnz: int
    #: Highest row index opened by the stream (-1 for an empty stream).
    last_row: int
    #: Highest column index reached by any unit.
    max_col: int


def walk_ctl(
    ctl,
    *,
    nnz: int | None = None,
    nrows: int | None = None,
    ncols: int | None = None,
) -> CtlStats:
    """Walk a CSR-DU ``ctl`` stream without decoding it.

    Advances unit by unit — header, optional varints, fixed-width delta
    body — keeping only the current row and column.  No column array is
    materialized, so a full check of an ``nnz``-element stream touches
    each byte once and allocates nothing beyond per-unit views.

    Checks, in stream order:

    * header present (2 bytes), no unknown flag bits, ``usize >= 1``;
    * ``RJMP`` only together with ``NR``; first unit opens a row;
    * varints terminate inside the stream and fit 64 bits;
    * in-row continuation units advance the column (``ujmp >= 1``);
    * sequential units have a positive stride;
    * fixed-width delta bodies lie inside the stream and contain no
      zero delta (columns strictly increase within a row);
    * rows stay below ``nrows`` and columns below ``ncols`` (when
      given); the decoded element count equals ``nnz`` (when given).

    Raises :class:`IntegrityError` with ``byte_offset``/``row`` context.
    """
    pos = 0
    n = len(ctl)
    row = -1
    col = 0
    total = 0
    nunits = 0
    max_col = -1

    while pos < n:
        unit_off = pos

        def die(msg: str) -> None:
            raise IntegrityError(
                f"ctl: {msg} (unit {nunits}, byte {unit_off}, row {row})",
                byte_offset=unit_off,
                row=row,
            )

        def varint(at: int) -> tuple[int, int]:
            try:
                return decode_varint(ctl, at)
            except EncodingError as exc:
                die(str(exc))
                raise AssertionError("unreachable")  # pragma: no cover

        if pos + 2 > n:
            die("truncated unit header")
        flags = ctl[pos]
        usize = ctl[pos + 1]
        pos += 2
        if flags & ~_KNOWN_MASK:
            die(f"unknown flag bits 0x{flags & ~_KNOWN_MASK:02x}")
        if usize == 0:
            die("unit size 0 is invalid")
        new_row = bool(flags & FLAG_NR)
        if flags & FLAG_RJMP:
            if not new_row:
                die("RJMP flag without NR")
            extra, pos = varint(pos)
            jump = 1 + extra
        else:
            jump = 1
        ujmp, pos = varint(pos)
        if new_row:
            row += jump
            col = ujmp
        else:
            if row < 0:
                die("stream does not start with a new-row unit")
            if ujmp < 1:
                die("in-row unit does not advance the column")
            col += ujmp
        cls = flags & _CLASS_MASK
        if flags & FLAG_SEQ:
            stride, pos = varint(pos)
            if usize > 1:
                if stride < 1:
                    die("sequential unit with non-positive stride")
                col += stride * (usize - 1)
        elif usize > 1:
            body = (usize - 1) * WIDTH_BYTES[cls]
            if pos + body > n:
                die("truncated unit body")
            deltas = np.frombuffer(ctl, WIDTH_DTYPES[cls], count=usize - 1, offset=pos)
            if int(deltas.min()) == 0:
                die("zero column delta inside a unit")
            col += int(np.sum(deltas, dtype=np.uint64))
            pos += body
        if nrows is not None and row >= nrows:
            die(f"row index {row} out of range for {nrows} rows")
        if ncols is not None and col >= ncols:
            die(f"column index {col} out of range for {ncols} columns")
        max_col = max(max_col, col)
        total += usize
        nunits += 1

    if nnz is not None and total != nnz:
        raise IntegrityError(
            f"ctl: stream covers {total} nonzeros, expected {nnz}",
            byte_offset=n,
            row=row,
        )
    return CtlStats(nunits=nunits, nnz=total, last_row=row, max_col=max_col)


# ---------------------------------------------------------------------------
# Per-format invariant checkers
# ---------------------------------------------------------------------------


def check_values(values: np.ndarray, name: str, policy: str = "finite") -> None:
    """Apply the NaN/Inf *policy* to a value array.

    ``"finite"`` forbids NaN and infinities, ``"no-nan"`` allows
    infinities, ``"any"`` disables the check.
    """
    if policy not in VALUE_POLICIES:
        raise IntegrityError(
            f"unknown value policy {policy!r}; choose from {VALUE_POLICIES}"
        )
    if policy == "any" or values.size == 0:
        return
    if policy == "finite":
        bad = ~np.isfinite(values)
        what = "non-finite"
    else:
        bad = np.isnan(values)
        what = "NaN"
    if np.any(bad):
        pos = int(np.argmax(bad))
        raise IntegrityError(
            f"{what} value at {name}[{pos}] (policy {policy!r})", field=name
        )


def _check_row_ptr(row_ptr: np.ndarray, nrows: int, nnz: int) -> None:
    if row_ptr.size != nrows + 1:
        raise IntegrityError(
            f"row_ptr has {row_ptr.size} entries, expected {nrows + 1}",
            field="row_ptr",
        )
    if int(row_ptr[0]) != 0:
        raise IntegrityError(
            f"row_ptr must start at 0, got {int(row_ptr[0])}", field="row_ptr", row=0
        )
    if int(row_ptr[-1]) != nnz:
        raise IntegrityError(
            f"row_ptr ends at {int(row_ptr[-1])} but the matrix stores {nnz} "
            "nonzeros",
            field="row_ptr",
            row=nrows - 1,
        )
    diffs = np.diff(row_ptr)
    if diffs.size and int(diffs.min()) < 0:
        row = int(np.argmax(diffs < 0))
        raise IntegrityError(
            f"row_ptr decreases at row {row}", field="row_ptr", row=row
        )


def _check_col_ind(
    col_ind: np.ndarray, row_ptr: np.ndarray, ncols: int
) -> None:
    if col_ind.size == 0:
        return
    if int(col_ind.min()) < 0 or int(col_ind.max()) >= ncols:
        pos = int(np.argmax((col_ind < 0) | (col_ind >= ncols)))
        raise IntegrityError(
            f"col_ind[{pos}] = {int(col_ind[pos])} out of range [0, {ncols})",
            field="col_ind",
        )
    # Columns must strictly increase within each row: a global adjacent
    # diff is non-positive only at row boundaries.
    deltas = np.diff(col_ind.astype(np.int64))
    starts = np.zeros(col_ind.size, dtype=bool)
    starts[row_ptr[:-1][row_ptr[:-1] < col_ind.size]] = True
    bad = (deltas <= 0) & ~starts[1:]
    if np.any(bad):
        pos = int(np.argmax(bad)) + 1
        row = int(np.searchsorted(row_ptr, pos, side="right")) - 1
        raise IntegrityError(
            f"col_ind not strictly increasing within row {row} "
            f"(position {pos})",
            field="col_ind",
            row=row,
        )


def _check_val_ind(val_ind: np.ndarray, nunique: int, nnz: int) -> None:
    if val_ind.size != nnz:
        raise IntegrityError(
            f"val_ind has {val_ind.size} entries, expected {nnz}", field="val_ind"
        )
    if val_ind.size and int(val_ind.max()) >= nunique:
        pos = int(np.argmax(val_ind >= nunique))
        raise IntegrityError(
            f"val_ind[{pos}] = {int(val_ind[pos])} out of range for "
            f"{nunique} unique values",
            field="val_ind",
        )


def _verify_csr(matrix, policy: str) -> None:
    _check_row_ptr(matrix.row_ptr, matrix.nrows, matrix.nnz)
    _check_col_ind(matrix.col_ind, matrix.row_ptr, matrix.ncols)
    check_values(matrix.values, "values", policy)


def _verify_csr_vi(matrix, policy: str) -> None:
    _check_row_ptr(matrix.row_ptr, matrix.nrows, matrix.nnz)
    _check_col_ind(matrix.col_ind, matrix.row_ptr, matrix.ncols)
    _check_val_ind(matrix.val_ind, matrix.vals_unique.size, matrix.nnz)
    check_values(matrix.vals_unique, "vals_unique", policy)


def _verify_csr_du(matrix, policy: str) -> None:
    walk_ctl(
        matrix.ctl, nnz=matrix.nnz, nrows=matrix.nrows, ncols=matrix.ncols
    )
    check_values(matrix.values, "values", policy)


def _verify_csr_du_vi(matrix, policy: str) -> None:
    walk_ctl(
        matrix.ctl, nnz=matrix.nnz, nrows=matrix.nrows, ncols=matrix.ncols
    )
    _check_val_ind(matrix.val_ind, matrix.vals_unique.size, matrix.nnz)
    check_values(matrix.vals_unique, "vals_unique", policy)


def _verify_coo(matrix, policy: str) -> None:
    rows, cols = matrix.rows, matrix.cols
    if rows.size:
        if int(rows.min()) < 0 or int(rows.max()) >= matrix.nrows:
            raise IntegrityError("COO row index out of range", field="rows")
        if int(cols.min()) < 0 or int(cols.max()) >= matrix.ncols:
            raise IntegrityError("COO column index out of range", field="cols")
    check_values(matrix.values, "values", policy)


def _verify_generic(matrix, policy: str) -> None:
    """Fallback for formats without a dedicated checker.

    Hashes nothing format-specific; instead it applies the value policy
    to every stored float array and replays :meth:`iter_entries` (the
    format's own reference decode) checking index bounds — the decode
    itself surfaces malformed streams as :class:`~repro.errors.
    EncodingError`.
    """
    for name, value in _content_arrays(matrix):
        if isinstance(value, np.ndarray) and np.issubdtype(
            value.dtype, np.floating
        ):
            check_values(value, name, policy)
    nrows, ncols = matrix.shape
    count = 0
    for i, j, _ in matrix.iter_entries():
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise IntegrityError(
                f"entry ({i}, {j}) out of range for shape {matrix.shape}",
                row=i,
            )
        count += 1
    if count != matrix.nnz:
        raise IntegrityError(
            f"format decodes {count} entries but declares nnz={matrix.nnz}"
        )


_VERIFIERS = {
    "csr": _verify_csr,
    "csr-vi": _verify_csr_vi,
    "csr-du": _verify_csr_du,
    "csr-du-vi": _verify_csr_du_vi,
    "coo": _verify_coo,
}


def verify_matrix(matrix, *, value_policy: str = "finite"):
    """Run every applicable integrity check on *matrix*; return it.

    Dispatches on the registry name: the four paper formats get exact
    structural checkers (plus the non-decoding ctl walk for CSR-DU),
    everything else the generic decode-replay.  A checksum seal, when
    present (:func:`seal`), is verified first — it is the only check
    that catches corruptions which keep the structure plausible.

    Raises :class:`IntegrityError` (or :class:`~repro.errors.
    EncodingError` from a format's own decode) on the first failure;
    emits a ``validate`` span when telemetry is on.
    """
    with telemetry.span(
        "validate", format=matrix.name or type(matrix).__name__, nnz=matrix.nnz
    ):
        check_seal(matrix)
        checker = _VERIFIERS.get(matrix.name, _verify_generic)
        checker(matrix, value_policy)
    return matrix
