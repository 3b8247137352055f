"""Byte-level primitives used by the compressed formats.

Two families live here:

* LEB128-style **variable-length integers** ("varints"), used for the
  ``ujmp`` field of CSR-DU units and for row jumps.  Seven payload bits
  per byte, most significant continuation bit, little-endian groups --
  the same scheme protobuf uses.
* **Width classes**: CSR-DU stores every delta of a unit at one of four
  fixed widths (1, 2, 4 or 8 bytes).  :func:`width_class` maps a
  non-negative integer to the narrowest class that can hold it, and
  :func:`width_class_array` does the same for a whole NumPy array at
  once (this is the hot path of the encoder).
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError

#: Bytes per width class, indexed by class id (0 -> u8 ... 3 -> u64).
WIDTH_BYTES = (1, 2, 4, 8)

#: NumPy dtypes matching each width class (little-endian, unsigned).
WIDTH_DTYPES = (np.dtype("<u1"), np.dtype("<u2"), np.dtype("<u4"), np.dtype("<u8"))

_CLASS_LIMITS = (1 << 8, 1 << 16, 1 << 32, 1 << 64)


def width_class(value: int) -> int:
    """Return the smallest width class (0..3) that can store *value*.

    >>> width_class(0), width_class(255), width_class(256), width_class(1 << 40)
    (0, 0, 1, 3)
    """
    if value < 0:
        raise EncodingError(f"width_class requires a non-negative value, got {value}")
    for cls, limit in enumerate(_CLASS_LIMITS):
        if value < limit:
            return cls
    raise EncodingError(f"value {value} does not fit in 8 bytes")


def width_class_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`width_class` for an array of non-negative ints.

    Returns an ``int8`` array of class ids with the same shape.
    """
    values = np.asarray(values)
    if values.size and int(values.min()) < 0:
        raise EncodingError("width_class_array requires non-negative values")
    out = np.zeros(values.shape, dtype=np.int8)
    out += values >= _CLASS_LIMITS[0]
    out += values >= _CLASS_LIMITS[1]
    out += values >= _CLASS_LIMITS[2]
    return out


def varint_size(value: int) -> int:
    """Number of bytes :func:`encode_varint` will use for *value*."""
    if value < 0:
        raise EncodingError(f"varints are unsigned, got {value}")
    size = 1
    while value >= 0x80:
        value >>= 7
        size += 1
    return size


def encode_varint(value: int, out: bytearray) -> int:
    """Append *value* to *out* as a varint; return the number of bytes written."""
    if value < 0:
        raise EncodingError(f"varints are unsigned, got {value}")
    written = 0
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
            written += 1
        else:
            out.append(byte)
            return written + 1


def decode_varint(buf, pos: int) -> tuple[int, int]:
    """Decode one varint from *buf* starting at *pos*.

    Returns ``(value, next_pos)``.  Raises :class:`EncodingError` when the
    stream ends mid-varint or the value would exceed 64 bits.
    """
    value = 0
    shift = 0
    n = len(buf)
    while True:
        if pos >= n:
            raise EncodingError("truncated varint")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift >= 64:
            raise EncodingError("varint exceeds 64 bits")


#: Byte-size breakpoints of a varint: a value needs one more byte per
#: threshold it reaches (``2**7, 2**14, ... 2**63``; 10 bytes max).
_VARINT_THRESHOLDS = tuple(np.uint64(1) << np.uint64(7 * k) for k in range(1, 10))


def varint_size_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`varint_size`: per-element byte counts (int64).

    The loop below runs over the nine byte-size *breakpoints*, not the
    elements, so the cost is O(9) NumPy passes however long the array
    is.  CSR-DU's column jumps stop at the 1-5 byte widths (deltas are
    at most 64-bit column distances), so in practice only the first few
    comparisons see any ``True``.
    """
    values = np.asarray(values)
    if values.size == 0:
        return np.zeros(0, dtype=np.int64)
    if values.dtype.kind == "i" and int(values.min()) < 0:
        raise EncodingError("varints are unsigned, got a negative value")
    v = values.astype(np.uint64, copy=False)
    out = np.ones(v.shape, dtype=np.int64)
    vmax = v.max()
    for threshold in _VARINT_THRESHOLDS:
        if vmax < threshold:
            break
        out += v >= threshold
    return out


def scatter_varints(
    buf: np.ndarray, values: np.ndarray, positions: np.ndarray, sizes: np.ndarray
) -> None:
    """Write each ``values[i]`` as a varint at ``buf[positions[i]:]``.

    *sizes* must be the matching :func:`varint_size_array` output; the
    caller has laid the stream out (prefix sums of sizes) and *buf* is
    the preallocated uint8 output.  One vectorized pass per byte
    position of the longest varint present.
    """
    if values.size == 0:
        return
    v = np.asarray(values).astype(np.uint64, copy=False)
    positions = np.asarray(positions, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    for k in range(int(sizes.max())):
        live = sizes > k
        chunk = (v[live] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (sizes[live] > k + 1).astype(np.uint64) << np.uint64(7)
        buf[positions[live] + k] = (chunk | cont).astype(np.uint8)


def pack_fixed(values: np.ndarray, cls: int) -> bytes:
    """Pack *values* at the fixed width of class *cls* (little endian)."""
    values = np.asarray(values)
    limit = _CLASS_LIMITS[cls]
    if values.size and int(values.max()) >= limit:
        raise EncodingError(
            f"value {int(values.max())} does not fit width class {cls}"
        )
    return values.astype(WIDTH_DTYPES[cls], copy=False).tobytes()


def unpack_fixed(buf, count: int, cls: int, pos: int = 0) -> tuple[np.ndarray, int]:
    """Unpack *count* class-*cls* integers from *buf* at *pos*.

    Returns ``(uint64 array, next_pos)``.
    """
    width = WIDTH_BYTES[cls]
    end = pos + count * width
    if end > len(buf):
        raise EncodingError("truncated fixed-width run")
    arr = np.frombuffer(buf, dtype=WIDTH_DTYPES[cls], count=count, offset=pos)
    return arr.astype(np.uint64), end
