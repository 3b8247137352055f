"""Tests for varints, width classes and fixed-width packing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EncodingError
from repro.util.bitops import (
    WIDTH_BYTES,
    decode_varint,
    encode_varint,
    pack_fixed,
    scatter_varints,
    unpack_fixed,
    varint_size,
    varint_size_array,
    width_class,
    width_class_array,
)

#: Non-negative values straddling every varint byte-size breakpoint.
varint_values = st.integers(min_value=0, max_value=(1 << 63) - 1)


class TestWidthClass:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0, 0),
            (1, 0),
            (255, 0),
            (256, 1),
            (65535, 1),
            (65536, 2),
            ((1 << 32) - 1, 2),
            (1 << 32, 3),
            ((1 << 64) - 1, 3),
        ],
    )
    def test_boundaries(self, value, expected):
        assert width_class(value) == expected

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            width_class(-1)

    def test_too_large_rejected(self):
        with pytest.raises(EncodingError):
            width_class(1 << 64)

    def test_array_matches_scalar(self):
        values = np.array([0, 255, 256, 65535, 65536, 1 << 40])
        classes = width_class_array(values)
        assert classes.tolist() == [width_class(int(v)) for v in values]

    def test_array_negative_rejected(self):
        with pytest.raises(EncodingError):
            width_class_array(np.array([3, -1]))

    def test_empty_array(self):
        assert width_class_array(np.array([], dtype=np.int64)).size == 0

    def test_width_bytes_table(self):
        assert WIDTH_BYTES == (1, 2, 4, 8)


class TestVarint:
    @pytest.mark.parametrize(
        "value,size",
        [(0, 1), (127, 1), (128, 2), (16383, 2), (16384, 3), (1 << 62, 9)],
    )
    def test_size(self, value, size):
        assert varint_size(value) == size
        buf = bytearray()
        assert encode_varint(value, buf) == size
        assert len(buf) == size

    def test_round_trip_simple(self):
        buf = bytearray()
        encode_varint(300, buf)
        value, pos = decode_varint(bytes(buf), 0)
        assert value == 300
        assert pos == len(buf)

    def test_concatenated_stream(self):
        buf = bytearray()
        values = [0, 1, 127, 128, 300, 1 << 20, 1 << 50]
        for v in values:
            encode_varint(v, buf)
        pos = 0
        for v in values:
            got, pos = decode_varint(bytes(buf), pos)
            assert got == v
        assert pos == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(EncodingError):
            encode_varint(-1, bytearray())
        with pytest.raises(EncodingError):
            varint_size(-5)

    def test_truncated_stream(self):
        buf = bytearray()
        encode_varint(1 << 20, buf)
        with pytest.raises(EncodingError):
            decode_varint(bytes(buf[:-1]), 0)

    def test_empty_stream(self):
        with pytest.raises(EncodingError):
            decode_varint(b"", 0)

    def test_overlong_rejected(self):
        # Ten continuation bytes exceed the 64-bit limit.
        with pytest.raises(EncodingError):
            decode_varint(b"\x80" * 10 + b"\x01", 0)

    @given(st.integers(min_value=0, max_value=(1 << 63) - 1))
    def test_round_trip_property(self, value):
        buf = bytearray()
        encode_varint(value, buf)
        got, pos = decode_varint(bytes(buf), 0)
        assert got == value
        assert pos == varint_size(value)


class TestVarintArrayVectorized:
    """The batched encoder's varint size and scatter helpers vs the scalar path."""

    @given(st.lists(varint_values, max_size=60))
    def test_size_array_matches_scalar(self, values):
        sizes = varint_size_array(np.asarray(values, dtype=np.uint64))
        assert sizes.tolist() == [varint_size(v) for v in values]

    def test_scatter_matches_concatenated_scalars(self):
        values = np.asarray([0, 127, 128, 16384, 1 << 40], dtype=np.uint64)
        sizes = varint_size_array(values)
        offsets = np.concatenate(([0], np.cumsum(sizes[:-1])))
        buf = np.zeros(int(sizes.sum()), dtype=np.uint8)
        scatter_varints(buf, values, offsets, sizes)
        expected = bytearray()
        for v in values.tolist():
            encode_varint(int(v), expected)
        assert buf.tobytes() == bytes(expected)

    def test_scatter_interleaved_positions(self):
        """Scatter into a stream with gaps the caller fills otherwise."""
        values = np.asarray([5, 300], dtype=np.uint64)
        sizes = varint_size_array(values)
        buf = np.zeros(10, dtype=np.uint8)
        scatter_varints(buf, values, np.asarray([1, 6]), sizes)
        assert decode_varint(buf.tobytes(), 1) == (5, 2)
        assert decode_varint(buf.tobytes(), 6) == (300, 8)

    def test_size_array_negative_rejected(self):
        with pytest.raises(EncodingError):
            varint_size_array(np.asarray([1, -2], dtype=np.int64))

    def test_empty_arrays(self):
        empty = np.empty(0, dtype=np.uint64)
        assert varint_size_array(empty).size == 0
        buf = np.zeros(0, dtype=np.uint8)
        scatter_varints(buf, empty, np.empty(0, dtype=np.int64), empty)
        assert buf.size == 0


class TestPackFixed:
    @pytest.mark.parametrize("cls", [0, 1, 2, 3])
    def test_round_trip(self, cls):
        limit = (1 << (8 * WIDTH_BYTES[cls])) - 1
        values = np.array([0, 1, limit // 2, limit], dtype=np.uint64)
        data = pack_fixed(values, cls)
        assert len(data) == values.size * WIDTH_BYTES[cls]
        out, pos = unpack_fixed(data, values.size, cls)
        assert out.tolist() == values.tolist()
        assert pos == len(data)

    def test_overflow_rejected(self):
        with pytest.raises(EncodingError):
            pack_fixed(np.array([256]), 0)

    def test_truncated_rejected(self):
        data = pack_fixed(np.array([1, 2, 3]), 1)
        with pytest.raises(EncodingError):
            unpack_fixed(data, 4, 1)

    def test_offset_decode(self):
        data = b"\xff" + pack_fixed(np.array([7, 9]), 0)
        out, pos = unpack_fixed(data, 2, 0, pos=1)
        assert out.tolist() == [7, 9]
        assert pos == 3
