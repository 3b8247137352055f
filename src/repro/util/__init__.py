"""Low-level utilities shared by the rest of the library."""

from repro.util.bitops import (
    decode_varint,
    encode_varint,
    varint_size,
    width_class,
    width_class_array,
    WIDTH_BYTES,
)
from repro.util.timing import measure
from repro.util.validation import (
    as_index_array,
    as_value_array,
    check_dimensions,
    check_monotone,
)

__all__ = [
    "decode_varint",
    "encode_varint",
    "varint_size",
    "width_class",
    "width_class_array",
    "WIDTH_BYTES",
    "measure",
    "as_index_array",
    "as_value_array",
    "check_dimensions",
    "check_monotone",
]
