"""Compression substrates: delta/unit encoding (CSR-DU) and value indexing (CSR-VI)."""

from repro.compress.delta import (
    Unit,
    column_deltas,
    matrix_deltas,
    split_row_units,
    unitize,
)
from repro.compress.encode_batched import (
    BatchedEncode,
    encode_ctl_batched,
    pack_value_index,
    unit_layout,
)
from repro.compress.encode_cache import (
    ConvertCache,
    cached_convert,
)
from repro.compress.ctl import (
    CtlReader,
    CtlWriter,
    DecodedUnits,
    FLAG_NR,
    FLAG_RJMP,
    decode_units,
    encode_ctl_reference,
)
from repro.compress.unit_table import (
    BatchedColumnDecoder,
    UnitTable,
    scan_units,
)
from repro.compress.unique import (
    UniqueValues,
    index_dtype_for,
    total_to_unique_ratio,
    unique_index_values,
)

__all__ = [
    "Unit",
    "column_deltas",
    "matrix_deltas",
    "split_row_units",
    "unitize",
    "BatchedEncode",
    "encode_ctl_batched",
    "pack_value_index",
    "unit_layout",
    "ConvertCache",
    "cached_convert",
    "CtlReader",
    "CtlWriter",
    "DecodedUnits",
    "FLAG_NR",
    "FLAG_RJMP",
    "decode_units",
    "encode_ctl_reference",
    "BatchedColumnDecoder",
    "UnitTable",
    "scan_units",
    "UniqueValues",
    "index_dtype_for",
    "total_to_unique_ratio",
    "unique_index_values",
]
