"""Segmented NumPy primitives underlying the vectorized kernels."""

from repro.nputil.segops import (
    SegmentedReducer,
    segment_ids_from_offsets,
    segment_lengths,
    segmented_reduce,
)

__all__ = [
    "SegmentedReducer",
    "segment_ids_from_offsets",
    "segment_lengths",
    "segmented_reduce",
]
