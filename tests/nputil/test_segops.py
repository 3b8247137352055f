"""Tests for segmented array primitives (incl. hypothesis properties)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.nputil.segops import (
    SegmentedReducer,
    segment_ids_from_offsets,
    segment_lengths,
    segmented_reduce,
)


def offsets_strategy(max_segments: int = 12, max_len: int = 8):
    """Random CSR-style offsets arrays (empty segments included)."""
    return st.lists(
        st.integers(min_value=0, max_value=max_len), max_size=max_segments, min_size=1
    ).map(lambda lens: np.concatenate(([0], np.cumsum(lens))).astype(np.int64))


class TestSegmentIds:
    def test_basic(self):
        ids = segment_ids_from_offsets(np.array([0, 2, 2, 5]), 5)
        assert ids.tolist() == [0, 0, 2, 2, 2]

    def test_empty_everything(self):
        assert segment_ids_from_offsets(np.array([0]), 0).size == 0

    def test_all_empty_segments(self):
        assert segment_ids_from_offsets(np.array([0, 0, 0]), 0).size == 0

    def test_rejects_bad_offsets(self):
        with pytest.raises(FormatError):
            segment_ids_from_offsets(np.array([0, 3]), 5)
        with pytest.raises(FormatError):
            segment_ids_from_offsets(np.array([1, 5]), 5)
        with pytest.raises(FormatError):
            segment_ids_from_offsets(np.array([0, 4, 2, 5]), 5)

    @given(offsets_strategy())
    def test_lengths_consistent(self, offsets):
        n = int(offsets[-1])
        ids = segment_ids_from_offsets(offsets, n)
        counts = np.bincount(ids, minlength=offsets.size - 1)
        assert counts.tolist() == segment_lengths(offsets).tolist()


class TestSegmentedReduce:
    def test_basic_with_empty(self):
        out = segmented_reduce(np.array([1.0, 2.0, 3.0]), np.array([0, 2, 2, 3]))
        assert out.tolist() == [3.0, 0.0, 3.0]

    def test_all_empty(self):
        out = segmented_reduce(np.array([], dtype=np.float64), np.array([0, 0, 0]))
        assert out.tolist() == [0.0, 0.0]

    def test_no_segments(self):
        out = segmented_reduce(np.array([], dtype=np.float64), np.array([0]))
        assert out.size == 0

    def test_int_input_widens(self):
        out = segmented_reduce(np.array([1, 2], dtype=np.int8), np.array([0, 2]))
        assert out.dtype == np.int64

    @given(offsets_strategy(), st.data())
    def test_matches_python_reference(self, offsets, data):
        n = int(offsets[-1])
        values = np.asarray(
            data.draw(
                st.lists(
                    st.floats(
                        min_value=-100, max_value=100, allow_nan=False
                    ),
                    min_size=n,
                    max_size=n,
                )
            ),
            dtype=np.float64,
        )
        out = segmented_reduce(values, offsets)
        expected = [
            float(values[int(offsets[s]) : int(offsets[s + 1])].sum())
            for s in range(offsets.size - 1)
        ]
        assert np.allclose(out, expected)


class TestSegmentedReducer:
    """The pre-validated fast path must agree with segmented_reduce."""

    @given(offsets_strategy(), st.integers(0, 1 << 30))
    def test_matches_segmented_reduce(self, offsets, seed):
        n = int(offsets[-1])
        values = np.random.default_rng(seed).random(n)
        reducer = SegmentedReducer(offsets, n)
        assert np.array_equal(
            reducer.reduce(values), segmented_reduce(values, offsets)
        )

    def test_n_inferred_from_offsets(self):
        reducer = SegmentedReducer(np.array([0, 2, 5]))
        assert reducer.n == 5
        assert reducer.nseg == 2

    def test_reused_across_calls(self):
        reducer = SegmentedReducer(np.array([0, 2, 2, 3]), 3)
        a = reducer.reduce(np.array([1.0, 2.0, 3.0]))
        b = reducer.reduce(np.array([10.0, 20.0, 30.0]))
        assert a.tolist() == [3.0, 0.0, 3.0]
        assert b.tolist() == [30.0, 0.0, 30.0]

    def test_out_buffer(self):
        reducer = SegmentedReducer(np.array([0, 2, 2, 3]), 3)
        out = np.full(3, np.nan)
        ret = reducer.reduce(np.array([1.0, 2.0, 3.0]), out=out)
        assert ret is out
        assert out.tolist() == [3.0, 0.0, 3.0]  # empty segment overwritten

    def test_out_buffer_all_nonempty(self):
        reducer = SegmentedReducer(np.array([0, 2, 3]), 3)
        out = np.full(2, np.nan)
        assert reducer.reduce(np.ones(3), out=out).tolist() == [2.0, 1.0]

    def test_all_segments_empty(self):
        reducer = SegmentedReducer(np.array([0, 0, 0]), 0)
        assert reducer.reduce(np.empty(0)).tolist() == [0.0, 0.0]
        out = np.ones(2)
        assert reducer.reduce(np.empty(0), out=out).tolist() == [0.0, 0.0]

    def test_rejects_bad_offsets(self):
        with pytest.raises(FormatError):
            SegmentedReducer(np.array([1, 3]), 3)
