"""Byte-identity of the batched one-pass encoder against the reference.

The per-unit :func:`~repro.compress.ctl.encode_ctl_reference` pipeline
is the executable specification;
:func:`~repro.compress.encode_batched.encode_ctl_batched`
must reproduce its stream *byte for byte* (and ``scan_units``'s table
field for field) across policies, width classes, RJMP empty-row jumps,
and ``max_unit`` boundary sizes -- hypothesis drives the structures.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.ctl import decode_units, encode_ctl_reference
from repro.compress.delta import _POLICIES
from repro.compress.encode_batched import encode_ctl_batched, pack_value_index
from repro.compress.unit_table import scan_units
from repro.errors import EncodingError, FormatError
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from tests.conftest import random_sparse_dense

TABLE_FIELDS = (
    "flags", "sizes", "classes", "rows", "new_row", "seq",
    "ujmps", "strides", "body_offsets", "ctl_offsets",
)

#: (policy, max_unit) grid covering chop boundaries (2 is the minimum,
#: 3 exercises the absorbed+chop interaction, 255 is the wire maximum).
GRID = [(p, m) for p in _POLICIES for m in (2, 3, 7, 255)]


def from_rows(rows):
    """(row_ptr, col_ind) from per-row sorted column lists."""
    lens = [len(r) for r in rows]
    row_ptr = np.concatenate(([0], np.cumsum(lens, dtype=np.int64)))
    if row_ptr[-1]:
        col_ind = np.concatenate(
            [np.asarray(r, dtype=np.int64) for r in rows if r]
        )
    else:
        col_ind = np.empty(0, dtype=np.int64)
    return row_ptr, col_ind


def assert_equivalent(row_ptr, col_ind, policy, max_unit):
    ref = encode_ctl_reference(
        row_ptr, col_ind, policy=policy, max_unit=max_unit
    )
    enc = encode_ctl_batched(
        row_ptr, col_ind, policy=policy, max_unit=max_unit
    )
    assert enc.ctl == ref
    scanned = scan_units(ref)
    for field in TABLE_FIELDS:
        got = getattr(enc.table, field)
        want = getattr(scanned, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field
    return enc


# Rows of sorted unique columns; empties included (RJMP path), column
# range spans all four delta width classes (up to > 2^32 deltas).
row_columns = st.lists(
    st.integers(min_value=0, max_value=1 << 35), min_size=0, max_size=24
).map(lambda xs: sorted(set(xs)))
matrices = st.lists(row_columns, min_size=1, max_size=12)


class TestByteIdentity:
    @settings(max_examples=120, deadline=None)
    @given(
        rows=matrices,
        policy=st.sampled_from(_POLICIES),
        max_unit=st.sampled_from((2, 3, 7, 255)),
    )
    def test_random_structures(self, rows, policy, max_unit):
        row_ptr, col_ind = from_rows(rows)
        assert_equivalent(row_ptr, col_ind, policy, max_unit)

    @pytest.mark.parametrize("policy,max_unit", GRID)
    def test_empty_matrix(self, policy, max_unit):
        row_ptr = np.zeros(4, dtype=np.int64)
        enc = assert_equivalent(
            row_ptr, np.empty(0, dtype=np.int64), policy, max_unit
        )
        assert enc.ctl == b""
        assert enc.nunits == 0

    @pytest.mark.parametrize("policy,max_unit", GRID)
    def test_empty_row_jumps(self, policy, max_unit):
        """Leading, interior and trailing empty rows (the RJMP paths)."""
        row_ptr = np.asarray([0, 0, 0, 3, 3, 7, 7], dtype=np.int64)
        col_ind = np.asarray(
            [1, 5, 260, 0, 2, 70000, 70001], dtype=np.int64
        )
        assert_equivalent(row_ptr, col_ind, policy, max_unit)

    @pytest.mark.parametrize("policy,max_unit", GRID)
    def test_all_width_classes(self, policy, max_unit):
        """Deltas landing in u8 / u16 / u32 / u64 bodies."""
        deltas = np.asarray(
            [1, 3, 200, 300, 70_000, 80_000, 1 << 33, 1 << 34, 2, 4],
            dtype=np.int64,
        )
        col_ind = np.cumsum(deltas)
        row_ptr = np.asarray([0, col_ind.size], dtype=np.int64)
        enc = assert_equivalent(row_ptr, col_ind, policy, max_unit)
        if max_unit == 2:
            assert sum(enc.class_counts[1:]) > 0

    @pytest.mark.parametrize("policy,max_unit", GRID)
    def test_singleton_absorption_chain(self, policy, max_unit):
        """Alternating classes: greedy's pending-singleton parity."""
        deltas = np.asarray([3, 300, 2, 400, 1, 500, 9, 600, 4] * 3)
        col_ind = np.cumsum(deltas)
        row_ptr = np.asarray([0, col_ind.size], dtype=np.int64)
        assert_equivalent(row_ptr, col_ind, policy, max_unit)

    @pytest.mark.parametrize("policy,max_unit", GRID)
    def test_seq_runs(self, policy, max_unit):
        """Constant-stride stretches plus irregular tails."""
        cols = np.concatenate(
            [np.arange(0, 40, 2), [41, 47, 60], np.arange(100, 170, 7)]
        ).astype(np.int64)
        row_ptr = np.asarray([0, cols.size], dtype=np.int64)
        enc = assert_equivalent(row_ptr, cols, policy, max_unit)
        if policy == "seq" and max_unit == 255:
            assert enc.seq_units > 0

    def test_max_unit_exactly_fills_units(self):
        """Row lengths hitting the chop remainder on both sides."""
        for nnz in (254, 255, 256, 509, 510, 511):
            cols = np.arange(1, 3 * nnz, 3, dtype=np.int64)[:nnz]
            row_ptr = np.asarray([0, nnz], dtype=np.int64)
            assert_equivalent(row_ptr, cols, "greedy", 255)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(rows=matrices, policy=st.sampled_from(_POLICIES))
    def test_decode_recovers_columns(self, rows, policy):
        row_ptr, col_ind = from_rows(rows)
        enc = encode_ctl_batched(row_ptr, col_ind, policy=policy)
        du = decode_units(enc.ctl, int(col_ind.size))
        assert du.columns.tolist() == col_ind.tolist()
        rows_expanded = np.repeat(du.rows, du.sizes)
        expected = np.repeat(
            np.arange(len(rows)), np.diff(row_ptr)
        )
        assert rows_expanded.tolist() == expected.tolist()


class TestValidation:
    def test_unknown_policy(self):
        row_ptr = np.asarray([0, 1], dtype=np.int64)
        col_ind = np.asarray([0], dtype=np.int64)
        with pytest.raises(FormatError, match="policy"):
            encode_ctl_batched(row_ptr, col_ind, policy="zigzag")

    @pytest.mark.parametrize("max_unit", [0, 1, 256])
    def test_max_unit_out_of_range(self, max_unit):
        row_ptr = np.asarray([0, 1], dtype=np.int64)
        col_ind = np.asarray([0], dtype=np.int64)
        with pytest.raises(FormatError, match="max_unit"):
            encode_ctl_batched(row_ptr, col_ind, max_unit=max_unit)

    def test_empty_input_still_validates(self):
        empty = np.empty(0, dtype=np.int64)
        row_ptr = np.zeros(1, dtype=np.int64)
        with pytest.raises(FormatError):
            encode_ctl_batched(row_ptr, empty, policy="zigzag")
        with pytest.raises(FormatError):
            encode_ctl_batched(row_ptr, empty, max_unit=1)


class TestFormatIntegration:
    @pytest.fixture(scope="class")
    def csr(self):
        return CSRMatrix.from_dense(
            random_sparse_dense(60, 60, seed=7, quantize=8)
        )

    def _reference_matrix(self, csr):
        ctl = encode_ctl_reference(
            csr.row_ptr.astype(np.int64), csr.col_ind.astype(np.int64)
        )
        return CSRDUMatrix(csr.nrows, csr.ncols, ctl, csr.values)

    def test_encoders_build_identical_matrices(self, csr):
        batched = CSRDUMatrix.from_csr(csr)
        reference = self._reference_matrix(csr)
        assert batched.ctl == reference.ctl
        assert np.array_equal(batched.values, reference.values)

    def test_batched_attaches_unit_table(self, csr):
        du = CSRDUMatrix.from_csr(csr)
        table = du._unit_table
        scanned = scan_units(du.ctl)
        for field in TABLE_FIELDS:
            assert np.array_equal(
                getattr(table, field), getattr(scanned, field)
            ), field

    def test_spmv_agrees_across_encoders(self, csr):
        x = np.arange(csr.ncols, dtype=np.float64)
        batched = CSRDUMatrix.from_csr(csr)
        reference = self._reference_matrix(csr)
        assert np.array_equal(batched.spmv(x), reference.spmv(x))
        assert np.array_equal(batched.spmv(x), csr.spmv(x))


class TestPackValueIndex:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
    def test_narrows_and_preserves(self, dtype):
        inverse = np.asarray([0, 3, 1, 2, 3, 0], dtype=np.int64)
        packed = pack_value_index(inverse, np.dtype(dtype))
        assert packed.dtype == np.dtype(dtype)
        assert packed.tolist() == inverse.tolist()
        assert packed.flags["C_CONTIGUOUS"]


class TestErrorParity:
    """Adversarial (row_ptr, col_ind) fail identically in both encoders.

    Both pipelines share the structural validation in
    :func:`repro.compress.delta.matrix_deltas`, so a malformed input
    raises the same :class:`~repro.errors.EncodingError` class from
    either — never a garbage stream from one and an error from the
    other.
    """

    def _outcome(self, encode, row_ptr, col_ind):
        try:
            return ("ok", bytes(encode(row_ptr, col_ind)))
        except EncodingError:
            return ("error", "EncodingError")

    def _both(self, row_ptr, col_ind):
        row_ptr = np.asarray(row_ptr, dtype=np.int64)
        col_ind = np.asarray(col_ind, dtype=np.int64)
        ref = self._outcome(encode_ctl_reference, row_ptr, col_ind)
        bat = self._outcome(
            lambda rp, ci: encode_ctl_batched(rp, ci).ctl, row_ptr, col_ind
        )
        return ref, bat

    @settings(max_examples=150, deadline=None)
    @given(
        row_ptr=st.lists(
            st.integers(min_value=-3, max_value=12), min_size=0, max_size=6
        ),
        col_ind=st.lists(
            st.integers(min_value=0, max_value=9), min_size=0, max_size=10
        ),
    )
    def test_adversarial_inputs_agree(self, row_ptr, col_ind):
        ref, bat = self._both(row_ptr, col_ind)
        assert ref == bat

    @pytest.mark.parametrize(
        "row_ptr, col_ind",
        [
            ([0, -1, 3], [0, 1, 2]),        # negative interior
            ([1, 2, 3], [0, 1, 2]),         # nonzero start
            ([0, 2, 1, 3], [0, 1, 2]),      # non-monotone
            ([0, 1, 5], [0, 1, 2]),         # end past nnz
            ([0, 1, 2], [0, 1, 2]),         # end short of nnz
            ([], [0, 1]),                   # empty row_ptr, nnz > 0
        ],
    )
    def test_known_bad_row_ptr(self, row_ptr, col_ind):
        ref, bat = self._both(row_ptr, col_ind)
        assert ref == bat == ("error", "EncodingError")

    def test_good_input_still_byte_identical(self):
        rp, ci = from_rows([[0, 3, 7], [], [2, 4]])
        ref, bat = self._both(rp, ci)
        assert ref[0] == "ok"
        assert ref == bat
