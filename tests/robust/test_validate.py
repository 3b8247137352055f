"""Integrity validators: ctl walker, per-format checkers, checksum seal."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compress.ctl import FLAG_NR, FLAG_RJMP, FLAG_SEQ
from repro.errors import IntegrityError
from repro.formats import CSRMatrix, convert
from repro.robust.validate import (
    SEAL_ATTR,
    check_seal,
    check_values,
    is_sealed,
    seal,
    verify_matrix,
    walk_ctl,
)

from tests.conftest import random_sparse_dense

ALL_FORMATS = ("csr", "csr-vi", "csr-du", "csr-du-vi", "coo", "dcsr")


@pytest.fixture(scope="module")
def csr():
    return CSRMatrix.from_dense(
        random_sparse_dense(40, 33, seed=3, quantize=8, empty_rows=True)
    )


def fresh(csr, fmt):
    """An independent conversion safe to corrupt in a test.

    ``convert(csr, "csr")`` returns the input itself, so mutating tests
    must not touch it — they would poison the shared fixture.
    """
    if fmt == "csr":
        return CSRMatrix(
            csr.nrows,
            csr.ncols,
            csr.row_ptr.copy(),
            csr.col_ind.copy(),
            csr.values.copy(),
        )
    return convert(csr, fmt)


class TestWalkCtl:
    """Hand-crafted streams hitting every walker error branch.

    Unit wire layout: ``[flags, usize, varints..., deltas...]`` with
    class bits 0-1 (0 = u8), ``FLAG_NR`` opening a row.
    """

    def test_real_stream_stats(self, csr):
        du = convert(csr, "csr-du")
        stats = walk_ctl(
            du.ctl, nnz=du.nnz, nrows=du.nrows, ncols=du.ncols
        )
        assert stats.nnz == du.nnz
        assert 0 <= stats.last_row < du.nrows
        assert 0 <= stats.max_col < du.ncols
        assert stats.nunits >= 1

    def test_empty_stream(self):
        stats = walk_ctl(b"", nnz=0)
        assert stats.nunits == 0
        assert stats.last_row == -1

    def _die(self, ctl, match, **kwargs):
        with pytest.raises(IntegrityError, match=match) as exc_info:
            walk_ctl(bytes(ctl), **kwargs)
        return exc_info.value

    def test_valid_minimal_unit(self):
        # NR unit, usize 2, ujmp 0, one u8 delta of 5: row 0, cols {0, 5}.
        stats = walk_ctl(bytes([FLAG_NR, 2, 0, 5]))
        assert (stats.nunits, stats.nnz) == (1, 2)
        assert (stats.last_row, stats.max_col) == (0, 5)

    def test_truncated_header(self):
        err = self._die([FLAG_NR], "truncated unit header")
        assert err.byte_offset == 0

    def test_unknown_flag_bits(self):
        self._die([FLAG_NR | 0x80, 1, 0], "unknown flag bits")

    def test_zero_unit_size(self):
        self._die([FLAG_NR, 0, 0], "unit size 0")

    def test_rjmp_without_nr(self):
        self._die([FLAG_RJMP, 1, 0, 0], "RJMP flag without NR")

    def test_stream_must_open_with_row(self):
        self._die([0x00, 1, 1], "does not start with a new-row unit")

    def test_in_row_unit_must_advance(self):
        self._die(
            [FLAG_NR, 1, 0, 0x00, 1, 0], "does not advance the column"
        )

    def test_zero_delta_in_body(self):
        self._die([FLAG_NR, 2, 0, 0], "zero column delta")

    def test_truncated_body(self):
        err = self._die([FLAG_NR, 3, 0, 1], "truncated unit body")
        assert err.byte_offset == 0
        assert err.row == 0

    def test_seq_nonpositive_stride(self):
        self._die([FLAG_NR | FLAG_SEQ, 3, 0, 0], "non-positive stride")

    def test_row_out_of_range(self):
        err = self._die(
            [FLAG_NR, 1, 0, FLAG_NR, 1, 0],
            "row index 1 out of range",
            nrows=1,
        )
        assert err.row == 1

    def test_col_out_of_range(self):
        self._die([FLAG_NR, 1, 7], "column index 7 out of range", ncols=5)

    def test_nnz_mismatch(self):
        err = self._die([FLAG_NR, 2, 0, 5], "covers 2 nonzeros", nnz=3)
        assert err.byte_offset == 4

    def test_truncated_varint(self):
        # 0x80 continuation bit with nothing after it.
        self._die([FLAG_NR, 1, 0x80], "varint|truncated")


class TestCheckValues:
    def test_finite_rejects_nan_and_inf(self):
        for bad in (np.nan, np.inf, -np.inf):
            arr = np.array([1.0, bad, 2.0])
            with pytest.raises(IntegrityError, match=r"values\[1\]") as ei:
                check_values(arr, "values", "finite")
            assert ei.value.field == "values"

    def test_no_nan_allows_inf(self):
        check_values(np.array([1.0, np.inf]), "values", "no-nan")
        with pytest.raises(IntegrityError, match="NaN"):
            check_values(np.array([np.nan]), "values", "no-nan")

    def test_any_disables(self):
        check_values(np.array([np.nan, np.inf]), "values", "any")

    def test_unknown_policy(self):
        with pytest.raises(IntegrityError, match="unknown value policy"):
            check_values(np.zeros(1), "values", "strict")


class TestVerifyFormats:
    @pytest.mark.parametrize("fmt", ALL_FORMATS)
    def test_healthy_matrix_verifies(self, csr, fmt):
        m = convert(csr, fmt)
        assert m.verify() is m

    @pytest.mark.parametrize("fmt", ("csr", "csr-vi", "csr-du", "coo"))
    def test_nan_policy_plumbed(self, csr, fmt):
        m = fresh(csr, fmt)
        arrays = vars(m)
        name = "vals_unique" if "vals_unique" in arrays else "values"
        corrupted = arrays[name].copy()
        corrupted[0] = np.nan
        setattr(m, name, corrupted)
        with pytest.raises(IntegrityError, match="non-finite"):
            m.verify()
        # The policy knob reaches the checker.
        m.verify(value_policy="any")

    def test_csr_row_ptr_shape(self, csr):
        m = fresh(csr, "csr")
        m.row_ptr = m.row_ptr[:-1].copy()
        with pytest.raises(IntegrityError, match="row_ptr"):
            verify_matrix(m)

    def test_csr_col_disorder(self, csr):
        m = fresh(csr, "csr")
        ci = m.col_ind.copy()
        lo = int(np.flatnonzero(np.diff(m.row_ptr) >= 2)[0])
        start = int(m.row_ptr[lo])
        ci[start], ci[start + 1] = ci[start + 1], ci[start]
        m.col_ind = ci
        with pytest.raises(IntegrityError):
            verify_matrix(m)

    def test_csr_vi_val_ind_range(self, csr):
        m = fresh(csr, "csr-vi")
        vi = m.val_ind.copy()
        vi[0] = m.vals_unique.size
        m.val_ind = vi
        with pytest.raises(IntegrityError, match="val_ind"):
            verify_matrix(m)

    def test_generic_decode_replay(self, csr):
        m = fresh(csr, "coo")
        cols = m.cols.copy()
        cols[0] = m.ncols + 3
        m.cols = cols
        with pytest.raises(IntegrityError):
            verify_matrix(m)


class TestSeal:
    @pytest.mark.parametrize("fmt", ("csr", "csr-vi", "csr-du", "csr-du-vi"))
    def test_seal_round_trip(self, csr, fmt):
        m = fresh(csr, fmt)
        assert not is_sealed(m)
        assert seal(m) is m
        assert is_sealed(m)
        check_seal(m)
        m.verify()

    def test_seal_catches_plausible_value_flip(self, csr):
        """A low-mantissa bit flip keeps every structural invariant;
        only the checksum notices."""
        m = seal(fresh(csr, "csr"))
        values = m.values.copy()
        bits = values.view(np.uint64)
        bits[3] ^= 1
        m.values = values
        with pytest.raises(IntegrityError, match="values") as ei:
            m.verify()
        assert ei.value.field == "values"

    def test_seal_catches_missing_array(self, csr):
        m = seal(fresh(csr, "csr"))
        del m.col_ind
        with pytest.raises(IntegrityError, match="col_ind"):
            check_seal(m)

    def test_reseal_after_legit_edit(self, csr):
        m = seal(fresh(csr, "csr"))
        values = m.values.copy()
        values[0] += 1.0
        m.values = values
        with pytest.raises(IntegrityError):
            check_seal(m)
        seal(m)
        check_seal(m)

    def test_seal_attr_excluded_from_digest(self, csr):
        m = seal(fresh(csr, "csr"))
        first = dict(getattr(m, SEAL_ATTR))
        seal(m)
        assert getattr(m, SEAL_ATTR) == first
