"""Cross-kernel bit-identity: the paper's reference CSR-DU kernel and
the plan-backed ``CSRDUMatrix.spmv`` must produce *exactly* the same
``y`` -- same bits, not merely allclose -- on any matrix and any ctl
policy.

This works because both kernels accumulate each row's products in
element order with scalar-equivalent adds (the reference loop and the
plan's ``np.add.at``), so there is no floating-point ordering slack to
hide behind."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compress.delta import Unit
from repro.compress.ctl import CtlWriter
from repro.compress.unit_table import BatchedColumnDecoder, scan_units
from repro.errors import EncodingError
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.kernels.plan import CSRDUPlan
from repro.kernels.reference import spmv_csr_du_reference
from repro.util.bitops import encode_varint
from tests.conftest import PAPER_DENSE, random_sparse_dense

POLICIES = ("greedy", "aligned", "seq")


def assert_kernels_bit_identical(dense: np.ndarray, policy: str, seed: int = 0):
    csr = CSRMatrix.from_dense(dense)
    du = CSRDUMatrix.from_csr(csr, policy=policy)
    x = np.random.default_rng(seed).random(dense.shape[1]) - 0.5
    y_ref = spmv_csr_du_reference(du, x)
    assert np.array_equal(y_ref, du.spmv(x)), "spmv differs from reference"
    # And both are right, not merely identically wrong.
    assert np.allclose(y_ref, dense @ x, atol=1e-9)


@st.composite
def sparse_dense(draw):
    nrows = draw(st.integers(min_value=1, max_value=16))
    ncols = draw(st.integers(min_value=1, max_value=400))
    density = draw(st.floats(min_value=0.0, max_value=0.5))
    seed = draw(st.integers(0, 1 << 30))
    rng = np.random.default_rng(seed)
    mask = rng.random((nrows, ncols)) < density
    dense = np.where(mask, rng.random((nrows, ncols)) - 0.5, 0.0)
    if draw(st.booleans()) and nrows >= 4:
        dense[nrows // 4 : nrows // 2] = 0.0  # empty-row band
    return dense


class TestCrossKernelProperty:
    @settings(max_examples=40, deadline=None)
    @given(sparse_dense(), st.sampled_from(POLICIES), st.integers(0, 1 << 30))
    def test_bit_identical_random(self, dense, policy, seed):
        assert_kernels_bit_identical(dense, policy, seed)

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(
            np.float64,
            (8, 12),
            elements=st.sampled_from([0.0, 0.0, 1.5, -2.25, 3.0]),
        ),
        st.sampled_from(POLICIES),
    )
    def test_bit_identical_quantized(self, dense, policy):
        assert_kernels_bit_identical(dense, policy)


class TestCrossKernelEdgeCases:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_paper_matrix(self, policy):
        assert_kernels_bit_identical(PAPER_DENSE, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_empty_rows(self, policy):
        dense = random_sparse_dense(24, 60, 0.2, seed=7, empty_rows=True)
        dense[0] = 0.0  # leading empty row forces an RJMP opener
        dense[-1] = 0.0
        assert_kernels_bit_identical(dense, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_single_nnz_rows(self, policy):
        dense = np.zeros((10, 50))
        rng = np.random.default_rng(3)
        for i in range(10):
            dense[i, rng.integers(0, 50)] = rng.random() + 0.5
        assert_kernels_bit_identical(dense, policy)

    def test_seq_runs(self):
        """Long constant-stride rows become SEQ units under the seq policy."""
        dense = np.zeros((6, 300))
        dense[0, ::3] = 1.5  # stride-3 run
        dense[2, :64] = 2.0  # stride-1 run
        dense[4, 5] = 1.0  # singleton
        csr = CSRMatrix.from_dense(dense)
        du = CSRDUMatrix.from_csr(csr, policy="seq")
        assert scan_units(du.ctl).seq.any(), "seq policy emitted no SEQ units"
        assert_kernels_bit_identical(dense, "seq")

    @pytest.mark.parametrize("policy", POLICIES)
    def test_wide_deltas(self, policy):
        """Column jumps needing u16/u32 delta classes."""
        dense = np.zeros((4, 200_000))
        dense[0, [0, 300, 70_000, 199_999]] = 1.25
        dense[2, [5, 6, 100_000]] = -2.5
        assert_kernels_bit_identical(dense, policy)

    def test_u64_class_units(self):
        """A hand-built stream using the u64 width class (the encoder
        never emits it for columns that fit u32, but the wire format
        and both kernels must handle it)."""
        writer = CtlWriter()
        writer.append(
            Unit(
                row=0,
                new_row=True,
                row_jump=1,
                ujmp=2,
                deltas=np.array([3, 1, 7], dtype=np.int64),
                cls=3,  # u64 deltas, deliberately non-minimal
                seq=False,
            )
        )
        writer.append(
            Unit(
                row=2,
                new_row=True,
                row_jump=2,
                ujmp=0,
                deltas=np.array([40], dtype=np.int64),
                cls=3,
                seq=False,
            )
        )
        ctl = writer.getvalue()
        values = np.arange(1.0, 7.0)
        du = CSRDUMatrix(3, 60, ctl, values)
        table = scan_units(ctl)
        assert np.array_equal(table.classes, [3, 3])
        assert np.array_equal(
            BatchedColumnDecoder(ctl, table, 6).columns(), [2, 5, 6, 13, 0, 40]
        )
        x = np.random.default_rng(11).random(60)
        assert np.array_equal(spmv_csr_du_reference(du, x), du.spmv(x))


class TestScannerErrors:
    """scan_units rejects the same malformed streams CtlReader does."""

    def test_truncated_header(self):
        with pytest.raises(EncodingError, match="truncated unit header"):
            scan_units(bytes([0x40]))

    def test_unknown_flags(self):
        with pytest.raises(EncodingError, match="unknown flag bits"):
            scan_units(bytes([0x88, 1, 0]))

    def test_zero_size(self):
        with pytest.raises(EncodingError, match="unit size 0"):
            scan_units(bytes([0x40, 0, 0]))

    def test_rjmp_without_nr(self):
        with pytest.raises(EncodingError, match="RJMP flag without NR"):
            scan_units(bytes([0x20, 1, 0, 0]))

    def test_no_leading_new_row(self):
        with pytest.raises(EncodingError, match="start with a new-row unit"):
            scan_units(bytes([0x00, 1, 0]))

    def test_truncated_body(self):
        # u16-class unit of 3 elements: needs 4 body bytes, give 1.
        with pytest.raises(EncodingError, match="truncated fixed-width run"):
            scan_units(bytes([0x41, 3, 0, 7]))

    def test_header_field_beyond_int64(self):
        ctl = bytearray([0x40, 1])
        encode_varint(2**63, ctl)  # a ujmp no int64 column can hold
        with pytest.raises(EncodingError, match="int64"):
            scan_units(bytes(ctl))

    def test_nnz_mismatch(self):
        ctl = bytes([0x40, 2, 0, 1])  # one u8 unit, 2 elements
        table = scan_units(ctl)
        with pytest.raises(EncodingError, match="expected 5"):
            BatchedColumnDecoder(ctl, table, 5)

    def test_plan_row_bound(self):
        ctl = bytes([0x40, 1, 0, 0x40, 1, 0])  # rows 0 and 1
        with pytest.raises(Exception, match="reaches row 1"):
            CSRDUPlan(1, 4, ctl, 2)

    def test_plan_column_bound(self):
        ctl = bytes([0x40, 2, 0, 9])  # columns 0 and 9
        with pytest.raises(Exception, match="beyond ncols"):
            CSRDUPlan(1, 5, ctl, 2)
