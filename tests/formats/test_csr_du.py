"""Tests for CSR-DU -- including the paper's Table I, exactly."""

import struct

import numpy as np
import pytest

from repro.compress.ctl import FLAG_NR, FLAG_SEQ, CtlReader, decode_units
from repro.errors import FormatError
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_du_vi import CSRDUVIMatrix
from repro.kernels.reference import spmv_csr_du_reference
from repro.matrices.generators import dense_band, powerlaw_graph, stencil_2d
from repro.util.bitops import encode_varint

from tests.conftest import random_sparse_dense


def _reshaped(matrix, nrows, ncols):
    """The same delta-unit matrix, rebuilt from its raw ctl bytes at a new shape."""
    if isinstance(matrix, CSRDUVIMatrix):
        return CSRDUVIMatrix(nrows, ncols, matrix.ctl, matrix.vals_unique, matrix.val_ind)
    return CSRDUMatrix(nrows, ncols, matrix.ctl, matrix.values)


DELTA_UNIT_FORMATS = ("csr-du", "csr-du-vi")


def _with_varint(head: list[int], value: int) -> bytes:
    ctl = bytearray(head)
    encode_varint(value, ctl)
    return bytes(ctl)


#: One-row streams whose deltas overflow int64 column arithmetic:
#: ``(ctl, nnz)``.
WRAPPING_STREAMS = {
    "u64-delta": (bytes([FLAG_NR | 3, 2, 0]) + struct.pack("<Q", 2**64 - 1), 2),
    # Five elements 2**62 apart: the unit's span wraps to 0.
    "seq-stride": (_with_varint([FLAG_NR | FLAG_SEQ, 5, 0], 2**62), 5),
    # Column 1, then a second unit 2**63 - 1 further on: wraps negative.
    "ujmp": (_with_varint([FLAG_NR, 1, 1, 0, 1], 2**63 - 1), 2),
}


class TestPaperExample:
    """Table I: the Fig. 1 matrix encodes into exactly six u8/NR units."""

    def test_unit_table(self, paper_matrix):
        du = CSRDUMatrix.from_csr(paper_matrix)
        units = list(CtlReader(du.ctl))
        expected = [  # (usize, ujmp, ucis)
            (2, 0, [1]),
            (3, 1, [2, 2]),
            (1, 2, []),
            (3, 2, [2, 1]),
            (3, 0, [3, 1]),
            (4, 0, [2, 1, 2]),
        ]
        assert len(units) == 6
        for u, (usize, ujmp, ucis) in zip(units, expected):
            assert u.usize == usize
            assert u.ujmp == ujmp
            assert u.deltas.tolist() == ucis
            assert u.cls == 0  # u8
            assert u.new_row  # NR

    def test_index_compression_vs_csr(self, paper_matrix):
        du = CSRDUMatrix.from_csr(paper_matrix)
        assert du.storage().index_bytes < paper_matrix.storage().index_bytes
        assert du.storage().value_bytes == paper_matrix.storage().value_bytes

    def test_spmv(self, paper_matrix, paper_dense):
        du = CSRDUMatrix.from_csr(paper_matrix)
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert np.allclose(du.spmv(x), paper_dense @ x)

    def test_unit_histogram(self, paper_matrix):
        du = CSRDUMatrix.from_csr(paper_matrix)
        assert du.units.classes.tolist() == [0] * 6
        assert du.units.sizes.mean() == pytest.approx(16 / 6)


class TestRoundTrip:
    @pytest.mark.parametrize("policy", ["greedy", "aligned"])
    def test_dense_round_trip(self, policy):
        dense = random_sparse_dense(25, 30, seed=9)
        csr = CSRMatrix.from_dense(dense)
        du = CSRDUMatrix.from_csr(csr, policy=policy)
        back = du.to_csr()
        assert np.allclose(back.to_dense(), dense)
        assert back.row_ptr.tolist() == csr.row_ptr.tolist()
        assert back.col_ind.tolist() == csr.col_ind.tolist()

    def test_empty_rows(self):
        dense = random_sparse_dense(24, 20, seed=10, empty_rows=True)
        csr = CSRMatrix.from_dense(dense)
        du = CSRDUMatrix.from_csr(csr)
        assert np.allclose(du.to_dense(), dense)
        x = np.random.default_rng(0).random(20)
        assert np.allclose(du.spmv(x), dense @ x)

    def test_trailing_empty_rows(self):
        dense = np.zeros((5, 5))
        dense[0, 1] = 2.0
        du = CSRDUMatrix.from_csr(CSRMatrix.from_dense(dense))
        assert np.allclose(du.to_dense(), dense)

    def test_empty_matrix(self):
        csr = CSRMatrix(3, 3, np.array([0, 0, 0, 0]), np.array([], dtype=np.int32), [])
        du = CSRDUMatrix.from_csr(csr)
        assert du.nnz == 0
        assert du.ctl == b""
        assert du.spmv(np.ones(3)).tolist() == [0.0, 0.0, 0.0]

    def test_wide_deltas(self):
        """A row spanning u8/u16/u32 delta classes survives the trip."""
        cols = np.array([0, 10, 1000, 200_000, 200_001], dtype=np.int32)
        csr = CSRMatrix(
            1, 300_000, np.array([0, 5]), cols, np.ones(5)
        )
        du = CSRDUMatrix.from_csr(csr)
        assert du.to_csr().col_ind.tolist() == cols.tolist()
        assert du.units.classes.max() == 2  # the 199000 delta needs u32

    def test_long_row_multiple_units(self):
        n = 700
        csr = CSRMatrix(
            1, n, np.array([0, n]), np.arange(n, dtype=np.int32), np.ones(n)
        )
        du = CSRDUMatrix.from_csr(csr)
        assert du.units.nunits >= 3  # 255-element cap
        assert du.to_csr().col_ind.tolist() == list(range(n))


class TestValidation:
    def test_ctl_type_checked(self):
        with pytest.raises(FormatError, match="bytes"):
            CSRDUMatrix(2, 2, [1, 2], np.array([1.0]))

    @pytest.mark.parametrize("fmt", DELTA_UNIT_FORMATS)
    def test_row_overflow_detected(self, paper_matrix, fmt):
        du = convert(paper_matrix, fmt)
        bad = _reshaped(du, 3, 6)  # fewer rows than stream
        with pytest.raises(FormatError, match="row"):
            bad.units

    @pytest.mark.parametrize("fmt", DELTA_UNIT_FORMATS)
    def test_column_overflow_detected(self, paper_matrix, fmt):
        du = convert(paper_matrix, fmt)
        bad = _reshaped(du, 6, 4)
        with pytest.raises(FormatError, match="column"):
            bad.units

    @pytest.mark.parametrize(
        "read",
        [
            lambda m: m.units,
            lambda m: m.spmv(np.ones(4)),
            lambda m: m.to_csr(),
            lambda m: spmv_csr_du_reference(m, np.ones(4)),
        ],
        ids=["units", "spmv", "to_csr", "reference"],
    )
    @pytest.mark.parametrize("stream", sorted(WRAPPING_STREAMS))
    def test_wrapping_delta_rejected(self, stream, read):
        """Deltas that wrap int64 column arithmetic must not decode to
        negative or phantom in-range columns."""
        ctl, nnz = WRAPPING_STREAMS[stream]
        with pytest.raises(FormatError):
            read(CSRDUMatrix(1, 4, ctl, np.ones(nnz)))

    def test_storage_is_exact_ctl_length(self, paper_matrix):
        du = CSRDUMatrix.from_csr(paper_matrix)
        assert du.storage().index_bytes == len(du.ctl)


class TestCompressionQuality:
    def test_sequential_columns_compress_about_4x(self):
        """Dense-ish rows with tiny deltas: ~1 byte/nnz vs 4 bytes/nnz."""
        n = 2000
        csr = CSRMatrix(
            1, n, np.array([0, n]), np.arange(n, dtype=np.int32), np.ones(n)
        )
        du = CSRDUMatrix.from_csr(csr)
        csr_index = csr.storage().index_bytes
        assert du.storage().index_bytes < csr_index / 3

    def test_scattered_columns_compress_less(self):
        rng = np.random.default_rng(11)
        cols = np.sort(rng.choice(1 << 22, size=300, replace=False)).astype(np.int32)
        csr = CSRMatrix(1, 1 << 22, np.array([0, 300]), cols, np.ones(300))
        du = CSRDUMatrix.from_csr(csr)
        # Deltas ~ 2^22/300 ~ 14000 -> u16: about 2 bytes per element.
        ratio = du.storage().index_bytes / csr.storage().index_bytes
        assert 0.3 < ratio < 1.0


def _wide_deltas() -> CSRMatrix:
    """Rows whose deltas need the u16 and u32 width classes."""
    cols = np.array([0, 1000, 2000, 3000, 5, 100_005, 200_005, 300_005])
    return CSRMatrix(3, 400_000, np.array([0, 4, 4, 8]), cols, np.arange(1.0, 9.0))


ORACLE_CASES = {
    "empty": (
        lambda: CSRMatrix(3, 3, np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int32), []),
        "greedy",
    ),
    "empty-rows": (
        lambda: CSRMatrix.from_dense(random_sparse_dense(24, 20, seed=10, empty_rows=True)),
        "greedy",
    ),
    "stencil": (lambda: convert(stencil_2d(12, 12), "csr"), "greedy"),
    "band-seq": (lambda: convert(dense_band(40, 12), "csr"), "seq"),
    "powerlaw-aligned": (lambda: convert(powerlaw_graph(300, 6, seed=4), "csr"), "aligned"),
    "wide-deltas": (_wide_deltas, "greedy"),
}


@pytest.mark.parametrize("fmt", DELTA_UNIT_FORMATS)
@pytest.mark.parametrize("rebuilt", [False, True], ids=["encoder-table", "scanned"])
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_units_equal_decode_units_oracle(case, rebuilt, fmt):
    """``units`` (read from the kernel plan) equals the per-unit decode,
    array for array and dtype for dtype, whether the plan took the
    batched encoder's unit table or scanned the raw ctl bytes."""
    build, policy = ORACLE_CASES[case]
    matrix = convert(build(), fmt, policy=policy)
    assert hasattr(matrix, "_unit_table")
    if rebuilt:
        matrix = _reshaped(matrix, matrix.nrows, matrix.ncols)
        assert not hasattr(matrix, "_unit_table")
    oracle = decode_units(matrix.ctl, matrix.nnz)
    units = matrix.units
    for field in (
        "rows", "sizes", "classes", "offsets", "columns", "new_row", "ctl_offsets", "seq"
    ):
        got, want = getattr(units, field), getattr(oracle, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field
