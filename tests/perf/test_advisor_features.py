"""Feature extraction correctness: hand-computed cases and invariants.

The hand-computed fixtures are the paper's Fig. 1 matrix (every number
derivable from Table I) and a tridiagonal band; both are small enough
to check each :class:`~repro.perf.advisor.features.MatrixFeatures`
field against arithmetic done on paper.  The property tests pin the
two contracts the advisor leans on: index-side features depend only on
the sparsity pattern (perturbing values must not move them), and
``ttu`` is monotone under value coarsening (merging distinct values
can only raise the total-to-unique ratio, never lower it).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.matrices.generators import dense_band, stencil_2d
from repro.matrices.values import quantized_values, set_matrix_values
from repro.perf.advisor.features import MatrixFeatures, extract_features
from tests.conftest import PAPER_DENSE, random_sparse_dense


class TestPaperMatrix:
    """Every field of the Fig. 1 matrix, computed by hand."""

    @pytest.fixture(scope="class")
    def feats(self) -> MatrixFeatures:
        return extract_features(CSRMatrix.from_dense(PAPER_DENSE))

    def test_shape_and_density(self, feats):
        assert (feats.nrows, feats.ncols, feats.nnz) == (6, 6, 16)
        assert feats.density == pytest.approx(16 / 36)

    def test_row_statistics(self, feats):
        # Row lengths are (2, 3, 1, 3, 3, 4).
        assert feats.nnz_row_mean == pytest.approx(16 / 6)
        assert feats.nnz_row_max == 4
        assert feats.empty_rows == 0
        lengths = np.array([2, 3, 1, 3, 3, 4])
        assert feats.nnz_row_std == pytest.approx(lengths.std())

    def test_delta_histogram_all_narrow(self, feats):
        # Columns never jump more than 5, so every delta is u8.
        assert feats.delta_hist == (16, 0, 0, 0)

    def test_units_estimate_exact_here(self, feats):
        # One u8 run per row, none longer than 255, no singleton with a
        # same-row successor: exactly one unit per row.
        assert feats.units_est == 6
        # And the estimate matches the real greedy encoder on this case.
        du = CSRDUMatrix.from_csr(CSRMatrix.from_dense(PAPER_DENSE))
        assert feats.units_est == du.units.nunits

    def test_value_features(self, feats):
        # Distinct nonzeros: 5.4 1.1 6.3 7.7 8.8 2.9 3.7 9.0 4.5 -> 9.
        assert feats.unique_values == 9
        assert feats.ttu == pytest.approx(16 / 9)

    def test_locality_features(self, feats):
        # Diagonal entries: rows 0, 1, 2, 4, 5 -> 5 of 16.
        assert feats.diag_fraction == pytest.approx(5 / 16)
        # Sum of |col - row| over all entries is 26.
        assert feats.bandwidth_mean == pytest.approx(26 / 16 / 5)


class TestDenseBand:
    """Tridiagonal 6x6: the stencil-like hand case."""

    @pytest.fixture(scope="class")
    def feats(self) -> MatrixFeatures:
        return extract_features(CSRMatrix.from_coo(dense_band(6, 1)))

    def test_structure(self, feats):
        assert feats.nnz == 16
        assert feats.delta_hist == (16, 0, 0, 0)
        assert feats.units_est == 6
        assert feats.nnz_row_max == 3
        assert feats.nnz_row_mean == pytest.approx(16 / 6)

    def test_locality(self, feats):
        # 6 diagonal entries; 10 off-diagonal entries at distance 1.
        assert feats.diag_fraction == pytest.approx(6 / 16)
        assert feats.bandwidth_mean == pytest.approx(10 / 16 / 5)


def test_units_estimate_tracks_encoder_on_stencil():
    csr = CSRMatrix.from_coo(stencil_2d(24, 24, points=5))
    feats = extract_features(csr)
    actual = CSRDUMatrix.from_csr(csr).units.nunits
    assert feats.units_est == pytest.approx(actual, rel=0.05)


def test_features_hashable_and_memoizable():
    a = extract_features(CSRMatrix.from_dense(PAPER_DENSE))
    b = extract_features(CSRMatrix.from_dense(PAPER_DENSE))
    assert a == b
    assert hash(a) == hash(b)
    assert {a: "choice"}[b] == "choice"


def test_empty_rows_counted():
    dense = random_sparse_dense(32, 32, density=0.2, seed=3, empty_rows=True)
    feats = extract_features(CSRMatrix.from_dense(dense))
    assert feats.empty_rows >= 32 // 4


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 1_000), vseed=st.integers(0, 1_000))
def test_index_features_invariant_under_value_perturbation(seed, vseed):
    """Replacing the values moves only ttu / unique_values."""
    dense = random_sparse_dense(24, 24, density=0.2, seed=seed)
    csr = CSRMatrix.from_dense(dense)
    if csr.nnz == 0:
        return
    before = extract_features(csr)
    new_values = np.random.default_rng(vseed).random(csr.nnz) + 0.5
    after = extract_features(set_matrix_values(csr, new_values))
    index_fields = (
        "nrows", "ncols", "nnz", "density", "nnz_row_mean", "nnz_row_std",
        "nnz_row_max", "empty_rows", "delta_hist", "units_est",
        "diag_fraction", "bandwidth_mean",
    )
    for field in index_fields:
        assert getattr(before, field) == getattr(after, field), field


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(0, 1_000),
    unique=st.integers(2, 64),
)
def test_ttu_monotone_under_dedup(seed, unique):
    """Coarsening values never lowers ttu (dedup is the VI best case)."""
    dense = random_sparse_dense(24, 24, density=0.25, seed=seed)
    csr = CSRMatrix.from_dense(dense)
    if csr.nnz == 0:
        return
    baseline = extract_features(csr)
    quantized = set_matrix_values(
        csr, quantized_values(csr.nnz, unique, seed=seed)
    )
    coarse = extract_features(quantized)
    assert coarse.unique_values <= min(unique, csr.nnz)
    # Rounding the quantized values further can only merge classes.
    rounded = set_matrix_values(
        quantized, np.round(np.asarray(quantized.values), 1)
    )
    rounder = extract_features(rounded)
    assert rounder.unique_values <= coarse.unique_values
    assert rounder.ttu >= coarse.ttu
    # ttu is nnz/unique by definition, on every variant.
    for f in (baseline, coarse, rounder):
        assert f.ttu == pytest.approx(f.nnz / f.unique_values)
