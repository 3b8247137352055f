"""Tests for RCM reordering."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.conversions import convert, to_csr
from repro.formats.csr import CSRMatrix
from repro.matrices.generators import random_uniform, stencil_2d
from repro.matrices.reorder import (
    apply_symmetric_permutation,
    rcm_permutation,
    rcm_reorder,
)
from repro.matrices.stats import compute_stats


def shuffled_stencil(n=12, seed=3):
    """A banded matrix scrambled by a random symmetric permutation."""
    csr = to_csr(stencil_2d(n, n))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(csr.nrows).astype(np.int64)
    return apply_symmetric_permutation(csr, perm), csr


class TestPermutation:
    def test_is_permutation(self):
        m, _ = shuffled_stencil()
        perm = rcm_permutation(m)
        assert sorted(perm.tolist()) == list(range(m.nrows))

    def test_deterministic(self):
        m, _ = shuffled_stencil()
        assert np.array_equal(rcm_permutation(m), rcm_permutation(m))

    def test_reduces_bandwidth(self):
        """The point of RCM: the scrambled stencil's bandwidth collapses
        back to O(grid side)."""
        scrambled, original = shuffled_stencil()
        before = compute_stats(scrambled).bandwidth
        reordered, _ = rcm_reorder(scrambled)
        after = compute_stats(reordered).bandwidth
        assert after < before / 3
        assert after <= 2 * compute_stats(original).bandwidth

    def test_handles_disconnected_components(self):
        dense = np.zeros((6, 6))
        dense[0, 1] = dense[1, 0] = 1.0
        dense[3, 4] = dense[4, 3] = 1.0
        np.fill_diagonal(dense, 2.0)
        perm = rcm_permutation(CSRMatrix.from_dense(dense))
        assert sorted(perm.tolist()) == list(range(6))

    def test_empty_matrix(self):
        csr = CSRMatrix(0, 0, np.array([0]), np.array([], dtype=np.int32), [])
        assert rcm_permutation(csr).size == 0

    def test_nonsquare_rejected(self):
        with pytest.raises(FormatError):
            rcm_permutation(CSRMatrix.from_dense(np.ones((2, 3))))


class TestApplyPermutation:
    def test_spmv_commutes(self):
        """B (P x) == P (A x): the algebra survives reordering."""
        m, _ = shuffled_stencil()
        rng = np.random.default_rng(5)
        vals = rng.random(m.nnz) + 0.5
        from repro.matrices.values import set_matrix_values

        A = set_matrix_values(m, vals)
        B, perm = rcm_reorder(A)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size)
        x = rng.random(A.ncols)
        lhs = B.spmv(x[perm])
        rhs = A.spmv(x)[perm]
        assert np.allclose(lhs, rhs)

    def test_identity_permutation_is_noop(self, paper_matrix):
        out = apply_symmetric_permutation(paper_matrix, np.arange(6))
        assert np.allclose(out.to_dense(), paper_matrix.to_dense())

    def test_bad_permutation(self, paper_matrix):
        with pytest.raises(FormatError, match="permutation"):
            apply_symmetric_permutation(paper_matrix, np.zeros(6, dtype=np.int64))


class TestCompressionInteraction:
    def test_rcm_improves_csr_du(self):
        """ABL-8's claim: reordering shrinks column deltas, so the same
        matrix compresses better under CSR-DU after RCM.  The grid must
        be big enough that scrambled deltas cross the u8/u16 boundary
        (a 48x48 grid has 2304 columns)."""
        scrambled, _ = shuffled_stencil(n=48, seed=9)
        reordered, _ = rcm_reorder(scrambled)
        before = convert(scrambled, "csr-du").storage().index_bytes
        after = convert(reordered, "csr-du").storage().index_bytes
        assert after < before

    def test_rcm_improves_u8_fraction(self):
        scrambled, _ = shuffled_stencil(n=48, seed=11)
        reordered, _ = rcm_reorder(scrambled)
        assert (
            compute_stats(reordered).delta_u8_frac
            >= compute_stats(scrambled).delta_u8_frac
        )

    def test_random_matrix_gains_little(self):
        """No locality to recover: RCM cannot conjure structure."""
        m = to_csr(random_uniform(150, 150, 6, seed=13))
        reordered, _ = rcm_reorder(m)
        before = convert(m, "csr-du").storage().index_bytes
        after = convert(reordered, "csr-du").storage().index_bytes
        assert after > before * 0.7  # no order-of-magnitude miracle
