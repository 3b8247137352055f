"""Tests for the synthetic matrix generators."""

import numpy as np
import pytest

from repro.errors import CatalogError
from repro.formats.conversions import to_csr
from repro.matrices.generators import (
    banded_random,
    block_structured,
    diagonal_bands,
    powerlaw_graph,
    random_uniform,
    stencil_2d,
    stencil_3d,
    tridiagonal,
)


class TestStencil2D:
    def test_interior_row_has_5_points(self):
        m = to_csr(stencil_2d(5, 5, points=5))
        lens = m.row_lengths()
        center = 2 * 5 + 2
        assert lens[center] == 5
        assert lens[0] == 3  # corner

    def test_9_point_interior(self):
        m = to_csr(stencil_2d(5, 5, points=9))
        assert m.row_lengths()[2 * 5 + 2] == 9

    def test_symmetric_pattern(self):
        d = to_csr(stencil_2d(4, 6)).to_dense()
        assert np.array_equal(d != 0, (d != 0).T)

    def test_shape(self):
        m = stencil_2d(3, 7)
        assert m.shape == (21, 21)

    def test_bad_points(self):
        with pytest.raises(CatalogError):
            stencil_2d(3, 3, points=6)

    def test_bad_dims(self):
        with pytest.raises(CatalogError):
            stencil_2d(0, 3)


class TestStencil3D:
    def test_interior_7pt(self):
        m = to_csr(stencil_3d(3, 3, 3, points=7))
        assert m.row_lengths()[13] == 7  # center of the 3x3x3 cube

    def test_interior_27pt(self):
        m = to_csr(stencil_3d(3, 3, 3, points=27))
        assert m.row_lengths()[13] == 27

    def test_corner_7pt(self):
        m = to_csr(stencil_3d(3, 3, 3, points=7))
        assert m.row_lengths()[0] == 4

    def test_bad_points(self):
        with pytest.raises(CatalogError):
            stencil_3d(3, 3, 3, points=9)


class TestBanded:
    def test_within_band(self):
        m = to_csr(banded_random(100, bandwidth=5, nnz_per_row=4, seed=1))
        rows = m.row_of_entry()
        assert np.all(np.abs(m.col_ind.astype(np.int64) - rows) <= 5)

    def test_diagonal_always_present(self):
        m = to_csr(banded_random(50, bandwidth=3, nnz_per_row=3, seed=2))
        d = m.to_dense()
        assert np.all(np.diag(d) != 0)

    def test_deterministic(self):
        a = to_csr(banded_random(40, 4, 5, seed=9))
        b = to_csr(banded_random(40, 4, 5, seed=9))
        assert np.array_equal(a.col_ind, b.col_ind)

    def test_different_seeds_differ(self):
        a = to_csr(banded_random(40, 8, 5, seed=1))
        b = to_csr(banded_random(40, 8, 5, seed=2))
        assert not np.array_equal(a.col_ind, b.col_ind)

    def test_bad_params(self):
        with pytest.raises(CatalogError):
            banded_random(0, 1, 1, seed=0)


class TestRandomUniform:
    def test_nnz_close_to_target(self):
        m = to_csr(random_uniform(200, 400, nnz_per_row=8, seed=3))
        # Duplicate collisions only lose a few percent here.
        assert 0.9 * 200 * 8 <= m.nnz <= 200 * 8

    def test_rectangular(self):
        m = random_uniform(10, 30, 3, seed=4)
        assert m.shape == (10, 30)


class TestPowerlaw:
    def test_degree_skew(self):
        m = to_csr(powerlaw_graph(500, avg_degree=6, seed=5))
        col_counts = np.bincount(m.col_ind, minlength=500)
        # Heavy head: the top column collects far more than average.
        assert col_counts.max() > 8 * col_counts.mean()

    def test_bad_params(self):
        with pytest.raises(CatalogError):
            powerlaw_graph(1, 3, seed=0)


class TestBlockStructured:
    def test_blocks_are_dense(self):
        dense = block_structured(10, block=3, blocks_per_row=2, seed=6).to_dense()
        # One row per 3x3 tile: each tile is all-nonzero or all-zero.
        tiles = (dense != 0).reshape(10, 3, 10, 3).swapaxes(1, 2).reshape(100, 9)
        assert np.all(tiles.all(axis=1) | ~tiles.any(axis=1))
        assert tiles.all(axis=1).any()

    def test_shape(self):
        assert block_structured(4, 2, 1, seed=7).shape == (8, 8)


class TestDiagonals:
    def test_tridiagonal(self):
        d = to_csr(tridiagonal(5)).to_dense()
        expected = np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1)
        assert np.array_equal(d != 0, expected != 0)

    def test_custom_offsets(self):
        m = to_csr(diagonal_bands(10, (0, 3)))
        assert m.nnz == 10 + 7

    def test_offset_out_of_range(self):
        with pytest.raises(CatalogError):
            diagonal_bands(5, (7,))

    def test_no_offsets(self):
        with pytest.raises(CatalogError):
            diagonal_bands(5, ())


class TestDenseBand:
    def test_structure(self):
        from repro.matrices.generators import dense_band

        m = to_csr(dense_band(10, 2))
        d = m.to_dense()
        for i in range(10):
            for j in range(10):
                assert (d[i, j] != 0) == (abs(i - j) <= 2)

    def test_zero_bandwidth_is_diagonal(self):
        from repro.matrices.generators import dense_band

        m = to_csr(dense_band(5, 0))
        assert m.nnz == 5

    def test_bad_params(self):
        from repro.matrices.generators import dense_band

        with pytest.raises(CatalogError):
            dense_band(0, 1)
        with pytest.raises(CatalogError):
            dense_band(5, -1)
