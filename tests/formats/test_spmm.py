"""Multi-vector SpMV (``spmm``): plannable overrides and the generic
column-loop default must both match dense ``A @ X``."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import CSRMatrix, convert
from tests.conftest import random_sparse_dense

PLANNED = ("csr", "csr-vi", "csr-du", "csr-du-vi")
GENERIC = ("coo", "dcsr")


def _case(fmt, *, quantize=None, empty_rows=False, seed=0):
    dense = random_sparse_dense(
        18, 25, 0.2, seed=seed, quantize=quantize, empty_rows=empty_rows
    )
    csr = CSRMatrix.from_dense(dense)
    m = convert(csr, fmt)
    X = np.random.default_rng(seed + 1).random((25, 4)) - 0.5
    return dense, m, X


class TestSpmmPlanned:
    @pytest.mark.parametrize("fmt", PLANNED)
    def test_matches_dense(self, fmt):
        dense, m, X = _case(fmt, quantize=8)
        assert np.allclose(m.spmm(X), dense @ X, atol=1e-9)

    @pytest.mark.parametrize("fmt", PLANNED)
    def test_matches_stacked_spmv(self, fmt):
        """Each right-hand side accumulates in the same order as spmv,
        so the columns agree bit for bit."""
        _, m, X = _case(fmt, empty_rows=True, seed=5)
        Y = m.spmm(X)
        for j in range(X.shape[1]):
            assert np.array_equal(Y[:, j], m.spmv(X[:, j])), f"column {j}"

    @pytest.mark.parametrize("fmt", PLANNED)
    def test_out_buffer(self, fmt):
        _, m, X = _case(fmt, seed=9)
        out = np.full((m.nrows, X.shape[1]), np.nan)
        Y = m.spmm(X, out=out)
        assert Y is out
        assert np.allclose(out, m.spmm(X))

    def test_plan_shared_with_spmv(self):
        from repro.kernels.plan import has_plan

        _, m, X = _case("csr-du")
        m.spmm(X)
        assert has_plan(m)

    @pytest.mark.parametrize("fmt", PLANNED)
    def test_shape_checked(self, fmt):
        _, m, _ = _case(fmt)
        with pytest.raises(FormatError, match="expected"):
            m.spmm(np.zeros((m.ncols + 1, 3)))
        with pytest.raises(FormatError, match="expected"):
            m.spmm(np.zeros(m.ncols))  # 1-D is spmv's job

    def test_single_column(self):
        dense, m, _ = _case("csr-du", seed=2)
        X = np.random.default_rng(0).random((25, 1))
        assert np.allclose(m.spmm(X)[:, 0], dense @ X[:, 0], atol=1e-9)


class TestSpmmGenericDefault:
    @pytest.mark.parametrize("fmt", GENERIC)
    def test_matches_dense(self, fmt):
        dense, m, X = _case(fmt, seed=3)
        assert np.allclose(m.spmm(X), dense @ X, atol=1e-9)

    def test_empty_rows(self):
        dense, m, X = _case("dcsr", empty_rows=True, seed=4)
        assert np.allclose(m.spmm(X), dense @ X, atol=1e-9)


class TestSpmmAliasing:
    """out= aliasing X: plannable kernels copy, the generic path rejects."""

    @pytest.mark.parametrize("fmt", PLANNED)
    def test_planned_out_overlapping_x_is_safe(self, fmt):
        """The multi-vector kernels materialize every product before
        writing out, so Y = A X is correct even when out shares memory
        with X (copy semantics)."""
        dense, m, _ = _case(fmt, quantize=8, seed=13)
        k = 3
        buf = np.zeros((max(m.nrows, m.ncols), k))
        X = buf[: m.ncols]
        X[:] = np.random.default_rng(14).random((m.ncols, k)) - 0.5
        expected = dense @ X.copy()
        Y = m.spmm(X, out=buf[: m.nrows])
        assert Y.base is buf
        assert np.allclose(Y, expected, atol=1e-9)

    @pytest.mark.parametrize("fmt", GENERIC)
    def test_generic_out_overlapping_x_rejected(self, fmt):
        """The column-loop default writes out while still reading X, so
        an overlap would corrupt later columns; it raises instead."""
        from repro.errors import IntegrityError

        _, m, _ = _case(fmt, seed=13)
        k = 2
        buf = np.zeros((max(m.nrows, m.ncols), k))
        X = buf[: m.ncols]
        with pytest.raises(IntegrityError):
            m.spmm(X, out=buf[: m.nrows])

    @pytest.mark.parametrize("fmt", GENERIC)
    def test_generic_disjoint_out_still_works(self, fmt):
        dense, m, X = _case(fmt, seed=13)
        out = np.empty((m.nrows, X.shape[1]))
        assert np.allclose(m.spmm(X, out=out), dense @ X, atol=1e-9)
