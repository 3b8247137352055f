"""Tests for Conjugate Gradient on compressed formats."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, FormatError
from repro.formats import CSRMatrix, convert
from repro.matrices.generators import stencil_2d
from repro.matrices.values import set_matrix_values
from repro.solvers import conjugate_gradient


def poisson_system(nx=8, ny=8, seed=0):
    """SPD 2-D Laplacian system with a known solution."""
    from repro.formats.conversions import to_csr

    pattern = to_csr(stencil_2d(nx, ny))
    # Laplacian values: 4 (or neighbour count) on diag, -1 off diag.
    rows = pattern.row_of_entry()
    vals = np.where(rows == pattern.col_ind, 5.0, -1.0)
    A = set_matrix_values(pattern, vals)
    rng = np.random.default_rng(seed)
    x_true = rng.random(A.ncols)
    return A, A.spmv(x_true), x_true


class TestConvergence:
    def test_solves_poisson(self):
        A, b, x_true = poisson_system()
        res = conjugate_gradient(A, b, tol=1e-10)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-6)
        assert res.spmv_calls >= res.iterations

    @pytest.mark.parametrize("fmt", ["csr-du", "csr-vi", "csr-du-vi", "dcsr"])
    def test_compressed_formats_drop_in(self, fmt):
        """The paper's deployment story: encode once, iterate."""
        A, b, x_true = poisson_system()
        res = conjugate_gradient(convert(A, fmt), b, tol=1e-10)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-6)

    def test_identity_converges_instantly(self):
        A = CSRMatrix.from_dense(np.eye(5))
        b = np.arange(5.0)
        res = conjugate_gradient(A, b)
        assert res.converged
        assert res.iterations <= 2
        assert np.allclose(res.x, b)

    def test_zero_rhs(self):
        A, _, _ = poisson_system()
        res = conjugate_gradient(A, np.zeros(A.ncols))
        assert res.converged
        assert res.iterations == 0
        assert np.all(res.x == 0)

    def test_warm_start(self):
        A, b, x_true = poisson_system()
        res = conjugate_gradient(A, b, x0=x_true)
        assert res.converged
        assert res.iterations == 0


class TestFailureModes:
    def test_non_spd_detected(self):
        A = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, -1.0]]))
        with pytest.raises(ConvergenceError, match="SPD"):
            conjugate_gradient(A, np.array([1.0, 1.0]))

    def test_maxiter_exhaustion(self):
        A, b, _ = poisson_system(12, 12)
        res = conjugate_gradient(A, b, tol=1e-14, maxiter=2)
        assert not res.converged
        assert res.iterations == 2

    def test_maxiter_raises_when_asked(self):
        A, b, _ = poisson_system(12, 12)
        with pytest.raises(ConvergenceError):
            conjugate_gradient(A, b, tol=1e-14, maxiter=2, raise_on_fail=True)

    def test_nonsquare_rejected(self):
        A = CSRMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(FormatError, match="square"):
            conjugate_gradient(A, np.ones(2))

    def test_bad_rhs_shape(self):
        A, _, _ = poisson_system()
        with pytest.raises(FormatError):
            conjugate_gradient(A, np.ones(3))
