"""Tests for power iteration."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.solvers.power import power_iteration


class TestPowerIteration:
    def test_dominant_eigenvector(self):
        dense = np.diag([5.0, 2.0, 1.0])
        dense[0, 1] = 0.1
        A = CSRMatrix.from_dense(dense)
        res = power_iteration(A, tol=1e-12)
        assert res.converged
        # Dominant eigenvector ~ e0 direction.
        v = res.x / np.sign(res.x[np.argmax(np.abs(res.x))])
        assert abs(v[0]) > 0.99

    def test_matches_numpy_eig(self):
        rng = np.random.default_rng(6)
        dense = rng.random((12, 12))
        dense = dense + dense.T + 12 * np.eye(12)  # symmetric, dominant
        A = CSRMatrix.from_dense(dense)
        res = power_iteration(A, tol=1e-12, maxiter=5000)
        w, V = np.linalg.eigh(dense)
        top = V[:, -1]
        cos = abs(float(res.x @ top))
        assert cos > 1 - 1e-6

    @pytest.mark.parametrize("fmt", ["csr-du", "csr-vi"])
    def test_compressed_formats(self, fmt):
        dense = np.diag([4.0, 1.0]) + 0.25
        A = convert(CSRMatrix.from_dense(dense), fmt)
        res = power_iteration(A, tol=1e-10)
        assert res.converged

    def test_budget(self):
        rng = np.random.default_rng(7)
        dense = rng.random((10, 10))
        A = CSRMatrix.from_dense(dense)
        res = power_iteration(A, tol=1e-16, maxiter=3)
        assert res.iterations <= 3

    def test_nonsquare(self):
        with pytest.raises(FormatError):
            power_iteration(CSRMatrix.from_dense(np.ones((2, 3))))

    def test_zero_matrix(self):
        A = CSRMatrix.from_dense(np.zeros((3, 3)))
        res = power_iteration(A)
        assert res.converged
