"""The formats' vectorized ``spmv`` (the registry's ``"cached"`` tier)
must agree with the dense product and the reference kernels."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import (
    CSRDUMatrix,
    CSRDUVIMatrix,
    CSRMatrix,
    CSRVIMatrix,
)

from tests.conftest import random_sparse_dense


@pytest.fixture(
    scope="module",
    params=[
        dict(seed=40, density=0.1),
        dict(seed=41, density=0.4, quantize=8),
        dict(seed=42, density=0.05, empty_rows=True),
    ],
)
def case(request):
    dense = random_sparse_dense(30, 35, **request.param)
    x = np.random.default_rng(request.param["seed"]).random(35)
    return dense, CSRMatrix.from_dense(dense), x


class TestAgreement:
    def test_csr(self, case):
        dense, csr, x = case
        assert np.allclose(csr.spmv(x), dense @ x)

    def test_csr_vi(self, case):
        dense, csr, x = case
        vi = CSRVIMatrix.from_csr(csr)
        assert np.allclose(vi.spmv(x), dense @ x)

    def test_csr_du_vi(self, case):
        dense, csr, x = case
        duvi = CSRDUVIMatrix.from_csr(csr)
        assert np.allclose(duvi.spmv(x), dense @ x)


class TestShapeChecks:
    def test_wrong_x_shape(self, paper_matrix):
        du = CSRDUMatrix.from_csr(paper_matrix)
        with pytest.raises(FormatError):
            du.spmv(np.ones(7))
        with pytest.raises(FormatError):
            paper_matrix.spmv(np.ones((6, 1)))


class TestRegistry:
    def test_lookup_and_call(self, paper_matrix, paper_dense):
        from repro.kernels.registry import available_kernels, get_kernel

        x = np.ones(6)
        k = get_kernel("csr", "cached")
        assert np.allclose(k(paper_matrix, x), paper_dense @ x)
        assert ("csr-du", "reference") in available_kernels()

    def test_cached_tier_for_all_formats(self, paper_matrix, paper_dense):
        from repro.formats import available_formats, convert
        from repro.kernels.registry import get_kernel

        x = np.arange(6.0)
        for name in available_formats():
            k = get_kernel(name, "cached")
            assert np.allclose(
                k(convert(paper_matrix, name), x), paper_dense @ x
            ), name

    def test_unknown_kernel(self):
        from repro.errors import FormatError
        from repro.kernels.registry import get_kernel

        with pytest.raises(FormatError, match="no kernel"):
            get_kernel("csr", "quantum")
