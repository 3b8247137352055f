"""All-pairs conversion tests through the registry bridge."""

import numpy as np
import pytest

from repro.errors import FormatError
from repro.formats import CSRMatrix, available_formats, convert, to_csr

from tests.conftest import random_sparse_dense

ALL_FORMATS = ("coo", "csr", "csr-du", "csr-vi", "csr-du-vi", "dcsr")


@pytest.fixture(scope="module")
def dense():
    return random_sparse_dense(18, 21, seed=26, quantize=8, empty_rows=True)


@pytest.fixture(scope="module")
def csr(dense):
    return CSRMatrix.from_dense(dense)


class TestConvert:
    @pytest.mark.parametrize("name", ALL_FORMATS)
    def test_from_csr(self, csr, dense, name):
        m = convert(csr, name)
        assert m.shape == csr.shape
        assert np.allclose(m.to_dense(), dense)

    @pytest.mark.parametrize("src", ALL_FORMATS)
    @pytest.mark.parametrize("dst", ALL_FORMATS)
    def test_all_pairs(self, csr, dense, src, dst):
        a = convert(csr, src)
        b = convert(a, dst)
        assert np.allclose(b.to_dense(), dense)

    def test_registered_formats_all_convertible(self, csr):
        for name in available_formats():
            assert convert(csr, name) is not None

    def test_identity_is_noop(self, csr):
        assert convert(csr, "csr") is csr
        du = convert(csr, "csr-du")
        assert convert(du, "csr-du") is du

    def test_kwargs_forwarded(self, csr):
        du = convert(csr, "csr-du", policy="aligned")
        assert du.policy == "aligned"

    def test_kwargs_force_reconversion(self, csr):
        du = convert(csr, "csr-du")
        du2 = convert(du, "csr-du", policy="aligned")
        assert du2 is not du

    def test_unknown_target(self, csr):
        with pytest.raises(FormatError):
            convert(csr, "elvish")


class TestToCSR:
    @pytest.mark.parametrize("name", ALL_FORMATS)
    def test_round(self, csr, dense, name):
        back = to_csr(convert(csr, name))
        assert np.allclose(back.to_dense(), dense)

    def test_csr_identity(self, csr):
        assert to_csr(csr) is csr

    def test_rejects_non_matrix(self):
        with pytest.raises(FormatError):
            to_csr(object())


class TestSpMVAgreement:
    @pytest.mark.parametrize("name", ALL_FORMATS)
    def test_all_formats_agree(self, csr, dense, name):
        x = np.random.default_rng(9).random(dense.shape[1])
        m = convert(csr, name)
        assert np.allclose(m.spmv(x), dense @ x, atol=1e-12)
