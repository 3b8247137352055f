"""Tests for the reference kernels (the paper's pseudocode)."""

import numpy as np
import pytest

from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_vi import CSRVIMatrix
from repro.formats.dcsr import DCSRMatrix
from repro.kernels.reference import (
    spmv_csr_du_reference,
    spmv_csr_reference,
    spmv_csr_vi_reference,
    spmv_dcsr_reference,
)

from tests.conftest import random_sparse_dense


@pytest.fixture(scope="module")
def dense():
    return random_sparse_dense(20, 24, seed=30, quantize=8, empty_rows=True)


@pytest.fixture(scope="module")
def x(dense):
    return np.random.default_rng(7).random(dense.shape[1])


class TestAgainstDense:
    def test_csr(self, dense, x):
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(spmv_csr_reference(csr, x), dense @ x)

    def test_csr_du(self, dense, x):
        du = CSRDUMatrix.from_csr(CSRMatrix.from_dense(dense))
        assert np.allclose(spmv_csr_du_reference(du, x), dense @ x)

    def test_csr_vi(self, dense, x):
        vi = CSRVIMatrix.from_csr(CSRMatrix.from_dense(dense))
        assert np.allclose(spmv_csr_vi_reference(vi, x), dense @ x)

    def test_dcsr(self, dense, x):
        dcsr = DCSRMatrix.from_csr(CSRMatrix.from_dense(dense))
        assert np.allclose(spmv_dcsr_reference(dcsr, x), dense @ x)

    def test_paper_example_all(self, paper_matrix, paper_dense):
        x = np.arange(6.0) + 1
        expected = paper_dense @ x
        assert np.allclose(spmv_csr_reference(paper_matrix, x), expected)
        assert np.allclose(
            spmv_csr_du_reference(CSRDUMatrix.from_csr(paper_matrix), x), expected
        )
        assert np.allclose(
            spmv_csr_vi_reference(CSRVIMatrix.from_csr(paper_matrix), x), expected
        )
        assert np.allclose(
            spmv_dcsr_reference(DCSRMatrix.from_csr(paper_matrix), x), expected
        )


class TestCounters:
    """The operation census drives the cost model; pin it to the formats."""

    def test_csr_counters(self, paper_matrix):
        counters = {}
        spmv_csr_reference(paper_matrix, np.ones(6), counters)
        assert counters["elements"] == 16
        assert counters["rows"] == 6

    def test_csr_skips_empty_rows(self):
        dense = np.zeros((4, 4))
        dense[0, 1] = dense[3, 2] = 1.0
        csr = CSRMatrix.from_dense(dense)
        counters = {}
        spmv_csr_reference(csr, np.ones(4), counters)
        assert counters["rows"] == 2

    def test_du_counters_match_format(self, paper_matrix):
        du = CSRDUMatrix.from_csr(paper_matrix)
        counters = {}
        spmv_csr_du_reference(du, np.ones(6), counters)
        assert counters["units"] == du.units.nunits == 6
        assert counters["elements"] == 16
        assert counters["class_elements"][0] == 16  # all u8 (Table I)

    def test_vi_counters(self, paper_matrix):
        vi = CSRVIMatrix.from_csr(paper_matrix)
        counters = {}
        spmv_csr_vi_reference(vi, np.ones(6), counters)
        assert counters["indirections"] == 16

    def test_dcsr_counters_match_format(self, paper_matrix):
        dcsr = DCSRMatrix.from_csr(paper_matrix)
        counters = {}
        spmv_dcsr_reference(dcsr, np.ones(6), counters)
        assert counters["commands"] == dcsr.command_count

    def test_dcsr_dispatches_finer_than_du(self, dense):
        """Section III-B: DCSR branches per command, CSR-DU per unit."""
        csr = CSRMatrix.from_dense(dense)
        du = CSRDUMatrix.from_csr(csr)
        dcsr = DCSRMatrix.from_csr(csr)
        assert dcsr.command_count >= du.units.nunits
