"""Encoding throughput benchmarks.

Section IV/V claim both compressions are ``O(nnz)`` single-pass
constructions with "no overhead in terms of time complexity compared to
CSR".  These benchmarks time the actual converters and check linear
scaling empirically.
"""

from __future__ import annotations

import pytest

from repro.formats.conversions import to_csr
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_vi import CSRVIMatrix
from repro.formats.dcsr import DCSRMatrix
from repro.matrices.collection import realize
from repro.util.timing import measure


@pytest.fixture(scope="module")
def csr():
    return to_csr(realize(55, scale=1 / 64))


def test_encode_csr_du(benchmark, csr):
    du = benchmark(lambda: CSRDUMatrix.from_csr(csr))
    assert du.nnz == csr.nnz


def test_encode_csr_vi(benchmark, csr):
    vi = benchmark(lambda: CSRVIMatrix.from_csr(csr))
    assert vi.nnz == csr.nnz


def test_encode_dcsr(benchmark, csr):
    dcsr = benchmark(lambda: DCSRMatrix.from_csr(csr))
    assert dcsr.nnz == csr.nnz


def test_du_decode_structure(benchmark, csr):
    """One-time structural decode cost (amortized across iterations)."""
    du = CSRDUMatrix.from_csr(csr)

    def decode():
        fresh = CSRDUMatrix(du.nrows, du.ncols, du.ctl, du.values)
        return fresh.units

    units = benchmark(decode)
    assert units.nunits > 0


def test_encoding_scales_linearly():
    """O(nnz) check: 4x the matrix, at most ~7x the encode time
    (generous bound; constants wobble at small sizes)."""
    small = to_csr(realize(55, scale=1 / 256))
    large = to_csr(realize(55, scale=1 / 64))
    t_small = measure(lambda: CSRDUMatrix.from_csr(small), calls=3, repeats=2)
    t_large = measure(lambda: CSRDUMatrix.from_csr(large), calls=3, repeats=2)
    size_ratio = large.nnz / small.nnz
    time_ratio = t_large.per_call / t_small.per_call
    assert time_ratio < size_ratio * 2.0
