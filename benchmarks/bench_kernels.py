"""Real-clock kernel micro-benchmarks (serial, this host).

These time the kernels the registry serves: each format's own ``spmv``
(the ``"cached"`` tier -- NumPy over the cached kernel plan) and the
paper's pure-Python reference listings (the ``"reference"`` tier, the
test oracle).  Absolute numbers reflect the host they run on, not the
paper's Clovertown; they exist to (a) exercise pytest-benchmark on real
code paths and (b) show the relative compute cost of decoding CSR-DU's
ctl stream and CSR-VI's value indirection next to plain CSR.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.conversions import convert
from repro.kernels.registry import get_kernel
from repro.matrices.collection import realize

SCALE = 1 / 64
MATRIX_ID = 69  # ML_vi member: big enough to be interesting
PAPER_FORMATS = ("csr", "csr-vi", "csr-du", "csr-du-vi")


@pytest.fixture(scope="module")
def matrix():
    return realize(MATRIX_ID, scale=SCALE)


@pytest.fixture(scope="module")
def x(matrix):
    return np.random.default_rng(0).random(matrix.ncols)


@pytest.mark.parametrize("fmt", PAPER_FORMATS)
def test_spmv_cached(benchmark, matrix, x, fmt):
    m = convert(matrix, fmt)
    m.spmv(x)  # build the kernel plan, as an iterative solver would
    y = benchmark(lambda: m.spmv(x))
    assert np.allclose(y, matrix.spmv(x))


@pytest.mark.parametrize("fmt", PAPER_FORMATS)
def test_spmv_reference(benchmark, matrix, x, fmt):
    """The paper's listings: pure Python, so one round is enough."""
    m = convert(matrix, fmt)
    kernel = get_kernel(fmt, "reference")
    y = benchmark.pedantic(lambda: kernel(m, x), rounds=1, iterations=1)
    assert np.allclose(y, m.spmv(x))
