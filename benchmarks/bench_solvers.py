"""Solver-level benchmarks: the paper's end-user scenario.

CG spends essentially all its time in SpMV, so a compressed format's
kernel benefit carries straight through to solver wall-clock -- this is
the "iterative solvers" motivation of Section I made measurable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats.conversions import convert, to_csr
from repro.matrices.generators import stencil_2d
from repro.matrices.values import set_matrix_values
from repro.solvers.cg import conjugate_gradient


@pytest.fixture(scope="module")
def system():
    pattern = to_csr(stencil_2d(40, 40))
    rows = pattern.row_of_entry()
    vals = np.where(rows == pattern.col_ind, 5.0, -1.0)
    A = set_matrix_values(pattern, vals)
    rng = np.random.default_rng(0)
    x_true = rng.random(A.ncols)
    return A, A.spmv(x_true), x_true


@pytest.mark.parametrize("fmt", ["csr", "csr-du", "csr-vi", "csr-du-vi"])
def test_cg_with_format(benchmark, system, fmt):
    A, b, x_true = system
    converted = convert(A, fmt)
    if hasattr(converted, "units"):
        converted.units  # structural decode amortizes, as in deployment

    res = benchmark(lambda: conjugate_gradient(converted, b, tol=1e-8))
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-5)


def test_cg_iteration_count_format_independent(system):
    """Compression is numerically transparent: identical iterates."""
    A, b, _ = system
    counts = {
        fmt: conjugate_gradient(convert(A, fmt), b, tol=1e-8).iterations
        for fmt in ("csr", "csr-du", "csr-vi")
    }
    assert len(set(counts.values())) == 1
