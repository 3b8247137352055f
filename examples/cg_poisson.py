"""Solve a 2-D Poisson problem with CG on compressed matrix formats.

The paper's motivating application (Section I): SpMV dominates
iterative solvers, so compressing the matrix working set accelerates
the whole solve.  This example builds a 5-point Laplacian system,
solves it with CG through each format, verifies the solutions agree,
and reports (a) the measured storage savings and (b) the machine
model's predicted 8-thread solve-time savings.

Note the Laplacian has only a handful of distinct values (-1 and the
diagonal), i.e. an *extreme* total-to-unique ratio -- PDE matrices like
this are exactly why the paper found 39% of real matrices CSR-VI-able.

Run:  python examples/cg_poisson.py [grid_side]
"""

import sys

import numpy as np

from repro import convert
from repro.formats.conversions import to_csr
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core
from repro.matrices.generators import stencil_2d
from repro.matrices.values import set_matrix_values
from repro.solvers.cg import conjugate_gradient


def build_poisson(n: int):
    """5-point Laplacian on an n x n grid (SPD, ttu ~ nnz/2)."""
    pattern = to_csr(stencil_2d(n, n, points=5))
    rows = pattern.row_of_entry()
    values = np.where(rows == pattern.col_ind, 4.5, -1.0)
    return set_matrix_values(pattern, values)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    A = build_poisson(n)
    rng = np.random.default_rng(0)
    x_true = rng.random(A.ncols)
    b = A.spmv(x_true)
    print(f"Poisson {n}x{n}: {A.nrows} unknowns, {A.nnz} nonzeros, "
          f"ttu = {A.nnz / np.unique(A.values).size:.0f}")

    machine = clovertown_8core().scaled(0.05)
    base_storage = None
    base_time = None
    print(f"\n{'format':>10} {'iters':>6} {'residual':>10} {'matrix MB':>10} "
          f"{'model t(8thr)':>14} {'vs csr':>7}")
    for fmt in ("csr", "csr-du", "csr-vi", "csr-du-vi"):
        m = convert(A, fmt)
        res = conjugate_gradient(m, b, tol=1e-10)
        assert res.converged
        assert np.allclose(res.x, x_true, atol=1e-6)
        mb = m.storage().total_bytes / 1e6
        t8 = simulate_spmv(m, 8, machine).time_s * res.spmv_calls
        if fmt == "csr":
            base_storage, base_time = mb, t8
        print(
            f"{fmt:>10} {res.iterations:>6} {res.residual:>10.2e} "
            f"{mb:>10.3f} {t8 * 1e3:>12.2f}ms {base_time / t8:>6.2f}x"
        )
    print("\nAll formats produce the same iterates: compression is "
          "numerically transparent (bit-exact values flow through CG).")


if __name__ == "__main__":
    main()
