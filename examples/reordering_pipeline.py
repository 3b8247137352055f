"""Reordering + compression pipeline: related work x contribution.

The paper's related work (Section III-A) lists matrix reordering among
the locality optimizations; its contribution is compression.  This
example shows they compound: RCM restores a scrambled mesh's band
structure, which (a) shrinks CSR-DU's column deltas back into one byte,
(b) shrinks the x-gather footprint, and (c) leaves CG's convergence
untouched (a symmetric permutation preserves the spectrum).

Run:  python examples/reordering_pipeline.py [grid_side]
"""

import sys

import numpy as np

from repro import convert
from repro.formats.conversions import to_csr
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core
from repro.matrices.generators import stencil_2d
from repro.matrices.reorder import apply_symmetric_permutation, rcm_reorder
from repro.matrices.stats import compute_stats
from repro.matrices.values import set_matrix_values
from repro.solvers.cg import conjugate_gradient


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 80
    # An SPD Laplacian whose rows arrive in scrambled order, as meshes
    # from partitioners often do.
    pattern = to_csr(stencil_2d(n, n))
    rows = pattern.row_of_entry()
    A = set_matrix_values(
        pattern, np.where(rows == pattern.col_ind, 4.5, -1.0)
    )
    rng = np.random.default_rng(0)
    scramble = rng.permutation(A.nrows).astype(np.int64)
    scrambled = apply_symmetric_permutation(A, scramble)
    reordered, perm = rcm_reorder(scrambled)

    machine = clovertown_8core().scaled(0.05)
    print(f"{'variant':<12} {'bandwidth':>9} {'u8 deltas':>9} "
          f"{'DU ctl bytes':>12} {'model t(8thr)':>14}")
    for label, m in (("scrambled", scrambled), ("rcm", reordered)):
        s = compute_stats(m)
        du = convert(m, "csr-du")
        t8 = simulate_spmv(du, 8, machine).time_s
        print(
            f"{label:<12} {s.bandwidth:>9} {100 * s.delta_u8_frac:>8.0f}% "
            f"{du.storage().index_bytes:>12} {t8 * 1e6:>12.1f}us"
        )

    # Solve on the reordered compressed matrix; map the answer back.
    x_true = rng.random(A.ncols)
    b = scrambled.spmv(x_true)
    du = convert(reordered, "csr-du")
    res = conjugate_gradient(du, b[perm], tol=1e-10)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    recovered = res.x[inv]
    print(f"\nCG on reordered CSR-DU: {res.iterations} iterations, "
          f"converged={res.converged}")
    print(f"solution recovered through the permutation: "
          f"max error {np.abs(recovered - x_true).max():.2e}")

    check = conjugate_gradient(scrambled, b, tol=1e-10)
    print(f"iteration count unchanged by reordering: "
          f"{check.iterations} == {res.iterations}: "
          f"{check.iterations == res.iterations}")


if __name__ == "__main__":
    main()
