"""Graph ranking with power iteration on a compressed adjacency matrix.

The paper's conclusion argues the compression methodology generalizes
to "memory intensive problems (e.g. graph or database algorithms)".
This example builds a power-law web-like graph, ranks vertices by
dominant-eigenvector centrality, and shows why graphs are the *ideal*
CSR-VI customer: an unweighted adjacency matrix has exactly one unique
value, so the values array collapses to a single double plus 1-byte
indices -- and CSR-DU squeezes the indices on top.

Run:  python examples/graph_ranking.py [n_vertices]
"""

import sys

import numpy as np

from repro import convert
from repro.formats.conversions import to_csr
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core
from repro.matrices.generators import powerlaw_graph
from repro.solvers.power import power_iteration


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    graph = to_csr(powerlaw_graph(n, avg_degree=12, seed=7))
    # Symmetrize so power iteration converges to a real eigenpair, and
    # keep values at 1.0 (pattern graph).
    sym = graph.to_coo()
    from repro.formats.coo import COOMatrix

    coo = COOMatrix(
        n,
        n,
        np.concatenate([sym.rows, sym.cols]),
        np.concatenate([sym.cols, sym.rows]),
        np.ones(2 * sym.nnz),
    )
    A = to_csr(coo)
    # Re-unify values (duplicate summing created 2.0s on bidirectional edges).
    from repro.matrices.values import set_matrix_values

    A = set_matrix_values(A, np.ones(A.nnz))
    print(f"graph: {n} vertices, {A.nnz} directed edges (symmetrized)")

    print(f"\n{'format':>10} {'bytes':>12} {'vs csr':>7} {'model t(8) us':>14}")
    machine = clovertown_8core().scaled(0.05)
    csr_bytes = A.storage().total_bytes
    variants = {}
    for fmt in ("csr", "csr-du", "csr-vi", "csr-du-vi"):
        m = convert(A, fmt)
        variants[fmt] = m
        t8 = simulate_spmv(m, 8, machine).time_s
        print(
            f"{fmt:>10} {m.storage().total_bytes:>12} "
            f"{csr_bytes / m.storage().total_bytes:>6.2f}x {t8 * 1e6:>13.1f}"
        )

    best = variants["csr-du-vi"]
    res = power_iteration(best, tol=1e-9, maxiter=500)
    ranking = np.argsort(res.x)[::-1][:5]
    print(f"\npower iteration: {res.iterations} iterations, "
          f"{res.spmv_calls} SpMV calls, converged={res.converged}")
    print("top-5 central vertices:", ranking.tolist())

    check = power_iteration(variants["csr"], tol=1e-9, maxiter=500)
    agree = np.allclose(np.abs(res.x), np.abs(check.x), atol=1e-6)
    print(f"matches uncompressed ranking: {agree}")


if __name__ == "__main__":
    main()
