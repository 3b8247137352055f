"""Validate the analytic machine model against trace-driven simulation.

The tables in EXPERIMENTS.md come from the analytic model (array-
granularity residency + bandwidth-domain makespan).  This example shows
the model's ground truth: it generates the *actual byte-address trace*
an SpMV kernel issues for CSR / CSR-DU / CSR-VI, replays it through a
real L1+L2 LRU hierarchy, and compares the steady-state DRAM traffic to
the analytic model's prediction in both regimes (working set resident
vs streaming).

Run:  python examples/model_validation.py
"""

import numpy as np

from repro import CSRMatrix, convert
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core
from repro.machine.tracesim import format_trace, run_trace


def build_matrix(n: int = 64, density: float = 0.2, seed: int = 7) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    vals = np.round((rng.random((n, n)) + 0.5) * 8) / 8
    return CSRMatrix.from_dense(np.where(mask, vals, 0.0))


def main() -> None:
    matrix = build_matrix()
    print(f"matrix: {matrix.nrows}x{matrix.ncols}, nnz={matrix.nnz}")

    regimes = {
        # (trace cache config, analytic machine) pairs per regime.
        "resident (1 MB L2)": (
            dict(l2_bytes=1024 * 1024),
            clovertown_8core().scaled(0.25),
        ),
        "streaming (2 KB L2)": (
            dict(l1_bytes=256, l1_assoc=4, l2_bytes=2048, l2_assoc=8),
            clovertown_8core().scaled(0.0005),
        ),
    }

    for regime, (cache_cfg, machine) in regimes.items():
        print(f"\n=== {regime} ===")
        print(f"{'format':>8} {'trace DRAM B/iter':>18} {'model B/iter':>14} "
              f"{'model resident':>15}")
        for fmt in ("csr", "csr-du", "csr-vi"):
            m = convert(matrix, fmt)
            trace = format_trace(m)
            measured = run_trace(trace, **cache_cfg)
            modeled = simulate_spmv(m, 1, machine)
            print(
                f"{fmt:>8} {measured.dram_bytes:>18} "
                f"{modeled.total_traffic:>14.0f} "
                f"{modeled.resident_fraction:>14.1%}"
            )

    print(
        "\nReading: with the working set resident, both the trace and the "
        "model report (near) zero DRAM traffic -- iteration 2 onward runs "
        "from cache, which is why the paper's MS matrices stop caring "
        "about compression.  Streaming, the compressed formats move "
        "measurably fewer bytes per iteration, and the model's estimate "
        "tracks the trace within small factors (its x-gather reload "
        "factor is a deliberate overcount for scattered columns)."
    )


if __name__ == "__main__":
    main()
