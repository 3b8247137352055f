"""Thread-scaling study on the modeled Clovertown.

Reproduces the paper's central plot-in-miniature: for one memory-bound
(ML) and one cacheable (MS) catalog matrix, sweep 1..8 threads in both
placements and all formats, print speedup curves, and name the binding
bottleneck (compute / L2 / FSB / memory controller) per point -- the
quantity the paper infers indirectly, which the model exposes directly.

Run:  python examples/scaling_study.py [scale]
"""

import sys

from repro import convert
from repro.formats.base import working_set_bytes
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core
from repro.matrices.collection import entry, realize

THREADS = (1, 2, 4, 8)
FORMATS = ("csr", "csr-du", "csr-vi", "csr-du-vi")


def study(matrix_id: int, scale: float) -> None:
    ent = entry(matrix_id)
    matrix = realize(matrix_id, scale=scale)
    machine = clovertown_8core().scaled(scale)
    ws_mb = working_set_bytes(matrix) / 1e6
    klass = "ML (memory bound)" if ent.in_ml else "MS (cacheable)"
    print(f"\n=== {ent.name}: ws = {ws_mb:.1f} MB at scale {scale:g} -> {klass} ===")
    print(f"{'format':>10} " + " ".join(f"{t:>14}" for t in THREADS)
          + "   (speedup vs serial CSR; bound)")
    serial_csr = simulate_spmv(convert(matrix, "csr"), 1, machine).time_s
    for fmt in FORMATS:
        m = convert(matrix, fmt)
        cells = []
        for t in THREADS:
            res = simulate_spmv(m, t, machine)
            cells.append(f"{serial_csr / res.time_s:6.2f} {res.bound:<7}")
        print(f"{fmt:>10} " + " ".join(cells))
    # The paper's 2-thread placement comparison.
    csr = convert(matrix, "csr")
    close = simulate_spmv(csr, 2, machine, placement="close").time_s
    spread = simulate_spmv(csr, 2, machine, placement="spread").time_s
    print(f"2 threads: shared L2 {serial_csr / close:.2f}x, "
          f"separate L2 {serial_csr / spread:.2f}x "
          f"(cache sharing is {'destructive' if spread < close else 'neutral'})")


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 1 / 16
    study(69, scale)  # ML_vi: large, memory bound, high ttu
    study(44, scale)  # MS_vi: cacheable at high thread counts
    print(
        "\nReading: for the ML matrix the CSR curve flattens against the "
        "bus while compressed formats keep climbing (Tables III/IV); for "
        "the MS matrix everything fits in aggregate L2 at 8 threads and "
        "compression stops paying (the tables' MS rows)."
    )


if __name__ == "__main__":
    main()
