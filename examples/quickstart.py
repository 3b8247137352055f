"""Quickstart: the paper's running example, end to end.

Builds the 6x6 matrix of Fig. 1, shows its CSR arrays (Fig. 1), its
CSR-DU unit table (Table I) and CSR-VI value structure (Fig. 4), runs
SpMV in every format, and predicts multithreaded performance on the
modeled Clovertown.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CSRMatrix, available_formats, convert
from repro.compress.ctl import CtlReader
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import clovertown_8core

A = np.array(
    [
        [5.4, 1.1, 0.0, 0.0, 0.0, 0.0],
        [0.0, 6.3, 0.0, 7.7, 0.0, 8.8],
        [0.0, 0.0, 1.1, 0.0, 0.0, 0.0],
        [0.0, 0.0, 2.9, 0.0, 3.7, 2.9],
        [9.0, 0.0, 0.0, 1.1, 4.5, 0.0],
        [1.1, 0.0, 2.9, 3.7, 0.0, 1.1],
    ]
)


def main() -> None:
    csr = CSRMatrix.from_dense(A)

    print("=== Fig. 1: CSR arrays ===")
    print("row_ptr:", csr.row_ptr.tolist())
    print("col_ind:", csr.col_ind.tolist())
    print("values: ", csr.values.tolist())

    print("\n=== Table I: CSR-DU units ===")
    du = convert(csr, "csr-du")
    print(f"{'unit':>4} {'uflags':>10} {'usize':>5} {'ujmp':>4}  ucis")
    for i, unit in enumerate(CtlReader(du.ctl)):
        flags = f"u{8 * (1 << unit.cls)}" + (", NR" if unit.new_row else "")
        print(f"{i:>4} {flags:>10} {unit.usize:>5} {unit.ujmp:>4}  {unit.deltas.tolist()}")
    print(f"ctl stream: {len(du.ctl)} bytes "
          f"(CSR index data: {csr.storage().index_bytes} bytes)")

    print("\n=== Fig. 4: CSR-VI value structure ===")
    vi = convert(csr, "csr-vi")
    print("vals_unique:", vi.vals_unique.tolist())
    print("val_ind:    ", vi.val_ind.tolist())
    print(f"ttu = {vi.ttu:.2f} (the paper applies CSR-VI when ttu > 5)")

    print("\n=== SpMV agreement across every format ===")
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    reference = A @ x
    for name in available_formats():
        y = convert(csr, name).spmv(x)
        status = "ok" if np.allclose(y, reference) else "MISMATCH"
        print(f"  {name:10s} -> {status}")
    print("y =", reference.tolist())

    print("\n=== Predicted multithreaded SpMV (machine model) ===")
    # Tiny example, so shrink the modeled caches to keep it out of L2
    # and show the memory-bound regime the paper studies.
    machine = clovertown_8core().scaled(1e-4)
    print(f"{'format':>10} " + " ".join(f"{f'{t} thr':>9}" for t in (1, 2, 4, 8)))
    for name in ("csr", "csr-du", "csr-vi", "csr-du-vi"):
        m = convert(csr, name)
        row = [simulate_spmv(m, t, machine).mflops for t in (1, 2, 4, 8)]
        print(f"{name:>10} " + " ".join(f"{v:8.1f}M" for v in row))


if __name__ == "__main__":
    main()
