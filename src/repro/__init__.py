"""repro -- reproduction of Kourtis, Goumas & Koziris (ICPP 2008):
"Improving the Performance of Multithreaded Sparse Matrix-Vector
Multiplication Using Index and Value Compression".

Public API quick tour::

    from repro import CSRMatrix, CSRDUMatrix, CSRVIMatrix, convert

    A = CSRMatrix.from_dense(dense)          # or matrices.generators / catalog
    A_du = convert(A, "csr-du")              # index compression
    A_vi = convert(A, "csr-vi")              # value compression
    y = A_du @ x                             # SpMV

    from repro.machine import clovertown_8core, simulate_spmv
    t = simulate_spmv(A_du, threads=8, machine=clovertown_8core())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.errors import (
    CatalogError,
    ConvergenceError,
    EncodingError,
    FormatError,
    MachineModelError,
    PartitionError,
    ReproError,
)
from repro.io import load_matrix, save_matrix
from repro.formats import (
    COOMatrix,
    CSRDUMatrix,
    CSRDUVIMatrix,
    CSRMatrix,
    CSRVIMatrix,
    DCSRMatrix,
    SparseMatrix,
    Storage,
    available_formats,
    convert,
    to_csr,
    working_set_bytes,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "FormatError",
    "EncodingError",
    "PartitionError",
    "MachineModelError",
    "CatalogError",
    "ConvergenceError",
    "SparseMatrix",
    "Storage",
    "COOMatrix",
    "CSRMatrix",
    "CSRDUMatrix",
    "CSRVIMatrix",
    "CSRDUVIMatrix",
    "DCSRMatrix",
    "available_formats",
    "save_matrix",
    "load_matrix",
    "convert",
    "to_csr",
    "working_set_bytes",
    "__version__",
]
