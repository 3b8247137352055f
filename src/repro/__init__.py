"""repro -- reproduction of Kourtis, Goumas & Koziris (ICPP 2008):
"Improving the Performance of Multithreaded Sparse Matrix-Vector
Multiplication Using Index and Value Compression".

Public API quick tour::

    from repro import CSRMatrix, CSRDUMatrix, CSRVIMatrix, convert

    A = CSRMatrix.from_dense(dense)          # or matrices.generators / catalog
    A_du = convert(A, "csr-du")              # index compression
    A_vi = convert(A, "csr-vi")              # value compression
    y = A_du @ x                             # SpMV

    from repro.machine.simulate import simulate_spmv
    from repro.machine.topology import clovertown_8core
    t = simulate_spmv(A_du, threads=8, machine=clovertown_8core())

The root re-exports only these quick-tour names; everything else is
imported from the module that defines it.  See DESIGN.md for the
system inventory and EXPERIMENTS.md for the paper-versus-measured
record of every table and figure.
"""

from repro.formats.conversions import available_formats, convert
from repro.formats.csr import CSRMatrix
from repro.formats.csr_du import CSRDUMatrix
from repro.formats.csr_vi import CSRVIMatrix

__version__ = "1.0.0"
