"""Iterative solvers built on the public SpMV API.

The paper motivates SpMV as "the basic operation of iterative solvers,
such as Conjugate Gradient (CG) and Generalized Minimum Residual
(GMRES)" (Section I).  These implementations consume any
:class:`~repro.formats.base.SparseMatrix` -- compressed formats drop in
transparently, which is exactly the deployment story of CSR-DU/CSR-VI:
encode once, iterate many times.  CG and power iteration cover that
story; the examples and ``benchmarks/bench_solvers.py`` drive them.
"""
