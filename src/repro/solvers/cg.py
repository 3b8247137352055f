"""Conjugate Gradient for symmetric positive definite systems."""

from __future__ import annotations

import numpy as np

from repro.errors import ConvergenceError, FormatError
from repro.formats.base import SparseMatrix
from repro.solvers.result import SolveResult


def conjugate_gradient(
    A: SparseMatrix,
    b: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    tol: float = 1e-8,
    maxiter: int | None = None,
    raise_on_fail: bool = False,
) -> SolveResult:
    """Solve ``A x = b`` with (unpreconditioned) CG.

    *A* must be symmetric positive definite; this is not checked (it
    would cost more than the solve) but a non-SPD matrix shows up as
    stagnation or a negative curvature ``p' A p``, which raises.

    ``tol`` is relative: convergence when ``||r|| <= tol * ||b||``.
    """
    nrows, ncols = A.shape
    if nrows != ncols:
        raise FormatError(f"CG needs a square matrix, got {A.shape}")
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (nrows,):
        raise FormatError(f"b has shape {b.shape}, expected ({nrows},)")
    maxiter = maxiter if maxiter is not None else max(50, 10 * nrows)
    x = (
        np.zeros(nrows)
        if x0 is None
        else np.array(x0, dtype=np.float64, copy=True)
    )
    spmv_calls = 0
    if x0 is None:
        r = b.copy()
    else:
        r = b - A.spmv(x)
        spmv_calls += 1
    bnorm = float(np.linalg.norm(b)) or 1.0
    rnorm = float(np.linalg.norm(r))
    if rnorm <= tol * bnorm:
        return SolveResult(x=x, iterations=0, residual=rnorm, converged=True, spmv_calls=spmv_calls)
    p = r.copy()
    rs = rnorm * rnorm
    for k in range(1, maxiter + 1):
        Ap = A.spmv(p)
        spmv_calls += 1
        curvature = float(p @ Ap)
        if curvature <= 0:
            raise ConvergenceError(
                f"non-positive curvature at iteration {k}: matrix not SPD",
                iterations=k,
                residual=float(np.sqrt(rs)),
            )
        alpha = rs / curvature
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        rnorm = float(np.sqrt(rs_new))
        if rnorm <= tol * bnorm:
            return SolveResult(
                x=x, iterations=k, residual=rnorm, converged=True, spmv_calls=spmv_calls
            )
        p = r + (rs_new / rs) * p
        rs = rs_new
    if raise_on_fail:
        raise ConvergenceError(
            f"CG did not converge in {maxiter} iterations",
            iterations=maxiter,
            residual=rnorm,
        )
    return SolveResult(
        x=x, iterations=maxiter, residual=rnorm, converged=False, spmv_calls=spmv_calls
    )
