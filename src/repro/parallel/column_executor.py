"""Column-partitioned multithreaded SpMV (Section II-C, second scheme).

Each thread owns a contiguous block of *columns* (and the matching
slice of ``x``), accumulates into a **private** ``y`` copy -- the
paper's prescription for avoiding cache-line ping-pong on shared ``y``
-- and the copies are reduced at the end of every multiplication.

Compared to row partitioning this trades an ``O(threads * nrows)``
reduction for better ``x`` locality; the paper leaves the scheme
comparison to future work, and :func:`compare_partitionings` in
``examples/scaling_study.py``-style studies can use both executors to
explore it.

Fault contract (unified onto :class:`~repro.resilience.policy.
RetryPolicy` in PR 10): every chunk's outcome is collected, failures
aggregate into one :class:`~repro.errors.ExecutionError` with
per-chunk context, an optional ``chunk_timeout=`` bounds the wait per
chunk (timed-out chunks are marked ``executor.chunk.abandoned``), and
an optional ``deadline=`` caps the whole run.  The *default* policy
here retries nothing: the CSC chunks are plain slices, not cached
encodes, so the row executor's decode class cannot occur and there is
nothing to invalidate — where the row executor defaults to one
decode-class retry, this executor's divergence is now an explicit
``RetryPolicy(max_attempts=1)`` instead of missing code.  A caller
who *wants* in-place re-runs (transient faults under test) passes a
policy with more attempts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import ExecutionError, PartitionError
from repro.formats.base import SparseMatrix
from repro.formats.csc import CSCMatrix
from repro.formats.conversions import to_csr
from repro.parallel.executor import (
    ChunkFailure,
    collect_chunk_failures,
    reduce_partial_results,
)
from repro.parallel.partition import ColumnPartition, column_partition
from repro.resilience import chaos
from repro.resilience.policy import Deadline, RetryPolicy
from repro.telemetry import core as telemetry

#: Slice-chunk executors retry nothing by default: no cached encode to
#: invalidate, so a second identical attempt cannot change the answer.
NO_RETRY_POLICY = RetryPolicy(max_attempts=1, budget=0)


class ColumnParallelSpMV:
    """Column-partitioned SpMV over CSC chunks with private ``y`` copies.

    Parameters
    ----------
    matrix:
        Source matrix (normalized through CSR, then CSC).
    nthreads:
        Worker count; one column block and private ``y`` per thread.
    chunk_timeout:
        Seconds to wait for each chunk per call (``None`` = forever);
        an exceeded chunk is a :class:`TimeoutError` failure inside the
        aggregated :class:`~repro.errors.ExecutionError` and is marked
        ``executor.chunk.abandoned``.
    retry_policy:
        Chunk retry policy; defaults to :data:`NO_RETRY_POLICY` (see
        the module docstring for why this diverges from the row
        executor).
    deadline:
        Optional wall-clock budget for the whole run; caps per-chunk
        waits and fails expired calls with
        :class:`~repro.errors.DeadlineExceeded`.
    """

    def __init__(
        self,
        matrix: SparseMatrix,
        nthreads: int,
        *,
        chunk_timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        deadline: Deadline | None = None,
    ):
        if nthreads < 1:
            raise PartitionError(f"nthreads must be >= 1, got {nthreads}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise PartitionError(
                f"chunk_timeout must be positive, got {chunk_timeout}"
            )
        csc = CSCMatrix.from_csr(to_csr(matrix))
        self.nrows, self.ncols = csc.shape
        self.nthreads = nthreads
        self.chunk_timeout = chunk_timeout
        self.retry_policy = (
            NO_RETRY_POLICY if retry_policy is None else retry_policy
        )
        self.deadline = deadline
        self._retry_budget = self.retry_policy.new_budget()
        self._retry_rng = self.retry_policy.new_rng()
        self.partition: ColumnPartition = column_partition(csc.col_ptr, nthreads)
        self.chunks: list[CSCMatrix] = [
            csc.col_slice(*self.partition.cols_of(t)) for t in range(nthreads)
        ]
        # Private y per thread, reused across calls.
        self._partials = [np.zeros(self.nrows) for _ in range(nthreads)]
        self._pool: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(max_workers=nthreads) if nthreads > 1 else None
        )

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise PartitionError(f"x has shape {x.shape}, expected ({self.ncols},)")

        if self.deadline is not None:
            self.deadline.check("parallel.call")

        def work(t: int) -> ChunkFailure | None:
            lo, hi = self.partition.cols_of(t)
            retried = False

            def on_retry(exc: BaseException, attempt: int) -> None:
                nonlocal retried
                retried = True

            def attempt(chunk) -> None:
                chaos.trip(
                    "thread.chunk", thread=t, lo=lo, hi=hi, kind="column"
                )
                chunk.spmv(x[lo:hi], out=self._partials[t])

            try:
                with telemetry.span(
                    "parallel.chunk",
                    thread=t,
                    lo=lo,
                    hi=hi,
                    nnz=int(self.partition.nnz_per_thread[t]),
                    kind="column",
                ):
                    self.retry_policy.run(
                        attempt,
                        target=self.chunks[t],
                        budget=self._retry_budget,
                        deadline=self.deadline,
                        rng=self._retry_rng,
                        on_retry=on_retry,
                    )
            except Exception as exc:
                return ChunkFailure(t, lo, hi, exc, retried=retried)
            return None

        failures: list[ChunkFailure] = []
        with telemetry.span("parallel.spmv", threads=self.nthreads, kind="column"):
            if self._pool is None:
                failure = work(0)
                if failure is not None:
                    failures.append(failure)
            else:
                futures = [
                    self._pool.submit(work, t) for t in range(self.nthreads)
                ]
                failures.extend(
                    collect_chunk_failures(
                        futures,
                        self.partition.cols_of,
                        chunk_timeout=self.chunk_timeout,
                        deadline=self.deadline,
                        kind="column",
                    )
                )
            if failures:
                detail = "; ".join(f.describe() for f in failures)
                raise ExecutionError(
                    f"{len(failures)} of {self.nthreads} chunks failed: "
                    f"{detail}",
                    failures=tuple(failures),
                )
            return reduce_partial_results(self._partials, out=out)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ColumnParallelSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
