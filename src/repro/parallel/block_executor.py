"""Block-partitioned multithreaded SpMV (Section II-C, third scheme).

Each thread owns a set of 2-D tiles ("an arbitrary two-dimensional
block" in the paper's words), computes each tile's contribution from
the matching ``x`` slice, and accumulates into a private ``y`` reduced
at the end.  The paper highlights the scheme's knob -- "configurable
data sizes for each thread" -- for machines with small local stores
(the Cell); here the tile grid is the configuration.

Fault contract (unified onto :class:`~repro.resilience.policy.
RetryPolicy` in PR 10): every chunk's outcome is collected, failures
aggregate into one :class:`~repro.errors.ExecutionError` with
per-chunk context, an optional ``chunk_timeout=`` bounds the wait per
chunk (timed-out chunks are marked ``executor.chunk.abandoned``), and
an optional ``deadline=`` caps the whole run.  Like the column
executor, the default policy retries nothing — tiles are materialized
slices, not cached encodes — and that divergence from the row executor
is now an explicit :data:`~repro.parallel.column_executor.
NO_RETRY_POLICY` rather than missing code.  Retries re-run the whole
tile set of the chunk (the partial ``y`` is zeroed first, so a re-run
is idempotent).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import ExecutionError, PartitionError
from repro.formats.base import SparseMatrix
from repro.formats.csr import CSRMatrix
from repro.formats.conversions import to_csr
from repro.parallel.column_executor import NO_RETRY_POLICY
from repro.parallel.executor import (
    ChunkFailure,
    collect_chunk_failures,
    reduce_partial_results,
)
from repro.parallel.partition import BlockPartition, block_partition
from repro.resilience import chaos
from repro.resilience.policy import Deadline, RetryPolicy
from repro.telemetry import core as telemetry


def _extract_tile(
    csr: CSRMatrix, rows: tuple[int, int], cols: tuple[int, int]
) -> CSRMatrix:
    """The sub-matrix of *csr* inside the tile, with re-based indices."""
    r0, r1 = rows
    c0, c1 = cols
    sub = csr.row_slice(r0, r1)
    keep = (sub.col_ind >= c0) & (sub.col_ind < c1)
    lens = np.zeros(sub.nrows, dtype=np.int64)
    rows_of = sub.row_of_entry()
    np.add.at(lens, rows_of[keep], 1)
    row_ptr = np.zeros(sub.nrows + 1, dtype=np.int64)
    np.cumsum(lens, out=row_ptr[1:])
    return CSRMatrix(
        sub.nrows,
        c1 - c0,
        row_ptr.astype(np.int32),
        (sub.col_ind[keep].astype(np.int64) - c0).astype(np.int32),
        sub.values[keep],
    )


class BlockParallelSpMV:
    """Tile-grid SpMV with private ``y`` accumulation per thread.

    Parameters
    ----------
    matrix:
        Source matrix (normalized through CSR once).
    nthreads:
        Worker count; tiles are assigned round-robin.
    grid:
        Tile grid ``(row_blocks, col_blocks)``; default
        ``nthreads x nthreads``.
    chunk_timeout:
        Seconds to wait for each chunk per call (``None`` = forever);
        an exceeded chunk is a :class:`TimeoutError` failure inside the
        aggregated :class:`~repro.errors.ExecutionError` and is marked
        ``executor.chunk.abandoned``.
    retry_policy:
        Chunk retry policy; defaults to no retries (see module
        docstring).
    deadline:
        Optional wall-clock budget for the whole run.
    """

    def __init__(
        self,
        matrix: SparseMatrix,
        nthreads: int,
        *,
        grid: tuple[int, int] | None = None,
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
        csr = to_csr(matrix)
        self.nrows, self.ncols = csr.shape
        self.nthreads = nthreads
        self.chunk_timeout = chunk_timeout
        self.retry_policy = (
            NO_RETRY_POLICY if retry_policy is None else retry_policy
        )
        self.deadline = deadline
        self._retry_budget = self.retry_policy.new_budget()
        self._retry_rng = self.retry_policy.new_rng()
        self.partition: BlockPartition = block_partition(
            csr.row_ptr, csr.ncols, nthreads, grid=grid
        )
        # Materialize each thread's tiles once.
        self.tiles: list[list[tuple[tuple[int, int], tuple[int, int], CSRMatrix]]] = []
        for t in range(nthreads):
            mine = []
            for rows, cols in self.partition.tiles_of(t):
                tile = _extract_tile(csr, rows, cols)
                if tile.nnz:
                    mine.append((rows, cols, tile))
            self.tiles.append(mine)
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
            nnz = sum(tile.nnz for _, _, tile in self.tiles[t])
            retried = False

            def on_retry(exc: BaseException, attempt: int) -> None:
                nonlocal retried
                retried = True

            def attempt(tiles) -> None:
                chaos.trip(
                    "thread.chunk",
                    thread=t,
                    lo=0,
                    hi=len(tiles),
                    kind="block",
                )
                y = self._partials[t]
                y[:] = 0.0
                for (r0, _r1), (c0, c1), tile in tiles:
                    y[r0 : r0 + tile.nrows] += tile.spmv(x[c0:c1])

            try:
                with telemetry.span(
                    "parallel.chunk",
                    thread=t,
                    lo=0,
                    hi=len(self.tiles[t]),
                    nnz=int(nnz),
                    kind="block",
                ):
                    self.retry_policy.run(
                        attempt,
                        target=self.tiles[t],
                        budget=self._retry_budget,
                        deadline=self.deadline,
                        rng=self._retry_rng,
                        on_retry=on_retry,
                    )
            except Exception as exc:
                return ChunkFailure(
                    t, 0, len(self.tiles[t]), exc, retried=retried
                )
            return None

        failures: list[ChunkFailure] = []
        with telemetry.span("parallel.spmv", threads=self.nthreads, kind="block"):
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
                        lambda t: (0, len(self.tiles[t])),
                        chunk_timeout=self.chunk_timeout,
                        deadline=self.deadline,
                        kind="block",
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

    def __enter__(self) -> "BlockParallelSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
