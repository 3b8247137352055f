"""Threaded SpMV execution.

:class:`ParallelSpMV` realizes the paper's multithreaded kernel: the
matrix is split once (row partitioning, static nnz balancing), each
thread owns a contiguous block of rows of ``y``, and every call runs
the per-thread kernels concurrently on a persistent thread pool.

Fault tolerance (PR 5): a worker failure no longer poisons the run
silently or kills it on the first exception.  Every chunk's outcome is
collected; chunks that fail with a decode-class error
(:data:`~repro.errors.DECODE_ERRORS`) get one bounded retry after their cached encode is invalidated and rebuilt from the
source matrix (``executor.retry`` counter), and whatever still fails
is aggregated into a single :class:`~repro.errors.ExecutionError`
carrying per-chunk (thread id, row range) context.  An optional
per-chunk timeout bounds how long the caller waits on a wedged worker
(the thread itself cannot be killed — CPython has no mechanism — but
the call returns with a :class:`TimeoutError` failure instead of
hanging).

Honesty note (also in DESIGN.md): NumPy releases the GIL inside its
array operations, so the vectorized kernels do overlap -- but CPython
serializes every line of Python-level bookkeeping (and this container
has a single CPU), so *measured* wall-clock scaling from this thread
backend says little about the paper's question.  The backend that
escapes the GIL is :class:`~repro.parallel.process_executor.
ProcessParallelSpMV`: separate processes attaching shared-memory or
memory-mapped shards (``repro.parallel.backends.make_executor`` picks
between them).  This executor remains the reference for semantics --
results must be bit-identical to serial execution -- and the model
numbers in the tables come from :mod:`repro.machine`.

Storage axis (PR 7): ``storage="mem"`` keeps per-thread chunks as
ordinary cached encodes; ``storage="mmap"`` materializes them in a
:class:`~repro.storage.shard.ShardStore` of packed memmap files, so a
matrix larger than RAM can still be driven by the thread backend
(chunk arrays stay disk-backed; the page cache does the streaming).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass

import numpy as np

from repro.compress.encode_cache import DEFAULT_CACHE, ConvertCache
from repro.errors import ExecutionError, FormatError, PartitionError
from repro.formats.base import SparseMatrix, check_out_aliasing
from repro.formats.conversions import to_csr
from repro.kernels.plan import PLANNABLE_FORMATS, get_plan
from repro.parallel.partition import RowPartition, row_partition
from repro.resilience import chaos
from repro.resilience.policy import DEFAULT_RETRY_POLICY, Deadline, RetryPolicy
from repro.telemetry import core as telemetry


@dataclass(frozen=True)
class ChunkFailure:
    """One worker chunk's terminal failure within a parallel call."""

    thread: int
    lo: int
    hi: int
    error: BaseException
    #: Whether a cache-invalidating retry was attempted before giving up.
    retried: bool
    #: ``traceback.format_exc()`` captured inside a pool worker, when the
    #: failure crossed a process boundary (exception objects do not).
    worker_traceback: str | None = None

    def describe(self) -> str:
        base = (
            f"thread {self.thread} rows [{self.lo}, {self.hi}): "
            f"{type(self.error).__name__}: {self.error}"
        )
        if self.worker_traceback:
            frames = [
                line.strip()
                for line in self.worker_traceback.splitlines()
                if line.lstrip().startswith('File "')
            ]
            if frames:
                base += f" [worker: {frames[-1]}]"
        return base


def abandon_chunk(
    t: int,
    lo: int,
    hi: int,
    *,
    timeout: float | None,
    backend: str = "thread",
) -> ChunkFailure:
    """Record one timed-out chunk and build its failure.

    A thread cannot be cancelled, so the worker keeps running and its
    (eventual) result is discarded — the chunk is *abandoned*.  The
    ``executor.chunk.abandoned`` counter makes that visible: the SLO
    engine can rate-alert on it, and imbalance recovery excludes the
    abandoned span from per-thread timing (its wall time reflects the
    wait bound, not the work).
    """
    telemetry.count(
        "executor.chunk.abandoned",
        1,
        extra={
            "thread": t,
            "lo": lo,
            "hi": hi,
            "timeout_s": 0.0 if timeout is None else float(timeout),
        },
        kind="row",
        backend=backend,
    )
    return ChunkFailure(
        t,
        lo,
        hi,
        TimeoutError(f"chunk exceeded {timeout}s"),
        retried=False,
    )


def collect_chunk_failures(
    futures,
    bounds_of,
    *,
    chunk_timeout: float | None,
    deadline: Deadline | None = None,
) -> list[ChunkFailure]:
    """The thread executor's result loop over its pool futures.

    Waits on every chunk future; a wait that exceeds the per-chunk
    timeout (capped by the run *deadline* when one is set) becomes an
    abandoned-chunk failure via :func:`abandon_chunk`.  *bounds_of(t)*
    supplies the (lo, hi) context for thread *t*'s failure records.
    """
    failures: list[ChunkFailure] = []
    for t, future in enumerate(futures):
        lo, hi = bounds_of(t)
        timeout = (
            chunk_timeout if deadline is None else deadline.cap(chunk_timeout)
        )
        try:
            failure = future.result(timeout=timeout)
        except FuturesTimeoutError:
            failure = abandon_chunk(t, lo, hi, timeout=timeout)
        if failure is not None:
            failures.append(failure)
    return failures


class ParallelSpMV:
    """Row-partitioned multithreaded SpMV over any registered format.

    Parameters
    ----------
    matrix:
        Source matrix (any format; it is normalized through CSR once).
    nthreads:
        Worker count.  The per-thread chunks are built at construction
        (the paper's setup cost) and reused by every :meth:`__call__`.
    format_name:
        Storage format for the per-thread chunks (``"csr"``,
        ``"csr-du"``, ``"csr-vi"``, ...).
    format_kwargs:
        Extra arguments for the chunk conversion (e.g. ``policy=``).
    convert_cache:
        Structure-keyed cache for the chunk encodes (the process-wide
        default when omitted).  Chunks are keyed on the source matrix,
        format, kwargs and row bounds, so rebuilding an executor over
        the same matrix -- a sweep iterating kernels or repeat counts
        at one thread count -- reuses every encode.
    chunk_timeout:
        Seconds to wait for each chunk per call (``None`` = forever).
        A chunk exceeding it is reported as a :class:`TimeoutError`
        inside the aggregated :class:`~repro.errors.ExecutionError`;
        the worker thread itself keeps running to completion (threads
        cannot be killed) but its result is discarded.
    storage:
        ``"mem"`` (default) -- chunks are ordinary cached encodes;
        ``"mmap"`` -- chunks live in a packed memmap
        :class:`~repro.storage.shard.ShardStore` under *directory*, so
        their arrays stay disk-backed (the thread backend's out-of-core
        mode).
    directory:
        Shard-file directory, required for ``storage="mmap"``.
    retry_policy:
        :class:`~repro.resilience.policy.RetryPolicy` governing chunk
        retries.  The default is one immediate cache-invalidating
        retry of a decode-class failure.  One retry budget is shared
        by all chunks across all calls of this executor.
    deadline:
        Optional :class:`~repro.resilience.policy.Deadline`: one
        wall-clock budget for this executor's whole run.  Caps every
        per-chunk wait at the time remaining and fails calls with a
        typed :class:`~repro.errors.DeadlineExceeded` once spent.
    """

    backend = "thread"

    def __init__(
        self,
        matrix: SparseMatrix,
        nthreads: int,
        *,
        format_name: str = "csr",
        convert_cache: ConvertCache | None = None,
        chunk_timeout: float | None = None,
        storage: str = "mem",
        directory: str | None = None,
        retry_policy: RetryPolicy | None = None,
        deadline: Deadline | None = None,
        **format_kwargs,
    ):
        if nthreads < 1:
            raise PartitionError(f"nthreads must be >= 1, got {nthreads}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise PartitionError(
                f"chunk_timeout must be positive, got {chunk_timeout}"
            )
        if storage not in ("mem", "mmap"):
            raise PartitionError(
                f"thread backend storage must be 'mem' or 'mmap', "
                f"got {storage!r}"
            )
        csr = to_csr(matrix)
        self.nrows, self.ncols = csr.shape
        self.nthreads = nthreads
        self.chunk_timeout = chunk_timeout
        self.retry_policy = (
            DEFAULT_RETRY_POLICY if retry_policy is None else retry_policy
        )
        self.deadline = deadline
        self._retry_budget = self.retry_policy.new_budget()
        # Kept for chunk rebuilds on retry (see _rebuild_chunk).
        self._csr = csr
        self._format_name = format_name
        self._format_kwargs = dict(format_kwargs)
        self._cache = DEFAULT_CACHE if convert_cache is None else convert_cache
        self.partition: RowPartition = row_partition(csr.row_ptr, nthreads)
        self.store = None
        if storage == "mmap":
            from repro.storage.shard import ShardStore

            self.store = ShardStore.build(
                csr,
                format_name,
                nthreads,
                storage="mmap",
                directory=directory,
                convert_cache=self._cache,
                boundaries=self.partition.boundaries.tolist(),
                deadline=deadline,
                **format_kwargs,
            )
        self.chunks: list[SparseMatrix] = [
            self._encode_chunk(t) for t in range(nthreads)
        ]
        self._pool: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(max_workers=nthreads) if nthreads > 1 else None
        )

    def _encode_chunk(self, t: int) -> SparseMatrix:
        """Convert thread *t*'s row block through the cache; plan it.

        The kernel plan is built up front (part of the paper's one-time
        setup cost), so the first timed call is already hot.  With
        ``storage="mmap"`` the chunk is attached from the shard store
        instead, so its arrays remain disk-backed views.
        """
        if self.store is not None:
            chunk = self.store.attach(t)
        else:
            lo, hi = self.partition.rows_of(t)
            chunk = self._cache.get_or_convert(
                self._csr,
                self._format_name,
                rows=(lo, hi),
                **self._format_kwargs,
            )
        if chunk.name in PLANNABLE_FORMATS:
            get_plan(chunk)
        return chunk

    def _rebuild_chunk(self, t: int) -> SparseMatrix:
        """Invalidate thread *t*'s cached encode and re-encode fresh."""
        lo, hi = self.partition.rows_of(t)
        if self.store is not None:
            self.store.rebuild_shard(t)
        else:
            self._cache.invalidate(
                self._csr, self._format_name, rows=(lo, hi), **self._format_kwargs
            )
        chunk = self._encode_chunk(t)
        self.chunks[t] = chunk
        return chunk

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``y = A x`` with all threads; returns ``y``.

        All chunk failures of the call are aggregated into one
        :class:`~repro.errors.ExecutionError` (nothing is silently
        dropped); decode-class failures get one cache-invalidating
        retry first.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise FormatError(
                f"x has shape {x.shape}, expected ({self.ncols},)"
            )
        if out is not None:
            # Chunks write y while every chunk reads x concurrently; an
            # aliased buffer races with those reads.
            check_out_aliasing(out, x)
        y = out if out is not None else np.empty(self.nrows, dtype=np.float64)

        if self.deadline is not None:
            self.deadline.check("parallel.call")

        def work(t: int) -> ChunkFailure | None:
            lo, hi = self.partition.rows_of(t)
            retried = False

            def on_retry(exc: BaseException, attempt: int) -> None:
                nonlocal retried
                retried = True
                telemetry.count(
                    "executor.retry",
                    1,
                    extra={
                        "thread": t,
                        "lo": lo,
                        "hi": hi,
                        "error": type(exc).__name__,
                    },
                    format=self._format_name,
                )

            def attempt(chunk) -> None:
                chaos.trip("thread.chunk", thread=t, lo=lo, hi=hi, kind="row")
                chunk.spmv(x, out=y[lo:hi])

            # The chunk span is also the live spmv.chunk.seconds sample;
            # a failed chunk leaves the span by exception and so is
            # logged but not sampled.
            try:
                with telemetry.span(
                    "parallel.chunk",
                    thread=t,
                    lo=lo,
                    hi=hi,
                    nnz=int(self.partition.nnz_per_thread[t]),
                    kind="row",
                    format=self._format_name,
                    backend=self.backend,
                ):
                    self.retry_policy.run(
                        attempt,
                        target=self.chunks[t],
                        rebuild=lambda: self._rebuild_chunk(t),
                        budget=self._retry_budget,
                        deadline=self.deadline,
                        on_retry=on_retry,
                    )
            except Exception as exc:
                return ChunkFailure(t, lo, hi, exc, retried=retried)
            return None

        failures: list[ChunkFailure] = []
        with telemetry.span(
            "parallel.spmv",
            threads=self.nthreads,
            format=self._format_name,
            backend=self.backend,
        ):
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
                        self.partition.rows_of,
                        chunk_timeout=self.chunk_timeout,
                        deadline=self.deadline,
                    )
                )
        if failures:
            detail = "; ".join(f.describe() for f in failures)
            raise ExecutionError(
                f"{len(failures)} of {self.nthreads} chunks failed: {detail}",
                failures=tuple(failures),
            )
        return y

    def close(self) -> None:
        """Shut the worker pool down and release any shard store."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self.store is not None:
            self.store.close()
            self.store = None

    def __enter__(self) -> "ParallelSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
