"""Multi-process SpMV execution: real parallelism beyond the GIL.

:class:`ProcessParallelSpMV` is the process-pool sibling of
:class:`~repro.parallel.executor.ParallelSpMV`.  The matrix is sharded
once into a :class:`~repro.storage.shard.ShardStore` (one shard per
worker, same nnz-balanced row partition as the thread executor), and
each call ships nothing but a picklable shard *spec*: workers attach
the shard bytes directly -- a POSIX shared-memory segment for
``storage="mem"``, a re-opened ``np.memmap`` for ``storage="mmap"`` --
multiply into a shared output buffer, and return a small status dict.
No matrix data ever crosses the pickle channel.

The fault contract matches the thread executor exactly, crossing the
process boundary:

* every chunk outcome is collected; failures aggregate into one
  :class:`~repro.errors.ExecutionError` with per-chunk context;
* decode-class failures (:data:`~repro.errors.DECODE_ERRORS`, which
  include the CRC mismatch a poisoned shard raises at attach)
  get one retry after the parent rebuilds the shard from the source
  matrix -- ``rebuild_shard`` bumps the shard's generation, so the
  worker's attach cache cannot serve the stale bytes;
* ``chunk_timeout`` bounds the wait per chunk, and a worker that dies
  outright (``BrokenProcessPool``) surfaces as an aggregated failure,
  not a hang -- the pool and the shared x/y buffers are rotated before
  the next call so a straggler writing late cannot corrupt it.

Exceptions cross back as ``(type name, message)`` pairs -- errors with
keyword-only constructors (:class:`~repro.errors.IntegrityError`) do
not round-trip through pickle reliably -- and are reconstructed from
:mod:`repro.errors` / builtins in the parent, falling back to
:class:`RuntimeError`.
"""

from __future__ import annotations

import builtins
import os
import traceback
import uuid
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_all_start_methods, get_context, shared_memory

import numpy as np

import repro.errors as _errors
from repro.compress.encode_cache import ConvertCache
from repro.errors import (
    BreakerOpenError,
    ExecutionError,
    FormatError,
    PartitionError,
    StorageError,
)
from repro.formats.base import SparseMatrix, check_out_aliasing
from repro.formats.conversions import to_csr
from repro.obs import xproc
from repro.parallel.executor import ChunkFailure, abandon_chunk
from repro.parallel.partition import RowPartition, row_partition
from repro.resilience import chaos
from repro.resilience.breaker import BreakerBoard
from repro.resilience.policy import DEFAULT_RETRY_POLICY, Deadline, RetryPolicy
from repro.storage.provider import _attach_shm, _disarm_segment
from repro.storage.shard import ShardStore, attach_shard
from repro.telemetry import core as telemetry

__all__ = ["ProcessParallelSpMV"]

#: storage= values accepted by the process backend and the store kind
#: each maps to ("mem" means shared memory here: the in-RAM case that
#: workers can still reach).
_STORAGE_KINDS = {"mem": "shm", "shm": "shm", "mmap": "mmap"}


# ---------------------------------------------------------------------------
# Worker side (module level: must be picklable by reference)
# ---------------------------------------------------------------------------

#: Per-worker LRU cache of rebuilt shard matrices, keyed (index,
#: generation).  A rebuilt shard arrives with a bumped generation, so
#: stale bytes are never served after a cache-invalidating retry.  Hits
#: move to the back; over capacity the oldest entry is evicted -- the
#: working set survives, unlike the previous wholesale clear().
_SHARD_CACHE: "OrderedDict[tuple[int, int], SparseMatrix]" = OrderedDict()

#: Shard-cache capacity per worker process.
_SHARD_CACHE_CAPACITY = 64

#: Per-worker cache of attached x/y vector segments, keyed by name.
_VEC_CACHE: dict[str, np.ndarray] = {}


def _attach_vector(name: str, size: int) -> np.ndarray:
    vec = _VEC_CACHE.get(name)
    if vec is None:
        seg = _attach_shm(name)
        vec = np.frombuffer(seg.buf, dtype=np.float64, count=size)
        if len(_VEC_CACHE) > 8:
            _VEC_CACHE.clear()
        _VEC_CACHE[name] = vec
    return vec


def _cached_shard(spec: dict) -> SparseMatrix:
    """Shard for *spec* from the worker's LRU cache, attaching on miss.

    attach_shard verifies every field CRC: a poisoned shard raises
    IntegrityError here, which the parent sees as retryable.  The
    hit/miss counts flow through whatever telemetry sink is installed
    in this process -- the worker-scoped one when a trace context
    enabled it, or the disabled fast path otherwise.
    """
    key = (spec["index"], spec["generation"])
    shard = _SHARD_CACHE.get(key)
    storage = spec["handle"]["kind"]
    if shard is not None:
        _SHARD_CACHE.move_to_end(key)
        telemetry.count(
            "storage.shard.cache.hit",
            1,
            extra={"index": spec["index"]},
            storage=storage,
        )
        return shard
    # The miss is recorded before the attach so a failing attach still
    # counts as a miss.
    telemetry.count(
        "storage.shard.cache.miss",
        1,
        extra={"index": spec["index"]},
        storage=storage,
    )
    shard = attach_shard(spec, verify=True)
    _SHARD_CACHE[key] = shard
    while len(_SHARD_CACHE) > _SHARD_CACHE_CAPACITY:
        _SHARD_CACHE.popitem(last=False)
    return shard


def _worker_spmv(
    spec: dict,
    x_name: str,
    ncols: int,
    y_name: str,
    nrows: int,
    lo: int,
    hi: int,
) -> dict:
    """Multiply one shard inside a pool worker; returns a status dict.

    The return value is deliberately plain (no exception objects):
    errors with keyword-only constructors break pickle, and the parent
    owns the retry decision anyway.  Failures carry the formatted
    worker traceback -- exception objects cannot cross the boundary,
    but the text can.

    When the spec carries a trace context (the parent had telemetry
    enabled), the chunk runs under a worker-scoped sink and the status
    dict ships everything recorded -- spans, counters, live shards,
    including this chunk's ``spmv.chunk.seconds`` sample fed by its
    ``parallel.chunk`` span -- back for the parent to merge
    (:mod:`repro.obs.xproc`).  Without a context nothing here touches
    a sink.
    """
    ctx = spec.get("ctx")
    wt: xproc.WorkerTelemetry | None = None
    try:
        if ctx is not None:
            wt = xproc.WorkerTelemetry(ctx)
            wt.begin()
        try:
            with telemetry.span(
                "parallel.chunk",
                thread=wt.ctx.worker if wt else 0,
                lo=lo,
                hi=hi,
                nnz=wt.ctx.attrs.get("nnz", 0) if wt else 0,
                kind="row",
                format=wt.ctx.attrs.get("format", "") if wt else "",
                backend="process",
                pid=os.getpid(),
                run_id=wt.ctx.run_id if wt else "",
            ):
                # Chaos seam (tools/smoke_chaos.py): faults armed in the
                # parent before the pool forked fire here -- a SIGKILL
                # lands mid-chunk, a sleep makes this worker the
                # straggler.  Empty registry = one truthiness check.
                chaos.trip(
                    "worker.chunk",
                    index=spec["index"],
                    generation=spec["generation"],
                    pid=os.getpid(),
                )
                x = _attach_vector(x_name, ncols)
                y = _attach_vector(y_name, nrows)
                with telemetry.span(
                    "worker.attach",
                    index=spec["index"],
                    generation=spec["generation"],
                ):
                    shard = _cached_shard(spec)
                with telemetry.span("worker.multiply", index=spec["index"]):
                    shard.spmv(x, out=y[lo:hi])
            status = {"ok": True}
        finally:
            if wt is not None:
                wt.end()
    except BaseException as exc:  # noqa: BLE001 - must not escape the worker
        status = {
            "ok": False,
            "error_type": type(exc).__name__,
            "error": str(exc),
            "traceback": traceback.format_exc(),
        }
    if wt is not None and wt.began:
        status["xproc"] = wt.payload()
    return status


def _rebuild_error(status: dict) -> BaseException:
    """Parent-side reconstruction of a worker's reported exception."""
    name = status.get("error_type", "RuntimeError")
    message = status.get("error", "")
    cls = getattr(_errors, name, None) or getattr(builtins, name, None)
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        return RuntimeError(f"{name}: {message}")
    try:
        return cls(message)
    except TypeError:
        return RuntimeError(f"{name}: {message}")


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


class _SharedVector:
    """A float64 vector in a shared-memory segment (parent-owned)."""

    def __init__(self, size: int):
        self.size = size
        self._seg = shared_memory.SharedMemory(
            create=True, size=max(size * 8, 1)
        )
        self.array = np.frombuffer(self._seg.buf, dtype=np.float64, count=size)

    @property
    def name(self) -> str:
        return self._seg.name

    def close(self) -> None:
        try:
            self._seg.unlink()
        except FileNotFoundError:
            pass
        # Release our view first or close() raises BufferError.
        self.array = None
        try:
            self._seg.close()
        except BufferError:
            _disarm_segment(self._seg)


class ProcessParallelSpMV:
    """Row-partitioned multi-process SpMV over sharded storage.

    Parameters
    ----------
    matrix:
        Source matrix (any format; normalized through CSR once).
    nworkers:
        Process count; one shard / output slice per worker.
    format_name, format_kwargs:
        Storage format of the shards, as in the thread executor.
    storage:
        ``"mem"`` -- shards live in POSIX shared memory (in-RAM case);
        ``"mmap"`` -- shards live in packed files under *directory*
        and workers re-open the memmap (out-of-core case).
    directory:
        Shard-file directory, required for ``storage="mmap"``.
    convert_cache:
        Cache for the shard encodes (shared with thread executors over
        the same matrix: the keying is identical).
    chunk_timeout:
        Seconds to wait per chunk and call; a chunk exceeding it is a
        :class:`TimeoutError` failure inside the aggregated
        :class:`~repro.errors.ExecutionError`, and the shared buffers
        are rotated so the straggler cannot corrupt the next call.
    retry_policy:
        :class:`~repro.resilience.policy.RetryPolicy` governing the
        rebuild-and-resubmit retry (default: one retry of decode-class
        failures, shared budget across the run).
    deadline:
        Optional :class:`~repro.resilience.policy.Deadline` capping
        every per-chunk wait at the run's remaining wall-clock budget.

    Workers start by ``fork`` where the platform has it (cheap, and
    safe here because workers only attach buffers and run NumPy
    kernels).  Each (shard, generation) has a circuit breaker with the
    stock threshold and cooldown: after repeated failures against one
    shard generation, further rebuild attempts are refused (a typed
    :class:`~repro.errors.BreakerOpenError` failure) until the cooldown
    admits a half-open probe.  A successful rebuild bumps the
    generation and therefore starts a fresh breaker.
    """

    backend = "process"

    def __init__(
        self,
        matrix: SparseMatrix,
        nworkers: int,
        *,
        format_name: str = "csr",
        storage: str = "mem",
        directory: str | None = None,
        convert_cache: ConvertCache | None = None,
        chunk_timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        deadline: Deadline | None = None,
        **format_kwargs,
    ):
        if nworkers < 1:
            raise PartitionError(f"nworkers must be >= 1, got {nworkers}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise PartitionError(
                f"chunk_timeout must be positive, got {chunk_timeout}"
            )
        if storage not in _STORAGE_KINDS:
            raise StorageError(
                f"unknown storage {storage!r} for the process backend; "
                f"choose from {sorted(_STORAGE_KINDS)}"
            )
        csr = to_csr(matrix)
        self.nrows, self.ncols = csr.shape
        self.nworkers = nworkers
        self.nthreads = nworkers  # parity with ParallelSpMV's attribute
        self.chunk_timeout = chunk_timeout
        self.retry_policy = (
            DEFAULT_RETRY_POLICY if retry_policy is None else retry_policy
        )
        self.deadline = deadline
        self._retry_budget = self.retry_policy.new_budget()
        self.breakers = BreakerBoard()
        self._format_name = format_name
        self.partition: RowPartition = row_partition(csr.row_ptr, nworkers)
        self.store = ShardStore.build(
            csr,
            format_name,
            nworkers,
            storage=_STORAGE_KINDS[storage],
            directory=directory,
            convert_cache=convert_cache,
            boundaries=self.partition.boundaries.tolist(),
            deadline=deadline,
            **format_kwargs,
        )
        self._ctx = get_context(
            "fork" if "fork" in get_all_start_methods() else None
        )
        self._pool: ProcessPoolExecutor | None = None
        self._run_id = uuid.uuid4().hex[:12]
        self._x = _SharedVector(self.ncols)
        self._y = _SharedVector(self.nrows)
        self._retired: list[_SharedVector] = []
        self._closed = False

    # -- pool / buffer lifecycle ------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.nworkers, mp_context=self._ctx
            )
        return self._pool

    def _rotate(self) -> None:
        """Replace pool and shared buffers after a timeout / dead worker.

        A timed-out worker may still be running and would eventually
        write into the old ``y`` segment; retiring the segments (they
        stay allocated until close) guarantees it cannot touch the
        buffers later calls read.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._retired.extend([self._x, self._y])
        self._x = _SharedVector(self.ncols)
        self._y = _SharedVector(self.nrows)

    # -- the call ----------------------------------------------------------
    def _submit(self, pool: ProcessPoolExecutor, t: int):
        lo, hi = self.partition.rows_of(t)
        # The spec dict is shared with the store's manifest, so the
        # trace context rides on a copy.  ctx is None when telemetry
        # is off -- the worker then makes zero recording calls (the
        # xproc zero-overhead contract).
        spec = dict(self.store.attach_spec(t))
        ctx = xproc.current_context(
            run_id=self._run_id,
            parent="parallel.spmv",
            worker=t,
            nnz=int(self.partition.nnz_per_thread[t]),
            format=self._format_name,
        )
        if ctx is not None:
            spec["ctx"] = ctx
        return pool.submit(
            _worker_spmv,
            spec,
            self._x.name,
            self.ncols,
            self._y.name,
            self.nrows,
            lo,
            hi,
        )

    def _chunk_result(self, t: int, future, *, retried: bool):
        """(failure | None, status | None, needs_rotation) for one chunk."""
        lo, hi = self.partition.rows_of(t)
        timeout = (
            self.chunk_timeout
            if self.deadline is None
            else self.deadline.cap(self.chunk_timeout)
        )
        try:
            status = future.result(timeout=timeout)
        except FuturesTimeoutError:
            failure = abandon_chunk(
                t, lo, hi, timeout=timeout, backend=self.backend
            )
            if retried:
                failure = ChunkFailure(
                    t, lo, hi, failure.error, retried=True
                )
            return failure, None, True
        except BrokenProcessPool as exc:
            return (
                ChunkFailure(
                    t,
                    lo,
                    hi,
                    RuntimeError(f"worker process died: {exc}"),
                    retried=retried,
                ),
                None,
                True,
            )
        # Worker-side telemetry merges first (also for failed chunks:
        # their partial events show where worker time went).
        payload = status.get("xproc")
        if payload is not None:
            xproc.ingest_payload(payload)
        return None, status, False

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Compute ``y = A x`` across the worker processes."""
        if self._closed:
            raise StorageError("executor is closed")
        if self.deadline is not None:
            self.deadline.check("parallel.call")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise FormatError(f"x has shape {x.shape}, expected ({self.ncols},)")
        if out is not None:
            check_out_aliasing(out, x)
        np.copyto(self._x.array, x)

        failures: list[ChunkFailure] = []
        needs_rotation = False
        with telemetry.span(
            "parallel.spmv",
            threads=self.nworkers,
            format=self._format_name,
            backend=self.backend,
        ):
            pool = self._ensure_pool()
            futures = {t: self._submit(pool, t) for t in range(self.nworkers)}
            retry: list[tuple[int, dict]] = []
            for t, future in futures.items():
                failure, status, rotate = self._chunk_result(
                    t, future, retried=False
                )
                needs_rotation |= rotate
                if failure is not None:
                    failures.append(failure)
                elif status is not None and not status["ok"]:
                    retry.append((t, status))
            # Cache-invalidating retry, across the process boundary: the
            # parent rebuilds the shard (new generation, fresh bytes)
            # and resubmits -- gated by the retry policy (error class,
            # attempts, shared budget, deadline) and by the shard
            # generation's circuit breaker, so a shard that keeps
            # failing at the same bytes stops burning rebuild cycles.
            resubmitted: list[tuple[int, object, object]] = []
            for t, status in retry:
                lo, hi = self.partition.rows_of(t)
                exc = _rebuild_error(status)
                generation = self.store.attach_spec(t)["generation"]
                breaker = self.breakers.get(f"shard:{t}:g{generation}")
                breaker.record_failure()
                if not breaker.allow():
                    failures.append(
                        ChunkFailure(
                            t,
                            lo,
                            hi,
                            BreakerOpenError(
                                f"shard {t} generation {generation} breaker "
                                f"open after repeated failures (last: "
                                f"{type(exc).__name__}: {exc})",
                                key=breaker.key,
                                retry_after_s=breaker.retry_after_s(),
                            ),
                            retried=False,
                            worker_traceback=status.get("traceback"),
                        )
                    )
                    continue
                if not self.retry_policy.should_retry(
                    exc, 1, budget=self._retry_budget, deadline=self.deadline
                ):
                    failures.append(
                        ChunkFailure(
                            t,
                            lo,
                            hi,
                            exc,
                            retried=False,
                            worker_traceback=status.get("traceback"),
                        )
                    )
                    continue
                telemetry.count(
                    "executor.retry",
                    1,
                    extra={
                        "thread": t,
                        "lo": lo,
                        "hi": hi,
                        "error": status.get("error_type", ""),
                    },
                    format=self._format_name,
                )
                try:
                    self.store.rebuild_shard(t)
                except Exception as exc2:
                    breaker.record_failure()
                    failures.append(ChunkFailure(t, lo, hi, exc2, retried=True))
                    continue
                resubmitted.append((t, self._submit(pool, t), breaker))
            for t, future, breaker in resubmitted:
                lo, hi = self.partition.rows_of(t)
                failure, status, rotate = self._chunk_result(
                    t, future, retried=True
                )
                needs_rotation |= rotate
                if failure is not None:
                    breaker.record_failure()
                    failures.append(failure)
                elif status is not None and not status["ok"]:
                    breaker.record_failure()
                    failures.append(
                        ChunkFailure(
                            t,
                            lo,
                            hi,
                            _rebuild_error(status),
                            retried=True,
                            worker_traceback=status.get("traceback"),
                        )
                    )
                else:
                    # The rebuilt generation works: close the breaker so
                    # a half-open probe that succeeded re-admits traffic.
                    breaker.record_success()
        y_view = self._y.array
        if out is not None:
            np.copyto(out, y_view)
            y = out
        else:
            y = np.array(y_view, copy=True)
        if needs_rotation:
            self._rotate()
        if failures:
            failures.sort(key=lambda f: f.thread)
            detail = "; ".join(f.describe() for f in failures)
            raise ExecutionError(
                f"{len(failures)} of {self.nworkers} chunks failed: {detail}",
                failures=tuple(failures),
            )
        return y

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Shut down the pool, the shard store, and the shared buffers."""
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        for vec in [self._x, self._y, *self._retired]:
            vec.close()
        self._retired = []
        self.store.close()

    def __enter__(self) -> "ProcessParallelSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
