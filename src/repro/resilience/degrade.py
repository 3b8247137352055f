"""Backend degradation ladder: keep answering, more slowly, on failure.

The guarded kernel chain (PR 5) established the pattern at the kernel
tier: when the fast path fails, fall back to a slower bit-identical
one and record the transition.  This module lifts that pattern to the
**backend axis**.  A :class:`ResilientExecutor` wraps the whole
``make_executor`` configuration space as an explicit ladder::

    (process, mmap) -> (process, mem) -> (thread, mem) -> (serial, mem)

Each rung is guarded by its own circuit breaker
(:class:`~repro.resilience.breaker.BreakerBoard`), so a rung that
keeps failing is skipped without being re-attempted every call, and —
because open breakers cool down into half-open — a recovered upper
rung is automatically re-probed and re-adopted.  Every transition is
emitted as one ``resilience.degrade`` telemetry counter, whose live
series is ``resilience.degrade.total`` (the default SLO rule set
alerts on it), so degradation is always *visible*: the system never
silently runs slower.

What degrades and what doesn't:

* :class:`~repro.errors.ExecutionError`, :class:`~repro.errors.
  StorageError` and :class:`~repro.errors.BreakerOpenError` from a
  rung move the call down the ladder — a crashed pool, a torn shard
  file and an open shard breaker are all problems a simpler rung can
  sidestep.
* :class:`~repro.errors.DeadlineExceeded` propagates immediately: a
  spent wall-clock budget cannot be bought back by a slower backend.
* Everything else (``TypeError``, ``MemoryError``, bad input shapes)
  propagates too — the ladder absorbs *infrastructure* failures, not
  caller bugs.

The bottom rung, :class:`SerialSpMV`, is deliberately boring: one
in-process cached encode driven through the PR-5
:class:`~repro.robust.guard.GuardedKernel` tier chain.  It shares the
conversion-cache key of a 1-thread executor's single chunk, so landing
on it after a degradation usually costs no re-encode at all.
"""

from __future__ import annotations

import time

import numpy as np

from repro.compress.encode_cache import DEFAULT_CACHE
from repro.errors import (
    BreakerOpenError,
    DeadlineExceeded,
    ExecutionError,
    FormatError,
    PartitionError,
    StorageError,
)
from repro.formats.base import check_out_aliasing
from repro.formats.conversions import to_csr
from repro.parallel.backends import make_executor
from repro.resilience.breaker import BreakerBoard
from repro.resilience.policy import Deadline, RetryPolicy
from repro.robust.guard import GuardedKernel
from repro.telemetry import core as telemetry

__all__ = ["BACKEND_LADDER", "ResilientExecutor", "SerialSpMV", "ladder_for"]

#: Backend rungs from most parallel to most boring.
BACKEND_LADDER = ("process", "thread", "serial")

#: Failures a rung transition may absorb (DeadlineExceeded is an
#: ExecutionError subclass and is re-raised explicitly before this
#: tuple is consulted).
_DEGRADABLE = (ExecutionError, StorageError, BreakerOpenError)


def ladder_for(backend: str, storage: str) -> tuple[tuple[str, str], ...]:
    """The degradation rungs starting from (*backend*, *storage*).

    Storage degrades first (``mmap -> mem``: drop the disk dependency
    before giving up parallelism) and stays degraded — a lower rung
    never re-introduces the storage axis that just failed.  The final
    rung is always ``("serial", "mem")``.
    """
    if backend not in BACKEND_LADDER:
        raise PartitionError(
            f"unknown backend {backend!r}; choose from {BACKEND_LADDER}"
        )
    rungs: list[tuple[str, str]] = []
    start = BACKEND_LADDER.index(backend)
    for b in BACKEND_LADDER[start:]:
        if b == "serial":
            rungs.append((b, "mem"))
            continue
        if storage == "mmap" and b == backend:
            rungs.append((b, "mmap"))
        rungs.append((b, "mem"))
    return tuple(rungs)


class SerialSpMV:
    """The ladder's bottom rung: single-threaded guarded SpMV.

    Executor-shaped (``__call__(x, out=)``, ``close()``, context
    manager) so the ladder and the bench harness treat it uniformly.
    The matrix is one cached encode over the full row range — the same
    cache key a 1-thread executor's chunk uses — and every multiply
    runs through the :class:`~repro.robust.guard.GuardedKernel` tier
    chain, so even this rung degrades gracefully *within* itself.

    It is not ``ParallelSpMV(nthreads=1)``: that executor runs every
    chunk through the ``thread.chunk`` chaos site and answers a failure
    by rebuilding the chunk, never by falling to the reference tier.
    A fault that poisons that site for every chunk would therefore take
    the bottom rung down with the thread rung above it (see
    ``test_degrades_to_serial_bit_identical``).
    """

    backend = "serial"
    storage = "mem"
    nthreads = 1

    def __init__(
        self,
        matrix,
        *,
        format_name: str = "csr",
        convert_cache=None,
        **format_kwargs,
    ):
        csr = to_csr(matrix)
        self.nrows, self.ncols = csr.shape
        self._format_name = format_name
        cache = DEFAULT_CACHE if convert_cache is None else convert_cache
        self.chunk = cache.get_or_convert(
            csr, format_name, rows=(0, self.nrows), **format_kwargs
        )
        self._guard = GuardedKernel(self.chunk.name)

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise FormatError(
                f"x has shape {x.shape}, expected ({self.ncols},)"
            )
        y = self._guard(self.chunk, x)
        if out is None:
            return y
        check_out_aliasing(out, x)
        np.copyto(out, y)
        return out

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialSpMV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ResilientExecutor:
    """``make_executor`` with an explicit degradation ladder around it.

    Parameters mirror :func:`~repro.parallel.backends.make_executor`
    (*backend*/*storage* name the **top** rung); *retry_policy* and
    *deadline* are forwarded to each rung's executor.  Each rung has
    one :class:`~repro.resilience.breaker.CircuitBreaker` with the
    stock threshold and cooldown: an open rung is skipped until its
    cooldown admits a half-open probe, which is how the ladder climbs
    *back up* after recovery.  *clock* is the breakers' clock (a fake
    one in tests).

    Built rung executors are cached; a rung that fails is closed and
    evicted so its next probe starts from clean state (fresh pool,
    fresh shard attachments).
    """

    def __init__(
        self,
        matrix,
        nworkers=None,
        *,
        backend: str = "process",
        storage: str = "mem",
        format_name: str = "csr",
        directory: str | None = None,
        convert_cache=None,
        chunk_timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        deadline: Deadline | None = None,
        clock=time.monotonic,
        **format_kwargs,
    ):
        self._matrix = matrix
        self._nworkers = nworkers
        self._format_name = format_name
        self._directory = directory
        self._convert_cache = convert_cache
        self._chunk_timeout = chunk_timeout
        self._retry_policy = retry_policy
        self._deadline = deadline
        self._format_kwargs = dict(format_kwargs)
        self.ladder = ladder_for(backend, storage)
        self.breakers = BreakerBoard(clock=clock)
        self._executors: dict[tuple[str, str], object] = {}
        #: Rung of the last successful call (observability, reporting).
        self.active_rung: tuple[str, str] = self.ladder[0]
        self._closed = False

    # -- rung management ---------------------------------------------------
    @property
    def backend(self) -> str:
        return self.active_rung[0]

    @property
    def storage(self) -> str:
        return self.active_rung[1]

    def _rung_key(self, rung: tuple[str, str]) -> str:
        return f"backend:{rung[0]}:{rung[1]}"

    def _executor_for(self, rung: tuple[str, str]):
        existing = self._executors.get(rung)
        if existing is not None:
            return existing
        b, s = rung
        if b == "serial":
            built = SerialSpMV(
                self._matrix,
                format_name=self._format_name,
                convert_cache=self._convert_cache,
                **self._format_kwargs,
            )
        else:
            built = make_executor(
                self._matrix,
                self._nworkers,
                backend=b,
                storage=s,
                format_name=self._format_name,
                directory=self._directory if s == "mmap" else None,
                convert_cache=self._convert_cache,
                chunk_timeout=self._chunk_timeout,
                retry_policy=self._retry_policy,
                deadline=self._deadline,
                **self._format_kwargs,
            )
        self._executors[rung] = built
        return built

    def _evict(self, rung: tuple[str, str]) -> None:
        executor = self._executors.pop(rung, None)
        if executor is not None:
            try:
                executor.close()
            except Exception:
                pass

    def _emit_degrade(
        self,
        from_rung: tuple[str, str],
        to_rung: tuple[str, str],
        exc: BaseException,
    ) -> None:
        telemetry.count(
            "resilience.degrade",
            1,
            extra={
                "from_backend": from_rung[0],
                "from_storage": from_rung[1],
                "to_backend": to_rung[0],
                "to_storage": to_rung[1],
                "error": type(exc).__name__,
            },
            format=self._format_name,
        )

    # -- the call ----------------------------------------------------------
    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._closed:
            raise ExecutionError("executor is closed")
        last_exc: BaseException | None = None
        last_rung: tuple[str, str] | None = None
        for i, rung in enumerate(self.ladder):
            if self._deadline is not None:
                self._deadline.check("resilience.rung")
            breaker = self.breakers.get(self._rung_key(rung))
            if not breaker.allow():
                continue
            if last_rung is not None:
                # We got here because a higher rung just failed.
                self._emit_degrade(last_rung, rung, last_exc)
            try:
                executor = self._executor_for(rung)
                y = executor(x, out=out)
            except DeadlineExceeded:
                raise
            except _DEGRADABLE as exc:
                breaker.record_failure()
                self._evict(rung)
                last_exc = exc
                last_rung = rung
                continue
            breaker.record_success()
            self.active_rung = rung
            return y
        if last_exc is not None:
            raise ExecutionError(
                f"all rungs of the degradation ladder failed; last rung "
                f"{last_rung}: {type(last_exc).__name__}: {last_exc}",
                failures=getattr(last_exc, "failures", ()),
            ) from last_exc
        raise BreakerOpenError(
            "every rung's circuit breaker is open",
            key=self._rung_key(self.ladder[0]),
            retry_after_s=min(
                self.breakers.get(self._rung_key(r)).retry_after_s()
                for r in self.ladder
            ),
        )

    def close(self) -> None:
        self._closed = True
        for rung in list(self._executors):
            self._evict(rung)

    def __enter__(self) -> "ResilientExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
