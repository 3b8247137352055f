"""Backend factory: one entry point over the thread / process executors.

The harness, CLI, and benchmarks select execution with two orthogonal
axes -- ``backend`` (where the workers run) and ``storage`` (where the
encoded shards live) -- and this module maps each combination to the
right executor class:

========  =========  ====================================================
backend   storage    meaning
========  =========  ====================================================
thread    mem        :class:`~repro.parallel.executor.ParallelSpMV`,
                     chunks as cached in-process encodes (the default)
thread    mmap       same executor, chunks attached from packed memmap
                     shard files (out-of-core under the GIL)
process   mem        :class:`~repro.parallel.process_executor.
                     ProcessParallelSpMV`, shards in POSIX shared memory
process   mmap       same executor, workers re-open the memmap shards
                     (out-of-core *and* GIL-free)
========  =========  ====================================================

Both classes share the calling convention (``executor(x, out=)``),
the fault contract (:class:`~repro.errors.ExecutionError` aggregation,
one cache-invalidating retry of a :data:`~repro.errors.DECODE_ERRORS`
failure, ``chunk_timeout``), and ``close()`` / context-manager
lifetime, so callers treat the return value uniformly.  The
degradation ladder is not a mode of this factory:
:class:`~repro.resilience.degrade.ResilientExecutor` wraps it, one
rung per (backend, storage) pair.

``nworkers`` may be omitted (or given as ``"auto"``): the default is
the host's logical CPU count -- requesting more workers than cores
only adds dispatch overhead, so defaults are capped there; an
*explicit* integer is always honored (oversubscription stays testable).
``format_name="auto"`` asks the configuration advisor
(:mod:`repro.perf.advisor`) to pick the compression format for this
matrix; the resolved executor is bit-identical to one built with the
same format spelled explicitly.
They also share the observability contract: with telemetry enabled,
both emit ``parallel.chunk`` spans, which are also the
``spmv.chunk.seconds`` live samples -- the process executor records
them *inside* its workers and merges them back via
:mod:`repro.obs.xproc`, so traces and metrics look the same whichever
backend ran.
"""

from __future__ import annotations

import os

from repro.errors import PartitionError
from repro.parallel.executor import ParallelSpMV
from repro.parallel.process_executor import ProcessParallelSpMV

__all__ = ["BACKENDS", "STORAGES", "default_workers", "make_executor"]

BACKENDS = ("thread", "process")
STORAGES = ("mem", "mmap")


def default_workers(nworkers=None) -> int:
    """Resolve a worker-count request; defaults cap at the CPU count.

    ``None`` and ``"auto"`` become ``os.cpu_count()`` (at least 1) --
    on the single-CPU benchmark container that is 1, which is also
    what the advisor's GIL/IPC-aware prediction resolves to.  An
    explicit integer passes through untouched so oversubscription
    remains expressible (tests exercise 4 workers on 1 CPU on
    purpose).
    """
    if nworkers is None or nworkers == "auto":
        return max(1, os.cpu_count() or 1)
    return int(nworkers)


def make_executor(
    matrix,
    nworkers=None,
    *,
    backend: str = "thread",
    storage: str = "mem",
    format_name: str = "csr",
    directory: str | None = None,
    deadline=None,
    **format_kwargs,
):
    """Build the executor for (*backend*, *storage*); see the table above.

    ``directory`` is required when ``storage="mmap"`` (where the shard
    files go); it is ignored for ``storage="mem"``.  ``nworkers``
    defaults to the host CPU count (see :func:`default_workers`);
    ``format_name="auto"`` resolves through the advisor.

    ``deadline`` (a :class:`~repro.resilience.policy.Deadline` whose
    remaining budget caps every per-chunk wait) flows into whichever
    executor is built; the executors' other settings (encode cache,
    chunk timeout, retry policy) keep their defaults here -- construct
    :class:`ParallelSpMV` or :class:`ProcessParallelSpMV` directly to
    set them.
    """
    if backend not in BACKENDS:
        raise PartitionError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    if storage not in STORAGES:
        raise PartitionError(
            f"unknown storage {storage!r}; choose from {STORAGES}"
        )
    nworkers = default_workers(nworkers)
    if format_name == "auto":
        # Imported lazily: the advisor sits above the format/kernel
        # layers this package belongs to.
        from repro.perf.advisor.advisor import advise_format

        format_name = advise_format(
            matrix, threads=nworkers, backend=backend
        )
    if backend == "thread":
        return ParallelSpMV(
            matrix,
            nworkers,
            format_name=format_name,
            storage=storage,
            directory=directory,
            deadline=deadline,
            **format_kwargs,
        )
    return ProcessParallelSpMV(
        matrix,
        nworkers,
        format_name=format_name,
        storage=storage,
        directory=directory,
        deadline=deadline,
        **format_kwargs,
    )
