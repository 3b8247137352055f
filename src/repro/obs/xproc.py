"""Cross-process observability: one causal timeline from many workers.

:class:`~repro.parallel.process_executor.ProcessParallelSpMV` runs its
chunks in fork-pool workers, and everything recorded inside a worker
-- spans, counters, live histograms, cache hit/miss counts -- dies with
the worker's process-local telemetry sink.  This module carries it
across the boundary in three pieces:

* :class:`TraceContext` -- the picklable description of the parent's
  one sink (event log on? live view on, with what histogram bucketing?)
  plus identity (run id, parent span name, worker index), shipped
  inside the worker's shard spec.  With telemetry off the context is
  ``None`` and the worker takes its plain fast path with zero
  recording calls (pinned by ``tests/telemetry/test_overhead``).
* :class:`WorkerTelemetry` -- the worker-side scope.  It installs a
  *fresh* process-local :class:`~repro.telemetry.core.Sink` (fork
  inherits the parent's module globals; recording into those would
  mutate a dead copy), restores it afterwards, and flushes everything
  as one payload in the worker's status dict: the log's events and
  aggregates, plus the live histogram/counter shards.
* :func:`ingest_payload` -- the parent-side merge.  Worker event
  timestamps are rebased onto the parent collector's epoch (valid
  because ``time.perf_counter`` is CLOCK_MONOTONIC, shared across
  processes on Linux -- see DESIGN.md 4.5 for the caveat elsewhere),
  stamped with the worker ``pid`` (fork children inherit the parent
  main thread's ident, so ``tid`` alone cannot tell workers apart),
  and appended to the parent collector; histogram shards merge by
  bucket addition, counter shards by total.

Each chunk's latency sample therefore exists once: the worker's
``parallel.chunk`` span feeds its own live histogram, and the parent
only merges.  After the merge, the parent's OpenMetrics exposition,
SLO rules, chrome trace and ``perf/imbalance.py`` see worker-side
metrics exactly as if the run had been single-process.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import Any

from repro.obs.core import ObsRuntime
from repro.telemetry import core as telemetry
from repro.telemetry.core import Collector, Event

__all__ = [
    "TraceContext",
    "WorkerTelemetry",
    "current_context",
    "ingest_payload",
]


class TraceContext:
    """Picklable description of what a worker should collect.

    Built in the parent (:meth:`capture`), shipped as a plain dict
    inside the shard spec, rebuilt in the worker (:meth:`from_wire`).
    It describes the parent's one sink: ``log`` says whether the event
    log is on, ``live`` is the live histogram growth factor (``None``
    when the live view is off).
    """

    __slots__ = ("run_id", "parent", "worker", "log", "live", "attrs")

    def __init__(
        self,
        *,
        run_id: str,
        parent: str = "parallel.spmv",
        worker: int = 0,
        log: bool = False,
        live: float | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.run_id = run_id
        self.parent = parent
        self.worker = worker
        self.log = log
        self.live = live
        self.attrs = dict(attrs) if attrs else {}

    @classmethod
    def capture(
        cls,
        *,
        run_id: str,
        parent: str = "parallel.spmv",
        worker: int = 0,
        **attrs,
    ) -> "TraceContext | None":
        """Snapshot the parent's sink, or ``None`` if telemetry is off.

        ``None`` is the zero-overhead signal: the worker sees no
        context key in its spec and makes no recording calls.
        """
        sink = telemetry.get_sink()
        if sink is None:
            return None
        return cls(
            run_id=run_id,
            parent=parent,
            worker=worker,
            log=sink.log is not None,
            live=None if sink.live is None else sink.live.histogram_growth,
            attrs=attrs,
        )

    def to_wire(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_wire(cls, wire: dict) -> "TraceContext":
        return cls(**wire)


def current_context(
    *, run_id: str, parent: str = "parallel.spmv", worker: int = 0, **attrs
) -> dict | None:
    """Wire-format :meth:`TraceContext.capture`, ready for a spec dict."""
    ctx = TraceContext.capture(
        run_id=run_id, parent=parent, worker=worker, **attrs
    )
    return None if ctx is None else ctx.to_wire()


class WorkerTelemetry:
    """Worker-side collection scope for one chunk execution.

    ``begin()`` installs a fresh process-local sink mirroring the
    context, ``end()`` restores whatever the fork inherited, and
    ``payload()`` packages everything recorded in between.  The live
    view is built with ``rules=()`` -- SLO evaluation is the parent's
    job; a worker only accumulates.
    """

    def __init__(self, ctx: TraceContext | dict) -> None:
        if isinstance(ctx, dict):
            ctx = TraceContext.from_wire(ctx)
        self.ctx = ctx
        self.sink = telemetry.Sink(
            Collector() if ctx.log else None,
            ObsRuntime(rules=(), histogram_growth=ctx.live)
            if ctx.live
            else None,
        )
        self._prev: telemetry.Sink | None = None
        self.began = False

    def begin(self) -> "WorkerTelemetry":
        self._prev = telemetry.set_sink(self.sink)
        self.began = True
        return self

    def end(self) -> None:
        if self.began:
            telemetry.set_sink(self._prev)

    def payload(self) -> dict:
        """Everything this scope recorded, as one dict."""
        out: dict[str, Any] = {
            "run_id": self.ctx.run_id,
            "worker": self.ctx.worker,
            "pid": os.getpid(),
        }
        log, live = self.sink.log, self.sink.live
        if log is not None:
            out["epoch_ns"] = log.epoch_ns
            out["events"] = [asdict(ev) for ev in log.snapshot()]
            out["counters"] = dict(log.counters)
            out["gauges"] = dict(log.gauges)
        if live is not None:
            out["shards"] = live.to_shards()
        return out

    def __enter__(self) -> "WorkerTelemetry":
        return self.begin()

    def __exit__(self, *exc) -> None:
        self.end()


def ingest_payload(
    payload: dict,
    *,
    collector: Collector | None = None,
    runtime: ObsRuntime | None = None,
) -> int:
    """Merge one worker payload into the parent's sinks.

    Event timestamps are rebased from the worker collector's epoch to
    the parent's (both are ``perf_counter_ns`` readings of the shared
    monotonic clock), and every ingested event is stamped with the
    worker's ``pid`` and ``worker`` index so downstream consumers
    (chrome tracks, timeline lanes, the dashboard workers table) can
    tell workers apart despite the fork-inherited thread ident.
    Returns the number of events ingested.
    """
    if collector is None:
        collector = telemetry.get_collector()
    if runtime is None:
        runtime = telemetry.get_live()
    ingested = 0
    if collector is not None and payload.get("events"):
        offset_us = (payload["epoch_ns"] - collector.epoch_ns) / 1e3
        pid = int(payload.get("pid", 0))
        worker = int(payload.get("worker", 0))
        events = [
            Event(
                **{
                    **raw,
                    "ts_us": raw["ts_us"] + offset_us,
                    "attrs": {"pid": pid, "worker": worker, **raw["attrs"]},
                }
            )
            for raw in payload["events"]
        ]
        ingested = collector.ingest(
            events,
            counters=payload.get("counters"),
            gauges=payload.get("gauges"),
        )
    if runtime is not None and "shards" in payload:
        runtime.merge_shards(payload["shards"])
    return ingested
