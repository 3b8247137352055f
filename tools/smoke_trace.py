"""Telemetry smoke check: run a tiny traced benchmark, validate the trace.

Runs ``python -m repro.bench table3`` at a reduced scale with ``--trace``
and checks that

* every emitted JSONL event conforms to the schema
  (:func:`repro.telemetry.export.validate_event`),
* every event name belongs to the documented vocabulary
  (:data:`repro.telemetry.metrics.KNOWN_EVENTS`), and
* the trace contains the load-bearing signals: per-matrix spans,
  CSR-DU unit-width histograms, per-thread nnz counters, and one
  ``perf.attribution`` record per bench cell with its full payload.

Further self-contained checks run under scoped sinks:
the ``parallel.chunk`` spans of a small multithreaded SpMV (the bench
trace above uses the model clock, which never spins up the executor),
the fault/observability paths, the ``advisor.pick`` advise/realized
pair the configuration advisor emits, the backend-labelled
``spmv.chunk.seconds`` histograms of a thread-vs-process pair, and the
cross-process merge (worker spans, shard-merged histograms, per-worker
chrome tracks via ``--chrome-out``).

Exit status 0 means the instrumentation pipeline is healthy; any
failure prints the offending event.  The pytest suite runs :func:`run`
directly so regressions fail tier-1.

Run:  PYTHONPATH=src python tools/smoke_trace.py [--scale 0.03125] [--limit 2]
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import tempfile

from repro.bench.cli import main as bench_main
from repro.errors import TelemetryError
from repro.telemetry.export import read_jsonl, validate_event
from repro.telemetry.metrics import KNOWN_EVENTS, VOCABULARY

#: Event names a traced table3 run must contain to be considered healthy.
#: The run builds each CSR-DU cell's kernel plan once, so it records
#: ``plan.build``/``plan.miss`` but no ``plan.hit``; the repeated calls
#: of :func:`check_parallel_chunks` require that one.
REQUIRED_EVENTS = frozenset(
    {
        "bench.matrix",
        "bench.cell",
        "convert",
        "convert.cache.miss",
        "encode.batched",
        "encode.csr_du.units",
        "plan.build",
        "plan.miss",
        "partition.nnz",
        "sim.spmv",
        "sim.bound",
        "perf.attribution",
    }
)

def _check_events(events: list[dict], what: str) -> int:
    """Schema, vocabulary and payload checks shared by every scenario."""
    for i, event in enumerate(events):
        try:
            validate_event(event)
        except TelemetryError as exc:
            print(
                f"smoke_trace: {what} event {i} invalid: {exc}: {event!r}",
                file=sys.stderr,
            )
            return 1
    unknown = {e["name"] for e in events} - KNOWN_EVENTS
    if unknown:
        print(
            f"smoke_trace: undocumented {what} event names {sorted(unknown)}",
            file=sys.stderr,
        )
        return 1
    return _check_payloads(events)


def _check_payloads(events: list[dict]) -> int:
    """Every event carries the attributes its vocabulary entry declares."""
    for i, event in enumerate(events):
        spec = VOCABULARY.get(event["name"])
        if spec is None:
            continue
        missing = spec.attrs - set(event["attrs"])
        if missing:
            print(
                f"smoke_trace: event {i} ({event['name']}) missing payload "
                f"keys {sorted(missing)}: {event!r}",
                file=sys.stderr,
            )
            return 1
    return 0


def check_parallel_chunks(nthreads: int = 4, calls: int = 2) -> int:
    """Trace a small multithreaded SpMV; validate its chunk spans.

    Runs under a scoped collector (the bench run above uses the model
    clock and never executes :class:`~repro.parallel.executor.ParallelSpMV`),
    so the ``parallel.chunk`` instrumentation is exercised end to end:
    schema, payload keys, nnz census adding up, and distinct threads.
    Its repeated CSR-DU calls must also be served from the kernel-plan
    cache (``plan.hit``).
    """
    import numpy as np

    from repro import telemetry
    from repro.formats.csr import CSRMatrix
    from repro.parallel.executor import ParallelSpMV

    rng = np.random.default_rng(17)
    dense = (rng.random((96, 96)) < 0.1) * rng.random((96, 96))
    csr = CSRMatrix.from_dense(dense)
    x = rng.random(96)
    expected = csr.spmv(x)
    prev = telemetry.set_collector(telemetry.Collector())
    try:
        with ParallelSpMV(csr, nthreads, format_name="csr-du") as par:
            for _ in range(calls):
                got = par(x)
        events = [
            dataclasses.asdict(ev)
            for ev in telemetry.get_collector().snapshot()
        ]
    finally:
        telemetry.set_collector(prev)
    if not np.allclose(got, expected, rtol=1e-13, atol=1e-13):
        print("smoke_trace: traced parallel SpMV diverged", file=sys.stderr)
        return 1
    if _check_events(events, "parallel"):
        return 1
    chunks = [e for e in events if e["name"] == "parallel.chunk"]
    if len(chunks) != nthreads * calls:
        print(
            f"smoke_trace: expected {nthreads * calls} parallel.chunk spans, "
            f"got {len(chunks)}",
            file=sys.stderr,
        )
        return 1
    if not any(e["name"] == "plan.hit" for e in events):
        print(
            "smoke_trace: repeated CSR-DU calls recorded no plan.hit",
            file=sys.stderr,
        )
        return 1
    total_nnz = sum(e["attrs"]["nnz"] for e in chunks)
    if total_nnz != calls * csr.nnz:
        print(
            f"smoke_trace: chunk nnz census {total_nnz} != "
            f"{calls} calls x {csr.nnz} nnz",
            file=sys.stderr,
        )
        return 1
    print(
        f"smoke_trace: parallel check OK ({len(chunks)} chunk spans, "
        f"{len(events)} events)"
    )
    return 0


def check_fault_events() -> int:
    """Exercise the robustness instrumentation; validate its events.

    Two live checks under a scoped collector:

    * a :class:`~repro.robust.guard.GuardedKernel` whose first tier
      always fails must fall back, produce the right answer, and emit
      exactly one ``kernel.fallback`` counter with the full payload;
    * a :class:`~repro.parallel.executor.ParallelSpMV` whose cached
      chunk encode is corrupted in place must invalidate + re-encode +
      retry, produce the clean answer, and emit ``executor.retry``.
    """
    import numpy as np

    from repro import telemetry
    from repro.compress.encode_cache import ConvertCache
    from repro.errors import EncodingError
    from repro.formats.conversions import convert
    from repro.formats.csr import CSRMatrix
    from repro.kernels.registry import get_kernel
    from repro.parallel.executor import ParallelSpMV
    from repro.robust import GuardedKernel, inject

    rng = np.random.default_rng(23)
    dense = (rng.random((80, 80)) < 0.1) * rng.random((80, 80))
    csr = CSRMatrix.from_dense(dense)
    x = rng.random(80)

    def failing_tier(matrix, x):
        raise EncodingError("injected tier failure")

    failing_tier.tier = "cached"

    prev = telemetry.set_collector(telemetry.Collector())
    try:
        du = convert(csr, "csr-du")
        expected = du.spmv(x)
        guarded = GuardedKernel(
            "csr-du", chain=(failing_tier, get_kernel("csr-du", "reference"))
        )
        got = guarded(du, x)
        with ParallelSpMV(
            csr, 2, format_name="csr-du", convert_cache=ConvertCache()
        ) as par:
            clean = par(x).copy()
            inject(par.chunks[0], "ctl-truncate", 0, copy_matrix=False)
            retried = par(x)
        events = [
            dataclasses.asdict(ev)
            for ev in telemetry.get_collector().snapshot()
        ]
    finally:
        telemetry.set_collector(prev)
    if not np.array_equal(got, expected):
        print("smoke_trace: guarded fallback result diverged", file=sys.stderr)
        return 1
    if not np.array_equal(retried, clean):
        print("smoke_trace: retried executor result diverged", file=sys.stderr)
        return 1
    if _check_events(events, "fault"):
        return 1
    fallbacks = [e for e in events if e["name"] == "kernel.fallback"]
    retries = [e for e in events if e["name"] == "executor.retry"]
    if len(fallbacks) != 1:
        print(
            f"smoke_trace: expected 1 kernel.fallback event, got "
            f"{len(fallbacks)}",
            file=sys.stderr,
        )
        return 1
    if fallbacks[0]["attrs"]["from_tier"] != "cached" or (
        fallbacks[0]["attrs"]["to_tier"] != "reference"
    ):
        print(
            f"smoke_trace: kernel.fallback tiers wrong: {fallbacks[0]!r}",
            file=sys.stderr,
        )
        return 1
    if len(retries) != 1:
        print(
            f"smoke_trace: expected 1 executor.retry event, got "
            f"{len(retries)}",
            file=sys.stderr,
        )
        return 1
    print(
        f"smoke_trace: fault check OK ({len(fallbacks)} fallback, "
        f"{len(retries)} retry events)"
    )
    return 0


def check_obs() -> int:
    """Live observability end to end, with a fault injected.

    Under a scoped sink with both views on:

    * a multithreaded SpMV populates the ``spmv.chunk.seconds``
      histograms;
    * a :class:`~repro.robust.guard.GuardedKernel` whose first tier
      always fails counts ``kernel.fallback``, which must fire the
      default ``kernel-fallback`` SLO rule on the next evaluation;
    * the resource monitor samples once (deterministically, no thread);
    * the resulting ``obs.alert`` / ``obs.snapshot`` / ``obs.resource.*``
      telemetry events must validate with their full payloads;
    * the OpenMetrics exposition must carry the chunk-latency histogram
      with p50/p99, the resource gauges, and the fired alert.
    """
    import numpy as np

    from repro import telemetry
    from repro.compress.encode_cache import ConvertCache
    from repro.errors import EncodingError
    from repro.formats.conversions import convert
    from repro.formats.csr import CSRMatrix
    from repro.kernels.registry import get_kernel
    from repro.obs import ObsRuntime
    from repro.obs.resource import ResourceMonitor
    from repro.robust import GuardedKernel
    from repro.parallel.executor import ParallelSpMV

    rng = np.random.default_rng(31)
    dense = (rng.random((96, 96)) < 0.1) * rng.random((96, 96))
    csr = CSRMatrix.from_dense(dense)
    x = rng.random(96)

    def failing_tier(matrix, x):
        raise EncodingError("injected tier failure")

    failing_tier.tier = "cached"

    runtime = ObsRuntime()
    prev = telemetry.set_sink(telemetry.Sink(telemetry.Collector(), runtime))
    try:
        with ParallelSpMV(
            csr, 2, format_name="csr-du", convert_cache=ConvertCache()
        ) as par:
            for _ in range(3):
                par(x)
        du = convert(csr, "csr-du")
        expected = du.spmv(x)
        guarded = GuardedKernel(
            "csr-du", chain=(failing_tier, get_kernel("csr-du", "reference"))
        )
        got = guarded(du, x)
        ResourceMonitor().sample_once()
        runtime.flush_snapshot()
        text = runtime.render_openmetrics()
        events = [
            dataclasses.asdict(ev)
            for ev in telemetry.get_collector().snapshot()
        ]
        alerts = list(runtime.alerts)
    finally:
        telemetry.set_sink(prev)
        runtime.close()
    if not np.array_equal(got, expected):
        print("smoke_trace: obs guarded fallback diverged", file=sys.stderr)
        return 1
    if _check_events(events, "obs"):
        return 1
    if not [a for a in alerts if a.rule == "kernel-fallback"]:
        print(
            "smoke_trace: injected fallback did not fire the "
            f"kernel-fallback rule (alerts: {[a.rule for a in alerts]})",
            file=sys.stderr,
        )
        return 1
    alert_events = [e for e in events if e["name"] == "obs.alert"]
    if not alert_events:
        print("smoke_trace: no obs.alert telemetry event", file=sys.stderr)
        return 1
    gauge_names = {e["name"] for e in events if e["kind"] == "gauge"}
    missing_gauges = {
        "obs.resource.rss_bytes",
        "obs.resource.gc_collections",
        "obs.resource.threads",
    } - gauge_names
    if missing_gauges:
        print(
            f"smoke_trace: resource gauges missing {sorted(missing_gauges)}",
            file=sys.stderr,
        )
        return 1
    if not [e for e in events if e["name"] == "obs.snapshot"]:
        print("smoke_trace: no obs.snapshot event", file=sys.stderr)
        return 1
    required_series = (
        "spmv_chunk_seconds_bucket",
        "spmv_chunk_seconds_p50",
        "spmv_chunk_seconds_p99",
        "obs_resource_rss_bytes",
        'obs_alerts_fired_total{rule="kernel-fallback"}',
    )
    for series in required_series:
        if series not in text:
            print(
                f"smoke_trace: OpenMetrics snapshot missing {series!r}",
                file=sys.stderr,
            )
            return 1
    if not text.endswith("# EOF\n"):
        print("smoke_trace: OpenMetrics snapshot missing # EOF", file=sys.stderr)
        return 1
    print(
        f"smoke_trace: obs check OK ({len(alerts)} alerts, "
        f"{sum(1 for ln in text.splitlines() if not ln.startswith('#'))} "
        "openmetrics samples)"
    )
    return 0


def check_backend_labels() -> int:
    """Backend-labelled chunk latency, thread vs process, end to end.

    Runs the same matrix through both executors under a scoped sink
    with both views on, then asserts

    * the OpenMetrics exposition carries ``spmv_chunk_seconds`` series
      for ``backend="thread"`` AND ``backend="process"`` (the scaling
      dashboards group on this label);
    * every process-backend ``parallel.chunk`` span validates and
      carries the ``format``, ``backend`` and worker ``pid`` payload on
      top of the thread payload keys.
    """
    import numpy as np

    from repro import telemetry
    from repro.formats.csr import CSRMatrix
    from repro.obs import ObsRuntime
    from repro.parallel import make_executor

    rng = np.random.default_rng(37)
    dense = (rng.random((64, 64)) < 0.12) * rng.random((64, 64))
    csr = CSRMatrix.from_dense(dense)
    x = rng.random(64)

    runtime = ObsRuntime()
    prev = telemetry.set_sink(telemetry.Sink(telemetry.Collector(), runtime))
    try:
        with make_executor(csr, 2, backend="thread", format_name="csr") as ex:
            y_thread = ex(x)
        with make_executor(csr, 2, backend="process", format_name="csr") as ex:
            y_process = ex(x)
        text = runtime.render_openmetrics()
        events = [
            dataclasses.asdict(ev)
            for ev in telemetry.get_collector().snapshot()
        ]
    finally:
        telemetry.set_sink(prev)
        runtime.close()
    if not np.array_equal(y_thread, y_process):
        print(
            "smoke_trace: thread and process backends diverged",
            file=sys.stderr,
        )
        return 1
    if _check_events(events, "backend"):
        return 1
    # The worker's chunk span (merged by xproc) is the one record of a
    # process chunk, in the log and in the live histogram alike.
    process_chunks = [
        e
        for e in events
        if e["name"] == "parallel.chunk"
        and e["attrs"].get("backend") == "process"
    ]
    if len(process_chunks) != 2:
        print(
            f"smoke_trace: expected 2 process parallel.chunk events, got "
            f"{len(process_chunks)}",
            file=sys.stderr,
        )
        return 1
    for e in process_chunks:
        if e["kind"] != "span" or not {"format", "pid"} <= set(e["attrs"]):
            print(
                f"smoke_trace: process chunk is not a worker span: {e!r}",
                file=sys.stderr,
            )
            return 1
    for backend in ("thread", "process"):
        needle = f'backend="{backend}"'
        series = [
            ln
            for ln in text.splitlines()
            if ln.startswith("spmv_chunk_seconds") and needle in ln
        ]
        if not series:
            print(
                "smoke_trace: OpenMetrics has no spmv_chunk_seconds series "
                f"labelled {needle}",
                file=sys.stderr,
            )
            return 1
    print(
        f"smoke_trace: backend label check OK ({len(process_chunks)} "
        "process chunks, both backends in the exposition)"
    )
    return 0


def check_xproc(
    nworkers: int = 2, calls: int = 3, chrome_out: str | None = None
) -> int:
    """Cross-process observability merge, end to end.

    Runs the process backend under a scoped sink with both views on
    and asserts the :mod:`repro.obs.xproc` merge delivered:

    * worker-emitted ``parallel.chunk`` spans with distinct worker pids
      (none of them the parent's) next to ``worker.attach`` /
      ``worker.multiply`` sub-spans;
    * a merged ``spmv.chunk.seconds`` histogram whose count equals the
      total chunks executed (workers x calls) and whose samples reach
      the OpenMetrics exposition labelled ``backend="process"``;
    * per-worker balance recovery (:func:`summarize_parallel` sees
      every worker of every call);
    * with ``chrome_out``, a merged chrome://tracing file carrying one
      process track per worker pid.
    """
    import json

    import numpy as np

    from repro import telemetry
    from repro.formats.csr import CSRMatrix
    from repro.obs import ObsRuntime
    from repro.parallel import make_executor
    from repro.perf.imbalance import summarize_parallel
    from repro.telemetry.export import write_chrome_trace

    rng = np.random.default_rng(41)
    dense = (rng.random((96, 96)) < 0.1) * rng.random((96, 96))
    csr = CSRMatrix.from_dense(dense)
    x = rng.random(96)
    expected = csr.spmv(x)

    runtime = ObsRuntime(rules=())
    collector = telemetry.Collector()
    prev = telemetry.set_sink(telemetry.Sink(collector, runtime))
    try:
        with make_executor(
            csr, nworkers, backend="process", format_name="csr"
        ) as ex:
            for _ in range(calls):
                got = ex(x)
        snap = runtime.snapshot()
        text = runtime.render_openmetrics()
        events = [dataclasses.asdict(ev) for ev in collector.snapshot()]
        if chrome_out:
            write_chrome_trace(collector, chrome_out)
    finally:
        telemetry.set_sink(prev)
        runtime.close()
    if not np.allclose(got, expected, rtol=1e-13, atol=1e-13):
        print("smoke_trace: xproc process SpMV diverged", file=sys.stderr)
        return 1
    if _check_events(events, "xproc"):
        return 1
    worker_spans = [
        e
        for e in events
        if e["kind"] == "span"
        and e["name"] == "parallel.chunk"
        and "pid" in e["attrs"]
    ]
    if len(worker_spans) != nworkers * calls:
        print(
            f"smoke_trace: expected {nworkers * calls} worker chunk spans, "
            f"got {len(worker_spans)}",
            file=sys.stderr,
        )
        return 1
    pids = {e["attrs"]["pid"] for e in worker_spans}
    if len(pids) != nworkers or os.getpid() in pids:
        print(
            f"smoke_trace: worker span pids wrong: {sorted(pids)} "
            f"(parent {os.getpid()}, {nworkers} workers)",
            file=sys.stderr,
        )
        return 1
    for sub in ("worker.attach", "worker.multiply"):
        n = sum(1 for e in events if e["name"] == sub)
        if not n:
            print(f"smoke_trace: no {sub} spans merged", file=sys.stderr)
            return 1
    merged = [
        h
        for h in snap["histograms"]
        if h["name"] == "spmv.chunk.seconds"
        and h["labels"].get("backend") == "process"
    ]
    if len(merged) != 1 or merged[0]["count"] != nworkers * calls:
        counts = [h["count"] for h in merged]
        print(
            f"smoke_trace: merged spmv.chunk.seconds wrong: {len(merged)} "
            f"series, counts {counts} (want 1 series of {nworkers * calls})",
            file=sys.stderr,
        )
        return 1
    needle = 'backend="process"'
    if not any(
        ln.startswith("spmv_chunk_seconds") and needle in ln
        for ln in text.splitlines()
    ):
        print(
            "smoke_trace: OpenMetrics lacks worker-fed spmv_chunk_seconds "
            f"series labelled {needle}",
            file=sys.stderr,
        )
        return 1
    report = summarize_parallel(events)
    process_calls = [c for c in report.calls if len(c.busy_us) == nworkers]
    if len(process_calls) != calls:
        print(
            f"smoke_trace: balance recovery found {len(process_calls)} "
            f"{nworkers}-worker calls, want {calls}",
            file=sys.stderr,
        )
        return 1
    if chrome_out:
        with open(chrome_out, "r", encoding="utf-8") as fh:
            trace = json.load(fh)
        trace_pids = {
            ev["pid"]
            for ev in trace["traceEvents"]
            if ev.get("ph") == "X"
        }
        if not pids <= trace_pids:
            print(
                f"smoke_trace: chrome trace lacks worker tracks "
                f"(pids {sorted(trace_pids)}, want {sorted(pids)})",
                file=sys.stderr,
            )
            return 1
        print(f"smoke_trace: merged chrome trace at {chrome_out}")
    print(
        f"smoke_trace: xproc check OK ({len(worker_spans)} worker spans "
        f"from {len(pids)} pids, merged histogram count "
        f"{merged[0]['count']})"
    )
    return 0


def check_advisor_events() -> int:
    """Advise + report a realized time; validate the advisor.pick pair.

    Under a scoped collector: one :func:`repro.perf.advisor.advise`
    call on a tiny matrix must emit a schema-valid ``advisor.pick``
    event with ``phase="advise"``, and
    :func:`~repro.perf.advisor.record_realized` must emit the matching
    ``phase="realized"`` half carrying the measured wall clock for the
    same configuration.
    """
    from repro import telemetry
    from repro.formats.csr import CSRMatrix
    from repro.matrices.generators import dense_band
    from repro.perf.advisor import advise, record_realized

    csr = CSRMatrix.from_coo(dense_band(64, 2))
    prev = telemetry.set_collector(telemetry.Collector())
    try:
        choice = advise(csr, matrix_id=0, calibration=None)
        record_realized(choice, 1.25e-5)
        events = [
            dataclasses.asdict(ev)
            for ev in telemetry.get_collector().snapshot()
        ]
    finally:
        telemetry.set_collector(prev)
    if _check_events(events, "advisor"):
        return 1
    picks = [e for e in events if e["name"] == "advisor.pick"]
    phases = [e["attrs"].get("phase") for e in picks]
    if phases != ["advise", "realized"]:
        print(
            f"smoke_trace: expected advisor.pick phases "
            f"['advise', 'realized'], got {phases}",
            file=sys.stderr,
        )
        return 1
    advised, realized = picks
    pick_keys = ("format", "kernel", "threads", "backend", "partition")
    if any(
        advised["attrs"][k] != realized["attrs"][k] for k in pick_keys
    ):
        print(
            "smoke_trace: realized advisor.pick names a different config "
            "than the advise half",
            file=sys.stderr,
        )
        return 1
    if realized["attrs"]["realized_s"] != 1.25e-5:
        print(
            "smoke_trace: realized_s did not round-trip through the event",
            file=sys.stderr,
        )
        return 1
    print(
        f"smoke_trace: advisor check OK (picked "
        f"{advised['attrs']['format']}|{advised['attrs']['kernel']}, "
        f"source {advised['attrs']['source']})"
    )
    return 0


def check_resilience() -> int:
    """Resilience machinery end to end; validate its events and rules.

    Under a scoped sink with both views on (stock rules):

    * a :class:`~repro.resilience.breaker.CircuitBreaker` on a fake
      clock walks closed -> open -> half-open -> closed, emitting all
      three ``resilience.breaker.*`` transitions;
    * a :class:`~repro.resilience.degrade.ResilientExecutor` whose
      thread rung is persistently poisoned (chaos fault on thread 0's
      chunk) must degrade to the serial rung, answer bit-identically,
      and emit ``resilience.degrade``;
    * an expired :class:`~repro.resilience.policy.Deadline` must emit
      ``resilience.deadline.expired`` and raise the typed error;
    * the ``breaker-open`` and ``backend-degraded`` SLO rules must fire
      on the resulting snapshot, and every event must validate with its
      full payload.
    """
    import numpy as np

    from repro import telemetry
    from repro.errors import DeadlineExceeded, EncodingError
    from repro.formats.csr import CSRMatrix
    from repro.obs import ObsRuntime
    from repro.obs.rules import default_rules
    from repro.resilience import chaos
    from repro.resilience.breaker import CircuitBreaker
    from repro.resilience.degrade import ResilientExecutor
    from repro.resilience.policy import Deadline

    rng = np.random.default_rng(43)
    dense = (rng.random((80, 80)) < 0.1) * rng.random((80, 80))
    csr = CSRMatrix.from_dense(dense)
    x = rng.random(80)
    expected = csr.spmv(x)

    runtime = ObsRuntime(rules=default_rules())
    prev = telemetry.set_sink(telemetry.Sink(telemetry.Collector(), runtime))
    deadline_raised = False
    try:
        # Breaker state machine on a fake clock: open, cool down,
        # half-open probe, close.
        now = [0.0]
        breaker = CircuitBreaker(
            "shard:0:g0",
            failure_threshold=2,
            cooldown_s=5.0,
            clock=lambda: now[0],
        )
        breaker.record_failure()
        breaker.record_failure()  # -> open
        now[0] = 6.0
        if not breaker.allow():  # -> half-open probe admitted
            print("smoke_trace: cooled-down breaker refused its probe",
                  file=sys.stderr)
            return 1
        breaker.record_success()  # -> closed

        # Degradation ladder: thread rung poisoned, serial rung answers.
        chaos.arm(
            "thread.chunk",
            "raise",
            match={"thread": 0},
            times=1000,
            exc_factory=lambda: EncodingError("chaos: poisoned chunk"),
        )
        try:
            with ResilientExecutor(
                csr, 2, backend="thread", storage="mem", format_name="csr"
            ) as rex:
                got = rex(x)
                rung = rex.active_rung
        finally:
            chaos.disarm_all()

        # Deadline expiry on a fake clock.
        dnow = [0.0]
        deadline = Deadline(0.5, clock=lambda: dnow[0])
        dnow[0] = 1.0
        try:
            deadline.check("smoke.check")
        except DeadlineExceeded:
            deadline_raised = True

        runtime.flush_snapshot()
        alerts = [a.rule for a in runtime.alerts]
        text = runtime.render_openmetrics()
        events = [
            dataclasses.asdict(ev)
            for ev in telemetry.get_collector().snapshot()
        ]
    finally:
        telemetry.set_sink(prev)
        runtime.close()
    if not np.array_equal(got, expected):
        print("smoke_trace: degraded serial result diverged", file=sys.stderr)
        return 1
    if rung != ("serial", "mem"):
        print(
            f"smoke_trace: expected serial rung after degradation, got {rung}",
            file=sys.stderr,
        )
        return 1
    if not deadline_raised:
        print("smoke_trace: expired deadline did not raise", file=sys.stderr)
        return 1
    if _check_events(events, "resilience"):
        return 1
    names = {e["name"] for e in events}
    required = {
        "resilience.breaker.open",
        "resilience.breaker.half_open",
        "resilience.breaker.close",
        "resilience.degrade",
        "resilience.deadline.expired",
        "executor.retry",
    }
    missing = required - names
    if missing:
        print(
            f"smoke_trace: resilience events missing {sorted(missing)}",
            file=sys.stderr,
        )
        return 1
    for rule in ("breaker-open", "backend-degraded"):
        if rule not in alerts:
            print(
                f"smoke_trace: {rule} SLO rule did not fire "
                f"(alerts: {alerts})",
                file=sys.stderr,
            )
            return 1
    if "resilience_degrade_total" not in text:
        print(
            "smoke_trace: OpenMetrics snapshot lacks resilience_degrade_total",
            file=sys.stderr,
        )
        return 1
    print(
        f"smoke_trace: resilience check OK ({len(events)} events, "
        f"alerts {sorted(set(alerts))})"
    )
    return 0


def run(
    *,
    scale: float = 0.03125,
    limit: int = 2,
    path: str | None = None,
    experiment: str = "table3",
    chrome_out: str | None = None,
) -> int:
    """Run one traced experiment and validate the trace; 0 on success."""
    owned = path is None
    if owned:
        fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="smoke_trace_")
        os.close(fd)
    fd, metrics_path = tempfile.mkstemp(suffix=".prom", prefix="smoke_trace_")
    os.close(fd)
    try:
        rc = bench_main(
            [
                experiment,
                "--scale",
                str(scale),
                "--limit",
                str(limit),
                "--trace",
                path,
                "--obs",
                "--metrics-out",
                metrics_path,
            ]
        )
        if rc != 0:
            print(f"smoke_trace: bench exited with {rc}", file=sys.stderr)
            return rc
        events = read_jsonl(path)
        if not events:
            print("smoke_trace: trace is empty", file=sys.stderr)
            return 1
        names: set[str] = set()
        for i, event in enumerate(events):
            try:
                validate_event(event)
            except TelemetryError as exc:
                print(f"smoke_trace: event {i} invalid: {exc}", file=sys.stderr)
                return 1
            names.add(event["name"])
        unknown = names - KNOWN_EVENTS
        if unknown:
            print(
                f"smoke_trace: undocumented event names {sorted(unknown)} "
                "(extend repro.telemetry.metrics.KNOWN_EVENTS)",
                file=sys.stderr,
            )
            return 1
        missing = REQUIRED_EVENTS - names
        if missing:
            print(
                f"smoke_trace: required events missing {sorted(missing)}",
                file=sys.stderr,
            )
            return 1
        if _check_payloads(events):
            return 1
        with open(metrics_path, "r", encoding="utf-8") as fh:
            metrics_text = fh.read()
        if not metrics_text.endswith("# EOF\n"):
            print(
                "smoke_trace: --metrics-out exposition missing # EOF",
                file=sys.stderr,
            )
            return 1
        samples = sum(
            1
            for ln in metrics_text.splitlines()
            if ln and not ln.startswith("#")
        )
        if not samples:
            print(
                "smoke_trace: --metrics-out exposition has no samples",
                file=sys.stderr,
            )
            return 1
        print(
            f"smoke_trace: {len(events)} events, all valid "
            f"({samples} openmetrics samples)"
        )
        rc = check_parallel_chunks()
        if rc:
            return rc
        rc = check_fault_events()
        if rc:
            return rc
        rc = check_obs()
        if rc:
            return rc
        rc = check_advisor_events()
        if rc:
            return rc
        rc = check_resilience()
        if rc:
            return rc
        rc = check_backend_labels()
        if rc:
            return rc
        return check_xproc(chrome_out=chrome_out)
    finally:
        if owned and path is not None and os.path.exists(path):
            os.unlink(path)
        if os.path.exists(metrics_path):
            os.unlink(metrics_path)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.03125)
    parser.add_argument("--limit", type=int, default=2)
    parser.add_argument("--experiment", type=str, default="table3")
    parser.add_argument(
        "--trace", type=str, default=None, help="keep the trace at this path"
    )
    parser.add_argument(
        "--chrome-out",
        type=str,
        default=None,
        help="write the xproc check's merged chrome trace here",
    )
    args = parser.parse_args(argv)
    return run(
        scale=args.scale,
        limit=args.limit,
        path=args.trace,
        experiment=args.experiment,
        chrome_out=args.chrome_out,
    )


if __name__ == "__main__":
    sys.exit(main())
