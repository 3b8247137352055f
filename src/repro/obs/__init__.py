"""Live runtime observability for the SpMV reproduction.

The streaming counterpart to the post-hoc :mod:`repro.telemetry`:
where telemetry records an event stream to analyze after the run,
``repro.obs`` aggregates *while the system runs* and can answer, at
any instant:

* what is the p50/p99 of the per-chunk SpMV latency right now
  (:mod:`~repro.obs.histogram` -- log-bucketed, mergeable across
  threads, bounded-error percentiles);
* how often are fallbacks / retries / cache misses happening over the
  last N seconds (:mod:`~repro.obs.window` -- sliding-window rates
  over the existing counter vocabulary);
* is any SLO being violated (:mod:`~repro.obs.rules` -- declarative
  threshold/rate/tail-ratio rules evaluated on snapshots, alerts
  emitted as telemetry events);
* where is wall-clock time actually going
  (:mod:`~repro.obs.profiler` -- a sampling profiler with
  flamegraph-ready collapsed-stack output, zero cost to the sampled
  threads);
* what is the process doing to the machine
  (:mod:`~repro.obs.resource` -- RSS / GC / thread-count gauges).

Every one of these reads the live aggregates that the one telemetry
sink feeds (:mod:`repro.telemetry`): there is no second recording API.
State is exposed two ways: ``snapshot()`` (structured dict) and
``render_openmetrics()`` (Prometheus/OpenMetrics text for any
scraper).  Usage::

    from repro.obs.core import ObsRuntime
    from repro.telemetry import core as telemetry

    runtime = ObsRuntime()                # default SLO rules installed
    prev = telemetry.set_live(runtime)
    runtime.start_resource_monitor()
    # ... any repro work: ParallelSpMV, run_set(), guarded_spmv() ...
    alerts = runtime.evaluate_rules()
    print(runtime.render_openmetrics())
    telemetry.set_live(prev)
    runtime.close()
"""
