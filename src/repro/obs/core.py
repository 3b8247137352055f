"""Live aggregates: the second view of the one telemetry sink.

:mod:`repro.telemetry` records every event through one sink; the event
log keeps the stream for post-hoc analysis, and an installed
:class:`ObsRuntime` aggregates *while the system runs*: histograms of
chunk latencies, sliding-window rates of the fallback/retry/cache
counters, process gauges from the resource monitor, and SLO rules
evaluated on point-in-time snapshots.

* **Installed through telemetry.**  ``telemetry.set_live(runtime)``
  turns the live view on (``--obs`` does this); there is no second
  global and no second recording call.  :meth:`ObsRuntime.record` maps
  each event onto the live series declared for its name in
  :data:`repro.telemetry.metrics.VOCABULARY`.
* **Telemetry is the event sink.**  Fired alerts and periodic
  snapshots are emitted as ``obs.alert`` / ``obs.snapshot`` counter
  events through :mod:`repro.telemetry.core` (no-ops when tracing is
  off), so the JSONL trace, the bench summary and the HTML dashboard
  all see what the live engine saw.

Metric keys are the event log's ``(name, sorted labels)`` tuples
(:func:`repro.telemetry.core.metric_key`).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Iterable

from repro.obs.histogram import DEFAULT_GROWTH, StreamingHistogram
from repro.obs.openmetrics import render_openmetrics
from repro.obs.profiler import DEFAULT_HZ, SamplingProfiler
from repro.obs.resource import DEFAULT_INTERVAL_S, ResourceMonitor
from repro.obs.rules import Alert, Rule, RuleEngine, default_rules
from repro.obs.window import WindowedCounter
from repro.telemetry import core as telemetry
from repro.telemetry.core import MetricKey, metric_key
from repro.telemetry.metrics import LIVE_VIEWS

__all__ = ["ObsRuntime"]

#: Rate windows always present in snapshots (rules add their own).
DEFAULT_WINDOWS = (10.0, 60.0)

#: Fired alerts kept in the runtime's bounded log.
MAX_ALERTS = 256


class _SnapshotFlusher(threading.Thread):
    """Periodic rule evaluation + snapshot flush (the ``--obs-interval``
    machinery); writes the OpenMetrics file in place on every tick so a
    scraper tailing the path always sees a complete exposition."""

    def __init__(
        self, runtime: "ObsRuntime", interval_s: float, path: str | None
    ) -> None:
        super().__init__(name="obs-flusher", daemon=True)
        self.runtime = runtime
        self.interval_s = interval_s
        self.path = path
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.runtime.flush_snapshot(self.path)

    def stop(self) -> None:
        self._stop.set()
        self.join(timeout=5.0)


class ObsRuntime:
    """The live view: histograms, windowed counters and gauges fed by
    the telemetry sink (install with ``telemetry.set_live``), plus the
    rules and optional monitor/profiler/flusher threads that read them.

    Parameters
    ----------
    rules:
        SLO rules (Rule objects or rule-syntax strings); ``None``
        installs :func:`repro.obs.rules.default_rules`, ``()`` none.
    histogram_growth:
        Bucket growth factor for every histogram this runtime creates.
    clock:
        Monotonic clock shared by all windowed counters (injectable
        for deterministic tests).
    """

    def __init__(
        self,
        *,
        rules: Iterable[Rule | str] | None = None,
        histogram_growth: float = DEFAULT_GROWTH,
        clock=time.monotonic,
    ) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._histogram_growth = histogram_growth
        self._histograms: dict[MetricKey, StreamingHistogram] = {}
        self._counters: dict[MetricKey, WindowedCounter] = {}
        self._gauges: dict[MetricKey, float] = {}
        self.engine = RuleEngine(
            default_rules() if rules is None else rules
        )
        self.alerts: deque[Alert] = deque(maxlen=MAX_ALERTS)
        self.created_at = time.time()
        self._created_mono = clock()
        self.monitor: ResourceMonitor | None = None
        self.profiler: SamplingProfiler | None = None
        self._flusher: _SnapshotFlusher | None = None

    # -- recording ---------------------------------------------------------
    def record(self, name: str, value: float, attrs: dict[str, Any]) -> None:
        """Feed one event into the live series declared for *name*.

        This is the sink's entry point: *value* is the event's own
        value (a span's seconds, a counter's increment, a gauge's or
        sample's value) and *attrs* its labels plus payload.
        """
        for view in LIVE_VIEWS.get(name, ()):
            labels = {}
            for spec in view.labels:
                label, _, attr = spec.partition("=")
                attr = attr or label
                if attr in attrs:
                    labels[label] = attrs[attr]
            sample = value if view.value is None else attrs.get(view.value)
            if sample is None:
                continue
            if view.kind == "histogram":
                self.observe(view.name, sample, **labels)
            elif view.kind == "counter":
                self.mark(view.name, sample, **labels)
            else:
                self.set_gauge(view.name, sample, **labels)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record *value* into the histogram ``name`` + *labels*."""
        key = metric_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            with self._lock:
                hist = self._histograms.setdefault(
                    key, StreamingHistogram(growth=self._histogram_growth)
                )
        hist.observe(value)

    def mark(self, name: str, value: float = 1.0, **labels) -> None:
        """Accumulate *value* onto the windowed counter ``name`` + *labels*."""
        key = metric_key(name, labels)
        counter = self._counters.get(key)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(
                    key, WindowedCounter(clock=self._clock)
                )
        counter.add(value)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Record the current *value* of ``name`` (last write wins)."""
        with self._lock:
            self._gauges[metric_key(name, labels)] = float(value)

    # -- cross-process shards ----------------------------------------------
    @property
    def histogram_growth(self) -> float:
        """Bucket growth factor of every histogram this runtime creates.

        Worker-side runtimes must be built with the same growth or the
        parent cannot merge their shards (``StreamingHistogram.merge``
        rejects mismatched bucketing).
        """
        return self._histogram_growth

    def to_shards(self) -> dict:
        """JSON-safe dump of all histograms, counter totals and gauges.

        The payload format is what :meth:`merge_shards` accepts; a
        worker process ships it back in its status dict so the parent
        runtime sees worker-side metrics as if recorded locally.
        """
        with self._lock:
            histograms = list(self._histograms.items())
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
        return {
            "histograms": [
                {"name": name, "labels": dict(labels), "shard": h.to_shard()}
                for (name, labels), h in histograms
            ],
            "counters": [
                {"name": name, "labels": dict(labels), "shard": c.to_shard()}
                for (name, labels), c in counters
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in gauges
            ],
        }

    def merge_shards(self, payload: dict) -> None:
        """Fold a :meth:`to_shards` payload into this runtime.

        Histograms merge by bucket-count addition (merge-of-shards ==
        histogram-of-concatenation), counters by adding the shard's
        total at the merge instant (rates lag by one flush -- see
        ``DESIGN.md`` 4.5), gauges last-write-wins.
        """
        for item in payload.get("histograms", ()):
            key = metric_key(item["name"], item["labels"])
            shard = StreamingHistogram.from_shard(item["shard"])
            hist = self._histograms.get(key)
            if hist is None:
                with self._lock:
                    hist = self._histograms.setdefault(
                        key,
                        StreamingHistogram(
                            growth=shard.growth, min_value=shard.min_value
                        ),
                    )
            hist.merge(shard)
        for item in payload.get("counters", ()):
            key = metric_key(item["name"], item["labels"])
            counter = self._counters.get(key)
            if counter is None:
                with self._lock:
                    counter = self._counters.setdefault(
                        key, WindowedCounter(clock=self._clock)
                    )
            counter.merge_shard(item["shard"])
        for item in payload.get("gauges", ()):
            with self._lock:
                self._gauges[metric_key(item["name"], item["labels"])] = float(
                    item["value"]
                )

    # -- snapshots ---------------------------------------------------------
    def _rate_windows(self) -> tuple[float, ...]:
        windows = set(DEFAULT_WINDOWS)
        for rule in self.engine.rules:
            if rule.kind == "rate" and rule.window_s:
                windows.add(float(rule.window_s))
        return tuple(sorted(windows))

    def snapshot(self) -> dict:
        """Structured point-in-time state (plain data, JSON-safe)."""
        windows = self._rate_windows()
        with self._lock:
            histograms = list(self._histograms.items())
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
        # Label values may mix types (thread ints, format strings), so
        # order by the stringified key, never by comparing values.
        by_key = lambda kv: (kv[0][0], str(kv[0][1]))  # noqa: E731
        snap: dict[str, Any] = {
            "ts": time.time(),
            "uptime_s": self._clock() - self._created_mono,
            "histograms": [
                {"name": name, "labels": dict(labels), **hist.snapshot()}
                for (name, labels), hist in sorted(histograms, key=by_key)
            ],
            "counters": [
                {
                    "name": name,
                    "labels": dict(labels),
                    **counter.snapshot(windows),
                }
                for (name, labels), counter in sorted(counters, key=by_key)
            ],
            "gauges": [
                {"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(gauges, key=by_key)
            ],
            "alerts": [a.as_dict() for a in self.alerts],
            "rules": [
                {"name": r.name, "expr": r.expr} for r in self.engine.rules
            ],
        }
        if self.profiler is not None:
            snap["profiler"] = self.profiler.snapshot()
        return snap

    def render_openmetrics(self) -> str:
        """The current snapshot as OpenMetrics text."""
        return render_openmetrics(self.snapshot())

    # -- rules -------------------------------------------------------------
    def evaluate_rules(self, now: float | None = None) -> list[Alert]:
        """Evaluate every rule on a fresh snapshot; log + emit alerts."""
        fired = self.engine.evaluate(self.snapshot(), now)
        for alert in fired:
            self.alerts.append(alert)
            telemetry.count(
                "obs.alert",
                1,
                extra={
                    "expr": alert.expr,
                    "metric": alert.metric,
                    "value": alert.value,
                    "threshold": alert.threshold,
                },
                rule=alert.rule,
            )
        return fired

    def flush_snapshot(self, path: str | None = None) -> dict:
        """Evaluate rules, take a snapshot, optionally write OpenMetrics.

        One ``obs.snapshot`` telemetry counter event records the flush
        (sizes only -- the full state lives in the OpenMetrics file,
        not the trace).
        """
        self.evaluate_rules()
        snap = self.snapshot()
        telemetry.count(
            "obs.snapshot",
            1,
            extra={
                "histograms": len(snap["histograms"]),
                "counters": len(snap["counters"]),
                "gauges": len(snap["gauges"]),
                "alerts": len(snap["alerts"]),
            },
        )
        if path:
            text = render_openmetrics(snap)
            tmp = f"{path}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        return snap

    # -- background threads ------------------------------------------------
    def start_resource_monitor(
        self, interval_s: float = DEFAULT_INTERVAL_S
    ) -> ResourceMonitor:
        if self.monitor is None:
            self.monitor = ResourceMonitor(interval_s).start()
        return self.monitor

    def start_profiler(self, hz: float = DEFAULT_HZ) -> SamplingProfiler:
        if self.profiler is None:
            self.profiler = SamplingProfiler(hz).start()
        return self.profiler

    def start_flusher(
        self, interval_s: float, path: str | None = None
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        if self._flusher is None:
            self._flusher = _SnapshotFlusher(self, interval_s, path)
            self._flusher.start()

    def close(self) -> None:
        """Stop every background thread (idempotent)."""
        if self._flusher is not None:
            self._flusher.stop()
            self._flusher = None
        if self.monitor is not None:
            self.monitor.stop()
        if self.profiler is not None:
            self.profiler.stop()

    def __enter__(self) -> "ObsRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
