"""Trace export: JSONL event stream, Chrome trace-event JSON, summaries.

Three consumers of a :class:`~repro.telemetry.core.Collector`:

* :func:`write_jsonl` / :func:`read_jsonl` -- one JSON object per line,
  schema-checked by :func:`validate_event` (this is the ``--trace``
  format and what downstream analysis should parse);
* :func:`write_chrome_trace` -- the Chrome trace-event JSON array
  (open in ``chrome://tracing`` or https://ui.perfetto.dev): spans
  become complete (``"ph": "X"``) events, counters become ``"ph": "C"``
  counter tracks;
* :func:`summary` -- a plain-text report of the top spans by total
  time plus all counters and gauges (the ``profile`` subcommand).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from repro.errors import TelemetryError
from repro.telemetry import core
from repro.telemetry.core import Collector, Event, MetricKey

#: JSONL event fields and the types each must carry.
EVENT_FIELDS: dict[str, type | tuple[type, ...]] = {
    "kind": str,
    "name": str,
    "ts_us": (int, float),
    "dur_us": (int, float),
    "value": (int, float),
    "thread": str,
    "tid": int,
    "depth": int,
    "attrs": dict,
}

EVENT_KINDS = ("span", "counter", "gauge", "sample")


def validate_event(event: dict[str, Any]) -> None:
    """Check one decoded JSONL record against the event schema.

    Raises :class:`~repro.errors.TelemetryError` naming the offending
    field; silence means the event conforms.
    """
    if not isinstance(event, dict):
        raise TelemetryError(f"event must be an object, got {type(event).__name__}")
    for name, types in EVENT_FIELDS.items():
        if name not in event:
            raise TelemetryError(f"event missing field {name!r}: {event!r}")
        if not isinstance(event[name], types) or isinstance(event[name], bool):
            raise TelemetryError(
                f"event field {name!r} has type {type(event[name]).__name__}"
            )
    extra = set(event) - set(EVENT_FIELDS)
    if extra:
        raise TelemetryError(f"event has unknown fields {sorted(extra)}")
    if event["kind"] not in EVENT_KINDS:
        raise TelemetryError(f"unknown event kind {event['kind']!r}")
    if not event["name"]:
        raise TelemetryError("event name is empty")
    if event["dur_us"] < 0:
        raise TelemetryError(f"negative span duration {event['dur_us']}")
    if event["depth"] < 0:
        raise TelemetryError(f"negative depth {event['depth']}")
    for key in event["attrs"]:
        if not isinstance(key, str):
            raise TelemetryError(f"attribute key {key!r} is not a string")


def events_as_dicts(collector: Collector) -> list[dict[str, Any]]:
    """The collector's event stream as schema-conforming dicts."""
    return [asdict(ev) for ev in collector.snapshot()]


def write_jsonl(collector: Collector, path: str) -> int:
    """Write one JSON object per event; returns the event count."""
    events = events_as_dicts(collector)
    with open(path, "w", encoding="utf-8") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True, default=_jsonable))
            fh.write("\n")
    return len(events)


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """Parse a JSONL trace back into event dicts (no validation)."""
    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise TelemetryError(f"{path}:{lineno}: not JSON: {exc}") from exc
    return events


def _jsonable(obj: Any):
    """Coerce NumPy scalars and other stragglers to plain JSON types."""
    for cast in (int, float):
        try:
            return cast(obj)
        except (TypeError, ValueError):
            continue
    return str(obj)


def write_chrome_trace(collector: Collector, path: str) -> int:
    """Write the Chrome trace-event JSON; returns the trace-event count.

    Spans map to complete events on their real thread track; counter
    events map to Chrome counter tracks so e.g. simulated DRAM bytes
    plot as a graph over the run.

    Events ingested from pool workers (:mod:`repro.obs.xproc`) carry a
    ``pid`` attribute; those render on their own process track -- one
    per worker pid, labelled via ``process_name`` metadata -- so a
    multi-process run reads as one timeline with the parent at pid 0.
    """
    trace_events: list[dict[str, Any]] = []
    pids: set[int] = set()
    for ev in collector.snapshot():
        pid = ev.attrs.get("pid", 0)
        pid = pid if isinstance(pid, int) and not isinstance(pid, bool) else 0
        pids.add(pid)
        if ev.kind == "span":
            trace_events.append(
                {
                    "ph": "X",
                    "name": ev.name,
                    "ts": ev.ts_us,
                    "dur": ev.dur_us,
                    "pid": pid,
                    "tid": ev.tid,
                    "args": ev.attrs,
                }
            )
        # Gauges have no natural Chrome phase; they ride as counters too.
        else:
            trace_events.append(
                {
                    "ph": "C",
                    "name": ev.name,
                    "ts": ev.ts_us,
                    "pid": pid,
                    "tid": ev.tid,
                    "args": {ev.name: ev.value},
                }
            )
    # Track names only matter once there is more than one track; a
    # single-process trace keeps the historical shape unchanged.
    metadata = (
        [
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {
                    "name": "parent" if pid == 0 else f"worker pid {pid}"
                },
            }
            for pid in sorted(pids)
        ]
        if pids != {0}
        else []
    )
    doc = {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, default=_jsonable)
    return len(trace_events)


def span_stats(collector: Collector) -> dict[str, dict[str, float]]:
    """Aggregate span events by name: calls, total/mean/max duration (us)."""
    stats: dict[str, dict[str, float]] = {}
    for ev in collector.snapshot():
        if ev.kind != "span":
            continue
        s = stats.setdefault(ev.name, {"calls": 0, "total_us": 0.0, "max_us": 0.0})
        s["calls"] += 1
        s["total_us"] += ev.dur_us
        s["max_us"] = max(s["max_us"], ev.dur_us)
    for s in stats.values():
        s["mean_us"] = s["total_us"] / s["calls"] if s["calls"] else 0.0
    return stats


def format_key(key: MetricKey) -> str:
    """``plan.hit{format=csr-du}``: a metric key as display text."""
    name, labels = key
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def counter_breakdown(
    counters: dict[MetricKey, float],
) -> dict[str, dict[MetricKey, float]]:
    """Counters regrouped by base name: ``{base: {key: value}}``.

    ``plan.hit{format=csr-du}`` and ``plan.hit{format=csr-vi}`` share
    the base ``plan.hit``; summing a base's values gives its total
    across labels.
    """
    groups: dict[str, dict[MetricKey, float]] = {}
    for key, value in counters.items():
        groups.setdefault(key[0], {})[key] = value
    return groups


def reliability_summary(collector: Collector) -> dict[str, float]:
    """Headline reliability signals, lifted out of the raw counters.

    The encode-cache hit ratio and the fallback/retry totals are the
    run-health numbers a reader should not have to reassemble from
    per-label counter lines:

    * ``cache_hits`` / ``cache_misses`` / ``cache_hit_ratio`` -- the
      ``convert.cache.*`` totals across formats (ratio is 0.0 when no
      lookups happened);
    * ``kernel_fallbacks`` -- guarded-kernel tier degradations;
    * ``executor_retries`` -- chunks re-encoded after decode failures;
    * ``alerts`` -- fired ``obs.alert`` SLO events;
    * ``shard_attaches`` and the ``shard_cache_*`` trio -- the storage
      layer's attach traffic and the worker-side shard-cache hit ratio
      (``storage.shard.cache.*`` marks flow back from pool workers via
      :mod:`repro.obs.xproc`).

    Anything nonzero among fallbacks/retries/alerts means the run
    degraded somewhere, even if every result was still bit-correct.
    """
    groups = counter_breakdown(collector.counters)

    def total(base: str) -> float:
        return sum(groups.get(base, {}).values())

    hits = total("convert.cache.hit")
    misses = total("convert.cache.miss")
    lookups = hits + misses
    shard_hits = total("storage.shard.cache.hit")
    shard_misses = total("storage.shard.cache.miss")
    shard_lookups = shard_hits + shard_misses
    return {
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_ratio": hits / lookups if lookups else 0.0,
        "kernel_fallbacks": total("kernel.fallback"),
        "executor_retries": total("executor.retry"),
        "alerts": total("obs.alert"),
        "shard_attaches": total("storage.shard.attach"),
        "shard_cache_hits": shard_hits,
        "shard_cache_misses": shard_misses,
        "shard_cache_hit_ratio": (
            shard_hits / shard_lookups if shard_lookups else 0.0
        ),
    }


def alert_events(collector: Collector) -> list[Event]:
    """Every ``obs.alert`` event of the run, in emission order."""
    return [ev for ev in collector.snapshot() if ev.name == "obs.alert"]


def summary(collector: Collector, *, top: int = 20) -> str:
    """Plain-text report: top spans by total time, reliability headline,
    fired SLO alerts, counters, gauges.

    *top* caps the span table; counters print one total per base name
    with the per-label keys indented beneath it.
    """
    lines: list[str] = []
    stats = span_stats(collector)
    lines.append(f"--- telemetry summary ({len(collector)} events) ---")
    lines.append("")
    lines.append(f"top spans (by total time, showing {min(top, len(stats))})")
    lines.append(
        f"  {'span':<28} {'calls':>7} {'total ms':>10} {'mean ms':>10} {'max ms':>10}"
    )
    ordered = sorted(stats.items(), key=lambda kv: kv[1]["total_us"], reverse=True)
    for name, s in ordered[:top]:
        lines.append(
            f"  {name:<28} {int(s['calls']):>7} {s['total_us'] / 1e3:>10.3f} "
            f"{s['mean_us'] / 1e3:>10.3f} {s['max_us'] / 1e3:>10.3f}"
        )
    rel = reliability_summary(collector)
    if any(rel.values()):
        lines.append("")
        lines.append("reliability")
        lines.append(
            f"  convert.cache hit ratio: {rel['cache_hit_ratio']:.1%} "
            f"({rel['cache_hits']:g} hits / {rel['cache_misses']:g} misses)"
        )
        lines.append(f"  kernel fallbacks: {rel['kernel_fallbacks']:g}")
        lines.append(f"  executor retries: {rel['executor_retries']:g}")
        if rel["shard_attaches"] or rel["shard_cache_hits"]:
            lines.append(
                f"  shard cache hit ratio: {rel['shard_cache_hit_ratio']:.1%} "
                f"({rel['shard_cache_hits']:g} hits / "
                f"{rel['shard_cache_misses']:g} misses, "
                f"{rel['shard_attaches']:g} attaches)"
            )
        alerts = alert_events(collector)
        lines.append(f"  SLO alerts fired: {len(alerts)}")
        for ev in alerts[:10]:
            lines.append(
                f"    [{ev.attrs.get('rule', '?')}] "
                f"{ev.attrs.get('expr', '?')}: observed "
                f"{ev.attrs.get('value', '?')} vs {ev.attrs.get('threshold', '?')}"
            )
        if len(alerts) > 10:
            lines.append(f"    ... and {len(alerts) - 10} more")
    if collector.counters:
        lines.append("")
        lines.append("counters")
        for base, keyed in sorted(counter_breakdown(collector.counters).items()):
            if list(keyed) == [(base, ())]:
                lines.append(f"  {base:<48} {keyed[(base, ())]:>14g}")
                continue
            lines.append(f"  {base:<48} {sum(keyed.values()):>14g}")
            for text, value in sorted(
                (format_key(k), v) for k, v in keyed.items()
            ):
                lines.append(f"    {text:<46} {value:>14g}")
    if collector.gauges:
        lines.append("")
        lines.append("gauges")
        for text, value in sorted(
            (format_key(k), v) for k, v in collector.gauges.items()
        ):
            lines.append(f"  {text:<48} {value:>14g}")
    return "\n".join(lines)


def collector_metrics_snapshot(collector: Collector) -> dict[str, Any]:
    """The event log's aggregates as a live-shaped snapshot dict.

    Lets :func:`export_all` render OpenMetrics even when no live
    aggregates were installed: counters and gauges export with the
    labels of their keys (no histograms or rates -- those only exist
    live).
    """
    def rows(aggregates: dict[MetricKey, float], field: str) -> list[dict]:
        ordered = sorted(aggregates.items(), key=lambda kv: format_key(kv[0]))
        return [
            {"name": name, "labels": dict(labels), field: value}
            for (name, labels), value in ordered
        ]

    return {
        "counters": rows(collector.counters, "total"),
        "gauges": rows(collector.gauges, "value"),
        "histograms": [],
    }


def write_openmetrics(
    collector: Collector, path: str, *, obs_runtime=None
) -> int:
    """Write an OpenMetrics snapshot; returns the sample-line count.

    The given (or active) live aggregates supply the full state --
    histograms with quantiles, windowed rates, resource gauges, fired
    alerts.  Without them, the event log's own counter/gauge aggregates
    are rendered so ``--metrics-out`` degrades gracefully instead of
    writing an empty file.
    """
    from repro.obs.openmetrics import render_openmetrics

    runtime = obs_runtime if obs_runtime is not None else core.get_live()
    if runtime is not None:
        text = runtime.render_openmetrics()
    else:
        text = render_openmetrics(collector_metrics_snapshot(collector))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return sum(
        1 for line in text.splitlines() if line and not line.startswith("#")
    )


def export_all(
    collector: Collector,
    *,
    jsonl_path: str | None = None,
    chrome_path: str | None = None,
    openmetrics_path: str | None = None,
    obs_runtime=None,
) -> dict[str, int]:
    """Write every requested artifact; returns per-artifact event counts."""
    written: dict[str, int] = {}
    if jsonl_path:
        written["jsonl"] = write_jsonl(collector, jsonl_path)
    if chrome_path:
        written["chrome"] = write_chrome_trace(collector, chrome_path)
    if openmetrics_path:
        written["openmetrics"] = write_openmetrics(
            collector, openmetrics_path, obs_runtime=obs_runtime
        )
    return written
