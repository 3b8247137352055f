"""Telemetry core: the one recording API and its one sink.

Instrumented code records through four module-level calls:

* :func:`span` -- a wall-clock interval with a name and free-form
  attributes (context manager, or the :func:`traced` decorator);
* :func:`count` -- a counter increment keyed by name plus labels
  (``count("encode.csr_du.units", 12, width="u8")``);
* :func:`gauge` -- a last-value-wins observation (e.g. a ttu ratio);
* :func:`observe` -- one histogram sample (e.g. a verify time).

Every call lands in one module-level :class:`Sink`, which feeds two
views of the same events:

* the **event log** (:class:`Collector`) -- the ordered stream behind
  ``--trace``, chrome traces and summaries, plus per-key counter and
  gauge aggregates;
* the **live aggregates** (:class:`repro.obs.core.ObsRuntime`) --
  streaming histograms, windowed counters and gauges for SLO rules and
  OpenMetrics.  Which events reach them, under which live name and
  labels, is declared in :data:`repro.telemetry.metrics.VOCABULARY`.

Telemetry is *disabled by default*: the module-level ``_sink`` is
``None`` and every entry point checks that single global before doing
anything else, so instrumented hot paths pay one global load plus one
``is None`` test when both views are off.  :func:`set_collector` and
:func:`set_live` swap one view and return the previous (scoped
enabling in tests and the CLI); :func:`set_sink` swaps both at once.

Metric keys are ``(name, sorted label items)`` tuples everywhere
(:func:`metric_key`).  Timestamps are microseconds since the
collector's creation (``time.perf_counter_ns`` based), which is exactly
what the Chrome trace-event export in :mod:`repro.telemetry.export`
wants.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "Event",
    "Collector",
    "Sink",
    "NULL_SPAN",
    "metric_key",
    "configure",
    "get_sink",
    "set_sink",
    "get_collector",
    "set_collector",
    "get_live",
    "set_live",
    "enabled",
    "span",
    "count",
    "gauge",
    "observe",
    "traced",
]

MetricKey = tuple[str, tuple[tuple[str, Any], ...]]


def metric_key(name: str, labels: dict[str, Any]) -> MetricKey:
    """The one aggregate key form: ``(name, sorted label items)``."""
    return (name, tuple(sorted(labels.items())) if labels else ())


@dataclass(frozen=True)
class Event:
    """One recorded telemetry event.

    Attributes
    ----------
    kind:
        ``"span"``, ``"counter"``, ``"gauge"`` or ``"sample"`` (one
        histogram observation).
    name:
        Dotted event name (``"sim.spmv"``, ``"partition.nnz"``).
    ts_us:
        Start time in microseconds since the collector epoch (for
        spans the *start* of the interval, else the emission time).
    dur_us:
        Span duration in microseconds; 0.0 for the other kinds.
    value:
        Counter increment, gauge value or sample; 0.0 for spans.
    thread:
        Name of the emitting thread.
    tid:
        Python thread ident of the emitting thread.
    depth:
        Span nesting depth *in the emitting thread* (0 = top level);
        other kinds inherit the depth of the enclosing span.
    attrs:
        Free-form scalar attributes (labels plus payload).
    """

    kind: str
    name: str
    ts_us: float
    dur_us: float
    value: float
    thread: str
    tid: int
    depth: int
    attrs: dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Reusable no-op span, returned whenever telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add(self, **attrs) -> "_NullSpan":
        return self


#: The singleton no-op span (one shared instance, zero allocation).
NULL_SPAN = _NullSpan()


class _Span:
    """A live span; created by :meth:`Sink.span`."""

    __slots__ = ("_sink", "name", "attrs", "_start_ns", "_depth")

    def __init__(self, sink: "Sink", name: str, attrs: dict[str, Any]):
        self._sink = sink
        self.name = name
        self.attrs = attrs
        self._start_ns = 0
        self._depth = 0

    def add(self, **attrs) -> "_Span":
        """Attach attributes after entry (e.g. results computed inside)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        log = self._sink.log
        if log is not None:
            self._depth = log._enter_span()
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        self._sink._end_span(self, time.perf_counter_ns(), exc_type is None)
        return False


class Collector:
    """The event log: a thread-safe ordered event stream.

    All mutation happens under one lock; per-thread nesting depth lives
    in a ``threading.local`` so concurrently open spans in different
    threads do not interfere.  Aggregates (``counters``, ``gauges``,
    keyed by :func:`metric_key`) are maintained alongside the raw
    stream so a summary needs no replay.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch_ns = time.perf_counter_ns()
        self._events: list[Event] = []
        self.counters: dict[MetricKey, float] = {}
        self.gauges: dict[MetricKey, float] = {}

    # -- internal helpers --------------------------------------------------
    def _us(self, t_ns: int) -> float:
        return (t_ns - self._epoch_ns) / 1e3

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def _enter_span(self) -> int:
        depth = self._depth()
        self._local.depth = depth + 1
        return depth

    def _exit_span(self, sp: _Span, end_ns: int) -> None:
        self._local.depth = max(0, self._depth() - 1)
        t = threading.current_thread()
        ev = Event(
            kind="span",
            name=sp.name,
            ts_us=self._us(sp._start_ns),
            dur_us=(end_ns - sp._start_ns) / 1e3,
            value=0.0,
            thread=t.name,
            tid=t.ident or 0,
            depth=sp._depth,
            attrs=sp.attrs,
        )
        with self._lock:
            self._events.append(ev)

    def _point(self, kind: str, name: str, value: float, attrs) -> Event:
        t = threading.current_thread()
        return Event(
            kind=kind,
            name=name,
            ts_us=self._us(time.perf_counter_ns()),
            dur_us=0.0,
            value=float(value),
            thread=t.name,
            tid=t.ident or 0,
            depth=self._depth(),
            attrs=attrs,
        )

    # -- recording (called by the Sink) ------------------------------------
    def count(
        self,
        name: str,
        value: float,
        extra: dict[str, Any] | None,
        labels: dict[str, Any],
    ) -> None:
        """Accumulate *value* onto the counter ``name`` + *labels*.

        *labels* key the aggregate; *extra* attributes ride along on
        the event only (e.g. per-call detail like row bounds) without
        splitting the counter into per-call keys.
        """
        ev = self._point(
            "counter", name, value, {**labels, **extra} if extra else labels
        )
        key = metric_key(name, labels)
        with self._lock:
            self._events.append(ev)
            self.counters[key] = self.counters.get(key, 0.0) + float(value)

    def gauge(self, name: str, value: float, labels: dict[str, Any]) -> None:
        """Record the current *value* of ``name`` (last write wins)."""
        ev = self._point("gauge", name, value, labels)
        with self._lock:
            self._events.append(ev)
            self.gauges[metric_key(name, labels)] = float(value)

    def sample(self, name: str, value: float, labels: dict[str, Any]) -> None:
        """Log one histogram sample (the histogram itself lives live)."""
        ev = self._point("sample", name, value, labels)
        with self._lock:
            self._events.append(ev)

    # -- cross-process ingestion -------------------------------------------
    @property
    def epoch_ns(self) -> int:
        """The ``perf_counter_ns`` instant that ``ts_us == 0`` maps to.

        Cross-process merging (:mod:`repro.obs.xproc`) needs it to
        rebase worker timestamps onto the parent's timeline.
        """
        return self._epoch_ns

    def ingest(
        self,
        events: Iterable[Event],
        counters: dict[MetricKey, float] | None = None,
        gauges: dict[MetricKey, float] | None = None,
    ) -> int:
        """Append externally-recorded *events* and fold in aggregates.

        Events are appended verbatim -- callers are responsible for
        rebasing ``ts_us`` onto this collector's epoch first (see
        :func:`repro.obs.xproc.ingest_payload`).  *counters*/*gauges*
        are the source collector's aggregate dicts: counter totals are
        summed into ours under the same keys, gauges are
        last-write-wins.  Returns the number of events appended.
        """
        events = list(events)
        with self._lock:
            self._events.extend(events)
            for key, value in (counters or {}).items():
                self.counters[key] = self.counters.get(key, 0.0) + float(value)
            for key, value in (gauges or {}).items():
                self.gauges[key] = float(value)
        return len(events)

    # -- inspection --------------------------------------------------------
    def snapshot(self) -> list[Event]:
        """A point-in-time copy of the event stream (safe to iterate)."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Drop all recorded events and aggregates (keep the epoch)."""
        with self._lock:
            self._events.clear()
            self.counters.clear()
            self.gauges.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class Sink:
    """The one recording sink: routes each event to the enabled views.

    *log* is the event log (a :class:`Collector`) and *live* the live
    aggregates -- any object with ``record(name, value, attrs)``, in
    practice :class:`repro.obs.core.ObsRuntime`, which maps the event
    onto its declared live series.  At least one is set: with both off
    there is no sink at all.  A span reaches the live view only when it
    exits without an exception (a failed chunk is not a latency
    sample); the log records it either way.
    """

    __slots__ = ("log", "live")

    def __init__(self, log: Collector | None = None, live=None) -> None:
        self.log = log
        self.live = live

    def span(self, name: str, attrs: dict[str, Any]) -> _Span:
        return _Span(self, name, attrs)

    def _end_span(self, sp: _Span, end_ns: int, ok: bool) -> None:
        if self.log is not None:
            self.log._exit_span(sp, end_ns)
        if ok and self.live is not None:
            self.live.record(sp.name, (end_ns - sp._start_ns) / 1e9, sp.attrs)

    def count(
        self,
        name: str,
        value: float,
        extra: dict[str, Any] | None,
        labels: dict[str, Any],
    ) -> None:
        if self.log is not None:
            self.log.count(name, value, extra, labels)
        if self.live is not None:
            self.live.record(
                name, value, {**labels, **extra} if extra else labels
            )

    def gauge(self, name: str, value: float, labels: dict[str, Any]) -> None:
        if self.log is not None:
            self.log.gauge(name, value, labels)
        if self.live is not None:
            self.live.record(name, value, labels)

    def observe(self, name: str, value: float, labels: dict[str, Any]) -> None:
        if self.log is not None:
            self.log.sample(name, value, labels)
        if self.live is not None:
            self.live.record(name, value, labels)


# ---------------------------------------------------------------------------
# Module-level surface: one global check when disabled.
# ---------------------------------------------------------------------------

_sink: Sink | None = None


def get_sink() -> Sink | None:
    """The active sink, or ``None`` when both views are off."""
    return _sink


def set_sink(sink: Sink | None) -> Sink | None:
    """Swap the whole sink (both views); returns the previous one.

    The swap-and-restore idiom keeps telemetry scoped::

        prev = set_sink(Sink(Collector(), runtime))
        try:
            ...
        finally:
            set_sink(prev)
    """
    global _sink
    prev = _sink
    if sink is not None and sink.log is None and sink.live is None:
        sink = None
    _sink = sink
    return prev


def get_collector() -> Collector | None:
    """The active event log, or ``None`` when tracing is off."""
    s = _sink
    return None if s is None else s.log


def set_collector(collector: Collector | None) -> Collector | None:
    """Swap the event log (live view untouched); returns the previous."""
    prev = get_collector()
    set_sink(Sink(collector, get_live()))
    return prev


def get_live():
    """The active live aggregates, or ``None`` when live metrics are off."""
    s = _sink
    return None if s is None else s.live


def set_live(live):
    """Swap the live aggregates (log untouched); returns the previous."""
    prev = get_live()
    set_sink(Sink(get_collector(), live))
    return prev


def configure(enabled: bool = True) -> Collector | None:
    """Install a fresh :class:`Collector` as the event log (or drop it).

    Returns the new collector (``None`` when disabling).
    """
    set_collector(Collector() if enabled else None)
    return get_collector()


def enabled() -> bool:
    """True when either view is on."""
    return _sink is not None


def span(name: str, **attrs):
    """A span on the active sink, or the shared no-op span."""
    s = _sink
    if s is None:
        return NULL_SPAN
    return s.span(name, attrs)


def count(
    name: str,
    value: float = 1.0,
    extra: dict[str, Any] | None = None,
    **labels,
) -> None:
    """Accumulate a counter (no-op if disabled).

    *labels* key the aggregate; *extra* rides on the event only.
    """
    s = _sink
    if s is not None:
        s.count(name, value, extra, labels)


def gauge(name: str, value: float, **labels) -> None:
    """Record a gauge (no-op if disabled)."""
    s = _sink
    if s is not None:
        s.gauge(name, value, labels)


def observe(name: str, value: float, **labels) -> None:
    """Record one histogram sample (no-op if disabled)."""
    s = _sink
    if s is not None:
        s.observe(name, value, labels)


def traced(name: str | None = None) -> Callable:
    """Decorator wrapping a function call in a span.

    The sink is looked up *at call time*, so decorating a function
    costs nothing while telemetry stays disabled::

        @traced("encode.csr_du.unitize")
        def unitize(...): ...
    """

    def decorate(func: Callable) -> Callable:
        span_name = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            s = _sink
            if s is None:
                return func(*args, **kwargs)
            with s.span(span_name, {}):
                return func(*args, **kwargs)

        return wrapper

    return decorate
