"""The one recording API of the SpMV reproduction.

The package answers *why* a table cell is what it is: which unit widths
a matrix encodes into (CSR-DU), how large the unique-value table gets
(CSR-VI), how evenly the nnz-balanced partitioning really splits the
work, and which simulated resource bound every configuration hits --
all attributed to nested wall-clock spans around ``convert``, ``spmv``
and ``measure``.

Usage::

    from repro import telemetry
    from repro.obs import ObsRuntime

    telemetry.configure()                 # event log on
    telemetry.set_live(ObsRuntime())      # live aggregates on
    with telemetry.span("my.phase", matrix_id=7):
        ...
    telemetry.count("my.counter", 3, label="x")

    from repro.telemetry.export import summary, write_jsonl
    print(summary(telemetry.get_collector()))
    write_jsonl(telemetry.get_collector(), "trace.jsonl")

Disabled (the default), every entry point is a single global check
-- instrumentation stays in place at zero measurable cost, which the
telemetry test suite pins down (results are bit-identical either way).

Layout: :mod:`~repro.telemetry.core` (the sink, event log, spans,
counters), :mod:`~repro.telemetry.metrics` (the event vocabulary and
its live series), :mod:`~repro.telemetry.export` (JSONL / Chrome trace
/ OpenMetrics / summaries).
"""

from __future__ import annotations

from repro.telemetry.core import (
    NULL_SPAN,
    Collector,
    Event,
    Sink,
    configure,
    count,
    enabled,
    gauge,
    get_collector,
    get_live,
    get_sink,
    metric_key,
    observe,
    set_collector,
    set_live,
    set_sink,
    span,
    traced,
)

__all__ = [
    "NULL_SPAN",
    "Collector",
    "Event",
    "Sink",
    "configure",
    "count",
    "enabled",
    "gauge",
    "get_collector",
    "get_live",
    "get_sink",
    "metric_key",
    "observe",
    "set_collector",
    "set_live",
    "set_sink",
    "span",
    "traced",
]
