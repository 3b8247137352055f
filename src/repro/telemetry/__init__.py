"""The one recording API of the SpMV reproduction.

The package answers *why* a table cell is what it is: which unit widths
a matrix encodes into (CSR-DU), how large the unique-value table gets
(CSR-VI), how evenly the nnz-balanced partitioning really splits the
work, and which simulated resource bound every configuration hits --
all attributed to nested wall-clock spans around ``convert``, ``spmv``
and ``measure``.

Usage::

    from repro.obs.core import ObsRuntime
    from repro.telemetry import core as telemetry

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
