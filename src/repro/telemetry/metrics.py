"""Domain metrics: the event vocabulary of the SpMV reproduction.

:data:`VOCABULARY` below *is* the schema: every event name a trace may
contain, its kind, the attributes every occurrence carries, and the
live series it feeds.  The smoke checker in ``tools/smoke_trace.py``
validates traces against it, and :class:`repro.obs.core.ObsRuntime`
routes events into its live aggregates by it -- so each name's live
name and label set is declared exactly once, here.

A :class:`Live` entry maps one event onto one live series: ``labels``
name the event attributes that label the series (``"backend=to_backend"``
renames one on the way), and ``value`` names the attribute holding the
sample when it is not the event's own value (a span's own value is its
duration in seconds).  Events without ``live`` entries stay in the
event log only.

The ``record_*`` helpers take plain scalars/sequences -- never format
or partition objects -- so this module imports nothing from the rest of
the library and can be called from any layer without cycles.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from repro.telemetry import core

#: Width-class label per CSR-DU delta class (index = class 0..3).
WIDTH_LABELS = ("u8", "u16", "u32", "u64")


class Live(NamedTuple):
    """One live series an event feeds."""

    kind: str  # "counter" | "histogram" | "gauge"
    name: str
    labels: tuple[str, ...] = ()
    value: str | None = None


class Spec(NamedTuple):
    """One vocabulary entry."""

    kind: str  # "span" | "counter" | "gauge" | "sample"
    attrs: frozenset
    doc: str
    live: tuple[Live, ...] = ()


def _spec(kind: str, attrs: str, doc: str, *live: Live) -> Spec:
    return Spec(kind, frozenset(attrs.split()), doc, live)


def _mirror(name: str, *labels: str) -> Live:
    """A live windowed counter, by convention named like its event."""
    return Live("counter", name, labels)


_PERF_ATTRIBUTION = (
    "format threads placement matrix_id time_s mflops bytes_per_iter "
    "index_bytes value_bytes vector_bytes flops_per_byte effective_gbps "
    "roofline_pct bound nnz_imbalance time_imbalance compression_ratio "
    "setup_s"
)

#: Event name -> kind, attributes every occurrence carries, meaning,
#: and the live series it feeds.
VOCABULARY: dict[str, Spec] = {
    "convert": _spec("span", "target nrows ncols", "one format conversion"),
    "convert.cache.hit": _spec(
        "counter", "format", "conversion served from the encode cache",
        _mirror("convert.cache.hit", "format"),
    ),
    "convert.cache.miss": _spec(
        "counter", "format", "conversion that had to encode",
        _mirror("convert.cache.miss", "format"),
    ),
    "encode.batched": _spec(
        "span", "kind nnz",
        "vectorized one-pass encode (csr-du adds policy, nunits, ctl_bytes)",
    ),
    "encode.csr_du.unitize": _spec(
        "span", "policy nrows nnz", "reference CSR-DU delta/unit splitting"
    ),
    "encode.csr_du.units": _spec(
        "counter", "width", "units emitted per width class u8..u64"
    ),
    "encode.csr_du.seq_units": _spec(
        "counter", "", "sequential (constant-stride) units"
    ),
    "encode.csr_du.new_rows": _spec(
        "counter", "", "new-row markers (NR flags) emitted"
    ),
    "encode.csr_du.ctl_bytes": _spec("counter", "", "serialized ctl stream bytes"),
    "encode.csr_vi.unique": _spec("span", "nnz", "CSR-VI unique-value indexing"),
    "encode.csr_vi.unique_vals": _spec(
        "gauge", "nnz", "unique-table size of the last encode"
    ),
    "encode.csr_vi.val_ind_bits": _spec(
        "gauge", "", "val_ind width (bits) of the last encode"
    ),
    "encode.csr_vi.ttu": _spec("gauge", "", "total-to-unique ratio of the last encode"),
    "plan.build": _spec("span", "format", "kernel-plan construction (+ nnz)"),
    "plan.hit": _spec("counter", "format", "plan lookup served from cache"),
    "plan.miss": _spec("counter", "format", "plan lookup that had to build"),
    "partition.nnz": _spec(
        "counter", "thread kind lo hi",
        "nonzeros assigned to one thread's row block",
    ),
    "partition.imbalance": _spec(
        "gauge", "kind", "max/mean nnz per thread of the last split"
    ),
    "parallel.spmv": _spec(
        "span", "threads",
        "one multithreaded SpMV call (row executors add format, backend)",
        Live("histogram", "spmv.call.seconds", ("format", "threads", "backend")),
    ),
    "parallel.chunk": _spec(
        "span", "thread lo hi nnz kind",
        "one thread's chunk of one call (row executors add format, "
        "backend; process workers add pid, run_id and are merged into "
        "the parent stream by repro.obs.xproc)",
        Live("histogram", "spmv.chunk.seconds", ("format", "backend")),
    ),
    "worker.attach": _spec(
        "span", "index generation",
        "shard-cache lookup + attach inside a pool worker",
    ),
    "worker.multiply": _spec(
        "span", "index", "the shard kernel proper inside a pool worker"
    ),
    "storage.shard.write": _spec(
        "counter", "format index bytes storage", "one shard packed + stored",
        _mirror("storage.shard.write", "storage"),
    ),
    "storage.shard.attach": _spec(
        "counter", "format index storage seconds",
        "one shard attached (CRC-verified) into a process",
        _mirror("storage.shard.attach", "storage"),
        Live(
            "histogram", "storage.shard.attach.seconds", ("storage",),
            value="seconds",
        ),
    ),
    "storage.shard.verify.seconds": _spec(
        "sample", "storage", "per-attach CRC re-hash time of all fields",
        Live("histogram", "storage.shard.verify.seconds", ("storage",)),
    ),
    "storage.shard.rebuild": _spec(
        "span", "index storage",
        "one shard re-encoded into a new generation after a failure",
        Live("histogram", "storage.shard.rebuild.seconds", ("storage",)),
    ),
    "storage.shard.cache.hit": _spec(
        "counter", "storage index", "worker shard-LRU lookup served from cache",
        _mirror("storage.shard.cache.hit", "storage"),
    ),
    "storage.shard.cache.miss": _spec(
        "counter", "storage index", "worker shard-LRU lookup that had to attach",
        _mirror("storage.shard.cache.miss", "storage"),
    ),
    "storage.stream": _spec(
        "span", "shards resumed_from",
        "one streamed out-of-core SpMV (+ peak_rss_bytes on success)",
        Live(
            "gauge", "storage.stream.peak_rss_bytes", value="peak_rss_bytes"
        ),
    ),
    "storage.stream.checkpoint": _spec(
        "counter", "format shard rows_done storage seconds",
        "one shard's progress checkpointed (seconds: fsync'd write lag)",
        _mirror("storage.stream.checkpoint", "storage"),
        Live(
            "histogram", "storage.checkpoint.write.seconds", ("storage",),
            value="seconds",
        ),
    ),
    "validate": _spec(
        "span", "format nnz", "one integrity verification (matrix.verify())"
    ),
    "kernel.fallback": _spec(
        "counter", "format from_tier to_tier error",
        "guarded kernel degraded one tier",
        _mirror("kernel.fallback", "format"),
    ),
    "executor.retry": _spec(
        "counter", "format thread lo hi error",
        "chunk re-encoded (cache invalidated) and retried after a failure",
        _mirror("executor.retry", "format"),
    ),
    "executor.chunk.abandoned": _spec(
        "counter", "kind backend thread lo hi timeout_s",
        "chunk wait timed out and the result was discarded; imbalance "
        "recovery excludes spans matching these",
        _mirror("executor.chunk.abandoned", "kind", "backend"),
    ),
    "resilience.breaker.open": _spec(
        "counter", "key failures",
        "circuit breaker tripped to open (key e.g. shard:1:g0)",
        _mirror("resilience.breaker.open", "key"),
    ),
    "resilience.breaker.half_open": _spec(
        "counter", "key failures", "cooldown expired; one probe admitted",
        _mirror("resilience.breaker.half_open", "key"),
    ),
    "resilience.breaker.close": _spec(
        "counter", "key failures", "half-open probe succeeded",
        _mirror("resilience.breaker.close", "key"),
    ),
    "resilience.degrade": _spec(
        "counter", "format from_backend from_storage to_backend to_storage error",
        "degradation-ladder transition",
        Live(
            "counter", "resilience.degrade.total",
            ("backend=to_backend", "storage=to_storage"),
        ),
    ),
    "resilience.deadline.expired": _spec(
        "counter", "label budget_s",
        "a wall-clock deadline ran out at checkpoint label",
        _mirror("resilience.deadline.expired", "label"),
    ),
    "perf.attribution": _spec(
        "counter", _PERF_ATTRIBUTION,
        "one attribution record per bench cell, plus the host fingerprint",
    ),
    "advisor.pick": _spec(
        "counter",
        "format matrix_id kernel threads backend partition predicted_s "
        "realized_s source phase",
        "one advisor decision (phase advise) or its realized follow-up",
    ),
    "sim.spmv": _spec("span", "format threads placement", "machine-model prediction"),
    "sim.bound": _spec("counter", "bound", "binding constraint tally"),
    "sim.dram_bytes": _spec(
        "counter", "format threads placement",
        "simulated DRAM bytes read per iteration",
    ),
    "sim.resident_fraction": _spec(
        "gauge", "format", "cache-resident working-set fraction"
    ),
    "bench.matrix": _spec("span", "matrix_id", "all formats of one matrix"),
    "bench.cell": _spec(
        "span", "matrix_id format", "one (matrix, format) cell",
        Live("histogram", "bench.cell.seconds", ("format",)),
    ),
    "obs.alert": _spec(
        "counter", "rule expr metric value threshold",
        "one fired SLO rule from the live rule engine",
    ),
    "obs.snapshot": _spec(
        "counter", "histograms counters gauges alerts",
        "one live-snapshot flush (series counts, not the state)",
    ),
    "obs.resource.rss_bytes": _spec(
        "gauge", "rss_is_peak",
        "resident set size (rss_is_peak on the getrusage fallback)",
        Live("gauge", "obs.resource.rss_bytes", ("rss_is_peak",)),
    ),
    "obs.resource.gc_collections": _spec(
        "gauge", "", "total GC collections so far",
        Live("gauge", "obs.resource.gc_collections"),
    ),
    "obs.resource.threads": _spec(
        "gauge", "", "live Python thread count",
        Live("gauge", "obs.resource.threads"),
    ),
}

#: Every event name a conforming trace may contain.
KNOWN_EVENTS = frozenset(VOCABULARY)

#: Event name -> the live series it feeds (events with any).
LIVE_VIEWS: dict[str, tuple[Live, ...]] = {
    name: spec.live for name, spec in VOCABULARY.items() if spec.live
}


def record_ctl_stream(
    class_counts: Sequence[int],
    *,
    new_rows: int,
    seq_units: int,
    ctl_bytes: int,
) -> None:
    """CSR-DU serialization census (one call per finished ctl stream).

    ``class_counts`` is the per-width-class unit tally the
    :class:`~repro.compress.ctl.CtlWriter` keeps -- together these are
    the paper's Table I statistics, now observable per encode.
    """
    if not core.enabled():
        return
    for cls, n in enumerate(class_counts):
        if n:
            core.count("encode.csr_du.units", n, width=WIDTH_LABELS[cls])
    if seq_units:
        core.count("encode.csr_du.seq_units", seq_units)
    core.count("encode.csr_du.new_rows", new_rows)
    core.count("encode.csr_du.ctl_bytes", ctl_bytes)


def record_unique_values(
    *, unique_count: int, val_ind_bits: int, ttu: float, nnz: int
) -> None:
    """CSR-VI value-compression outcome (one call per encode)."""
    if not core.enabled():
        return
    core.gauge("encode.csr_vi.unique_vals", unique_count, nnz=nnz)
    core.gauge("encode.csr_vi.val_ind_bits", val_ind_bits)
    core.gauge("encode.csr_vi.ttu", ttu)


def record_partition(partition) -> None:
    """Per-thread nnz balance and row-block bounds of one partitioning.

    *partition* is a :class:`~repro.parallel.partition.RowPartition`.
    Emits one ``partition.nnz`` counter event per thread (the event's
    ``lo``/``hi`` attributes carry the thread's row-block bounds) plus
    the split's ``partition.imbalance()`` gauge.  Events carry
    ``kind="row"``, the one partitioning scheme.
    """
    if not core.enabled():
        return
    for t in range(partition.nthreads):
        lo, hi = partition.rows_of(t)
        core.count(
            "partition.nnz",
            float(partition.nnz_per_thread[t]),
            extra={"lo": lo, "hi": hi},
            thread=t,
            kind="row",
        )
    core.gauge("partition.imbalance", partition.imbalance(), kind="row")


def record_attribution(
    *,
    matrix_id: int,
    format_name: str,
    threads: int,
    placement: str,
    time_s: float,
    mflops: float,
    bytes_per_iter: int,
    index_bytes: int,
    value_bytes: int,
    vector_bytes: int,
    flops_per_byte: float,
    effective_gbps: float,
    dram_bytes: float,
    attainable_mflops: float,
    roofline_pct: float,
    bound: str,
    nnz_imbalance: float,
    time_imbalance: float,
    compression_ratio: float,
    speedup_vs_csr: float,
    setup_s: float = 0.0,
    host_cpus: int = 0,
    host_platform: str = "",
    host_calibration: str = "",
) -> None:
    """One performance-attribution record for a measured bench cell.

    Labels (``format``, ``threads``, ``placement``) key the aggregate
    counter (cells attributed per configuration); the numeric payload
    rides on the event so trace consumers -- the HTML dashboard, the
    smoke checker -- can rebuild the full record from the stream.
    """
    if not core.enabled():
        return
    core.count(
        "perf.attribution",
        1,
        extra={
            "matrix_id": int(matrix_id),
            "time_s": float(time_s),
            "mflops": float(mflops),
            "bytes_per_iter": int(bytes_per_iter),
            "index_bytes": int(index_bytes),
            "value_bytes": int(value_bytes),
            "vector_bytes": int(vector_bytes),
            "flops_per_byte": float(flops_per_byte),
            "effective_gbps": float(effective_gbps),
            "dram_bytes": float(dram_bytes),
            "attainable_mflops": float(attainable_mflops),
            "roofline_pct": float(roofline_pct),
            "bound": str(bound),
            "nnz_imbalance": float(nnz_imbalance),
            "time_imbalance": float(time_imbalance),
            "compression_ratio": float(compression_ratio),
            "speedup_vs_csr": float(speedup_vs_csr),
            "setup_s": float(setup_s),
            # Host fingerprint: wall-clock cells from a 1-CPU container
            # and an 8-core workstation must be distinguishable in the
            # trace itself, not by out-of-band prose.
            "host_cpus": int(host_cpus),
            "host_platform": str(host_platform),
            "host_calibration": str(host_calibration),
        },
        format=format_name,
        threads=threads,
        placement=placement,
    )


def record_advisor_pick(
    *,
    matrix_id: int,
    format_name: str,
    threads: int,
    backend: str,
    predicted_s: float,
    realized_s: float,
    source: str,
    phase: str,
) -> None:
    """One advisor decision (or its realized-seconds follow-up).

    ``phase="advise"`` events carry the prediction (``realized_s`` 0);
    a caller that runs the pick reports back with ``phase="realized"``
    and the measured seconds, letting trace consumers compute the
    advisor's prediction error per matrix.  Every pick runs the
    format's own ``spmv`` over row blocks, so ``kernel`` is always
    ``"cached"`` and ``partition`` always ``"row"``.
    """
    if not core.enabled():
        return
    core.count(
        "advisor.pick",
        1,
        extra={
            "matrix_id": int(matrix_id),
            "kernel": "cached",
            "threads": int(threads),
            "backend": str(backend),
            "partition": "row",
            "predicted_s": float(predicted_s),
            "realized_s": float(realized_s),
            "source": str(source),
            "phase": str(phase),
        },
        format=format_name,
    )


def record_sim_result(
    *,
    format_name: str,
    threads: int,
    placement: str,
    bound: str,
    dram_bytes: float,
    resident_fraction: float,
) -> None:
    """Machine-model verdict for one simulated configuration."""
    if not core.enabled():
        return
    core.count("sim.bound", 1, bound=bound)
    core.count(
        "sim.dram_bytes",
        dram_bytes,
        format=format_name,
        threads=threads,
        placement=placement,
    )
    core.gauge("sim.resident_fraction", resident_fraction, format=format_name)
