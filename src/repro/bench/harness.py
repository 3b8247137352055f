"""Experiment runner: (matrix id, format, threads, placement) -> results.

Two clocks exist:

* ``"model"`` (default) -- the machine model of :mod:`repro.machine`,
  used for every paper table/figure (this container cannot exhibit
  multicore bandwidth contention; see DESIGN.md section 3);
* ``"real"`` -- wall-clock timing of the ``kernel`` tier via
  :func:`repro.util.timing.measure` (the paper's 128-iteration
  protocol), available for serial sanity checks.

The runner realizes each catalog matrix once per configuration, converts
it to each requested format once, and fans out over thread counts.

Real-clock cells honor the ``backend`` axis: ``"process"`` runs its
chunks in fork-pool workers whose spans and metric shards are merged
back into the parent's telemetry sink (:mod:`repro.obs.xproc`),
so reports, traces and the dashboard's workers table cover them like
any single-process run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.compress.encode_cache import ConvertCache, cached_convert
from repro.errors import MachineModelError, ReproError
from repro.formats.base import SparseMatrix, Storage
from repro.formats.conversions import convert
from repro.machine.costmodel import CostModel, default_cost_model
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import MachineSpec, clovertown_8core
from repro.matrices.collection import realize
from repro.perf import attribution as perf_attribution
from repro.perf.attribution import Attribution
from repro.perf.bytes import ByteBreakdown, bytes_per_iteration
from repro.telemetry import core as telemetry
from repro.util.timing import measure

#: The paper's thread configurations for Table II: thread count plus
#: placement.  ``2 (1xL2)`` is close (shared L2), ``2 (2xL2)`` spread.
TABLE2_CONFIGS: tuple[tuple[int, str], ...] = (
    (1, "close"),
    (2, "close"),
    (2, "spread"),
    (4, "close"),
    (8, "close"),
)

#: Tables III/IV use close placement throughout.
SPEEDUP_THREADS: tuple[int, ...] = (1, 2, 4, 8)


def _advise(matrix, config, *, matrix_id, formats, threads):
    """One advisor call with this run's machine/cost-model context."""
    from repro.perf.advisor import advise

    return advise(
        matrix,
        matrix_id=matrix_id,
        clock=config.clock,
        formats=formats,
        threads=threads,
        backends=(config.backend,),
        machine=config.scaled_machine(),
        cost_model=config.cost_model,
    )


def resolve_thread_configs(
    matrix, config, matrix_id: int = -1
) -> tuple[tuple[int, str], ...]:
    """The configurations ``threads_choice`` collapses a run to.

    The serial ``(1, "close")`` cell is always kept: it is the
    denominator of every scaling and speedup figure, so a pinned or
    advisor-picked thread count yields (serial, picked) rather than an
    unanchored single cell.
    """
    if config.threads_choice != "auto":
        picked = int(config.threads_choice)
    else:
        choice = _advise(
            matrix,
            config,
            matrix_id=matrix_id,
            formats=("csr",),
            threads=SPEEDUP_THREADS,
        )
        picked = choice.config.threads
    if picked == 1:
        return ((1, "close"),)
    return ((1, "close"), (picked, "close"))


def resolve_formats(
    matrix, formats: tuple[str, ...], config, matrix_id: int = -1
) -> tuple[str, ...]:
    """Apply ``config.format_override`` to one experiment's format list.

    The CSR baseline entry is kept (it is every speedup's denominator);
    each compressed entry is replaced by the override, or by the
    advisor's pick when the override is ``"auto"``.  Duplicates after
    replacement collapse (an advisor that picks plain CSR leaves a
    CSR-only cell list, which downstream code already handles).
    """
    if not config.format_override:
        return formats
    if config.format_override == "auto":
        from repro.perf.advisor.model import ADVISOR_FORMATS

        replacement = _advise(
            matrix,
            config,
            matrix_id=matrix_id,
            formats=ADVISOR_FORMATS,
            threads=(1,),
        ).config.format_name
    else:
        replacement = config.format_override
    out: list[str] = []
    for fmt in formats:
        resolved = fmt if fmt == "csr" else replacement
        if resolved not in out:
            out.append(resolved)
    return tuple(out)


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for an experiment run.

    ``scale`` shrinks both the matrices and the machine's caches (see
    ``MachineSpec.scaled``), keeping every matrix in its paper set; 1.0
    is the paper-size run, benchmarks default to a fraction.
    """

    scale: float = 1.0
    machine: MachineSpec = field(default_factory=clovertown_8core)
    cost_model: CostModel = field(default_factory=default_cost_model)
    clock: str = "model"
    real_calls: int = 16
    #: Kernel tier timed by the real clock: ``"cached"`` (the format's
    #: own ``spmv``) or ``"reference"`` (the paper's pure-Python
    #: listing); the model clock predicts from memory traffic and
    #: ignores it.
    kernel: str = "cached"
    #: Execution backend for real-clock multi-worker cells:
    #: ``"thread"`` (:class:`~repro.parallel.executor.ParallelSpMV`) or
    #: ``"process"`` (:class:`~repro.parallel.process_executor.
    #: ProcessParallelSpMV`, which escapes the GIL).  The model clock
    #: ignores it.
    backend: str = "thread"
    #: Shard storage for those cells: ``"mem"`` or ``"mmap"``
    #: (out-of-core shard files in a temporary directory).
    storage: str = "mem"
    #: CLI ``--format`` override: replaces every *compressed* format an
    #: experiment requests (the CSR baseline always stays).  ``"auto"``
    #: asks the configuration advisor per matrix; an explicit name
    #: applies uniformly.  ``None`` (default) leaves each experiment's
    #: own formats untouched.
    format_override: str | None = None
    #: CLI ``--threads`` override: replaces an experiment's thread
    #: configurations with a single ``(N, "close")`` entry.  ``"auto"``
    #: asks the advisor per matrix (GIL/CPU-aware under the real
    #: clock); a numeric string pins the count.  ``None`` disables.
    threads_choice: str | None = None
    #: Checkpoint JSONL path for :func:`run_set` (``None`` disables).
    #: Finished (matrix, format) cells are appended as they complete;
    #: a rerun pointing at the same path restores them and skips the
    #: work, producing a bundle byte-identical to an uninterrupted run
    #: (see :mod:`repro.bench.checkpoint`).  The CLI's ``--resume``
    #: flag sets this.
    checkpoint_path: str | None = None
    #: Wall-clock budget in seconds for each real-clock executor cell
    #: (CLI ``--deadline``).  Materialized as one
    #: :class:`~repro.resilience.policy.Deadline` per cell that flows
    #: through ``make_executor`` into shard builds and per-chunk waits;
    #: expiry surfaces as a typed ``DeadlineExceeded`` rather than a
    #: hung sweep.  ``None`` (default) disables.
    deadline_s: float | None = None
    #: Wrap real-clock executors in the resilience degradation ladder
    #: (CLI ``--degrade``): backend falls process -> thread -> serial
    #: and storage mmap -> mem on repeated typed failures, with every
    #: transition emitted as ``resilience.degrade`` telemetry.
    degrade: bool = False

    def scaled_machine(self) -> MachineSpec:
        return self.machine if self.scale == 1.0 else self.machine.scaled(self.scale)


@dataclass(frozen=True)
class MatrixResult:
    """All measurements for one (matrix, format) pair.

    ``attributions`` carries one :class:`~repro.perf.attribution.Attribution`
    per configuration -- bytes/iteration, effective GB/s, %-of-roofline,
    imbalance ratios -- for every format the traffic model supports
    (empty for the exotic formats the real clock can time but the
    byte-layout census cannot split).
    """

    matrix_id: int
    format_name: str
    storage: Storage
    csr_storage: Storage
    times: dict[tuple[int, str], float]  # (threads, placement) -> seconds
    mflops: dict[tuple[int, str], float]
    bounds: dict[tuple[int, str], str]
    attributions: dict[tuple[int, str], Attribution] = field(default_factory=dict)

    @property
    def size_reduction(self) -> float:
        """Fractional size reduction vs CSR (paper's Figs 7/8 label)."""
        csr_total = self.csr_storage.total_bytes
        return 1.0 - self.storage.total_bytes / csr_total if csr_total else 0.0

    def speedup_vs(self, other: "MatrixResult", key: tuple[int, str]) -> float:
        """This result's speedup over *other* at the same configuration."""
        return other.times[key] / self.times[key]

    def scaling(self, key: tuple[int, str]) -> float:
        """Speedup over this format's own serial time."""
        return self.times[(1, "close")] / self.times[key]


def run_format_matrix(
    matrix: SparseMatrix,
    format_name: str,
    config: ExperimentConfig,
    *,
    matrix_id: int = -1,
    configs: tuple[tuple[int, str], ...] = TABLE2_CONFIGS,
    csr_storage: Storage | None = None,
    convert_cache: ConvertCache | None = None,
    **format_kwargs,
) -> MatrixResult:
    """Measure one matrix in one format across thread configurations.

    ``csr_storage`` is the matrix's CSR baseline footprint (the
    denominator of every size-reduction figure).  Callers looping over
    several formats of the same matrix should compute it once and pass
    it down -- :func:`run_set` does -- since re-deriving it per format
    re-encodes the whole matrix; when omitted it is computed here.
    ``convert_cache`` keys the conversion on (matrix, format, kwargs)
    so repeated cells over one matrix encode once; the setup wall time
    actually paid lands in each attribution's ``setup_s``.
    """
    if config.threads_choice:
        configs = resolve_thread_configs(matrix, config, matrix_id)
    # Work done only for the event log (plan counters, attribution
    # records) is skipped when only live metrics are on.
    tracing = telemetry.get_collector() is not None
    # The cell span is also the live bench.cell.seconds sample, so a
    # scraper watching a long sweep sees throughput and tail cells.
    with telemetry.span(
        "bench.cell", matrix_id=matrix_id, format=format_name
    ) as cell:
        setup_t0 = time.perf_counter()
        converted = cached_convert(
            matrix, format_name, cache=convert_cache, **format_kwargs
        )
        from repro.kernels.plan import PLANNABLE_FORMATS, get_plan

        # Build the kernel plan once per cell -- the amortized setup
        # every iterative caller pays exactly once.  Under the model
        # clock this runs only when tracing, so the plan.build/hit/miss
        # counters appear in --trace output either way.
        plannable = converted.name in PLANNABLE_FORMATS
        if plannable and (config.clock == "real" or tracing):
            get_plan(converted)
        setup_s = time.perf_counter() - setup_t0
        machine = config.scaled_machine()
        if csr_storage is None:
            csr_storage = convert(matrix, "csr").storage()
        times: dict[tuple[int, str], float] = {}
        mflops: dict[tuple[int, str], float] = {}
        bounds: dict[tuple[int, str], str] = {}
        attributions: dict[tuple[int, str], Attribution] = {}
        breakdowns: dict[int, ByteBreakdown] = {}  # per thread count
        for threads, placement in configs:
            key = (threads, placement)
            sim_res = None
            if plannable and tracing:
                get_plan(converted)  # cache hit, one per configuration
            if config.clock == "model":
                res = simulate_spmv(
                    converted,
                    threads,
                    machine,
                    placement=placement,
                    cost_model=config.cost_model,
                )
                times[key] = res.time_s
                mflops[key] = res.mflops
                bounds[key] = res.bound
                sim_res = res
            elif config.clock == "real":
                import numpy as np

                rng = np.random.default_rng(0)
                x = rng.random(converted.ncols)
                if threads == 1 and config.backend == "thread":
                    from repro.kernels.registry import get_kernel

                    kernel = get_kernel(format_name, config.kernel)
                    kernel(converted, x)  # warm caches / decode caches
                    with telemetry.span(
                        "bench.measure", matrix_id=matrix_id, format=format_name
                    ):
                        m = measure(
                            lambda: kernel(converted, x),
                            calls=config.real_calls,
                            repeats=3,
                        )
                else:
                    # Multi-worker (or process-backend) wall clock: time
                    # the real executor end to end.  Until PR 7 this
                    # raised -- the thread backend's GIL-bound numbers
                    # answered nothing -- but the backend axis makes the
                    # measurement honest: the process backend does the
                    # work in parallel on multi-core hosts.
                    import tempfile

                    from repro.parallel.backends import make_executor

                    tmp = (
                        tempfile.TemporaryDirectory(prefix="bench-shards-")
                        if config.storage == "mmap"
                        else None
                    )
                    deadline = None
                    if config.deadline_s is not None:
                        from repro.resilience.policy import Deadline

                        deadline = Deadline.after(config.deadline_s)
                    executor = make_executor(
                        matrix,
                        threads,
                        backend=config.backend,
                        storage=config.storage,
                        format_name=format_name,
                        directory=tmp.name if tmp is not None else None,
                        convert_cache=convert_cache,
                        deadline=deadline,
                        degrade=config.degrade,
                        **format_kwargs,
                    )
                    try:
                        executor(x)  # warm pools / decode caches
                        with telemetry.span(
                            "bench.measure",
                            matrix_id=matrix_id,
                            format=format_name,
                        ):
                            m = measure(
                                lambda: executor(x),
                                calls=config.real_calls,
                                repeats=3,
                            )
                    finally:
                        executor.close()
                        if tmp is not None:
                            tmp.cleanup()
                times[key] = m.per_call
                mflops[key] = 2 * converted.nnz / m.per_call / 1e6
                bounds[key] = "wallclock"
            else:
                raise ReproError(f"unknown clock {config.clock!r}")
            try:
                if threads not in breakdowns:
                    breakdowns[threads] = bytes_per_iteration(converted, threads)
                att = perf_attribution.attribute_cell(
                    converted,
                    threads=threads,
                    placement=placement,
                    time_s=times[key],
                    machine=machine,
                    cost_model=config.cost_model,
                    matrix_id=matrix_id,
                    clock=config.clock,
                    sim=sim_res,
                    csr_storage=csr_storage,
                    breakdown=breakdowns[threads],
                    setup_s=setup_s,
                )
            except MachineModelError:
                # Formats the byte-layout census cannot split (coo) still
                # get timed; they just go unattributed.
                pass
            else:
                attributions[key] = att
                if tracing:
                    perf_attribution.record(att)
        cell.add(nnz=converted.nnz)
    return MatrixResult(
        matrix_id=matrix_id,
        format_name=format_name,
        storage=converted.storage(),
        csr_storage=csr_storage,
        times=times,
        mflops=mflops,
        bounds=bounds,
        attributions=attributions,
    )


def run_set(
    ids: tuple[int, ...],
    formats: tuple[str, ...],
    config: ExperimentConfig,
    *,
    configs: tuple[tuple[int, str], ...] = TABLE2_CONFIGS,
) -> dict[int, dict[str, MatrixResult]]:
    """Run every matrix in *ids* through every format.

    Returns ``{matrix_id: {format_name: MatrixResult}}``.  Matrices are
    realized (and freed) one at a time: the full-scale catalog would
    not fit in memory all at once.

    With ``config.checkpoint_path`` set, every finished cell is
    appended to the checkpoint JSONL as it completes, and cells already
    present there (same configuration fingerprint) are restored instead
    of recomputed — a matrix whose every format is checkpointed is not
    even realized.  The resumed result is identical to an uninterrupted
    run's (the speedup-vs-CSR fill below runs on restored cells too).
    """
    tracing = telemetry.get_collector() is not None
    log = None
    done: dict[tuple[int, str], MatrixResult] = {}
    if config.checkpoint_path:
        from repro.bench.checkpoint import CheckpointLog, fingerprint

        log = CheckpointLog(config.checkpoint_path, fingerprint(config, configs))
        done = log.load()
    out: dict[int, dict[str, MatrixResult]] = {}
    for mid in ids:
        with telemetry.span("bench.matrix", matrix_id=mid):
            per_fmt: dict[str, MatrixResult] = {}
            matrix = None
            formats_m = formats
            if config.format_override:
                # The override (and in particular "auto") can resolve
                # differently per matrix, so the matrix is realized
                # before the checkpoint-skip decision; checkpointed
                # cells still skip their measurement work.
                matrix = realize(mid, scale=config.scale)
                formats_m = resolve_formats(matrix, formats, config, mid)
            missing = [f for f in formats_m if (mid, f) not in done]
            if missing:
                if matrix is None:
                    matrix = realize(mid, scale=config.scale)
                # One conversion cache per matrix: cells that re-present
                # the same (format, kwargs) reuse the encode, and the
                # cache dies with the matrix (full-scale matrices must
                # not accumulate).
                cache = ConvertCache()
                # One CSR baseline per matrix: every format's
                # size-reduction figure shares the denominator, so
                # encode it exactly once.
                csr_storage = cached_convert(matrix, "csr", cache=cache).storage()
                if tracing and not any(
                    f.startswith("csr-du") for f in formats_m
                ):
                    # Tracing asks "what structure does this matrix
                    # have?" even for CSR-only experiments, so record
                    # the CSR-DU unit census (the encode emits the
                    # width histogram).
                    convert(matrix, "csr-du")
            for fmt in formats_m:
                restored = done.get((mid, fmt))
                if restored is not None:
                    per_fmt[fmt] = restored
                    continue
                res = run_format_matrix(
                    matrix,
                    fmt,
                    config,
                    matrix_id=mid,
                    configs=configs,
                    csr_storage=csr_storage,
                    convert_cache=cache,
                )
                per_fmt[fmt] = res
                if log is not None:
                    # Appended pre-speedup-fill: the fill needs the
                    # whole matrix and is re-applied deterministically
                    # on restore.
                    log.append(res)
            # With a CSR baseline in the set, fill in each compressed
            # format's speedup so the attribution records can answer the
            # paper's compression-ratio-vs-speedup question directly.
            baseline = per_fmt.get("csr")
            if baseline is not None:
                for fmt, res in per_fmt.items():
                    if fmt == "csr":
                        continue
                    for key, att in list(res.attributions.items()):
                        csr_time = baseline.times.get(key)
                        if csr_time:
                            res.attributions[key] = att.with_speedup(csr_time)
            out[mid] = per_fmt
    return out


def aggregate(values: list[float]) -> tuple[float, float, float]:
    """(avg, max, min) with the paper's presentation conventions."""
    if not values:
        raise ReproError("nothing to aggregate")
    return (
        sum(values) / len(values),
        max(values),
        min(values),
    )


def count_slowdowns(values: list[float], threshold: float = 0.98) -> int:
    """The paper's '< 0.98' column: non-negligible slowdowns."""
    return sum(1 for v in values if v < threshold)
