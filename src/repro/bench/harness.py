"""Experiment runner: (matrix id, format, threads, placement) -> results.

Every cell runs on the model clock: the machine model of
:mod:`repro.machine`, used for every paper table/figure (this container
cannot exhibit multicore bandwidth contention; see DESIGN.md section 3).
Real-clock ``y = A x`` runs through
:func:`repro.parallel.backends.make_executor` instead.

The runner realizes each catalog matrix once per configuration, converts
it to each requested format once, and fans out over thread counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.compress.encode_cache import ConvertCache, cached_convert
from repro.errors import ReproError
from repro.formats.base import SparseMatrix, Storage
from repro.formats.conversions import convert
from repro.machine.costmodel import CostModel, default_cost_model
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import MachineSpec, clovertown_8core
from repro.matrices.collection import realize
from repro.perf import attribution as perf_attribution
from repro.perf.attribution import Attribution
from repro.telemetry import core as telemetry

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
        clock="model",
        formats=formats,
        threads=threads,
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
    #: CLI ``--format`` override: replaces every *compressed* format an
    #: experiment requests (the CSR baseline always stays).  ``"auto"``
    #: asks the configuration advisor per matrix; an explicit name
    #: applies uniformly.  ``None`` (default) leaves each experiment's
    #: own formats untouched.
    format_override: str | None = None
    #: CLI ``--threads`` override: replaces an experiment's thread
    #: configurations with a single ``(N, "close")`` entry.  ``"auto"``
    #: asks the advisor per matrix; a numeric string pins the count.
    #: ``None`` disables.
    threads_choice: str | None = None
    #: Checkpoint JSONL path for :func:`run_set` (``None`` disables).
    #: Finished (matrix, format) cells are appended as they complete;
    #: a rerun pointing at the same path restores them and skips the
    #: work, producing a bundle byte-identical to an uninterrupted run
    #: (see :mod:`repro.bench.checkpoint`).  The CLI's ``--resume``
    #: flag sets this.
    checkpoint_path: str | None = None

    def scaled_machine(self) -> MachineSpec:
        return self.machine if self.scale == 1.0 else self.machine.scaled(self.scale)


@dataclass(frozen=True)
class MatrixResult:
    """All measurements for one (matrix, format) pair.

    ``attributions`` carries one :class:`~repro.perf.attribution.Attribution`
    per configuration -- bytes/iteration, effective GB/s, %-of-roofline,
    imbalance ratios.
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

    Each configuration runs one traffic census, inside
    :func:`simulate_spmv`; the attribution folds that same census.
    Tracing only records: it adds no work to the cell.
    """
    if config.threads_choice:
        configs = resolve_thread_configs(matrix, config, matrix_id)
    # Attribution records are for the event log; live metrics alone
    # skip them.
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
        setup_s = time.perf_counter() - setup_t0
        machine = config.scaled_machine()
        if csr_storage is None:
            csr_storage = convert(matrix, "csr").storage()
        times: dict[tuple[int, str], float] = {}
        mflops: dict[tuple[int, str], float] = {}
        bounds: dict[tuple[int, str], str] = {}
        attributions: dict[tuple[int, str], Attribution] = {}
        for threads, placement in configs:
            key = (threads, placement)
            sim = simulate_spmv(
                converted,
                threads,
                machine,
                placement=placement,
                cost_model=config.cost_model,
            )
            times[key] = sim.time_s
            mflops[key] = sim.mflops
            bounds[key] = sim.bound
            att = perf_attribution.attribute_cell(
                converted,
                threads=threads,
                placement=placement,
                time_s=sim.time_s,
                machine=machine,
                cost_model=config.cost_model,
                matrix_id=matrix_id,
                sim=sim,
                csr_storage=csr_storage,
                setup_s=setup_s,
            )
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
