"""Experiment drivers: one function per paper table/figure plus ablations.

Every driver returns a plain-dataclass result that
:mod:`repro.bench.report` can format as the paper formats it, and that
EXPERIMENTS.md records against the paper's published numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import (
    SPEEDUP_THREADS,
    TABLE2_CONFIGS,
    ExperimentConfig,
    MatrixResult,
    aggregate,
    count_slowdowns,
    run_format_matrix,
    run_set,
)
from repro.errors import ReproError
from repro.formats.conversions import convert
from repro.machine.simulate import simulate_spmv
from repro.matrices.collection import (
    M0_IDS,
    M0_VI_IDS,
    ML_IDS,
    ML_VI_IDS,
    MS_IDS,
    MS_VI_IDS,
    realize,
)

_CLOSE = "close"


def _subset(ids: tuple[int, ...], limit: int | None) -> tuple[int, ...]:
    """Deterministic subset for reduced-cost runs (every k-th id)."""
    if limit is not None and limit < 1:
        raise ReproError(f"limit must be at least 1, got {limit}")
    if limit is None or limit >= len(ids):
        return ids
    step = max(1, len(ids) // limit)
    return ids[::step][:limit]


# ---------------------------------------------------------------------------
# Table II: CSR serial MFLOPS and multithreaded speedups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table2Result:
    """Rows of Table II: per thread configuration, per matrix set."""

    serial_mflops: dict[str, tuple[float, float, float]]  # set -> (avg, max, min)
    speedups: dict[tuple[int, str], dict[str, tuple[float, float, float]]]
    ids_used: dict[str, tuple[int, ...]]


def table2(
    config: ExperimentConfig | None = None, *, limit: int | None = None
) -> Table2Result:
    """EXP-T2: CSR performance over MS / ML / M0 (Table II)."""
    config = config or ExperimentConfig()
    ms = _subset(MS_IDS, limit)
    ml = _subset(ML_IDS, limit)
    ids = tuple(sorted(set(ms + ml)))
    results = run_set(ids, ("csr",), config, configs=TABLE2_CONFIGS)
    sets = {"MS": ms, "ML": ml, "M0": ids}
    serial = {
        name: aggregate([results[i]["csr"].mflops[(1, _CLOSE)] for i in sids])
        for name, sids in sets.items()
    }
    speedups: dict[tuple[int, str], dict[str, tuple[float, float, float]]] = {}
    for key in TABLE2_CONFIGS[1:]:
        # A --threads override collapses the run to (serial, picked);
        # aggregate only the configurations every matrix actually ran.
        if any(key not in results[i]["csr"].times for i in ids):
            continue
        speedups[key] = {
            name: aggregate([results[i]["csr"].scaling(key) for i in sids])
            for name, sids in sets.items()
        }
    return Table2Result(serial_mflops=serial, speedups=speedups, ids_used=sets)


# ---------------------------------------------------------------------------
# Tables III / IV: compressed format vs CSR at equal thread count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeedupTableResult:
    """Tables III/IV: per thread count, per set: (avg, max, min, n<0.98)."""

    format_name: str
    rows: dict[int, dict[str, tuple[float, float, float, int]]]
    per_matrix: dict[int, dict[int, float]] = field(repr=False, default_factory=dict)
    ids_used: dict[str, tuple[int, ...]] = field(default_factory=dict)


def _ran_format(result_map: dict, requested: str) -> str:
    """The compressed format that actually ran for one matrix.

    With ``config.format_override`` set (``--format``), the harness may
    have replaced *requested* with another format -- or with nothing
    but the CSR baseline, when the advisor's ``auto`` pick *is* plain
    CSR (the speedup then reads 1.0, honestly).
    """
    if requested in result_map:
        return requested
    compressed = [name for name in result_map if name != "csr"]
    return compressed[0] if compressed else "csr"


def _speedup_table(
    format_name: str,
    sets: dict[str, tuple[int, ...]],
    config: ExperimentConfig,
) -> SpeedupTableResult:
    all_ids = tuple(sorted({i for sids in sets.values() for i in sids}))
    configs = tuple((t, _CLOSE) for t in SPEEDUP_THREADS)
    results = run_set(all_ids, ("csr", format_name), config, configs=configs)
    # A --threads override collapses the sweep to (serial, picked);
    # tabulate only thread counts every matrix actually ran.
    threads_ran = tuple(
        t
        for t in SPEEDUP_THREADS
        if all((t, _CLOSE) in results[mid]["csr"].times for mid in all_ids)
    )
    rows: dict[int, dict[str, tuple[float, float, float, int]]] = {}
    per_matrix: dict[int, dict[int, float]] = {t: {} for t in threads_ran}
    for threads in threads_ran:
        key = (threads, _CLOSE)
        for mid in all_ids:
            ran = _ran_format(results[mid], format_name)
            per_matrix[threads][mid] = results[mid][ran].speedup_vs(
                results[mid]["csr"], key
            )
        rows[threads] = {}
        for name, sids in sets.items():
            vals = [per_matrix[threads][i] for i in sids]
            avg, mx, mn = aggregate(vals)
            rows[threads][name] = (avg, mx, mn, count_slowdowns(vals))
    return SpeedupTableResult(
        format_name=format_name, rows=rows, per_matrix=per_matrix, ids_used=sets
    )


def table3(
    config: ExperimentConfig | None = None, *, limit: int | None = None
) -> SpeedupTableResult:
    """EXP-T3: CSR-DU vs CSR over MS / ML / M0 (Table III)."""
    config = config or ExperimentConfig()
    ms, ml = _subset(MS_IDS, limit), _subset(ML_IDS, limit)
    sets = {"MS": ms, "ML": ml, "M0": tuple(sorted(set(ms + ml)))}
    return _speedup_table("csr-du", sets, config)


def table4(
    config: ExperimentConfig | None = None, *, limit: int | None = None
) -> SpeedupTableResult:
    """EXP-T4: CSR-VI vs CSR over the ttu > 5 sets (Table IV)."""
    config = config or ExperimentConfig()
    ms, ml = _subset(MS_VI_IDS, limit), _subset(ML_VI_IDS, limit)
    sets = {"MS_vi": ms, "ML_vi": ml, "M0_vi": tuple(sorted(set(ms + ml)))}
    return _speedup_table("csr-vi", sets, config)


# ---------------------------------------------------------------------------
# Figures 7 / 8: per-matrix detail
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FigSeries:
    """One matrix's bar group in Fig. 7/8.

    ``compressed_speedups[t]`` is the compressed format's speedup over
    *serial CSR* with t threads (the bars); ``csr_speedups[t]`` the CSR
    multithreaded speedup (the black squares); ``size_reduction`` the
    percentage printed above the bars.
    """

    matrix_id: int
    name: str
    size_reduction: float
    compressed_speedups: dict[int, float]
    csr_speedups: dict[int, float]


@dataclass(frozen=True)
class FigResult:
    format_name: str
    series: tuple[FigSeries, ...]  # sorted by 8-thread speedup, paper-style


def _figure(
    format_name: str,
    ids: tuple[int, ...],
    config: ExperimentConfig,
) -> FigResult:
    from repro.matrices.collection import entry

    configs = tuple((t, _CLOSE) for t in SPEEDUP_THREADS)
    results = run_set(ids, ("csr", format_name), config, configs=configs)
    series = []
    for mid in ids:
        csr_res = results[mid]["csr"]
        cmp_res = results[mid][_ran_format(results[mid], format_name)]
        csr_serial = csr_res.times[(1, _CLOSE)]
        threads_ran = tuple(
            t for t in SPEEDUP_THREADS if (t, _CLOSE) in csr_res.times
        )
        series.append(
            FigSeries(
                matrix_id=mid,
                name=entry(mid).name,
                size_reduction=cmp_res.size_reduction,
                compressed_speedups={
                    t: csr_serial / cmp_res.times[(t, _CLOSE)]
                    for t in threads_ran
                },
                csr_speedups={
                    t: csr_serial / csr_res.times[(t, _CLOSE)]
                    for t in threads_ran
                },
            )
        )
    series.sort(key=lambda s: s.compressed_speedups[max(s.compressed_speedups)])
    return FigResult(format_name=format_name, series=tuple(series))


def fig7(
    config: ExperimentConfig | None = None, *, limit: int | None = None
) -> FigResult:
    """EXP-F7: per-matrix CSR-DU speedups over M0 (Figure 7)."""
    config = config or ExperimentConfig()
    return _figure("csr-du", _subset(M0_IDS, limit), config)


def fig8(
    config: ExperimentConfig | None = None, *, limit: int | None = None
) -> FigResult:
    """EXP-F8: per-matrix CSR-VI speedups over M0_vi (Figure 8)."""
    config = config or ExperimentConfig()
    return _figure("csr-vi", _subset(M0_VI_IDS, limit), config)


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md section 5)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    matrix_id: int
    label: str
    index_bytes: int
    total_bytes: int
    time_8t: float
    time_1t: float


def ablation_unit_policy(
    config: ExperimentConfig | None = None, *, ids: tuple[int, ...] = (55, 69, 84)
) -> list[AblationRow]:
    """ABL-1: CSR-DU greedy vs aligned unit splitting."""
    config = config or ExperimentConfig()
    machine = config.scaled_machine()
    rows = []
    for mid in ids:
        matrix = realize(mid, scale=config.scale)
        for policy in ("greedy", "aligned"):
            du = convert(matrix, "csr-du", policy=policy)
            rows.append(
                AblationRow(
                    matrix_id=mid,
                    label=f"csr-du/{policy}",
                    index_bytes=du.storage().index_bytes,
                    total_bytes=du.storage().total_bytes,
                    time_8t=simulate_spmv(du, 8, machine, cost_model=config.cost_model).time_s,
                    time_1t=simulate_spmv(du, 1, machine, cost_model=config.cost_model).time_s,
                )
            )
    return rows


def ablation_dcsr(
    config: ExperimentConfig | None = None, *, ids: tuple[int, ...] = (55, 69, 84)
) -> list[AblationRow]:
    """ABL-2: DCSR vs CSR-DU (Section III-B comparison)."""
    config = config or ExperimentConfig()
    machine = config.scaled_machine()
    rows = []
    for mid in ids:
        matrix = realize(mid, scale=config.scale)
        for fmt in ("csr-du", "dcsr", "csr"):
            m = convert(matrix, fmt)
            rows.append(
                AblationRow(
                    matrix_id=mid,
                    label=fmt,
                    index_bytes=m.storage().index_bytes,
                    total_bytes=m.storage().total_bytes,
                    time_8t=simulate_spmv(m, 8, machine, cost_model=config.cost_model).time_s,
                    time_1t=simulate_spmv(m, 1, machine, cost_model=config.cost_model).time_s,
                )
            )
    return rows


def ablation_index_width(
    config: ExperimentConfig | None = None, *, ids: tuple[int, ...] = (41, 47, 55)
) -> list[AblationRow]:
    """ABL-3: 16-bit vs 32-bit CSR indices (Williams et al. [11] trick)."""
    config = config or ExperimentConfig()
    machine = config.scaled_machine()
    rows = []
    for mid in ids:
        matrix = realize(mid, scale=config.scale)
        csr = convert(matrix, "csr")
        variants = [("csr/32-bit", csr)]
        if csr.ncols - 1 < (1 << 15):
            variants.append(
                ("csr/16-bit", csr.with_index_dtype(np.int16, cols_only=True))
            )
        for label, m in variants:
            rows.append(
                AblationRow(
                    matrix_id=mid,
                    label=label,
                    index_bytes=m.storage().index_bytes,
                    total_bytes=m.storage().total_bytes,
                    time_8t=simulate_spmv(m, 8, machine, cost_model=config.cost_model).time_s,
                    time_1t=simulate_spmv(m, 1, machine, cost_model=config.cost_model).time_s,
                )
            )
    return rows


def ablation_placement(
    config: ExperimentConfig | None = None, *, ids: tuple[int, ...] = (55, 69)
) -> dict[tuple[int, int, str], float]:
    """ABL-4: close vs spread placement at 2 and 4 threads (CSR).

    Returns ``{(matrix_id, threads, placement): seconds}``.
    """
    config = config or ExperimentConfig()
    machine = config.scaled_machine()
    out: dict[tuple[int, int, str], float] = {}
    for mid in ids:
        csr = convert(realize(mid, scale=config.scale), "csr")
        for threads in (2, 4):
            for placement in ("close", "spread"):
                out[(mid, threads, placement)] = simulate_spmv(
                    csr,
                    threads,
                    machine,
                    placement=placement,
                    cost_model=config.cost_model,
                ).time_s
    return out


def ablation_du_vi(
    config: ExperimentConfig | None = None, *, ids: tuple[int, ...] = (47, 84, 93)
) -> list[AblationRow]:
    """ABL-5: the combined CSR-DU-VI format against its two halves."""
    config = config or ExperimentConfig()
    machine = config.scaled_machine()
    rows = []
    for mid in ids:
        matrix = realize(mid, scale=config.scale)
        for fmt in ("csr", "csr-du", "csr-vi", "csr-du-vi"):
            m = convert(matrix, fmt)
            rows.append(
                AblationRow(
                    matrix_id=mid,
                    label=fmt,
                    index_bytes=m.storage().index_bytes,
                    total_bytes=m.storage().total_bytes,
                    time_8t=simulate_spmv(m, 8, machine, cost_model=config.cost_model).time_s,
                    time_1t=simulate_spmv(m, 1, machine, cost_model=config.cost_model).time_s,
                )
            )
    return rows


def ablation_seq_units(
    config: ExperimentConfig | None = None,
    *,
    half_bandwidths: tuple[int, ...] = (4, 16, 64),
) -> list[AblationRow]:
    """ABL-6: sequential (constant-stride) units vs the paper's greedy.

    Run on dense-band matrices (each row one contiguous column run),
    where the sequential-unit extension collapses per-element u8 deltas
    into constant-size unit headers (the CSX direction; see
    :mod:`repro.compress.delta`).  The catalog's scattered families
    have no long constant runs, so this ablation builds its own.
    """
    from repro.formats.conversions import to_csr
    from repro.matrices.generators import dense_band

    config = config or ExperimentConfig()
    machine = config.scaled_machine()
    rows = []
    for k in half_bandwidths:
        n = max(64, int(120_000 * config.scale))
        matrix = to_csr(dense_band(n, k))
        for policy in ("greedy", "seq"):
            du = convert(matrix, "csr-du", policy=policy)
            rows.append(
                AblationRow(
                    matrix_id=k,  # labeled by half bandwidth
                    label=f"csr-du/{policy}",
                    index_bytes=du.storage().index_bytes,
                    total_bytes=du.storage().total_bytes,
                    time_8t=simulate_spmv(du, 8, machine, cost_model=config.cost_model).time_s,
                    time_1t=simulate_spmv(du, 1, machine, cost_model=config.cost_model).time_s,
                )
            )
    return rows


@dataclass(frozen=True)
class FrequencyPoint:
    """One cell of the ABL-7 frequency study."""

    matrix_id: int
    clock_ghz: float
    format_name: str
    serial_ratio_vs_csr: float


def ablation_frequency(
    config: ExperimentConfig | None = None,
    *,
    ids: tuple[int, ...] = (69, 84, 93),
    clocks_ghz: tuple[float, ...] = (1.5, 2.0, 2.66, 3.0),
) -> list[FrequencyPoint]:
    """ABL-7: the paper's own Section VI-D claim, reproduced.

    The paper found weaker *serial* CSR-DU/CSR-VI gains on the 2 GHz
    Clovertown than on the (faster-clocked) Woodcrest of [8], and
    verified by down-clocking the Woodcrest to 2 GHz.  Mechanism: a
    faster core makes the kernel more memory-bound, so trading cycles
    for bytes pays more.  This ablation sweeps the model's clock and
    reports the serial compressed-vs-CSR ratio, which must grow with
    frequency.
    """
    import dataclasses

    config = config or ExperimentConfig()
    base = config.scaled_machine()
    points = []
    for mid in ids:
        matrix = realize(mid, scale=config.scale)
        converted = {
            fmt: convert(matrix, fmt) for fmt in ("csr", "csr-du", "csr-vi")
        }
        for ghz in clocks_ghz:
            machine = dataclasses.replace(
                base, clock_hz=ghz * 1e9, name=f"{base.name}@{ghz:g}GHz"
            )
            t_csr = simulate_spmv(
                converted["csr"], 1, machine, cost_model=config.cost_model
            ).time_s
            for fmt in ("csr-du", "csr-vi"):
                t = simulate_spmv(
                    converted[fmt], 1, machine, cost_model=config.cost_model
                ).time_s
                points.append(
                    FrequencyPoint(
                        matrix_id=mid,
                        clock_ghz=ghz,
                        format_name=fmt,
                        serial_ratio_vs_csr=t_csr / t,
                    )
                )
    return points


def ablation_rcm(
    config: ExperimentConfig | None = None, *, grid: int = 64, seed: int = 17
) -> list[AblationRow]:
    """ABL-8: RCM reordering composed with CSR-DU.

    A banded stencil scrambled by a random symmetric permutation stands
    in for a badly ordered mesh.  RCM restores the band, shrinking the
    column deltas back into the u8 class -- reordering ([13] in the
    paper's related work) and index compression compound.
    """
    import numpy as np

    from repro.formats.conversions import to_csr
    from repro.matrices.generators import stencil_2d
    from repro.matrices.reorder import apply_symmetric_permutation, rcm_reorder
    from repro.matrices.values import continuous_values, set_matrix_values

    config = config or ExperimentConfig()
    machine = config.scaled_machine()
    side = max(16, int(grid * config.scale ** 0.5 * 8))
    pattern = to_csr(stencil_2d(side, side))
    matrix = set_matrix_values(pattern, continuous_values(pattern.nnz, seed))
    rng = np.random.default_rng(seed)
    scrambled = apply_symmetric_permutation(
        matrix, rng.permutation(matrix.nrows).astype(np.int64)
    )
    reordered, _ = rcm_reorder(scrambled)
    rows = []
    for label, m in (("scrambled", scrambled), ("rcm", reordered)):
        du = convert(m, "csr-du")
        rows.append(
            AblationRow(
                matrix_id=side,  # labeled by grid side
                label=f"csr-du/{label}",
                index_bytes=du.storage().index_bytes,
                total_bytes=du.storage().total_bytes,
                time_8t=simulate_spmv(du, 8, machine, cost_model=config.cost_model).time_s,
                time_1t=simulate_spmv(du, 1, machine, cost_model=config.cost_model).time_s,
            )
        )
    return rows


@dataclass(frozen=True)
class CoreScalingPoint:
    """One cell of the future-core-scaling study (Section VII)."""

    matrix_id: int
    cores: int
    format_name: str
    speedup_vs_csr: float
    csr_time_s: float = 0.0
    time_s: float = 0.0


def future_core_scaling(
    config: ExperimentConfig | None = None,
    *,
    ids: tuple[int, ...] = (69, 85),
    core_counts: tuple[int, ...] = (2, 4, 8, 16, 32),
) -> list[CoreScalingPoint]:
    """Section VII's prediction, tested: with more cores behind the same
    memory controller, the compressed formats' advantage over CSR grows.

    Machines come from :func:`repro.machine.topology.smp_machine` with
    the calibrated Clovertown bandwidths and memory controller held
    fixed.  Cores per die grow (the actual multicore trend) so the die
    count -- and with it the aggregate L2 -- plateaus at the
    Clovertown's four dies: the matrices stay memory bound and the
    study isolates *bandwidth sharing*, which is what Section VII is
    about.
    """
    from repro.machine.topology import smp_machine

    config = config or ExperimentConfig()
    points = []
    for mid in ids:
        matrix = realize(mid, scale=config.scale)
        converted = {
            fmt: convert(matrix, fmt) for fmt in ("csr", "csr-du", "csr-vi")
        }
        for cores in core_counts:
            machine = smp_machine(cores, cores_per_die=max(2, cores // 4))
            if config.scale != 1.0:
                machine = machine.scaled(config.scale)
            t_csr = simulate_spmv(
                converted["csr"], cores, machine, cost_model=config.cost_model
            ).time_s
            for fmt in ("csr-du", "csr-vi"):
                t = simulate_spmv(
                    converted[fmt], cores, machine, cost_model=config.cost_model
                ).time_s
                points.append(
                    CoreScalingPoint(
                        matrix_id=mid,
                        cores=cores,
                        format_name=fmt,
                        speedup_vs_csr=t_csr / t,
                        csr_time_s=t_csr,
                        time_s=t,
                    )
                )
    return points
