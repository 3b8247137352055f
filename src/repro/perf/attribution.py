"""The :class:`Attribution` record: why a measured cell is what it is.

One record per ``(matrix, format, threads, placement)`` bench cell,
combining

* the exact byte stream (:mod:`repro.perf.bytes`) -> FLOP:byte ratio
  and effective GB/s at the cell's measured/predicted time;
* the machine model's roofline (:func:`machine_peak_flops` over the
  domain bandwidth) -> attainable MFLOPS and %-of-roofline, with the
  binding constraint;
* partitioner balance -> static nnz max/mean plus the model's
  per-thread compute-time max/mean;
* compression accounting -> size ratio vs CSR and speedup vs CSR at
  the same configuration (filled by the harness when both ran);
* kernel-plan cache hit/miss counts, read from the active telemetry
  collector when one is installed.

:func:`attribute_cell` is what the bench harness calls;
:func:`record` re-emits a built record as a ``perf.attribution``
telemetry event so traces and the HTML dashboard see the same numbers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

from repro.formats.base import SparseMatrix, Storage
from repro.machine.costmodel import CostModel
from repro.machine.engine import SimResult
from repro.machine.topology import MachineSpec
from repro.perf.bytes import ByteBreakdown, bytes_per_iteration
from repro.telemetry import core as telemetry
from repro.telemetry.metrics import record_attribution


@dataclass(frozen=True)
class Attribution:
    """Performance attribution for one measured bench cell.

    ``bytes_per_iter`` is the exact streamed byte count (pre-residency,
    from the format's layout); ``dram_bytes`` the machine model's
    post-residency DRAM traffic.
    ``roofline_pct`` is achieved MFLOPS as a percentage of the
    roofline ceiling ``min(peak, bandwidth * intensity)``.
    """

    matrix_id: int
    format_name: str
    threads: int
    placement: str
    clock: str
    time_s: float
    mflops: float
    flops: int
    bytes_per_iter: int
    index_bytes: int
    value_bytes: int
    vector_bytes: int
    flops_per_byte: float
    effective_gbps: float
    dram_bytes: float
    attainable_mflops: float
    roofline_pct: float
    memory_bound: bool
    bound: str
    nnz_imbalance: float
    time_imbalance: float
    compression_ratio: float
    speedup_vs_csr: float = 0.0
    plan_hits: int = 0
    plan_misses: int = 0
    #: One-time setup cost of the cell: conversion (encode) plus kernel
    #: plan build, in seconds.  0.0 when the encode was a cache hit.
    setup_s: float = 0.0

    @property
    def plan_hit_rate(self) -> float:
        """Fraction of kernel-plan lookups served from the cache."""
        lookups = self.plan_hits + self.plan_misses
        return self.plan_hits / lookups if lookups else 0.0

    def with_speedup(self, csr_time_s: float) -> "Attribution":
        """A copy with ``speedup_vs_csr`` filled from the CSR baseline."""
        if csr_time_s <= 0 or self.time_s <= 0:
            return self
        return dataclasses.replace(self, speedup_vs_csr=csr_time_s / self.time_s)


def machine_peak_flops(
    machine: MachineSpec, threads: int, cost: CostModel
) -> float:
    """Peak useful flop rate: the cost model's 2 flops per
    ``per_element`` cycles, across *threads* cores."""
    return threads * machine.clock_hz * 2.0 / cost.per_element


def _plan_counters(format_name: str) -> tuple[int, int]:
    """(hits, misses) of the plan cache for *format_name*, if traced."""
    c = telemetry.get_collector()
    if c is None:
        return 0, 0
    labels = {"format": format_name}
    hits = c.counters.get(telemetry.metric_key("plan.hit", labels), 0.0)
    misses = c.counters.get(telemetry.metric_key("plan.miss", labels), 0.0)
    return int(hits), int(misses)


def attribute_cell(
    matrix: SparseMatrix,
    *,
    threads: int,
    placement: str,
    time_s: float,
    machine: MachineSpec,
    cost_model: CostModel,
    sim: SimResult,
    matrix_id: int = -1,
    csr_storage: Storage | None = None,
    breakdown: ByteBreakdown | None = None,
    setup_s: float = 0.0,
) -> Attribution:
    """Build the attribution record for one measured cell.

    ``sim`` supplies the model clock's DRAM traffic, binding constraint
    and per-thread compute times.  ``breakdown`` lets callers measuring
    the same matrix at several placements reuse one byte census.
    ``setup_s`` is the cell's one-time preprocessing cost (encode +
    plan build) as the harness measured it.
    """
    bd = breakdown if breakdown is not None else bytes_per_iteration(matrix, threads)
    flops = bd.flops
    mflops = flops / time_s / 1e6 if time_s > 0 else 0.0
    effective_gbps = bd.total_bytes / time_s / 1e9 if time_s > 0 else 0.0

    dram_bytes = float(sim.total_traffic)
    compute = sim.compute_s
    mean_c = sum(compute) / len(compute) if compute else 0.0
    time_imbalance = max(compute) / mean_c if mean_c > 0 else 1.0

    # Roofline ceiling at this thread count: the model's DRAM traffic
    # sets the intensity (zero means cache-resident, so the ceiling is
    # compute peak).
    peak = machine_peak_flops(machine, threads, cost_model)
    bandwidth = min(machine.mem_bw, threads * machine.core_bw)
    intensity = flops / dram_bytes if dram_bytes > 0 else float("inf")
    ridge = peak / bandwidth
    attainable = min(peak, bandwidth * intensity)
    attainable_mflops = attainable / 1e6
    roofline_pct = 100.0 * mflops / attainable_mflops if attainable_mflops > 0 else 0.0

    storage = matrix.storage()
    compression_ratio = (
        storage.ratio_to(csr_storage) if csr_storage is not None else 1.0
    )
    hits, misses = _plan_counters(matrix.name)
    return Attribution(
        matrix_id=matrix_id,
        format_name=matrix.name,
        threads=threads,
        placement=placement,
        clock="model",
        time_s=time_s,
        mflops=mflops,
        flops=flops,
        bytes_per_iter=bd.total_bytes,
        index_bytes=bd.index_bytes,
        value_bytes=bd.value_bytes,
        vector_bytes=bd.vector_bytes,
        flops_per_byte=bd.flops_per_byte,
        effective_gbps=effective_gbps,
        dram_bytes=dram_bytes,
        attainable_mflops=attainable_mflops,
        roofline_pct=roofline_pct,
        memory_bound=intensity < ridge,
        bound=sim.bound,
        nnz_imbalance=bd.nnz_imbalance,
        time_imbalance=time_imbalance,
        compression_ratio=compression_ratio,
        plan_hits=hits,
        plan_misses=misses,
        setup_s=setup_s,
    )


def record(att: Attribution) -> None:
    """Emit *att* as a ``perf.attribution`` telemetry event (if tracing).

    The event additionally carries the host fingerprint (cpus,
    platform, advisor-calibration id) so wall-clock records are
    self-describing about where they were measured; the frozen
    :class:`Attribution` itself stays host-free (it round-trips
    through checkpoints whose byte-identity must not depend on the
    machine reading them back).
    """
    from repro.util.hostinfo import host_fingerprint

    host = host_fingerprint()
    record_attribution(
        matrix_id=att.matrix_id,
        format_name=att.format_name,
        threads=att.threads,
        placement=att.placement,
        time_s=att.time_s,
        mflops=att.mflops,
        bytes_per_iter=att.bytes_per_iter,
        index_bytes=att.index_bytes,
        value_bytes=att.value_bytes,
        vector_bytes=att.vector_bytes,
        flops_per_byte=att.flops_per_byte,
        effective_gbps=att.effective_gbps,
        dram_bytes=att.dram_bytes,
        attainable_mflops=att.attainable_mflops,
        roofline_pct=att.roofline_pct,
        bound=att.bound,
        nnz_imbalance=att.nnz_imbalance,
        time_imbalance=att.time_imbalance,
        compression_ratio=att.compression_ratio,
        speedup_vs_csr=att.speedup_vs_csr,
        plan_hits=att.plan_hits,
        plan_misses=att.plan_misses,
        setup_s=att.setup_s,
        host_cpus=host["cpus"],
        host_platform=host["platform"],
        host_calibration=host["calibration_id"] or "",
    )


def compression_speedup_correlation(
    points: Sequence[tuple[float, float]],
) -> float:
    """Pearson correlation between size reduction and speedup.

    *points* are ``(size_reduction, speedup_vs_csr)`` pairs -- the
    paper's core claim is that this correlation is positive (smaller
    streams run faster once bandwidth binds).  Returns 0.0 when fewer
    than two points or either series is constant.
    """
    pts = [(float(a), float(b)) for a, b in points]
    n = len(pts)
    if n < 2:
        return 0.0
    mean_a = sum(a for a, _ in pts) / n
    mean_b = sum(b for _, b in pts) / n
    cov = sum((a - mean_a) * (b - mean_b) for a, b in pts)
    var_a = sum((a - mean_a) ** 2 for a, _ in pts)
    var_b = sum((b - mean_b) ** 2 for _, b in pts)
    if var_a <= 0 or var_b <= 0:
        return 0.0
    return cov / math.sqrt(var_a * var_b)
