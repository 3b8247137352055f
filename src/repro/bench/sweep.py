"""Sensitivity sweeps: where do the paper's conclusions hold?

The paper argues compression pays *because* memory bandwidth is the
bottleneck, and predicts the trade grows more favorable as core counts
rise (Section VII).  These sweeps make that argument quantitative on
the machine model:

* :func:`bandwidth_sweep` -- scale the memory-system bandwidth and
  watch the CSR-DU/CSR-VI advantage appear (bandwidth-starved) or
  vanish (bandwidth-rich): the compression *crossover*;
* :func:`cache_sweep` -- scale the L2 capacity and watch a matrix
  migrate between the ML (streaming) and MS (resident) regimes, the
  boundary the paper draws at 4xL2 + 1 MB.

Each returns plain rows ready for the report/CSV layer.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.formats.base import SparseMatrix
from repro.formats.conversions import convert
from repro.machine.costmodel import CostModel, default_cost_model
from repro.machine.simulate import simulate_spmv
from repro.machine.topology import MachineSpec, clovertown_8core


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep grid."""

    knob: str
    knob_value: float
    format_name: str
    threads: int
    time_s: float
    mflops: float
    bound: str


def _scale_bandwidth(machine: MachineSpec, factor: float) -> MachineSpec:
    return dataclasses.replace(
        machine,
        core_bw=machine.core_bw * factor,
        die_bw=machine.die_bw * factor,
        fsb_bw=machine.fsb_bw * factor,
        mem_bw=machine.mem_bw * factor,
    )


def bandwidth_sweep(
    matrix: SparseMatrix,
    *,
    factors: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    formats: tuple[str, ...] = ("csr", "csr-du", "csr-vi"),
    threads: int = 8,
    machine: MachineSpec | None = None,
    cost_model: CostModel | None = None,
) -> list[SweepPoint]:
    """Sweep DRAM-path bandwidth; compression wins shrink as it grows."""
    machine = machine or clovertown_8core()
    cost_model = cost_model or default_cost_model()
    converted = {fmt: convert(matrix, fmt) for fmt in formats}
    points = []
    for factor in factors:
        m = _scale_bandwidth(machine, factor)
        for fmt in formats:
            res = simulate_spmv(
                converted[fmt], threads, m, cost_model=cost_model
            )
            points.append(
                SweepPoint(
                    knob="bandwidth",
                    knob_value=factor,
                    format_name=fmt,
                    threads=threads,
                    time_s=res.time_s,
                    mflops=res.mflops,
                    bound=res.bound,
                )
            )
    return points


def cache_sweep(
    matrix: SparseMatrix,
    *,
    factors: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    format_name: str = "csr",
    threads: int = 8,
    machine: MachineSpec | None = None,
    cost_model: CostModel | None = None,
) -> list[SweepPoint]:
    """Sweep L2 capacity; the MS/ML regime boundary moves with it."""
    machine = machine or clovertown_8core()
    cost_model = cost_model or default_cost_model()
    converted = convert(matrix, format_name)
    points = []
    for factor in factors:
        m = dataclasses.replace(
            machine,
            l2_bytes=max(1, int(machine.l2_bytes * factor)),
            name=f"{machine.name}-l2x{factor:g}",
        )
        res = simulate_spmv(converted, threads, m, cost_model=cost_model)
        points.append(
            SweepPoint(
                knob="l2_capacity",
                knob_value=factor,
                format_name=format_name,
                threads=threads,
                time_s=res.time_s,
                mflops=res.mflops,
                bound=res.bound,
            )
        )
    return points


def format_sweep_table(points: list[SweepPoint]) -> str:
    """Aligned text rendering of any sweep's points."""
    lines = [
        f"{'knob':<14} {'value':>8} {'format':>10} {'thr':>4} "
        f"{'time':>12} {'MFLOPS':>9} bound"
    ]
    for p in points:
        lines.append(
            f"{p.knob:<14} {p.knob_value:>8.3g} {p.format_name:>10} "
            f"{p.threads:>4} {p.time_s:>12.4e} {p.mflops:>9.1f} {p.bound}"
        )
    return "\n".join(lines)
