"""High-level simulation entry point: matrix + threads -> predicted time.

This is what the benchmark harness calls for every (matrix, format,
thread count, placement) cell of the paper's tables:

>>> from repro.machine.topology import clovertown_8core         # doctest: +SKIP
>>> res = simulate_spmv(matrix, threads=8, machine=clovertown_8core())
>>> res.mflops, res.bound                                       # doctest: +SKIP
"""

from __future__ import annotations

from repro.formats.base import SparseMatrix
from repro.machine.costmodel import CostModel, default_cost_model
from repro.machine.engine import SimResult, solve_makespan
from repro.machine.topology import MachineSpec, clovertown_8core, place_threads
from repro.machine.traffic import VALUE_SIZE, analyze_threads
from repro.telemetry import core as telemetry
from repro.telemetry.metrics import record_sim_result


def simulate_spmv(
    matrix: SparseMatrix,
    threads: int = 1,
    machine: MachineSpec | None = None,
    *,
    placement: str = "close",
    cost_model: CostModel | None = None,
) -> SimResult:
    """Predict one steady-state SpMV iteration on the machine model.

    Parameters
    ----------
    matrix:
        Matrix in any supported format (the format determines both the
        byte traffic and the kernel cost).
    threads:
        Thread count; threads are placed on cores with *placement*
        (``"close"`` / ``"spread"``, Section VI-A semantics).
    machine:
        Machine model; defaults to the paper's 8-core Clovertown.
    cost_model:
        Calibrated kernel costs; defaults to
        :func:`~repro.machine.costmodel.default_cost_model`.
    """
    machine = machine or clovertown_8core()
    cost_model = cost_model or default_cost_model()
    with telemetry.span(
        "sim.spmv", format=matrix.name, threads=threads, placement=placement
    ):
        cores = place_threads(machine, threads, placement)
        _, works = analyze_threads(matrix, threads)
        total_shared = {
            "x": matrix.ncols * VALUE_SIZE,
        }
        # vals_unique is the same physical array for every thread.
        for w in works:
            if "vals_unique" in w.shared_bytes:
                total_shared["vals_unique"] = w.shared_bytes["vals_unique"]
                break
        result = solve_makespan(
            works, cores, machine, cost_model, total_shared=total_shared
        )
    if telemetry.enabled():
        record_sim_result(
            format_name=matrix.name,
            threads=threads,
            placement=placement,
            bound=result.bound,
            dram_bytes=result.total_traffic,
            resident_fraction=result.resident_fraction,
        )
    return result
