"""Machine model: topology, caches, bandwidth domains, cost model, engine.

This package is the substitution for the paper's 2x Clovertown testbed
(see DESIGN.md section 3): it predicts SpMV execution time for a given
(matrix, format, thread placement) from the format's exact byte layout,
a calibrated per-format instruction cost model, and a fluid
bandwidth-contention solver over the machine's bandwidth domains.
"""

from repro.machine.topology import (
    Core,
    MachineSpec,
    clovertown_8core,
    place_threads,
    smp_machine,
)
from repro.machine.cache import LRUCache
from repro.machine.costmodel import CostModel, KernelCost, default_cost_model
from repro.machine.traffic import ThreadWork, analyze_threads
from repro.machine.engine import SimResult, solve_makespan
from repro.machine.simulate import simulate_spmv
from repro.machine.tracesim import TraceResult, format_trace, run_trace

__all__ = [
    "Core",
    "MachineSpec",
    "clovertown_8core",
    "smp_machine",
    "place_threads",
    "LRUCache",
    "CostModel",
    "KernelCost",
    "default_cost_model",
    "ThreadWork",
    "analyze_threads",
    "SimResult",
    "solve_makespan",
    "simulate_spmv",
    "TraceResult",
    "format_trace",
    "run_trace",
]
