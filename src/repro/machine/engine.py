"""Execution-time engine: cache residency + bandwidth-contention makespan.

Two modeled stages sit between the exact per-thread byte counts of
:mod:`repro.machine.traffic` and a predicted SpMV time:

**Cache residency** (per L2 domain, i.e. per die).  The steady-state
iterative regime of the paper (128 back-to-back SpMVs, no cache
pollution) means whatever fits in a cache stays there across calls.
For each die we gather the arrays its threads touch -- each thread's
private streams plus the die-level union of shared arrays (x,
vals_unique) -- and allocate effective capacity greedily,
smallest-array-first (small arrays are the frequently-reused ones: x,
y, row_ptr, vals_unique).  Arrays that fit are fully resident; the
first array that does not fit gets partial residency
``(leftover / size) ** residency_exponent`` -- the exponent > 1
approximates cyclic-LRU thrashing, where streaming a working set
slightly larger than the cache yields almost no reuse; anything after
it gets none.  DRAM traffic per iteration is the non-resident
remainder.

**Makespan.**  With per-thread compute times ``C_i`` (from the cost
model), DRAM traffic ``M_i`` and L2-served bytes ``L_i``, the finish
time is bounded by every bandwidth domain::

    t_i = M_i / core_bw + L_i / l2_core_bw           (transfer time)
    T = max( max_i [ max(C_i, t_i) + (1 - overlap) * min(C_i, t_i) ],
             max_dies     sum_{i in die} M_i / die_bw,
             max_dies     sum_{i in die} L_i / l2_die_bw,
             max_packages sum_{i in pkg} M_i / fsb_bw,
             sum_i M_i / mem_bw )

The per-thread term interpolates between the additive latency-bound
model (``overlap = 0``; SpMV's dependent gathers give one thread little
memory parallelism) and perfect pipelining (``overlap = 1``); the
domain terms assume full overlap because a saturated shared bus is
always busy.  Each term is a physical lower bound; taking their maximum
is the standard fluid (water-filling) approximation and is exact when
one domain dominates -- precisely the regime the paper studies (FSB /
MCH saturation).  The shared ``x`` footprint is inflated by the
machine's ``x_reload`` factor before allocation (gathers re-fetch lines
evicted mid-iteration).  The returned :class:`SimResult` names the
binding term so the benchmarks can report *why* a configuration is as
fast as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineModelError
from repro.machine.costmodel import CostModel
from repro.machine.topology import MachineSpec
from repro.machine.traffic import ThreadWork


@dataclass(frozen=True)
class SimResult:
    """Predicted execution of one SpMV iteration.

    Attributes
    ----------
    time_s:
        Seconds per SpMV call (steady state).
    mflops:
        Useful MFLOPS (2 flops per stored nonzero) at that time.
    bound:
        The binding constraint: ``"compute"``, ``"core-bw"`` (the
        per-thread compute+transfer term), ``"die-bw"``, ``"l2-bw"``,
        ``"fsb"``, or ``"mem"``.
    compute_s:
        Per-thread compute seconds.
    traffic_bytes:
        Per-thread DRAM traffic per iteration (post-residency).
    resident_fraction:
        Fraction of the total touched working set resident in cache.
    works:
        The per-thread traffic census the prediction was solved from
        (pre-residency), so callers fold bytes without re-analysing.
    """

    time_s: float
    mflops: float
    bound: str
    compute_s: tuple[float, ...]
    traffic_bytes: tuple[float, ...]
    resident_fraction: float
    works: tuple[ThreadWork, ...]

    @property
    def total_traffic(self) -> float:
        return float(sum(self.traffic_bytes))


def _thread_cycles(work: ThreadWork, cost: CostModel) -> float:
    """Dispatch the cost model on the work's format."""
    fmt = work.format_name
    if fmt == "csr":
        return cost.csr(work.nnz, work.rows_nonempty).total
    if fmt == "csr-du":
        return cost.csr_du(
            work.nnz, work.rows_nonempty, work.units, work.seq_elements
        ).total
    if fmt == "csr-vi":
        return cost.csr_vi(work.nnz, work.rows_nonempty).total
    if fmt == "csr-du-vi":
        return cost.csr_du_vi(
            work.nnz, work.rows_nonempty, work.units, work.seq_elements
        ).total
    if fmt == "dcsr":
        return cost.dcsr(work.nnz, work.rows_nonempty, work.commands).total
    raise MachineModelError(f"no cost model for format {fmt!r}")


def _die_residency(
    works: list[ThreadWork],
    die_threads: list[int],
    machine: MachineSpec,
    total_shared: dict[str, int],
) -> tuple[dict[tuple, float], float, float]:
    """Allocate one die's L2 across the arrays its threads touch.

    Returns ``(residency, touched_bytes, resident_bytes)`` where
    *residency* maps item keys -- ``("private", thread, name)`` or
    ``("shared", name)`` -- to resident fractions in [0, 1].
    """
    items: list[tuple[tuple, int]] = []
    for t in die_threads:
        for name, nbytes in works[t].private_bytes.items():
            if nbytes > 0:
                items.append((("private", t, name), nbytes))
    shared_names = set()
    for t in die_threads:
        shared_names.update(works[t].shared_bytes)
    for name in sorted(shared_names):
        per_thread = sum(works[t].shared_bytes.get(name, 0) for t in die_threads)
        union = min(per_thread, total_shared.get(name, per_thread))
        if name == "x":
            union = int(union * machine.x_reload)
        if union > 0:
            items.append((("shared", name), union))
    items.sort(key=lambda kv: kv[1])
    capacity = machine.cache_effectiveness * machine.l2_bytes
    residency: dict[tuple, float] = {}
    used = 0.0
    touched = float(sum(b for _, b in items))
    resident = 0.0
    exhausted = False
    for key, nbytes in items:
        if exhausted:
            residency[key] = 0.0
            continue
        if used + nbytes <= capacity:
            residency[key] = 1.0
            used += nbytes
            resident += nbytes
        else:
            leftover = max(0.0, capacity - used)
            frac = (leftover / nbytes) ** machine.residency_exponent
            residency[key] = frac
            resident += frac * nbytes
            exhausted = True
    return residency, touched, resident


def solve_makespan(
    works: list[ThreadWork],
    cores: tuple[int, ...],
    machine: MachineSpec,
    cost: CostModel,
    *,
    total_shared: dict[str, int] | None = None,
) -> SimResult:
    """Predict one SpMV iteration's time for *works* placed on *cores*.

    ``total_shared`` caps the die-level union of shared arrays (e.g.
    ``{"x": ncols * 8}``); without it the union is the sum of
    per-thread footprints.
    """
    if len(works) != len(cores):
        raise MachineModelError(
            f"{len(works)} threads but {len(cores)} core assignments"
        )
    if len(set(cores)) != len(cores):
        raise MachineModelError("threads must map to distinct cores")
    total_shared = dict(total_shared or {})
    core_info = {c.core_id: c for c in machine.cores}
    for c in cores:
        if c not in core_info:
            raise MachineModelError(f"core {c} not in machine {machine.name}")

    # --- group threads by die ------------------------------------------
    die_threads: dict[int, list[int]] = {}
    for t, core_id in enumerate(cores):
        die_threads.setdefault(core_info[core_id].die_id, []).append(t)

    n = len(works)
    traffic = np.zeros(n, dtype=np.float64)
    l2_served = np.zeros(n, dtype=np.float64)
    touched_total = 0.0
    resident_total = 0.0
    for die, threads in die_threads.items():
        residency, touched, resident = _die_residency(
            works, threads, machine, total_shared
        )
        touched_total += touched
        resident_total += resident
        for t in threads:
            for name, nbytes in works[t].private_bytes.items():
                if nbytes > 0:
                    res = residency[("private", t, name)]
                    traffic[t] += (1.0 - res) * nbytes
                    l2_served[t] += res * nbytes
        # Shared arrays: die-level traffic split by footprint share.
        for name in {k[1] for k in residency if k[0] == "shared"}:
            per_thread = np.array(
                [works[t].shared_bytes.get(name, 0) for t in threads], dtype=float
            )
            total = per_thread.sum()
            if total <= 0:
                continue
            union = min(total, total_shared.get(name, total))
            if name == "x":
                union = union * machine.x_reload
            res = residency[("shared", name)]
            die_traffic = (1.0 - res) * union
            die_l2 = res * union
            traffic[np.asarray(threads)] += die_traffic * per_thread / total
            l2_served[np.asarray(threads)] += die_l2 * per_thread / total

    # --- makespan terms ---------------------------------------------------
    compute_s = np.array(
        [_thread_cycles(w, cost) / machine.clock_hz for w in works]
    )
    core_terms = traffic / machine.core_bw + l2_served / machine.l2_core_bw
    # Per-thread time: partial compute/transfer overlap (overlap=0 is
    # the additive latency-bound model; overlap=1 perfect pipelining).
    per_thread = np.maximum(compute_s, core_terms) + (1.0 - machine.overlap) * (
        np.minimum(compute_s, core_terms)
    )
    candidates = {
        "compute": float(compute_s.max()),
        "core-bw": float(per_thread.max()),
    }

    die_traffic: dict[int, float] = {}
    package_traffic: dict[int, float] = {}
    for t, core_id in enumerate(cores):
        die = core_info[core_id].die_id
        pkg = core_info[core_id].package_id
        die_traffic[die] = die_traffic.get(die, 0.0) + float(traffic[t])
        package_traffic[pkg] = package_traffic.get(pkg, 0.0) + float(traffic[t])
    candidates["die-bw"] = max(
        (v / machine.die_bw for v in die_traffic.values()), default=0.0
    )
    die_l2: dict[int, float] = {}
    for t, core_id in enumerate(cores):
        die = core_info[core_id].die_id
        die_l2[die] = die_l2.get(die, 0.0) + float(l2_served[t])
    candidates["l2-bw"] = max(
        (v / machine.l2_die_bw for v in die_l2.values()), default=0.0
    )
    candidates["fsb"] = max(
        (v / machine.fsb_bw for v in package_traffic.values()), default=0.0
    )
    candidates["mem"] = float(traffic.sum()) / machine.mem_bw

    time_s = max(
        float(per_thread.max()),
        candidates["die-bw"],
        candidates["l2-bw"],
        candidates["fsb"],
        candidates["mem"],
    )
    bound = max(candidates, key=lambda k: candidates[k])
    flops = sum(w.flops for w in works)
    mflops = flops / time_s / 1e6 if time_s > 0 else float("inf")
    return SimResult(
        time_s=time_s,
        mflops=mflops,
        bound=bound,
        compute_s=tuple(compute_s.tolist()),
        traffic_bytes=tuple(traffic.tolist()),
        resident_fraction=(resident_total / touched_total if touched_total else 1.0),
        works=tuple(works),
    )
