"""Candidate scoring: features -> predicted seconds per configuration.

Two prediction regimes share one entry point (:func:`predict`):

* **Analytic** (always available): per-format streamed bytes are
  estimated from :class:`~repro.perf.advisor.features.MatrixFeatures`
  alone -- the same layout arithmetic :mod:`repro.perf.bytes` performs
  on a *converted* matrix, re-derived from the delta-width histogram
  and unique-value count so no conversion is needed -- and kernel
  cycles come from the calibrated
  :class:`~repro.machine.costmodel.CostModel`.  The score is a
  roofline: ``max(bytes / bandwidth(threads), cycles / (threads *
  clock))`` plus a fixed per-call overhead.  This is the machine-model
  regime; it is what ``clock="model"`` benches rank with.

* **Calibrated** (preferred under the real clock, graceful fallback
  when absent): a :class:`Calibration` measured on the current host
  (``tools/calibrate.py --advisor-out``) stores per-format ns/nnz
  throughputs of the format's own ``spmv`` plus per-call and
  per-worker dispatch overheads.  Wall-clock on this pure-Python stack
  is dominated by interpreter and NumPy dispatch costs the machine
  model does not see, so measured throughput is the only honest
  real-clock predictor.  The thread backend's multi-worker cells are
  modeled as *undivided* serial work plus dispatch (the GIL), the process
  backend's as work divided over ``min(threads, host cpus)`` plus IPC
  overhead -- both shapes verified by ``BENCH_parallel.json``.

Every candidate runs the format's own ``spmv`` (the ``"cached"``
kernel tier); the other registered tier, ``"reference"``, is the
paper's pure-Python listing and never a performance choice, so the
search space has no kernel axis.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.compress.unique import index_dtype_for
from repro.errors import ReproError
from repro.machine.costmodel import CostModel, default_cost_model
from repro.machine.topology import MachineSpec, clovertown_8core
from repro.perf.advisor.features import MatrixFeatures
from repro.util import hostinfo

__all__ = [
    "ADVISOR_FORMATS",
    "Calibration",
    "CandidateConfig",
    "Prediction",
    "candidate_configs",
    "estimate_bytes",
    "load_calibration",
    "measure_calibration",
    "predict",
    "save_calibration",
]

#: Formats the advisor ranks: the paper's compression lattice.
ADVISOR_FORMATS = ("csr", "csr-vi", "csr-du", "csr-du-vi")

#: Analytic per-call overhead (Python call + argument checks).
ANALYTIC_CALL_OVERHEAD_S = 5e-6

#: Uncalibrated executor dispatch estimates (seconds per call): the
#: thread pool's per-worker wake/join, and the process pool's IPC.
THREAD_DISPATCH_S = 2e-4
PROCESS_DISPATCH_S = 2e-3

_VALUE_BYTES = 8
_INDEX_BYTES = 4
_CTL_HEADER_BYTES = 4  # flags + usize + ~2-byte ujmp varint, per unit
_CLASS_BYTES = (1, 2, 4, 8)


@dataclass(frozen=True)
class CandidateConfig:
    """One point of the advisor's search space (frozen, hashable)."""

    format_name: str
    threads: int = 1
    backend: str = "thread"

    def describe(self) -> str:
        return f"{self.format_name} x{self.threads} {self.backend}"


@dataclass(frozen=True)
class Prediction:
    """A scored candidate: predicted seconds plus provenance.

    ``source`` is ``"analytic"`` (machine model),
    ``"calibrated"`` (host-measured throughputs), or ``"history"``
    (a real :class:`~repro.perf.attribution.Attribution` measurement
    folded over the prior by the advisor).
    """

    config: CandidateConfig
    seconds: float
    source: str
    bytes_est: int = 0


def estimate_bytes(
    features: MatrixFeatures, format_name: str
) -> tuple[int, int, int]:
    """Estimated (index, value, vector) bytes streamed per iteration.

    Mirrors the exact per-format census of :mod:`repro.perf.bytes`
    from features alone: CSR-DU's ctl stream is rebuilt from the
    delta-width histogram and the estimated unit count (each unit's
    first delta rides in its ujmp varint, hence the subtraction),
    CSR-VI's value stream from the unique count and the paper's
    narrowest-index rule.  Vector traffic is one x read plus one y
    write.
    """
    nnz, nrows, ncols = features.nnz, features.nrows, features.ncols
    csr_index = _INDEX_BYTES * nnz + _INDEX_BYTES * (nrows + 1)
    csr_value = _VALUE_BYTES * nnz
    vector = _VALUE_BYTES * (ncols + nrows)
    if format_name == "csr":
        return csr_index, csr_value, vector
    if format_name == "csr-vi":
        width = index_dtype_for(features.unique_values).itemsize
        value = _VALUE_BYTES * features.unique_values + width * nnz
        return csr_index, value, vector
    if format_name in ("csr-du", "csr-du-vi"):
        body = sum(
            count * size
            for count, size in zip(features.delta_hist, _CLASS_BYTES)
        )
        ctl = _CTL_HEADER_BYTES * features.units_est + max(
            0, body - features.units_est
        )
        if format_name == "csr-du":
            return ctl, csr_value, vector
        width = index_dtype_for(features.unique_values).itemsize
        value = _VALUE_BYTES * features.unique_values + width * nnz
        return ctl, value, vector
    raise ReproError(
        f"advisor cannot estimate bytes for format {format_name!r}; "
        f"supported: {ADVISOR_FORMATS}"
    )


def candidate_configs(
    *,
    formats: tuple[str, ...] = ADVISOR_FORMATS,
    threads: tuple[int, ...] = (1,),
    backends: tuple[str, ...] = ("thread",),
) -> tuple[CandidateConfig, ...]:
    """The cross product of formats, backends and thread counts."""
    out = tuple(
        CandidateConfig(format_name=fmt, threads=t, backend=backend)
        for fmt in formats
        for backend in backends
        for t in threads
    )
    if not out:
        raise ReproError("no candidate configurations to rank")
    return out


# ---------------------------------------------------------------------------
# Calibration


@dataclass
class Calibration:
    """Host-measured throughputs (see module docstring).

    ``ns_per_nnz`` maps a format name to nanoseconds per nonzero;
    ``per_call_s`` is the fixed kernel-call overhead and
    ``thread_call_overhead_s`` / ``process_call_overhead_s`` the
    per-worker dispatch costs of one executor call.  ``host`` records
    where the numbers were measured (they do not transfer between
    machines; the id makes that checkable).
    """

    ns_per_nnz: dict[str, float] = field(default_factory=dict)
    per_call_s: float = 0.0
    thread_call_overhead_s: float = THREAD_DISPATCH_S
    process_call_overhead_s: float = PROCESS_DISPATCH_S
    host: dict = field(default_factory=dict)
    version: int = 2

    @property
    def calibration_id(self) -> str:
        payload = json.dumps(
            {
                "ns_per_nnz": {
                    k: round(v, 4) for k, v in sorted(self.ns_per_nnz.items())
                },
                "per_call_s": round(self.per_call_s, 9),
                "thread_call_overhead_s": round(self.thread_call_overhead_s, 9),
                "process_call_overhead_s": round(
                    self.process_call_overhead_s, 9
                ),
                "version": self.version,
            },
            sort_keys=True,
        )
        return hashlib.sha1(payload.encode("ascii")).hexdigest()[:12]

    def lookup(self, format_name: str) -> float | None:
        return self.ns_per_nnz.get(format_name)

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "id": self.calibration_id,
            "host": self.host,
            "per_call_s": self.per_call_s,
            "thread_call_overhead_s": self.thread_call_overhead_s,
            "process_call_overhead_s": self.process_call_overhead_s,
            "ns_per_nnz": dict(sorted(self.ns_per_nnz.items())),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Calibration":
        return cls(
            ns_per_nnz={
                str(k): float(v)
                for k, v in dict(data.get("ns_per_nnz", {})).items()
            },
            per_call_s=float(data.get("per_call_s", 0.0)),
            thread_call_overhead_s=float(
                data.get("thread_call_overhead_s", THREAD_DISPATCH_S)
            ),
            process_call_overhead_s=float(
                data.get("process_call_overhead_s", PROCESS_DISPATCH_S)
            ),
            host=dict(data.get("host", {})),
            version=int(data.get("version", 1)),
        )


def save_calibration(cal: Calibration, path: str | None = None) -> str:
    """Write *cal* where :func:`load_calibration` will find it."""
    target = hostinfo.calibration_path(path)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(cal.to_json(), fh, indent=2)
        fh.write("\n")
    return target


def load_calibration(path: str | None = None) -> Calibration | None:
    """Load the calibration in effect, or ``None`` (graceful fallback).

    Resolution order matches :func:`repro.util.hostinfo
    .calibration_path`: explicit path, then the
    ``REPRO_ADVISOR_CALIBRATION`` environment variable, then
    ``advisor_calibration.json`` in the working directory.  Any read
    or parse failure means "no calibration" -- the advisor's analytic
    prior takes over rather than the caller crashing.
    """
    try:
        with open(hostinfo.calibration_path(path), "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            return None
        return Calibration.from_json(data)
    except (OSError, ValueError, TypeError):
        return None


def measure_calibration(
    *, probe_size: int = 20_000, calls: int = 8, repeats: int = 3
) -> Calibration:
    """Measure per-format ``spmv`` throughputs on this host.

    Two probes: a banded random matrix with quantized values (so the
    VI formats compress representatively) sized to dominate per-call
    overhead, and a tiny band whose runtime *is* mostly overhead --
    a two-point fit separates ``per_call_s`` from the slope.  The
    thread-dispatch overhead comes from a 2-worker executor on the
    same probe.  Structure dependence (a power-law matrix decodes
    slower per nnz than a band) is deliberately averaged away: the
    advisor needs stable *ordering* across formats, which one probe
    preserves (DESIGN.md section 4.8).
    """
    import numpy as np

    from repro.formats.conversions import convert
    from repro.formats.csr import CSRMatrix
    from repro.matrices.generators import banded_random, dense_band
    from repro.matrices.values import quantized_values, set_matrix_values
    from repro.util.timing import measure

    probe = CSRMatrix.from_coo(banded_random(probe_size, 16, 8, seed=3))
    probe = set_matrix_values(
        probe, quantized_values(probe.nnz, 512, seed=3)
    )
    tiny = CSRMatrix.from_coo(dense_band(96, 2))
    rng = np.random.default_rng(0)
    x_probe = rng.random(probe.ncols)
    x_tiny = rng.random(tiny.ncols)

    def timed(matrix, fmt, x):
        converted = convert(matrix, fmt) if fmt != "csr" else matrix
        converted.spmv(x)  # warm decode caches / plans
        return measure(
            lambda: converted.spmv(x), calls=calls, repeats=repeats
        ).per_call

    t_probe_csr = timed(probe, "csr", x_probe)
    t_tiny_csr = timed(tiny, "csr", x_tiny)
    # Two-point fit: t = per_call + slope * nnz.
    denom = probe.nnz - tiny.nnz
    per_call = max(
        0.0, (t_tiny_csr * probe.nnz - t_probe_csr * tiny.nnz) / denom
    )

    ns_per_nnz: dict[str, float] = {}
    for fmt in ADVISOR_FORMATS:
        t = t_probe_csr if fmt == "csr" else timed(probe, fmt, x_probe)
        ns = max(0.01, (t - per_call) * 1e9 / probe.nnz)
        ns_per_nnz[fmt] = round(ns, 4)

    from repro.parallel.executor import ParallelSpMV

    executor = ParallelSpMV(probe, 2, format_name="csr")
    try:
        executor(x_probe)  # warm shard encodes
        t_exec = measure(
            lambda: executor(x_probe), calls=calls, repeats=repeats
        ).per_call
    finally:
        executor.close()
    thread_overhead = max(1e-6, (t_exec - t_probe_csr) / 2)

    cal = Calibration(
        ns_per_nnz=ns_per_nnz,
        per_call_s=per_call,
        thread_call_overhead_s=thread_overhead,
    )
    cal.host = hostinfo.host_fingerprint(calibration_id=cal.calibration_id)
    return cal


# ---------------------------------------------------------------------------
# Prediction


def _analytic_cycles(
    features: MatrixFeatures, config: CandidateConfig, cost_model: CostModel
) -> float:
    nnz, rows = features.nnz, features.nrows - features.empty_rows
    fmt = config.format_name
    if fmt == "csr":
        cost = cost_model.csr(nnz, rows)
    elif fmt == "csr-vi":
        cost = cost_model.csr_vi(nnz, rows)
    elif fmt == "csr-du":
        cost = cost_model.csr_du(nnz, rows, features.units_est)
    elif fmt == "csr-du-vi":
        cost = cost_model.csr_du_vi(nnz, rows, features.units_est)
    else:
        raise ReproError(f"advisor has no cycle model for {fmt!r}")
    return cost.total


def predict(
    features: MatrixFeatures,
    config: CandidateConfig,
    *,
    machine: MachineSpec | None = None,
    cost_model: CostModel | None = None,
    calibration: Calibration | None = None,
    clock: str = "real",
) -> Prediction:
    """Predicted seconds per SpMV call for one candidate.

    ``clock="model"`` always uses the analytic machine-model regime
    (that is what model-clock benches are ranked for); ``clock="real"``
    prefers *calibration* and falls back to the analytic regime when
    none is given.
    """
    machine = machine or clovertown_8core()
    cost_model = cost_model or default_cost_model()
    idx, val, vec = estimate_bytes(features, config.format_name)
    total_bytes = idx + val + vec

    ns = (
        calibration.lookup(config.format_name)
        if calibration is not None and clock == "real"
        else None
    )
    if ns is not None:
        work = ns * 1e-9 * features.nnz
        if config.threads <= 1:
            seconds = calibration.per_call_s + work
        elif config.backend == "thread":
            # The GIL serializes the chunks; dispatch is pure cost.
            seconds = (
                calibration.per_call_s
                + config.threads * calibration.thread_call_overhead_s
                + work
            )
        else:
            cpus = int(self_host_cpus(calibration))
            effective = max(1, min(config.threads, cpus))
            seconds = (
                calibration.per_call_s
                + config.threads * calibration.process_call_overhead_s
                + work / effective
            )
        return Prediction(
            config=config,
            seconds=seconds,
            source="calibrated",
            bytes_est=total_bytes,
        )

    cycles = _analytic_cycles(features, config, cost_model)
    bandwidth = min(machine.mem_bw, config.threads * machine.core_bw)
    if clock == "real" and config.threads > 1 and config.backend == "thread":
        # GIL: no compute-side division, plus dispatch.
        t_cpu = cycles / machine.clock_hz
        overhead = (
            ANALYTIC_CALL_OVERHEAD_S + config.threads * THREAD_DISPATCH_S
        )
        bandwidth = machine.core_bw
    else:
        t_cpu = cycles / (machine.clock_hz * config.threads)
        overhead = ANALYTIC_CALL_OVERHEAD_S
        if clock == "real" and config.backend == "process":
            overhead += config.threads * PROCESS_DISPATCH_S
    t_mem = total_bytes / bandwidth
    return Prediction(
        config=config,
        seconds=overhead + max(t_mem, t_cpu),
        source="analytic",
        bytes_est=total_bytes,
    )


def self_host_cpus(calibration: Calibration | None) -> int:
    """CPU count the prediction should divide by (calibrated host's)."""
    import os

    if calibration is not None and calibration.host.get("cpus"):
        return int(calibration.host["cpus"])
    return os.cpu_count() or 1
