"""One pass of an end-to-end workload, run in a fresh Python process.

``run.py`` starts this file once per pass with ``PYTHONPATH`` pointing
at the program's ``src/`` and one JSON argument::

    {"workload": "spmv-thread", "seed": 0, "traced": false, "setup_only": false,
     "smoke": false, "spans_path": null, "pass_index": 0}

The pass imports the program (timed as set-up), generates its inputs
(not timed), runs the fixed work of the workload (timed), checks every
output outside the timed region, and prints one JSON object as the last
line of its standard output.  With ``setup_only`` it stops after the
set-up and reports only ``setup_s``.  With ``traced`` the layer wrappers
of :data:`TRACE_TARGETS` are installed and the pass also reports
per-layer numbers (and appends its spans to ``spans_path`` when one is
given).

A fresh process per pass keeps passes independent: no encode cache,
kernel plan or warm pool survives from one pass into the next, so every
pass pays the program's real set-up.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import threading
import time
import traceback
from collections import defaultdict
from pathlib import Path

from spans import (
    CALL_ROOT,
    EXPERIMENT_ROOT,
    FORMATS,
    SETUP_ROOT,
    Recorder,
    Target,
    attach_orphans,
    install,
    layer_metrics,
    request_roots,
    self_times,
    wrapper_cost_s,
)

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: Model-clock workloads: experiments per pass and the matrices per set.
#: The scale is the paper pipeline's acceptance size (1/16 of the
#: paper's working sets, caches shrunk with them).
PAPER = {
    "paper-du": {"experiments": ("table3", "fig7"), "limit": 3, "smoke_limit": 1},
    "paper-vi": {"experiments": ("table2", "table4", "fig8"), "limit": 10, "smoke_limit": 2},
}
PAPER_SCALE, SMOKE_SCALE = 1 / 16, 1 / 64

#: Real-clock workloads: the executor backend each one drives.
SPMV = {"spmv-thread": "thread", "spmv-process": "process"}

WORKLOADS = tuple(PAPER) + tuple(SPMV)

WORKERS = 2  # executor workers: one per CPU of the 2-vCPU reference host
BLOCK = 25  # consecutive calls per executor before moving to the next
ROUNDS, SMOKE_ROUNDS = 14, 2  # round-robin rounds per pass
NVECTORS = 8  # seeded x vectors each executor cycles through
TTU = 40  # total-to-unique value ratio (CSR-VI applies above 5)
STENCIL_SIDE, SMOKE_STENCIL_SIDE = 224, 40
POWERLAW_N, SMOKE_POWERLAW_N = 48_000, 3_000
POWERLAW_DEGREE = 8


def _fmt_of_matrix(matrix, *_args) -> dict:
    return {"fmt": matrix.name}


#: Model-clock SpMV: the timed "call" of the paper workloads.
SIMULATE = Target(
    "repro.machine.simulate:simulate_spmv", "machine.simulate", _fmt_of_matrix
)

#: Every layer boundary the traced passes record, outside in.
TRACE_TARGETS = (
    Target("repro.parallel.backends:make_executor", "parallel.setup"),
    Target("repro.storage.shard:ShardStore.build", "storage.shard_build"),
    Target("repro.parallel.executor:ParallelSpMV.__call__", "parallel.call"),
    Target("repro.parallel.process_executor:ProcessParallelSpMV.__call__", "parallel.call"),
    Target("repro.formats.csr:CSRMatrix.spmv", "formats.chunk"),
    Target("repro.formats.csr_du:CSRDUMatrix.spmv", "formats.chunk"),
    Target("repro.formats.csr_vi:CSRVIMatrix.spmv", "formats.chunk"),
    Target("repro.formats.conversions:convert", "formats.convert"),
    Target("repro.kernels.plan:get_plan", "kernels.get_plan"),
    Target("repro.kernels.plan:CSRPlan.spmv", "kernels.plan"),
    Target("repro.kernels.plan:CSRDUPlan.spmv", "kernels.plan"),
    Target("repro.nputil.segops:SegmentedReducer.reduce", "nputil.reduce"),
    Target("repro.compress.encode_cache:ConvertCache.get_or_convert", "compress.convert_cache"),
    Target("repro.compress.unit_table:BatchedColumnDecoder.columns", "compress.decode"),
    Target("repro.compress.encode_batched:encode_ctl_batched", "compress.encode"),
    Target("repro.compress.unique:unique_index_values", "compress.encode"),
    Target("repro.compress.ctl:decode_units", "compress.decode_units"),
    Target("repro.matrices.collection:realize", "matrices.realize"),
    SIMULATE,
    Target("repro.machine.traffic:analyze_threads", "machine.analyze_threads"),
    Target("repro.machine.engine:solve_makespan", "machine.solve_makespan"),
    Target("repro.perf.attribution:attribute_cell", "perf.attribution"),
    Target("repro.perf.bytes:bytes_per_iteration", "perf.attribution"),
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Host noise
# ---------------------------------------------------------------------------


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``; (0, 0) if absent."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return fields[7], sum(fields)


def peak_rss_mb() -> float:
    """Max of this process's and its waited-for children's peak RSS, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class HostWindow:
    """A host-speed probe and the steal counter around the measured phase.

    The probe is a fixed NumPy gather-multiply-reduce.  Its buffers are
    allocated up front: a probe that allocated per call would time the
    allocator's page faults, which follow the process's heap history
    rather than the host.  Its time is a mean over a quarter second
    because the vCPUs of the 2-vCPU reference host (see README.md) flip
    between a fast and a slow state (~1.5 vs ~2.2 ms for this probe)
    several times a second; a shorter window samples one state, not the
    host.
    """

    PROBE_WINDOW_S = 0.25

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        n = 1 << 18
        self._x = rng.random(n)
        self._vals = rng.random(n)
        self._cols = rng.integers(0, n, n)
        self._starts = np.arange(0, n, 8)
        self._prod = np.empty(n)
        self._rows = np.empty(self._starts.size)

    def _probe_ms(self) -> float:
        import numpy as np

        reps = 0
        t0 = time.perf_counter()
        while (elapsed := time.perf_counter() - t0) < self.PROBE_WINDOW_S:
            np.take(self._x, self._cols, out=self._prod)
            np.multiply(self._prod, self._vals, out=self._prod)
            np.add.reduceat(self._prod, self._starts, out=self._rows)
            reps += 1
        return elapsed / reps * 1e3

    def __enter__(self):
        self.before_ms = self._probe_ms()
        self._steal0, self._total0 = cpu_jiffies()
        return self

    def __exit__(self, *exc):
        steal, total = cpu_jiffies()
        self.after_ms = self._probe_ms()
        dt = total - self._total0
        self.steal_share = (steal - self._steal0) / dt if dt > 0 else 0.0

    def report(self) -> dict:
        return {"probe_ms": [self.before_ms, self.after_ms], "steal_share": self.steal_share}


# ---------------------------------------------------------------------------
# Paper pipeline (model clock)
# ---------------------------------------------------------------------------


def paper_pass(spec: dict, recorder: Recorder, t0: float) -> dict:
    from repro.bench import experiments, report
    from repro.bench.harness import ExperimentConfig

    setup_s = time.perf_counter() - t0
    if spec["setup_only"]:
        return {"setup_s": setup_s}
    workload = PAPER[spec["workload"]]
    scale = SMOKE_SCALE if spec["smoke"] else PAPER_SCALE
    limit = workload["smoke_limit" if spec["smoke"] else "limit"]
    config = ExperimentConfig(scale=scale)
    render = {
        "table2": report.format_table2,
        "table3": report.format_speedup_table,
        "table4": report.format_speedup_table,
        "fig7": report.format_fig_series,
        "fig8": report.format_fig_series,
    }
    restore = install(recorder, TRACE_TARGETS if spec["traced"] else (SIMULATE,))
    texts, errors = {}, []
    host = HostWindow()
    try:
        with host:
            w0 = time.perf_counter()
            for name in workload["experiments"]:
                span = recorder.open(EXPERIMENT_ROOT, experiment=name)
                try:
                    texts[name] = render[name](getattr(experiments, name)(config, limit=limit))
                except Exception:
                    errors.append(traceback.format_exc())
                finally:
                    recorder.close(span)
            wall_s = time.perf_counter() - w0
    finally:
        recorder.active = False
        restore()

    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh)
    failed = len(errors)
    for name, text in texts.items():
        key = f"{name}|{scale:g}|{limit}"
        if pinned.get(key) != sha256(text):
            failed += 1
            errors.append(f"{key}: rendered table does not match its pinned digest")

    calls = defaultdict(list)
    for s in recorder.spans:
        if s.name == SIMULATE.layer:
            calls[s.attrs["fmt"]].append(s.end - s.start)
    rss_mb = peak_rss_mb()  # before wrapper_cost_s allocates its spans
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "attempted": len(workload["experiments"]),
        "failed": failed,
        "errors": errors,
        "calls": dict(calls),
        # What the simulate_spmv wrapper, the only one an untraced pass
        # installs, added to wall_s.
        "wrapper_s": sum(map(len, calls.values())) * wrapper_cost_s(),
        "rss_mb": rss_mb,
        **host.report(),
        "layers": layer_metrics(recorder.spans, threading.get_ident(), wall_s)
        if spec["traced"]
        else None,
    }


# ---------------------------------------------------------------------------
# Real-clock SpMV through make_executor
# ---------------------------------------------------------------------------


def spmv_inputs(seed: int, smoke: bool):
    """The two matrices (values quantized to ttu 40) and their x vectors."""
    import numpy as np

    from repro.formats.conversions import to_csr
    from repro.matrices.generators import powerlaw_graph, stencil_2d
    from repro.matrices.values import quantized_values, set_matrix_values

    side = SMOKE_STENCIL_SIDE if smoke else STENCIL_SIDE
    n = SMOKE_POWERLAW_N if smoke else POWERLAW_N
    structures = {
        "stencil": stencil_2d(side, side, points=9),
        "powerlaw": powerlaw_graph(n, POWERLAW_DEGREE, seed + 11),
    }
    matrices = {}
    for i, (name, structure) in enumerate(structures.items()):
        csr = to_csr(structure)
        values = quantized_values(csr.nnz, max(2, csr.nnz // TTU), seed + 101 + i)
        matrices[name] = set_matrix_values(csr, values)
    rng = np.random.default_rng(seed + 7)
    xs = {name: [rng.random(a.ncols) for _ in range(NVECTORS)] for name, a in matrices.items()}
    return matrices, xs


def spmv_pass(spec: dict, recorder: Recorder, t0: float) -> dict:
    import numpy as np

    from repro.formats.base import working_set_bytes
    from repro.formats.conversions import convert
    from repro.parallel import backends

    import_s = time.perf_counter() - t0
    matrices, xs = spmv_inputs(spec["seed"], spec["smoke"])
    traced = spec["traced"]
    backend = SPMV[spec["workload"]]
    rounds = SMOKE_ROUNDS if spec["smoke"] else ROUNDS
    cells = [(m, f) for m in matrices for f in FORMATS]

    restore = install(recorder, TRACE_TARGETS) if traced else (lambda: None)
    recorder.active = traced
    executors = {}
    failed, attempted, errors = 0, 0, []
    samples = {cell: [] for cell in cells}
    host = HostWindow()
    try:
        b0 = time.perf_counter()
        for m, f in cells:
            span = recorder.open(SETUP_ROOT, fmt=f, matrix=m) if traced else None
            try:
                executors[(m, f)] = backends.make_executor(
                    matrices[m], WORKERS, backend=backend, storage="mem", format_name=f
                )
                executors[(m, f)](xs[m][0])  # warm: pool start, first-touch
            finally:
                if span is not None:
                    recorder.close(span)
        setup_s = import_s + time.perf_counter() - b0
        if spec["setup_only"]:
            return {"setup_s": setup_s}

        # References: the serial same-format product, computed untimed.
        recorder.active = False
        refs, computed_bytes, flops = {}, defaultdict(int), 0
        for m, f in cells:
            serial = convert(matrices[m], f)
            refs[(m, f)] = [serial.spmv(x) for x in xs[m]]
            computed_bytes[f] += working_set_bytes(serial)
        for m, a in matrices.items():
            flops += 2 * a.nnz
            for f in FORMATS[1:]:
                if not np.allclose(refs[(m, f)][0], refs[(m, "csr")][0]):
                    failed += 1
                    errors.append(f"{m}/{f}: serial product differs from CSR")
        recorder.active = traced

        with host:
            w0 = time.perf_counter()
            for r in range(rounds):
                for cell in cells:
                    m, f = cell
                    executor, x_list, ref_list = executors[cell], xs[m], refs[cell]
                    for i in range(BLOCK):
                        k = (r * BLOCK + i) % NVECTORS
                        span = recorder.open(CALL_ROOT, fmt=f, matrix=m) if traced else None
                        c0 = time.perf_counter()
                        try:
                            y = executor(x_list[k])
                        except Exception:
                            y = None
                            errors.append(traceback.format_exc())
                        dt = time.perf_counter() - c0
                        if span is not None:
                            recorder.close(span)
                        attempted += 1
                        if y is None:
                            failed += 1
                            continue
                        samples[cell].append(dt)
                        if i == 0 and not np.array_equal(y, ref_list[k]):
                            failed += 1
                            errors.append(f"{m}/{f}: y differs from the serial product")
            wall_s = time.perf_counter() - w0
    finally:
        recorder.active = False
        for executor in executors.values():
            executor.close()
        restore()

    layers = None
    if traced:
        layers = layer_metrics(recorder.spans, threading.get_ident(), wall_s)
        layers.update({f"kernels.computed_bytes.{f}": computed_bytes[f] for f in FORMATS})
        layers["kernels.flops"] = flops
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "calls": {f"{m}/{f}": v for (m, f), v in samples.items()},
        "wrapper_s": 0.0,  # untraced passes time calls without wrappers
        "rss_mb": peak_rss_mb(),
        **host.report(),
        "layers": layers,
    }


def write_spans(path: str, spec: dict, recorder: Recorder) -> None:
    """Append the pass's spans as JSON lines (times relative to its first span)."""
    spans = recorder.spans
    if not spans:
        return
    attach_orphans(spans, threading.get_ident())
    own, root = self_times(spans), request_roots(spans)
    origin = min(s.start for s in spans)
    with open(path, "a", encoding="utf-8") as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    {
                        "workload": spec["workload"],
                        "pass": spec["pass_index"],
                        "id": s.id,
                        "parent": s.parent,
                        "request": root[s.id].id,
                        "name": s.name,
                        "thread": s.thread,
                        "start_s": s.start - origin,
                        "end_s": s.end - origin,
                        "self_s": own[s.id],
                        "attrs": s.attrs,
                    }
                )
                + "\n"
            )


def main() -> int:
    t0 = time.perf_counter()
    spec = json.loads(sys.argv[1])
    recorder = Recorder()
    run = paper_pass if spec["workload"] in PAPER else spmv_pass
    result = run(spec, recorder, t0)
    if spec["traced"] and spec["spans_path"]:
        write_spans(spec["spans_path"], spec, recorder)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
