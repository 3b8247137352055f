"""Thread vs process backend scaling, plus an out-of-core streamed run.

Part one sweeps ``repro.parallel.backends.make_executor`` over
``{csr, csr-du, csr-vi} x {thread, process} x {1, 2, 4}`` workers on a
stencil matrix, real wall-clock, and cross-checks every cell's ``y``
bit-exactly against the same-format thread run at the same shard count
(the only honest reference: csr-du's per-unit summation order differs
from CSR's row-dot order, so cross-format comparisons get ``allclose``
only).

Part two is the out-of-core demonstration on a matrix whose encoded
form exceeds an enforced byte budget: the in-RAM build
(``storage="mem"``, ``budget_bytes=...``) must fail with
:class:`~repro.errors.StorageError`, the ``mmap`` build of the *same*
matrix must pass (shards live on disk, resident bytes stay 0), and
:func:`~repro.storage.stream.streamed_spmv` must complete bit-identical
to the in-RAM product while the streaming working set (peak RSS delta
over the pre-stream baseline) stays under the budget.  A checkpoint
resume is exercised by rewinding ``progress.json`` to mid-run -- the
exact state a crash after shard ``k``'s checkpoint leaves behind.

Numbers are recorded as they measure.  On a single-CPU container the
process backend cannot win wall-clock (there is no second core to
scale onto and it pays IPC on top); the JSON carries ``host.cpus`` and
per-format ``process_beats_thread_best`` flags so consumers can judge
the curves in context instead of trusting a headline.

The JSON carries the cells under ``experiments.parallel.cells`` -- the
exact shape :mod:`repro.bench.baseline` flattens -- so the perf gate
can track backend scaling directly::

    python tools/perf_gate.py BENCH_parallel.json --history perf_history.json

``--smoke`` shrinks everything (2 workers, tiny matrices, one call per
cell, no JSON) for CI: it checks thread/process bit-identity and the
out-of-core fail/pass/stream/resume contract in seconds.

Run:  PYTHONPATH=src python benchmarks/microbench_parallel.py [--out PATH] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from repro.errors import StorageError
from repro.formats.csr import CSRMatrix
from repro.matrices.generators import banded_random, stencil_2d
from repro.obs.resource import rss_bytes
from repro.parallel.backends import make_executor
from repro.storage.shard import ShardStore
from repro.storage.stream import PROGRESS_NAME, streamed_spmv
from repro.util.timing import measure

FORMATS = ("csr", "csr-du", "csr-vi")
BACKENDS = ("thread", "process")
WORKERS = (1, 2, 4)

#: Shard count and byte budget for the out-of-core section.  The
#: banded matrix below stores ~20 MB as CSR, so an 8 MB budget is
#: genuinely smaller than the matrix while one ~1.2 MB shard plus the
#: vectors fits with room to spare.
OOC_NSHARDS = 16
OOC_BUDGET_BYTES = 8 * 1024 * 1024


def build_scaling_matrix(smoke: bool) -> tuple[str, CSRMatrix]:
    if smoke:
        return "stencil2d-24x24-5pt", CSRMatrix.from_coo(
            stencil_2d(24, 24, points=5)
        )
    return "stencil2d-256x256-5pt", CSRMatrix.from_coo(
        stencil_2d(256, 256, points=5)
    )


def bench_scaling(
    csr: CSRMatrix, *, smoke: bool
) -> tuple[list[dict], list[str]]:
    """One result row per (format, backend, workers) cell.

    Returns ``(rows, problems)``; a non-empty problem list fails the
    run.  Reference per (format, workers) is the thread backend at the
    same worker count -- identical shard boundaries, so the process
    backend must reproduce it bit for bit.
    """
    formats = FORMATS[:2] if smoke else FORMATS
    workers = (1, 2) if smoke else WORKERS
    x = np.random.default_rng(42).standard_normal(csr.ncols)
    y_close = csr.spmv(x)
    rows: list[dict] = []
    problems: list[str] = []
    base_seconds: dict[str, float] = {}
    thread_y: dict[tuple[str, int], np.ndarray] = {}
    for fmt in formats:
        for backend in BACKENDS:
            for nworkers in workers:
                executor = make_executor(
                    csr, nworkers, backend=backend, format_name=fmt
                )
                try:
                    y = executor(x)  # warm: encodes shards, forks workers
                    if smoke:
                        m_seconds = measure(
                            lambda: executor(x), calls=1, repeats=1
                        ).per_call
                    else:
                        m_seconds = measure(
                            lambda: executor(x), calls=5, repeats=3
                        ).per_call
                finally:
                    executor.close()
                cell = f"{fmt}|{backend}|{nworkers}w"
                if not np.allclose(y, y_close):
                    problems.append(f"{cell}: y diverged from CSR reference")
                if backend == "thread":
                    thread_y[(fmt, nworkers)] = y
                    base_seconds.setdefault(fmt, m_seconds)
                elif not np.array_equal(y, thread_y[(fmt, nworkers)]):
                    problems.append(
                        f"{cell}: not bit-identical to thread backend"
                    )
                rows.append(
                    {
                        "cell": cell,
                        "format": fmt,
                        "backend": backend,
                        "workers": nworkers,
                        "seconds": m_seconds,
                        "mnnz_per_s": csr.nnz / m_seconds / 1e6,
                        "speedup_vs_serial": base_seconds[fmt] / m_seconds,
                    }
                )
                print(
                    f"{cell:<20} {m_seconds:10.6f} s  "
                    f"{rows[-1]['mnnz_per_s']:8.2f} Mnnz/s  "
                    f"x{rows[-1]['speedup_vs_serial']:.2f} vs serial"
                )
    return rows, problems


def summarize_backends(rows: list[dict]) -> dict[str, dict]:
    """Per-format thread-best vs process-best comparison."""
    summary: dict[str, dict] = {}
    for fmt in {r["format"] for r in rows}:
        mine = [r for r in rows if r["format"] == fmt]
        thread_best = min(
            r["seconds"] for r in mine if r["backend"] == "thread"
        )
        process = [r for r in mine if r["backend"] == "process"]
        process_best = min(r["seconds"] for r in process)
        most = max(process, key=lambda r: r["workers"])
        summary[fmt] = {
            "thread_best_s": thread_best,
            "process_best_s": process_best,
            "process_best_speedup_vs_thread_best": thread_best / process_best,
            f"process_{most['workers']}w_speedup_vs_thread_best": (
                thread_best / most["seconds"]
            ),
            "process_beats_thread_best": process_best < thread_best,
        }
    return summary


def bench_out_of_core(*, smoke: bool) -> dict:
    """The fail-in-RAM / pass-out-of-core / stream / resume contract."""
    if smoke:
        csr = CSRMatrix.from_coo(banded_random(2_000, 8, 4, seed=7))
        nshards, budget = 4, 16 * 1024
    else:
        csr = CSRMatrix.from_coo(banded_random(220_000, 16, 8, seed=7))
        nshards, budget = OOC_NSHARDS, OOC_BUDGET_BYTES
    stored = int(csr.storage().total_bytes)
    if stored <= budget:
        raise AssertionError(
            f"out-of-core case is miscalibrated: matrix stores {stored} "
            f"bytes, not larger than the {budget}-byte budget"
        )
    x = np.random.default_rng(7).standard_normal(csr.ncols)
    y_ref = csr.spmv(x)

    mem_build_failed = False
    try:
        ShardStore.build(csr, "csr", nshards, storage="mem",
                         budget_bytes=budget).close()
    except StorageError as exc:
        mem_build_failed = True
        print(f"mem build at budget={budget}: refused as intended ({exc})")

    with tempfile.TemporaryDirectory(prefix="ooc-") as tmp:
        shard_dir = os.path.join(tmp, "shards")
        ckpt_dir = os.path.join(tmp, "ckpt")
        os.makedirs(shard_dir)
        store = ShardStore.build(
            csr, "csr", nshards, storage="mmap", directory=shard_dir,
            budget_bytes=budget,
        )
        try:
            rss_before, _ = rss_bytes()
            result = measure(
                lambda: streamed_spmv(store, x, checkpoint_dir=ckpt_dir),
                calls=1,
                repeats=1,
            )
            stream = streamed_spmv(store, x, checkpoint_dir=ckpt_dir)
            peak_delta = max(0, stream.peak_rss_bytes - rss_before)
            bit_identical = bool(np.array_equal(np.asarray(stream.y), y_ref))

            # Crash-after-shard-k state: rewind the progress record to
            # the halfway checkpoint and let the stream pick it up.
            progress_path = os.path.join(ckpt_dir, PROGRESS_NAME)
            with open(progress_path, "r", encoding="ascii") as fh:
                progress = json.load(fh)
            progress["shards_done"] = nshards // 2
            with open(progress_path, "w", encoding="ascii") as fh:
                json.dump(progress, fh)
            resumed = streamed_spmv(store, x, checkpoint_dir=ckpt_dir)
            resume_ok = (
                resumed.resumed_from == nshards // 2
                and resumed.shards_done == nshards - nshards // 2
                and bool(np.array_equal(np.asarray(resumed.y), y_ref))
            )
            del stream, resumed  # release the checkpoint memmaps
        finally:
            store.close()

    out = {
        "matrix": "banded-2k-bw8" if smoke else "banded-220k-bw16",
        "nrows": int(csr.nrows),
        "nnz": int(csr.nnz),
        "stored_bytes": stored,
        "budget_bytes": budget,
        "nshards": nshards,
        "mem_build_failed": mem_build_failed,
        "stream_s": result.per_call,
        "peak_rss_delta_bytes": int(peak_delta),
        "peak_rss_delta_below_budget": bool(peak_delta < budget),
        "bit_identical": bit_identical,
        "resume_ok": resume_ok,
    }
    print(
        f"out-of-core: stored={stored / 1e6:.1f} MB > "
        f"budget={budget / 1e6:.1f} MB, stream={out['stream_s']:.3f} s, "
        f"rss-delta={peak_delta / 1e6:.1f} MB, "
        f"bit-identical={bit_identical}, resume={resume_ok}"
    )
    return out


def out_of_core_problems(ooc: dict) -> list[str]:
    problems = []
    if not ooc["mem_build_failed"]:
        problems.append("mem build did not fail under the byte budget")
    if not ooc["bit_identical"]:
        problems.append("streamed y diverged from the in-RAM product")
    if not ooc["resume_ok"]:
        problems.append("checkpoint resume did not complete bit-identically")
    if not ooc["peak_rss_delta_below_budget"]:
        problems.append(
            f"streaming working set {ooc['peak_rss_delta_bytes']} B "
            f"exceeded the {ooc['budget_bytes']} B budget"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=str, default="BENCH_parallel.json", help="output JSON path"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny matrices, 2 workers, one call per cell, no JSON (CI)",
    )
    args = parser.parse_args(argv)

    _, csr = build_scaling_matrix(args.smoke)
    rows, problems = bench_scaling(csr, smoke=args.smoke)
    ooc = bench_out_of_core(smoke=args.smoke)
    problems += out_of_core_problems(ooc)
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    if args.smoke:
        print(f"smoke: {len(rows)} cells, {len(problems)} problems")
        return 1 if problems else 0

    cells: dict[str, dict] = {
        r["cell"]: {
            "seconds": r["seconds"],
            "mnnz_per_s": r["mnnz_per_s"],
            "speedup_vs_serial": r["speedup_vs_serial"],
        }
        for r in rows
    }
    summary = summarize_backends(rows)
    for fmt, s in summary.items():
        cells[f"summary|{fmt}"] = {
            k: v for k, v in s.items() if isinstance(v, (int, float))
            and not isinstance(v, bool)
        }
    cells["out-of-core|stream"] = {
        "stored_bytes": ooc["stored_bytes"],
        "budget_bytes": ooc["budget_bytes"],
        "nshards": ooc["nshards"],
        "stream_s": ooc["stream_s"],
    }
    payload = {
        "benchmark": "thread vs process SpMV backends + out-of-core stream",
        "matrix": build_scaling_matrix(False)[0],
        "host": {"cpus": os.cpu_count() or 1},
        "note": (
            "real wall-clock on the development container; on a "
            "single-CPU host the process backend pays IPC with no "
            "second core to scale onto, so judge the backend columns "
            "against host.cpus"
        ),
        "results": rows,
        "summary": summary,
        "out_of_core": ooc,
        # perf_gate-compatible shape: flatten_run() reads experiments.*
        "experiments": {"parallel": {"cells": cells}},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
