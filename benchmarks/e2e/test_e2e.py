"""Tests of the end-to-end benchmark itself (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e

Unit tests cover the span arithmetic, the percentile rule and the
per-cell geometric mean; the slower tests run ``run.py --smoke`` and
cross-check the pinned table digests against the bench CLI.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from passes import DIGESTS, WORKLOADS, sha256
from run import E2E, PER_LAYER, cell_geomean, percentile, tail_quantile
from spans import (
    CALL_ROOT,
    Recorder,
    Span,
    Target,
    attach_orphans,
    install,
    layer_metrics,
    request_roots,
    self_times,
    union_length,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(2, 6), (3, 8), (9, 12)], 0, 10) == pytest.approx(7)
    assert union_length([], 0, 10) == 0


def test_self_time_subtracts_union_of_children_across_threads():
    call = Span(1, None, "parallel.call", thread=1, start=0.0, end=10.0)
    chunk_a = Span(2, None, "formats.chunk", thread=2, start=2.0, end=6.0)
    chunk_b = Span(3, None, "formats.chunk", thread=3, start=3.0, end=8.0)
    plan = Span(4, 2, "kernels.plan", thread=2, start=3.0, end=4.0)
    after = Span(5, None, "client.call", thread=1, start=11.0, end=12.0)
    spans = [call, chunk_a, chunk_b, plan, after]
    attach_orphans(spans, client_thread=1)
    assert chunk_a.parent == chunk_b.parent == call.id
    own = self_times(spans)
    assert own[call.id] == pytest.approx(10 - 6)  # chunks cover [2, 8]
    assert own[chunk_a.id] == pytest.approx(4 - 1)
    assert own[chunk_b.id] == pytest.approx(5)
    assert request_roots(spans)[plan.id] is call


def test_orphans_attach_to_the_innermost_containing_client_span():
    outer = Span(1, None, "client.call", thread=1, start=0.0, end=20.0)
    inner = Span(2, 1, "parallel.call", thread=1, start=1.0, end=10.0)
    sibling = Span(3, 1, "kernels.get_plan", thread=1, start=10.5, end=11.0)
    chunk = Span(4, None, "formats.chunk", thread=2, start=2.0, end=6.0)
    late = Span(5, None, "formats.chunk", thread=2, start=12.0, end=13.0)
    attach_orphans([outer, inner, sibling, chunk, late], client_thread=1)
    assert chunk.parent == inner.id
    assert late.parent == outer.id


def test_coverage_counts_client_time_so_overlapping_workers_cannot_hide_a_gap():
    call = Span(1, None, CALL_ROOT, thread=1, start=0.0, end=4.0, attrs={"fmt": "csr"})
    inner = Span(2, 1, "parallel.call", thread=1, start=0.5, end=3.5)
    chunks = [
        Span(3 + i, None, "formats.chunk", thread=2 + i, start=0.0, end=4.0) for i in range(3)
    ]
    # [4, 10] of the measured phase is untraced; the three workers' busy
    # time alone (12 s) exceeds the whole phase.
    assert layer_metrics([call, inner, *chunks], 1, 10.0)["trace.coverage"] == pytest.approx(0.4)


def test_recorder_parents_pool_thread_spans_to_the_waiting_call():
    recorder = Recorder()
    work = recorder.wrap(lambda: time.sleep(0.01), "formats.chunk")
    with ThreadPoolExecutor(max_workers=2) as pool:
        call = recorder.open("parallel.call")
        list(pool.map(lambda _: work(), range(2)))
        recorder.close(call)
    client = threading.get_ident()
    attach_orphans(recorder.spans, client)
    chunks = [s for s in recorder.spans if s.name == "formats.chunk"]
    assert len(chunks) == 2
    assert all(c.thread != client and c.parent == call.id for c in chunks)


def test_install_wraps_every_binding_and_restores():
    import repro.compress.ctl as ctl
    import repro.formats.csr_du as csr_du
    from repro.formats.csr import CSRMatrix

    original, original_spmv = ctl.decode_units, CSRMatrix.spmv
    recorder = Recorder()
    restore = install(
        recorder,
        [
            Target("repro.compress.ctl:decode_units", "compress.decode_units"),
            Target("repro.formats.csr:CSRMatrix.spmv", "formats.chunk"),
        ],
    )
    try:
        assert csr_du.decode_units is ctl.decode_units is not original
        eye = CSRMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 1]), np.ones(2))
        assert eye.spmv(np.array([3.0, 4.0])).tolist() == [3.0, 4.0]
    finally:
        restore()
    assert csr_du.decode_units is original and ctl.decode_units is original
    assert CSRMatrix.spmv is original_spmv
    assert [s.name for s in recorder.spans] == ["formats.chunk"]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, q", [(1000, 0.99), (5000, 0.99), (500, 0.98), (100, 0.9)])
def test_tail_quantile_keeps_ten_samples_beyond(n, q):
    assert tail_quantile(n) == pytest.approx(q)
    assert n * (1 - tail_quantile(n)) >= 10 - 1e-9


def test_tail_quantile_needs_more_than_ten_samples():
    assert tail_quantile(10) is None
    assert tail_quantile(11) == pytest.approx(1 / 11)


def test_percentile_matches_numpy():
    values = sorted(np.random.default_rng(0).random(101).tolist())
    for q in (0.0, 0.5, 0.9, 0.99, 1.0):
        assert percentile(values, q) == pytest.approx(np.percentile(values, 100 * q))


def test_call_metric_is_geomean_of_per_cell_medians():
    cells = {"small": [1.0, 2.0, 3.0], "large": [10.0, 20.0, 30.0, 40.0]}
    assert cell_geomean(cells, 0.5) == pytest.approx(math.sqrt(2.0 * 25.0))
    pooled = sorted(cells["small"] + cells["large"])
    assert percentile(pooled, 0.5) == 10.0  # what pooling would report


# ---------------------------------------------------------------------------
# The benchmark end to end
# ---------------------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_smoke_digests_match_the_cli():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    smoke = {k: v for k, v in pinned.items() if "|0.015625|" in k}
    assert len(smoke) == 5
    for key, digest in smoke.items():
        experiment, scale, limit = key.split("|")
        out = subprocess.run(
            [sys.executable, "-m", "repro.bench", experiment, "--scale", scale, "--limit", limit],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        header, _, body = out.partition("\n")
        assert header.startswith(f"=== {experiment} ")
        assert sha256(body.rstrip("\n")) == digest, key


def test_smoke_run_checks_outputs_and_traces_every_workload(tmp_path):
    out = tmp_path / "e2e.json"
    trace = tmp_path / "trace"
    start = time.monotonic()
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )
    assert time.monotonic() - start < 30
    result = json.loads(out.read_text(encoding="utf-8"))["workloads"]
    layers = json.loads((trace / "layers.json").read_text(encoding="utf-8"))
    assert set(result) == set(layers) == set(WORKLOADS)
    for name, summary in result.items():
        assert summary["failed"] == 0 and summary["attempted"] > 0
        assert layers[name]["trace.coverage"] >= 0.95
    assert layers["paper-du"]["compress.decode_units_share"] >= 0.6
    assert layers["paper-vi"]["compress.decode_units_calls"] == 0
    decode = {f: layers["spmv-thread"][f"compress.decode_share.{f}"] for f in ("csr", "csr-du", "csr-vi")}
    assert decode["csr-du"] > 0 and decode["csr"] == decode["csr-vi"] == 0
    spans = [json.loads(line) for line in (trace / "spans.jsonl").read_text().splitlines()]
    assert {s["workload"] for s in spans} == set(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-du", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
