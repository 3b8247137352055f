"""End-to-end benchmark: the paper pipeline and real-clock SpMV.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0 --out e2e.json    # all four workloads
    python3 benchmarks/e2e/run.py --seed 0 --trace e2e-trace  # + per-layer trace
    python3 benchmarks/e2e/run.py --workload spmv-thread --seed 3 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --smoke                     # tiny sizes, < 30 s

Every workload runs as a sequence of passes, each in a fresh process
(``passes.py``) with the program imported from ``src/``.  Passes repeat
until ``--seconds`` is spent (at least three), each followed by one
set-up-only pass.  The end-to-end metrics are medians over passes
(``setup_s`` over the set-up-only passes too), and call latencies pool
the passes' samples.
``--trace 1`` (or ``--trace DIR``) alternates untraced and traced passes
and reports the per-layer metrics of the traced ones; ``DIR`` also
receives ``spans.jsonl`` and ``layers.json``.

The report prints one ``workload metric value unit`` line per metric.
With ``--workload`` the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  The exit code is
1 when any output check failed, and 2 when the benchmark could not run
at all (no program next to it, a pass crashed or ran out of time); no
result is printed then.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from passes import WORKLOADS
from spans import CALL_SHARES, FORMATS, PASS_COUNTS, PASS_SHARES, SETUP_SHARES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

RUN_SECONDS = 20
MIN_PASSES = 3  # untraced passes per run: a median needs three
MIN_TRACED = 2  # (untraced, traced) pass pairs per traced run
HARD_LIMIT_S = 165.0  # no workload run outlives this
DRIFT_FLAG = 0.10  # host probe drift above which a run's numbers are unresolved

#: End-to-end metrics: every workload reports all of them.
E2E = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("call_p50_ms", "ms"),
    ("call_p99_ms", "ms"),
)

#: Per-layer metrics of the traced passes (see spans.layer_metrics).
PER_LAYER = (
    tuple((f"{layer}_share", "ratio") for layer in PASS_SHARES)
    + tuple((f"{layer}_calls", "count") for layer in PASS_COUNTS)
    + (("bench.self_share", "ratio"),)
    + tuple((metric, "ratio") for metric in SETUP_SHARES)
    + (("compress.convert_cache_hit_ratio", "ratio"),)
    + tuple(
        (f"{metric}.{fmt}", "ratio")
        for fmt in FORMATS
        for metric in (*CALL_SHARES, "parallel.imbalance")
    )
    + tuple((f"kernels.computed_bytes.{fmt}", "bytes") for fmt in FORMATS)
    + (
        ("kernels.flops", "count"),
        ("trace.overhead", "ratio"),
        ("trace.coverage", "ratio"),
        ("host.probe_drift", "ratio"),
        ("host.steal_share", "ratio"),
    )
)


class PassError(RuntimeError):
    """A pass crashed, printed no result, or ran out of time."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (NumPy's default)."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_quantile(n: int) -> float | None:
    """The highest quantile, at most p99, with at least ten of *n* samples
    beyond it; ``None`` when *n* is too small for any."""
    if n <= 10:
        return None
    return min(0.99, (n - 10) / n)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cell_geomean(cells: dict[str, list[float]], q: float) -> float:
    """Geometric mean over cells of each cell's own *q*-quantile.

    Cells are never pooled with each other: calls on matrices of
    different sizes would make a pooled distribution multimodal.
    """
    return geomean(percentile(sorted(v), q) for v in cells.values())


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_pass(spec: dict, deadline: float) -> dict:
    """Run one pass in a fresh process; return its result object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passes.py"), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    label = f"{spec['workload']} pass {spec['pass_index']}"
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise PassError(f"{label} ran past the time limit") from None
    finally:
        _kill_group(proc.pid)  # anything the pass failed to stop
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{label} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    spans_path: str | None,
) -> dict:
    """Passes of one workload until *seconds* are spent; their summary."""
    start = time.monotonic()
    min_iterations = 1 if smoke else (MIN_TRACED if traced else MIN_PASSES)
    modes = (False, True) if traced else (False,)
    results: dict[bool, list[dict]] = {False: [], True: []}
    setup_only: list[float] = []
    iteration_s: list[float] = []

    def spec(traced_pass: bool, setup: bool) -> dict:
        return {
            "workload": name,
            "seed": seed,
            "traced": traced_pass,
            "setup_only": setup,
            "smoke": smoke,
            "spans_path": spans_path,
            "pass_index": len(results[False]) + len(results[True]) + len(setup_only),
        }

    while True:
        it0 = time.monotonic()
        for mode in modes:
            results[mode].append(run_pass(spec(mode, False), start + HARD_LIMIT_S))
        # A set-up is short (0.1-0.6 s), so one sample sees a single speed
        # state of the host; a set-up-only pass per iteration doubles the
        # samples behind setup_s at the cost of one more set-up.
        setup_only.append(run_pass(spec(False, True), start + HARD_LIMIT_S)["setup_s"])
        iteration_s.append(time.monotonic() - it0)
        projected = time.monotonic() - start + statistics.median(iteration_s)
        if projected > HARD_LIMIT_S or (
            len(results[False]) >= min_iterations and projected > seconds
        ):
            break
    return summarize(results[False], results[True], setup_only, min_iterations)


def summarize(
    untraced: list[dict], traced: list[dict], setup_only: list[float], min_passes: int
) -> dict:
    """End-to-end metrics over the untraced passes (``setup_s`` also over
    the set-up-only passes); per-layer over the traced."""
    cells = {}
    for c in sorted(untraced[0]["calls"]):
        samples = [x for p in untraced for x in p["calls"].get(c, ())]
        if samples:  # a cell whose every call failed has no latency
            cells[c] = samples
    per_pass = min((len(v) for v in untraced[0]["calls"].values()), default=0)
    q = tail_quantile(min([per_pass * min_passes] + [len(v) for v in cells.values()]))
    q_used = 1.0 if q is None else q
    by_fmt = defaultdict(dict)
    for c, samples in cells.items():
        by_fmt[c.rpartition("/")[2]][c] = samples

    def call_ms(group: dict, quantile: float) -> float:
        return cell_geomean(group, quantile) * 1e3 if group else 0.0

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    drift = max(abs(p["probe_ms"][1] / p["probe_ms"][0] - 1) for p in passes)
    wall_s = statistics.median(p["wall_s"] for p in untraced)
    setups = [p["setup_s"] for p in untraced] + setup_only
    summary = {
        "end_to_end": {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(p["rss_mb"] for p in untraced),
            "call_p50_ms": call_ms(cells, 0.5),
            "call_p99_ms": call_ms(cells, q_used),
        },
        "detail": {
            "passes": len(untraced),
            "traced_passes": len(traced),
            "wall_s_per_pass": [p["wall_s"] for p in untraced],
            "setup_s_samples": setups,
            "call_wrapper_share": statistics.median(p["wrapper_s"] / p["wall_s"] for p in untraced),
            "call_tail_quantile": q_used,
            "samples_per_cell": {c: len(v) for c, v in cells.items()},
            "call_p50_ms": {f: call_ms(g, 0.5) for f, g in by_fmt.items()},
            "call_p99_ms": {f: call_ms(g, q_used) for f, g in by_fmt.items()},
            "fail_share": failed / attempted,
            "host.probe_drift": drift,
        },
        "attempted": attempted,
        "failed": failed,
        "errors": [e for p in passes for e in p["errors"]][:5],
    }
    if traced:
        layers = {
            metric: statistics.median(p["layers"].get(metric, 0.0) for p in traced)
            for metric, _ in PER_LAYER
        }
        layers["trace.overhead"] = (
            statistics.median(p["wall_s"] for p in traced) / wall_s - 1
        )
        layers["host.probe_drift"] = drift
        layers["host.steal_share"] = statistics.median(p["steal_share"] for p in passes)
        summary["per_layer"] = layers
    return summary


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def report_lines(name: str, summary: dict) -> list[str]:
    detail = summary["detail"]
    lines = [f"{name} {m} {summary['end_to_end'][m]:.6g} {unit}" for m, unit in E2E]
    for key in ("call_p50_ms", "call_p99_ms"):
        lines += [f"{name} {key}.{f} {v:.6g} ms" for f, v in sorted(detail[key].items())]
    lines.append(f"{name} fail_share {detail['fail_share']:.6g} ratio")
    if "per_layer" in summary:
        for metric, unit in PER_LAYER:
            lines.append(f"{name} {metric} {summary['per_layer'][metric]:.6g} {unit}")
    else:
        lines.append(f"{name} host.probe_drift {detail['host.probe_drift']:.6g} ratio")
    q = detail["call_tail_quantile"]
    lines.append(
        f"# {name}: {detail['passes']} passes ({detail['traced_passes']} traced); "
        f"call_p99_ms is p{100 * q:.4g} per cell, cells hold "
        f"{min(detail['samples_per_cell'].values())}+ samples; setup_s is the median "
        f"of {len(detail['setup_s_samples'])} set-ups"
    )
    if detail["call_wrapper_share"] > 0:
        lines.append(
            f"# {name}: the wrapper timing each model-clock call adds "
            f"{100 * detail['call_wrapper_share']:.3g}% to wall_s"
        )
    if detail["host.probe_drift"] > DRIFT_FLAG:
        lines.append(
            f"# {name}: host probe drifted {100 * detail['host.probe_drift']:.0f}% "
            "during a pass; call these numbers unresolved, not regressed"
        )
    lines += [f"# {name}: check failed: {e.strip().splitlines()[-1]}" for e in summary["errors"]]
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument(
        "--seconds", type=float, default=None, help=f"measuring time per workload (default {RUN_SECONDS})"
    )
    parser.add_argument(
        "--trace",
        default="0",
        help="0: end-to-end metrics; 1: also traced passes and per-layer metrics; "
        "any other value: like 1, and write spans.jsonl and layers.json to that directory",
    )
    parser.add_argument("--out", help="write the full result as JSON to this file")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, one untraced and one traced pass per workload"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    traced = args.smoke or args.trace != "0"
    trace_dir = None if args.trace in ("0", "1") else Path(args.trace)
    spans_path = None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans_path = str((trace_dir / "spans.jsonl").resolve())
        Path(spans_path).write_text("", encoding="utf-8")
    seconds = args.seconds if args.seconds is not None else (0 if args.smoke else RUN_SECONDS)
    names = [args.workload] if args.workload else list(WORKLOADS)

    summaries = {}
    try:
        for name in names:
            summaries[name] = run_workload(
                name,
                seed=args.seed,
                seconds=seconds,
                traced=traced,
                smoke=args.smoke,
                spans_path=spans_path,
            )
            print("\n".join(report_lines(name, summaries[name])), flush=True)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {"seed": args.seed, "seconds": seconds, "smoke": args.smoke, "workloads": summaries},
                indent=2,
            ),
            encoding="utf-8",
        )
    if trace_dir is not None:
        (trace_dir / "layers.json").write_text(
            json.dumps({n: s["per_layer"] for n, s in summaries.items()}, indent=2),
            encoding="utf-8",
        )
    if args.workload:
        summary = summaries[args.workload]
        if args.trace == "0":
            metrics = {m: {"value": summary["end_to_end"][m], "unit": u} for m, u in E2E}
        else:
            metrics = {m: {"value": summary["per_layer"][m], "unit": u} for m, u in PER_LAYER}
        print(
            json.dumps(
                {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
            )
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
