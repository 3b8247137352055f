"""Command-line entry point: ``python -m repro.bench <experiment>``.

Regenerates any paper table/figure or ablation at a chosen scale::

    python -m repro.bench table2 --scale 0.0625
    python -m repro.bench table3 table4 --scale 1.0
    python -m repro.bench fig7 --limit 20
    python -m repro.bench all --scale 0.0625 --out results.txt

Telemetry: ``--trace PATH`` records every span/counter of the run as
JSONL, ``--chrome-trace PATH`` writes the same events for
``chrome://tracing``, and the ``profile`` pseudo-experiment runs the
experiments after it with telemetry on and prints the top spans and
counters instead of requiring a trace file::

    python -m repro.bench table2 --scale 0.0625 --trace /tmp/t.jsonl
    python -m repro.bench profile table2 --scale 0.0625 --top 10

Live observability: ``--obs`` turns on the live view of the telemetry
sink (a :class:`repro.obs.core.ObsRuntime`: chunk/cell latency histograms,
windowed fallback/retry/cache rates, resource gauges, the default SLO
rule set), ``--metrics-out``
writes the final OpenMetrics snapshot (``--obs-interval N`` rewrites
it every N seconds while running), ``--rule`` adds SLO rules, and
``--stacks-out`` runs the sampling profiler, writing flamegraph
collapsed stacks::

    python -m repro.bench table2 --scale 0.0625 --obs \
        --metrics-out metrics.prom --obs-interval 5 \
        --rule 'rate(convert.cache.miss[10s]) > 100'
    python -m repro.bench table2 --scale 0.0625 --stacks-out stacks.txt

``report-html`` works like ``profile`` but renders the
:mod:`repro.bench.dashboard` report (attribution tables, advisor,
reliability, baseline deltas) instead; ``perf-gate`` delegates everything
after it to :mod:`repro.bench.baseline`::

    python -m repro.bench report-html table2 --scale 0.0625 --html report.html
    python -m repro.bench perf-gate run.json --history perf_history.json
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from repro.bench import experiments as exp
from repro.bench.harness import ExperimentConfig
from repro.bench.report import (
    format_fig_series,
    format_speedup_table,
    format_table2,
)
from repro.telemetry import core as telemetry
from repro.telemetry.export import export_all, summary

_EXPERIMENTS = ("table2", "table3", "table4", "fig7", "fig8", "ablations")


def _run_one(
    name: str, config: ExperimentConfig, limit: int | None
) -> tuple[str, object | None]:
    """Run one experiment; return (rendered text, structured result)."""
    if name == "table2":
        result = exp.table2(config, limit=limit)
        return format_table2(result), result
    if name == "table3":
        result = exp.table3(config, limit=limit)
        return format_speedup_table(result), result
    if name == "table4":
        result = exp.table4(config, limit=limit)
        return format_speedup_table(result), result
    if name == "fig7":
        result = exp.fig7(config, limit=limit)
        return format_fig_series(result), result
    if name == "fig8":
        result = exp.fig8(config, limit=limit)
        return format_fig_series(result), result
    if name == "ablations":
        chunks = []
        for title, rows in (
            ("ABL-1 unit policy", exp.ablation_unit_policy(config)),
            ("ABL-2 DCSR vs CSR-DU", exp.ablation_dcsr(config)),
            ("ABL-3 index width", exp.ablation_index_width(config)),
            ("ABL-5 CSR-DU-VI", exp.ablation_du_vi(config)),
            ("ABL-6 sequential units", exp.ablation_seq_units(config)),
            ("ABL-8 RCM reordering x CSR-DU", exp.ablation_rcm(config)),
        ):
            chunks.append(title)
            chunks.append(
                f"{'id':>4} {'variant':<14} {'idx bytes':>10} {'total':>10} "
                f"{'t(1)':>10} {'t(8)':>10}"
            )
            for r in rows:
                chunks.append(
                    f"{r.matrix_id:>4} {r.label:<14} {r.index_bytes:>10} "
                    f"{r.total_bytes:>10} {r.time_1t:>10.3e} {r.time_8t:>10.3e}"
                )
            chunks.append("")
        placement = exp.ablation_placement(config)
        chunks.append("ABL-4 placement (seconds)")
        for (mid, threads, pol), t in sorted(placement.items()):
            chunks.append(f"  id={mid} threads={threads} {pol:<7}: {t:.3e}")
        chunks.append("")
        chunks.append("ABL-7 serial compressed-vs-CSR ratio by clock")
        for p in exp.ablation_frequency(config):
            chunks.append(
                f"  id={p.matrix_id} {p.clock_ghz:4.2f} GHz "
                f"{p.format_name:<8}: {p.serial_ratio_vs_csr:.3f}"
            )
        return "\n".join(chunks), None
    raise SystemExit(f"unknown experiment {name!r}")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "perf-gate":
        from repro.bench.baseline import main as gate_main

        return gate_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures on the machine model.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=(
            f"experiments to run: {', '.join(_EXPERIMENTS)}, or 'all'; "
            "prefix with 'profile' for a telemetry summary or "
            "'report-html' for the HTML dashboard; 'perf-gate ...' "
            "delegates to the regression gate"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help=(
            "working-set scale, positive (matrices and caches shrink "
            "together); 1.0 = paper size"
        ),
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        help="cap the number of matrices per set, >= 1 (deterministic subset)",
    )
    parser.add_argument(
        "--format",
        type=str,
        default=None,
        dest="format_name",
        help=(
            "override the compressed format of every experiment "
            "(csr-du, csr-vi, csr-du-vi, ..., or auto -- the advisor "
            "picks per matrix); the CSR baseline column always stays"
        ),
    )
    parser.add_argument(
        "--threads",
        type=str,
        default=None,
        help=(
            "collapse each experiment's thread configurations to one: "
            "an integer from 1 to the machine's core count pins the "
            "count, auto asks the advisor per matrix"
        ),
    )
    parser.add_argument(
        "--resume",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "checkpoint JSONL: finished (matrix, format) cells are "
            "appended there as they complete, and a rerun pointing at "
            "the same file skips them (results are identical to an "
            "uninterrupted run; mismatched-configuration lines are "
            "ignored)"
        ),
    )
    parser.add_argument("--out", type=str, default=None, help="also write to a file")
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        help="record structured results (with machine/cost-model context) as JSON",
    )
    parser.add_argument(
        "--trace",
        type=str,
        default=None,
        help="enable telemetry and write the event stream as JSONL",
    )
    parser.add_argument(
        "--chrome-trace",
        type=str,
        default=None,
        help=(
            "enable telemetry and write a chrome://tracing JSON file"
        ),
    )
    parser.add_argument(
        "--top",
        type=int,
        default=20,
        help="span rows shown in the 'profile' summary (default 20)",
    )
    parser.add_argument(
        "--html",
        type=str,
        default="report.html",
        help="output path for the 'report-html' dashboard",
    )
    parser.add_argument(
        "--baseline",
        type=str,
        default=None,
        help=(
            "recorded run JSON to diff against in the dashboard's "
            "baseline-deltas section"
        ),
    )
    parser.add_argument(
        "--advisor-json",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "BENCH_advisor.json to source the dashboard's advisor "
            "summary table from (predicted vs oracle configs, regret, "
            "prediction error)"
        ),
    )
    parser.add_argument(
        "--obs",
        action="store_true",
        help=(
            "enable the live observability runtime (latency histograms, "
            "windowed rates, resource gauges, default SLO rules)"
        ),
    )
    parser.add_argument(
        "--obs-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "periodically evaluate SLO rules and flush a snapshot "
            "(rewrites --metrics-out in place each tick); 0 = final only"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "write the final OpenMetrics text snapshot here "
            "(implies --obs)"
        ),
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=[],
        metavar="EXPR",
        help=(
            "additional SLO rule (repeatable), e.g. "
            "'rate(kernel.fallback[10s]) > 0' or "
            "'p99(spmv.chunk.seconds) > 5 * p50(spmv.chunk.seconds)'"
        ),
    )
    parser.add_argument(
        "--stacks-out",
        type=str,
        default=None,
        metavar="PATH",
        help=(
            "run the sampling wall-clock profiler and write flamegraph "
            "collapsed stacks here (implies --obs)"
        ),
    )
    parser.add_argument(
        "--stacks-hz",
        type=float,
        default=97.0,
        help="sampling profiler rate in Hz, positive (default 97)",
    )
    args = parser.parse_args(argv)

    names = list(args.experiments)
    profile = html_report = False
    if names and names[0] == "profile":
        profile = True
        names = names[1:]
        if not names:
            parser.error("'profile' needs at least one experiment to run")
    elif names and names[0] == "report-html":
        html_report = True
        names = names[1:]
        if not names:
            parser.error("'report-html' needs at least one experiment to run")
    if "all" in names:
        names = list(_EXPERIMENTS)
    if not 0 < args.scale < math.inf:
        parser.error("--scale must be positive and finite")
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    if not 0 < args.stacks_hz < math.inf:
        parser.error("--stacks-hz must be positive and finite")
    config = ExperimentConfig(
        scale=args.scale,
        format_override=args.format_name,
        threads_choice=args.threads,
        checkpoint_path=args.resume,
    )
    if args.threads not in (None, "auto"):
        ncores = config.machine.ncores
        if not (args.threads.isdigit() and 1 <= int(args.threads) <= ncores):
            parser.error(
                f"--threads takes an integer from 1 to {ncores} or 'auto'"
            )
    trace_on = profile or html_report or args.trace or args.chrome_trace
    obs_on = bool(
        args.obs
        or args.metrics_out
        or args.stacks_out
        or args.rule
        or args.obs_interval
    )
    prev_collector = (
        telemetry.set_collector(telemetry.Collector()) if trace_on else None
    )
    runtime = prev_runtime = None
    if obs_on:
        from repro.obs.core import ObsRuntime
        from repro.obs.rules import default_rules, parse_rule

        rules = default_rules() + [parse_rule(r) for r in args.rule]
        runtime = ObsRuntime(rules=rules)
        prev_runtime = telemetry.set_live(runtime)
        runtime.start_resource_monitor()
        if args.stacks_out:
            runtime.start_profiler(args.stacks_hz)
        if args.obs_interval > 0:
            runtime.start_flusher(args.obs_interval, args.metrics_out)
    try:
        blocks = []
        structured: dict[str, object] = {}
        for name in names:
            start = time.perf_counter()
            text, result = _run_one(name, config, args.limit)
            elapsed = time.perf_counter() - start
            blocks.append(
                f"=== {name} (scale={args.scale:g}, {elapsed:.1f}s) ===\n{text}\n"
            )
            if (args.json or html_report) and result is not None:
                structured[name] = result
        output = "\n".join(blocks)
        print(output)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        if args.json and structured:
            from repro.bench.record import record_run

            record_run(structured, config, args.json)
        if runtime is not None:
            # Resource monitor and rules get one final, deterministic
            # pass before anything is exported: the last sample, the
            # final rule evaluation, and the obs.snapshot event all
            # land in the trace written below.
            if runtime.monitor is not None:
                runtime.monitor.sample_once()
            runtime.flush_snapshot()
        if trace_on:
            collector = telemetry.get_collector()
            written = export_all(
                collector,
                jsonl_path=args.trace,
                chrome_path=args.chrome_trace,
                openmetrics_path=args.metrics_out,
                obs_runtime=runtime,
            )
            for kind, n in written.items():
                target = {
                    "jsonl": args.trace,
                    "chrome": args.chrome_trace,
                    "openmetrics": args.metrics_out,
                }[kind]
                unit = "series samples" if kind == "openmetrics" else "events"
                print(f"[telemetry] wrote {n} {kind} {unit} to {target}")
        elif runtime is not None and args.metrics_out:
            from repro.telemetry.export import write_openmetrics

            n = write_openmetrics(
                telemetry.Collector(), args.metrics_out, obs_runtime=runtime
            )
            print(
                f"[obs] wrote {n} openmetrics series samples to "
                f"{args.metrics_out}"
            )
        if runtime is not None:
            if args.stacks_out and runtime.profiler is not None:
                runtime.profiler.stop()
                stacks = runtime.profiler.write_collapsed(args.stacks_out)
                print(
                    f"[obs] wrote {stacks} collapsed stacks to "
                    f"{args.stacks_out}"
                )
            for alert in runtime.alerts:
                print(f"[obs] ALERT {alert.describe()}")
        if trace_on:
            if profile:
                print()
                print(summary(collector, top=args.top))
            if html_report:
                from repro.bench.dashboard import write_dashboard
                from repro.bench.record import load_run, run_payload

                baseline = load_run(args.baseline) if args.baseline else None
                current = (
                    run_payload(structured, config)
                    if baseline is not None
                    else None
                )
                advisor_data = None
                if args.advisor_json:
                    import json as _json

                    with open(args.advisor_json, "r", encoding="utf-8") as fh:
                        advisor_data = _json.load(fh)
                path = write_dashboard(
                    args.html,
                    collector.snapshot(),
                    baseline=baseline,
                    current=current,
                    advisor=advisor_data,
                )
                print(f"[dashboard] wrote {path}")
    finally:
        if runtime is not None:
            runtime.close()
            telemetry.set_live(prev_runtime)
        if trace_on:
            telemetry.set_collector(prev_collector)
    return 0


if __name__ == "__main__":
    sys.exit(main())
