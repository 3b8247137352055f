"""Self-contained HTML performance report (the ``report-html`` output).

One file, zero external assets (inline CSS -- it must open from a mail
attachment or CI artifact with no network), rendering:

* the **attribution table** -- every ``perf.attribution`` record the
  run emitted (one per measured bench cell), with the byte split,
  FLOP:byte ratio, effective bandwidth, %-of-roofline, binding
  constraint, imbalance ratios and compression-vs-speedup columns;
* the **compression correlation** -- Pearson r between size reduction
  and speedup across attributed cells, the paper's headline claim;
* the **advisor summary** -- per-matrix predicted config vs exhaustive
  oracle config, regret and prediction error, rendered from a
  ``BENCH_advisor.json`` bundle (``--advisor-json``) and/or the
  ``advisor.pick`` telemetry events the run emitted;
* the **reliability summary** -- encode-cache and shard-cache hit
  ratios, kernel fallbacks, executor retries and SLO alerts;
* **baseline deltas** -- worst relative movements of the current
  recorded run against a baseline bundle, when both are given.

Everything renders from data already collected elsewhere (telemetry
events, recorded-run JSON); this module only formats.
"""

from __future__ import annotations

import html
from typing import Any, Iterable

from repro.bench.compare import compare_runs
from repro.perf.attribution import compression_speedup_correlation
from repro.perf.imbalance import _as_dicts

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 75em; color: #1c2733; }
h1 { font-size: 1.5em; border-bottom: 2px solid #2b6cb0; padding-bottom: .3em; }
h2 { font-size: 1.15em; margin-top: 2em; color: #2b6cb0; }
table { border-collapse: collapse; font-size: .85em; width: 100%; }
th, td { border: 1px solid #cbd5e0; padding: .25em .5em; text-align: right; }
th { background: #edf2f7; }
td.l, th.l { text-align: left; }
tr:nth-child(even) td { background: #f7fafc; }
.note { color: #4a5568; font-size: .9em; }
.bad { color: #c53030; font-weight: bold; }
.ok { color: #2f855a; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def attribution_records(events: Iterable[Any]) -> list[dict]:
    """Rebuild attribution rows from ``perf.attribution`` events.

    Each event's attrs carry the labels (``format``, ``threads``,
    ``placement``) plus the full numeric payload, so the record
    round-trips through a JSONL trace unchanged.
    """
    rows = []
    for ev in _as_dicts(events):
        if ev.get("name") != "perf.attribution":
            continue
        rows.append(dict(ev["attrs"]))
    rows.sort(
        key=lambda r: (
            r.get("matrix_id", -1),
            str(r.get("format", "")),
            r.get("threads", 0),
            str(r.get("placement", "")),
        )
    )
    return rows


def _attribution_table(rows: list[dict]) -> str:
    if not rows:
        return "<p class=note>No attribution records in this run.</p>"
    head = (
        "<tr><th>matrix</th><th class=l>format</th><th>thr</th>"
        "<th class=l>place</th><th>time (s)</th><th>MFLOPS</th>"
        "<th>bytes/iter</th><th>index</th><th>value</th><th>vector</th>"
        "<th>F:B</th><th>GB/s</th><th>roofline</th><th class=l>bound</th>"
        "<th>nnz imb</th><th>t imb</th><th>size vs CSR</th>"
        "<th>speedup</th><th>setup (s)</th></tr>"
    )
    body = []
    for r in rows:
        pct = float(r.get("roofline_pct", 0.0))
        cls = "ok" if pct >= 50.0 else ""
        speedup = float(r.get("speedup_vs_csr", 0.0))
        body.append(
            "<tr>"
            f"<td>{_esc(r.get('matrix_id', '?'))}</td>"
            f"<td class=l>{_esc(r.get('format', '?'))}</td>"
            f"<td>{_esc(r.get('threads', '?'))}</td>"
            f"<td class=l>{_esc(r.get('placement', '?'))}</td>"
            f"<td>{float(r.get('time_s', 0.0)):.3e}</td>"
            f"<td>{float(r.get('mflops', 0.0)):.1f}</td>"
            f"<td>{int(r.get('bytes_per_iter', 0))}</td>"
            f"<td>{int(r.get('index_bytes', 0))}</td>"
            f"<td>{int(r.get('value_bytes', 0))}</td>"
            f"<td>{int(r.get('vector_bytes', 0))}</td>"
            f"<td>{float(r.get('flops_per_byte', 0.0)):.3f}</td>"
            f"<td>{float(r.get('effective_gbps', 0.0)):.2f}</td>"
            f"<td class='{cls}'>{pct:.1f}%</td>"
            f"<td class=l>{_esc(r.get('bound', '?'))}</td>"
            f"<td>{float(r.get('nnz_imbalance', 1.0)):.3f}</td>"
            f"<td>{float(r.get('time_imbalance', 1.0)):.3f}</td>"
            f"<td>{float(r.get('compression_ratio', 1.0)):.3f}</td>"
            f"<td>{speedup:.3f}</td>"
            f"<td>{float(r.get('setup_s', 0.0)):.3e}</td>"
            "</tr>"
        )
    return f"<table>{head}{''.join(body)}</table>"


def _correlation_section(rows: list[dict]) -> str:
    points = [
        (1.0 - float(r["compression_ratio"]), float(r["speedup_vs_csr"]))
        for r in rows
        if float(r.get("speedup_vs_csr", 0.0)) > 0.0
        and "compression_ratio" in r
    ]
    if len(points) < 2:
        return (
            "<p class=note>Not enough attributed compressed cells for a "
            "compression-vs-speedup correlation.</p>"
        )
    r = compression_speedup_correlation(points)
    return (
        f"<p>Pearson correlation between size reduction and speedup over "
        f"{len(points)} compressed cells: <b>{r:+.3f}</b> "
        "(the paper's claim is that smaller streams run faster once "
        "bandwidth binds, i.e. positive).</p>"
    )


def _reliability_section(events: Iterable[Any], *, max_alerts: int = 50) -> str:
    """Run-health headline: cache hit ratio, degradations, SLO alerts.

    Rebuilt from the raw counter events (not collector aggregates) so
    the section renders identically from a live run or a replayed
    JSONL trace.
    """
    totals = {
        "convert.cache.hit": 0.0,
        "convert.cache.miss": 0.0,
        "kernel.fallback": 0.0,
        "executor.retry": 0.0,
        "storage.shard.attach": 0.0,
        "storage.shard.write": 0.0,
        "storage.shard.cache.hit": 0.0,
        "storage.shard.cache.miss": 0.0,
    }
    alerts: list[dict] = []
    for ev in _as_dicts(events):
        name = ev.get("name")
        if name in totals and ev.get("kind") == "counter":
            totals[name] += float(ev.get("value", 0.0))
        elif name == "obs.alert":
            alerts.append(ev)
    lookups = totals["convert.cache.hit"] + totals["convert.cache.miss"]
    ratio = totals["convert.cache.hit"] / lookups if lookups else 0.0
    degraded = totals["kernel.fallback"] or totals["executor.retry"] or alerts
    cls = "bad" if degraded else "ok"
    parts = [
        f"<p>Encode-cache hit ratio <b>{ratio:.1%}</b> "
        f"({totals['convert.cache.hit']:g} hits / "
        f"{totals['convert.cache.miss']:g} misses); "
        f"<span class='{cls}'>{totals['kernel.fallback']:g} kernel "
        f"fallbacks, {totals['executor.retry']:g} executor retries, "
        f"{len(alerts)} SLO alerts</span>.</p>"
    ]
    shard_lookups = (
        totals["storage.shard.cache.hit"] + totals["storage.shard.cache.miss"]
    )
    if shard_lookups or totals["storage.shard.attach"]:
        shard_ratio = (
            totals["storage.shard.cache.hit"] / shard_lookups
            if shard_lookups
            else 0.0
        )
        parts.append(
            f"<p>Shard storage: worker cache hit ratio "
            f"<b>{shard_ratio:.1%}</b> "
            f"({totals['storage.shard.cache.hit']:g} hits / "
            f"{totals['storage.shard.cache.miss']:g} misses), "
            f"{totals['storage.shard.attach']:g} attaches, "
            f"{totals['storage.shard.write']:g} shard writes.</p>"
        )
    if alerts:
        head = (
            "<tr><th class=l>rule</th><th class=l>expression</th>"
            "<th>observed</th><th>bound</th></tr>"
        )
        body = []
        for ev in alerts[:max_alerts]:
            attrs = ev.get("attrs", {})
            body.append(
                "<tr>"
                f"<td class=l>{_esc(attrs.get('rule', '?'))}</td>"
                f"<td class=l>{_esc(attrs.get('expr', '?'))}</td>"
                f"<td class=bad>{_esc(attrs.get('value', '?'))}</td>"
                f"<td>{_esc(attrs.get('threshold', '?'))}</td></tr>"
            )
        parts.append(f"<table>{head}{''.join(body)}</table>")
        if len(alerts) > max_alerts:
            parts.append(
                f"<p class=note>Showing {max_alerts} of {len(alerts)} "
                "alerts.</p>"
            )
    return "".join(parts)


def _advisor_section(
    events: Iterable[Any], advisor: dict | None = None
) -> str:
    """Advisor quality: predicted config vs oracle, regret, error.

    Two sources, both optional: a ``BENCH_advisor.json`` bundle (the
    microbench's oracle sweep -- carries per-matrix regret) and the
    run's own ``advisor.pick`` events (advise/realized pairs emitted
    live by :func:`repro.perf.advisor.advisor.advise`).
    """
    parts: list[str] = []
    if advisor:
        summary = advisor.get("summary", {})
        geo = float(summary.get("geomean_regret", 0.0))
        bound = float(advisor.get("regret_bound", 0.0))
        cls = "ok" if not bound or geo <= bound else "bad"
        parts.append(
            f"<p>Oracle sweep over {int(summary.get('nmatrices', 0))} "
            f"matrices: geometric-mean regret "
            f"<span class='{cls}'><b>{geo:.3f}x</b></span>"
            + (f" (bound {bound:g}x)" if bound else "")
            + f", top-1 hit rate {float(summary.get('top1_rate', 0.0)):.0%}, "
            f"top-3 hit rate {float(summary.get('top3_rate', 0.0)):.0%}, "
            f"<code>--format auto</code> bit-identical: "
            f"<b>{summary.get('bit_identical', '?')}</b>.</p>"
        )
        results = advisor.get("results", [])
        if results:
            head = (
                "<tr><th class=l>matrix</th><th>nnz</th>"
                "<th class=l>predicted config</th>"
                "<th class=l>oracle config</th><th>predicted (s)</th>"
                "<th>measured (s)</th><th>oracle (s)</th><th>regret</th>"
                "<th>pred err</th></tr>"
            )
            body = []
            for r in results:
                regret = float(r.get("regret", 1.0))
                rcls = "bad" if bound and regret > bound else ""
                body.append(
                    "<tr>"
                    f"<td class=l>{_esc(r.get('matrix', '?'))}</td>"
                    f"<td>{int(r.get('nnz', 0))}</td>"
                    f"<td class=l>{_esc(r.get('predicted', '?'))}</td>"
                    f"<td class=l>{_esc(r.get('oracle', '?'))}</td>"
                    f"<td>{float(r.get('predicted_s', 0.0)):.3e}</td>"
                    f"<td>{float(r.get('measured_s', 0.0)):.3e}</td>"
                    f"<td>{float(r.get('oracle_s', 0.0)):.3e}</td>"
                    f"<td class='{rcls}'>{regret:.3f}</td>"
                    f"<td>{float(r.get('prediction_error', 0.0)):+.1%}</td>"
                    "</tr>"
                )
            parts.append(f"<table>{head}{''.join(body)}</table>")
    picks = [
        dict(ev.get("attrs", {}))
        for ev in _as_dicts(events)
        if ev.get("name") == "advisor.pick"
    ]
    if picks:
        head = (
            "<tr><th>matrix</th><th class=l>format</th><th class=l>kernel</th>"
            "<th>thr</th><th class=l>backend</th><th class=l>source</th>"
            "<th class=l>phase</th><th>predicted (s)</th>"
            "<th>realized (s)</th></tr>"
        )
        body = []
        for p in picks:
            body.append(
                "<tr>"
                f"<td>{_esc(p.get('matrix_id', '?'))}</td>"
                f"<td class=l>{_esc(p.get('format', '?'))}</td>"
                f"<td class=l>{_esc(p.get('kernel', '?'))}</td>"
                f"<td>{_esc(p.get('threads', '?'))}</td>"
                f"<td class=l>{_esc(p.get('backend', '?'))}</td>"
                f"<td class=l>{_esc(p.get('source', '?'))}</td>"
                f"<td class=l>{_esc(p.get('phase', '?'))}</td>"
                f"<td>{float(p.get('predicted_s', 0.0)):.3e}</td>"
                f"<td>{float(p.get('realized_s', 0.0)):.3e}</td>"
                "</tr>"
            )
        parts.append(
            f"<p class=note>{len(picks)} advisor.pick events in this "
            f"run.</p><table>{head}{''.join(body)}</table>"
        )
    if not parts:
        return (
            "<p class=note>No advisor data: pass --advisor-json with a "
            "BENCH_advisor.json, or run with --format/--threads "
            "auto to emit advisor.pick events.</p>"
        )
    return "".join(parts)


def _delta_table(baseline: dict, current: dict, *, top: int = 20) -> str:
    deviations, mismatches = compare_runs(baseline, current)
    moved = sorted(deviations, key=lambda d: -d.relative)
    head = (
        "<tr><th class=l>result</th><th>baseline</th><th>current</th>"
        "<th>moved</th></tr>"
    )
    body = []
    for d in moved[:top]:
        cls = "bad" if d.relative > 0.02 else ""
        body.append(
            "<tr>"
            f"<td class=l>{_esc(d.path)}</td><td>{d.old:.6g}</td>"
            f"<td>{d.new:.6g}</td>"
            f"<td class='{cls}'>{d.relative:.2%}</td></tr>"
        )
    parts = [
        f"<p>{len(deviations)} shared results, "
        f"{len(mismatches)} structural mismatches; worst movements:</p>",
        f"<table>{head}{''.join(body)}</table>",
    ]
    if mismatches:
        items = "".join(f"<li>{_esc(p)}</li>" for p in mismatches[:top])
        parts.append(f"<p class=note>Only in one run:</p><ul>{items}</ul>")
    return "".join(parts)


def render_dashboard(
    events: Iterable[Any],
    *,
    title: str = "SpMV performance report",
    baseline: dict | None = None,
    current: dict | None = None,
    advisor: dict | None = None,
) -> str:
    """The full report as one self-contained HTML string."""
    evs = _as_dicts(events)
    rows = attribution_records(evs)
    sections = [
        f"<h1>{_esc(title)}</h1>",
        f"<h2>Attribution ({len(rows)} cells)</h2>",
        _attribution_table(rows),
        "<h2>Compression vs speedup</h2>",
        _correlation_section(rows),
        "<h2>Advisor (predicted vs oracle)</h2>",
        _advisor_section(evs, advisor),
        "<h2>Reliability and SLO alerts</h2>",
        _reliability_section(evs),
    ]
    if baseline is not None and current is not None:
        sections.append("<h2>Baseline deltas</h2>")
        sections.append(_delta_table(baseline, current))
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body>{''.join(sections)}</body></html>\n"
    )


def write_dashboard(path, events: Iterable[Any], **kwargs) -> str:
    """Render and write the report; returns *path* (for logging)."""
    text = render_dashboard(events, **kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)
