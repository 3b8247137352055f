"""Advisor pick vs exhaustive oracle: per-matrix regret on this host.

For a corpus drawn from the paper catalog (MS, ML, and their VI
subsets), the configuration advisor (:mod:`repro.perf.advisor`) picks
one format per matrix from structural features plus a freshly measured
host calibration.  The oracle is the exhaustive alternative: every
candidate configuration is measured, real wall-clock, and the fastest
wins.  Per-matrix **regret** is

    advisor-picked measured seconds / oracle-best measured seconds

so 1.0 means the advisor found the optimum and 1.25 means its pick ran
25% slower.  The documented safety contract is
:data:`repro.perf.advisor.advisor.REGRET_BOUND`: the *geometric mean* regret
over the corpus must stay at or under it, and the run exits nonzero if
it does not.

Also checked, because ``auto`` is only trustworthy if it is a pure
selector: ``make_executor(..., format_name="auto")`` must produce a
``y`` bit-identical to the same executor built with the advisor's pick
spelled explicitly.  Every advise call emits an ``advisor.pick``
telemetry event and the realized wall clock of the picked config is
reported back via :func:`repro.perf.advisor.advisor.record_realized`, so the
prediction-error column in the HTML dashboard has live pairs to chart.

The JSON carries the cells under ``experiments.advisor.cells`` -- the
exact shape :mod:`repro.bench.baseline` flattens -- so the perf gate
can track advisor quality directly::

    python tools/perf_gate.py BENCH_advisor.json --history perf_history.json

``--smoke`` shrinks everything (3 matrices, tiny scale, one call per
cell, no JSON) for CI: it checks that advise runs end to end, that the
pick is never catastrophically wrong, that ``advisor.pick`` events are
emitted, and that ``--format auto`` stays bit-identical, in seconds.

Run:  PYTHONPATH=src python benchmarks/microbench_advisor.py [--out PATH] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from repro.formats.conversions import convert
from repro.matrices.collection import (
    ML_IDS,
    ML_VI_IDS,
    MS_IDS,
    MS_VI_IDS,
    realize,
)
from repro.parallel.backends import make_executor
from repro.perf.advisor.advisor import (
    REGRET_BOUND,
    advise,
    advise_format,
    record_realized,
)
from repro.perf.advisor.features import extract_features
from repro.perf.advisor.model import ADVISOR_FORMATS, measure_calibration
from repro.telemetry import core as telemetry
from repro.util.hostinfo import host_fingerprint
from repro.util.timing import measure


def corpus(smoke: bool) -> tuple[int, ...]:
    """Catalog ids: both size classes, both value distributions.

    Full mode spreads ~10 matrices over MS / ML / MS_vi / ML_vi so the
    advisor faces cases where each format should win; smoke keeps one
    per interesting class.
    """

    def subset(ids, limit):
        step = max(1, len(ids) // limit)
        return tuple(ids[::step][:limit])

    if smoke:
        return tuple(sorted({MS_IDS[0], MS_VI_IDS[0], ML_VI_IDS[0]}))
    picks = (
        subset(MS_IDS, 3)
        + subset(ML_IDS, 2)
        + subset(MS_VI_IDS, 3)
        + subset(ML_VI_IDS, 2)
    )
    return tuple(sorted(set(picks)))


def _key(fmt: str, threads: int, backend: str) -> str:
    """Result key; every candidate runs the format's own spmv."""
    return f"{fmt}|cached|t{threads}|{backend}"


def oracle_sweep(
    matrix, x: np.ndarray, *, calls: int, repeats: int
) -> dict[str, float]:
    """Measured per-call seconds of every candidate format's ``spmv``."""
    measured: dict[str, float] = {}
    for fmt in ADVISOR_FORMATS:
        conv = convert(matrix, fmt)
        conv.spmv(x)  # warm: caches, lazy buffers
        seconds = measure(
            lambda: conv.spmv(x), calls=calls, repeats=repeats
        ).per_call
        measured[_key(fmt, 1, "thread")] = seconds
    return measured


def check_auto_bit_identity(matrix) -> tuple[bool, str]:
    """``format_name="auto"`` must equal the explicit pick bit for bit."""
    x = np.random.default_rng(11).standard_normal(matrix.ncols)
    picked = advise_format(matrix, threads=1, backend="thread")
    with make_executor(matrix, 1, format_name="auto") as auto_exec:
        y_auto = auto_exec(x)
    with make_executor(matrix, 1, format_name=picked) as explicit_exec:
        y_explicit = explicit_exec(x)
    return bool(np.array_equal(y_auto, y_explicit)), picked


def run_corpus(
    ids: tuple[int, ...], *, scale: float, calls: int, repeats: int, cal
) -> list[dict]:
    rows: list[dict] = []
    for mid in ids:
        matrix = realize(mid, scale=scale)
        features = extract_features(matrix)
        x = np.random.default_rng(mid).standard_normal(matrix.ncols)
        choice = advise(
            features, matrix_id=mid, clock="real", calibration=cal
        )
        best = choice.best
        picked_key = _key(
            best.config.format_name, best.config.threads, best.config.backend
        )
        measured = oracle_sweep(matrix, x, calls=calls, repeats=repeats)
        oracle_key = min(measured, key=measured.get)
        oracle_s = measured[oracle_key]
        picked_s = measured[picked_key]
        record_realized(choice, picked_s, matrix_id=mid)
        top3 = {
            _key(p.config.format_name, p.config.threads, p.config.backend)
            for p in choice.top(3)
        }
        rows.append(
            {
                "matrix": f"cat{mid:02d}",
                "matrix_id": mid,
                "nnz": int(matrix.nnz),
                "nrows": int(matrix.nrows),
                "predicted": picked_key,
                "predicted_s": best.seconds,
                "measured_s": picked_s,
                "oracle": oracle_key,
                "oracle_s": oracle_s,
                "regret": picked_s / oracle_s,
                "prediction_error": (best.seconds - picked_s) / picked_s,
                "top1_hit": picked_key == oracle_key,
                "top3_hit": oracle_key in top3,
                "source": best.source,
            }
        )
        r = rows[-1]
        print(
            f"cat{mid:02d} nnz={r['nnz']:>8}  pick={picked_key:<28} "
            f"oracle={oracle_key:<28} regret={r['regret']:.3f} "
            f"err={r['prediction_error']:+.1%}"
        )
    return rows


def summarize(rows: list[dict], bit_identical: bool) -> dict:
    regrets = [r["regret"] for r in rows]
    return {
        "nmatrices": len(rows),
        "geomean_regret": math.exp(
            sum(math.log(r) for r in regrets) / len(regrets)
        ),
        "max_regret": max(regrets),
        "top1_rate": sum(r["top1_hit"] for r in rows) / len(rows),
        "top3_rate": sum(r["top3_hit"] for r in rows) / len(rows),
        "bit_identical": bit_identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=str, default="BENCH_advisor.json", help="output JSON path"
    )
    parser.add_argument(
        "--scale", type=float, default=0.0625, help="catalog working-set scale"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="3 matrices, tiny scale, one call per cell, no JSON (CI)",
    )
    args = parser.parse_args(argv)

    scale = 0.03125 if args.smoke else args.scale
    calls, repeats = (1, 1) if args.smoke else (4, 2)

    prev = telemetry.set_collector(telemetry.Collector())
    try:
        if args.smoke:
            cal = measure_calibration(probe_size=4_000, calls=2, repeats=1)
        else:
            cal = measure_calibration()
        print(f"calibration {cal.calibration_id} on {cal.host.get('cpus')} cpu(s)")
        ids = corpus(args.smoke)
        rows = run_corpus(
            ids, scale=scale, calls=calls, repeats=repeats, cal=cal
        )
        bit_identical, auto_pick = check_auto_bit_identity(
            realize(ids[0], scale=scale)
        )
        picks = [
            ev
            for ev in telemetry.get_collector().snapshot()
            if ev.name == "advisor.pick"
        ]
    finally:
        telemetry.set_collector(prev)

    summary = summarize(rows, bit_identical)
    # One advise + one realized event per matrix, plus the bit-identity
    # check's internal advise calls.
    events_ok = len(picks) >= 2 * len(rows)
    print(
        f"\ngeomean regret {summary['geomean_regret']:.3f}x "
        f"(bound {REGRET_BOUND}x), top-1 {summary['top1_rate']:.0%}, "
        f"top-3 {summary['top3_rate']:.0%}, auto({auto_pick}) "
        f"bit-identical={bit_identical}, {len(picks)} advisor.pick events"
    )

    problems = []
    if summary["geomean_regret"] > REGRET_BOUND:
        problems.append(
            f"geomean regret {summary['geomean_regret']:.3f} exceeds the "
            f"documented bound {REGRET_BOUND}"
        )
    if not bit_identical:
        problems.append("--format auto y diverged from the explicit pick")
    if not events_ok:
        problems.append(
            f"expected >= {2 * len(rows)} advisor.pick events, saw {len(picks)}"
        )
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    if args.smoke:
        print(f"smoke: {len(rows)} matrices, {len(problems)} problems")
        return 1 if problems else 0

    cells: dict[str, dict] = {
        f"{r['matrix']}|regret": {
            "regret": r["regret"],
            "advisor_s": r["measured_s"],
            "oracle_s": r["oracle_s"],
        }
        for r in rows
    }
    cells["summary|regret"] = {
        "geomean_regret": summary["geomean_regret"],
        "max_regret": summary["max_regret"],
        "top1_rate": summary["top1_rate"],
        "top3_rate": summary["top3_rate"],
    }
    payload = {
        "benchmark": "advisor pick vs exhaustive oracle (real wall-clock)",
        "host": host_fingerprint(calibration_id=cal.calibration_id),
        "scale": scale,
        "regret_bound": REGRET_BOUND,
        "note": (
            "regret = advisor-picked measured seconds / oracle-best "
            "measured seconds over the full candidate sweep; geometric "
            "mean must stay under regret_bound"
        ),
        "results": rows,
        "summary": summary,
        # perf_gate-compatible shape: flatten_run() reads experiments.*
        "experiments": {"advisor": {"cells": cells}},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
