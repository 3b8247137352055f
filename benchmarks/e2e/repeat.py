"""Repeatability record: two batches of ten seeds per workload.

    python3 benchmarks/e2e/repeat.py --out benchmarks/e2e/repeatability.json

Each batch runs ``run.py --workload W --seed S --trace 0`` for ten new
seeds and every workload, seed-major, so its two sets of five (odd and
even positions) alternate in time.  For every (workload, end-to-end
metric) and batch it records the median, the quartiles and the relative
IQR over the ten runs (as ``statistics.quantiles(values, n=4)`` gives
them) and the median of each set, and the second batch's median change
from the first.  The summary compares each spread and change with the
metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from passes import WORKLOADS
from run import E2E, HERE, ROOT, RUN_SECONDS

BATCHES = 2
SEEDS = 10  # per batch: the runs whose quartiles give a metric's spread


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return {m: v["value"] for m, v in result["metrics"].items()}


def batch_stats(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    set_a, set_b = statistics.median(values[0::2]), statistics.median(values[1::2])
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "rel_iqr": (q3 - q1) / med,
        "set_a_median": set_a,
        "set_b_median": set_b,
        "b_vs_a": set_b / set_a - 1,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    record = {w: {m: {"batches": []} for m, _ in E2E} for w in WORKLOADS}
    for batch in range(BATCHES):
        seeds = range(batch * SEEDS + 1, (batch + 1) * SEEDS + 1)
        runs = {w: [] for w in WORKLOADS}
        for seed in seeds:
            for workload in WORKLOADS:
                runs[workload].append(run_once(workload, seed))
                print(workload, seed, runs[workload][-1], flush=True)
        for workload, results in runs.items():
            for metric, _ in E2E:
                stats = batch_stats([r[metric] for r in results])
                record[workload][metric]["batches"].append({"seeds": [seeds[0], seeds[-1]], **stats})
    for metrics in record.values():
        for entry in metrics.values():
            first, second = entry["batches"]
            entry["second_vs_first"] = second["median"] / first["median"] - 1
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, metrics in record.items():
        for metric, entry in metrics.items():
            spreads = " ".join(f"{b['rel_iqr']:.3f}" for b in entry["batches"])
            print(
                f"{workload} {metric} bound {bounds[metric]} rel_iqr {spreads}"
                f" second_vs_first {entry['second_vs_first']:+.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
