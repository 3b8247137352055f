"""Calibration of the machine model against the paper's tables.

Precomputes the (machine-independent) per-thread work decompositions
for a catalog subset once, then searches the model's free parameters --
bandwidths, overlap, kernel cycle costs, residency shape -- to minimize
the weighted relative error against the paper's Table II / III / IV
aggregate cells.  The winning constants are frozen into
``repro.machine.topology.clovertown_8core`` and
``repro.machine.costmodel.CostModel`` (DESIGN.md section 6).

``--advisor-out PATH`` is a separate, much cheaper mode: instead of
fitting the paper's machine model it measures *this* host -- ns/nnz per
format, per-call overhead, per-worker dispatch costs --
and writes the JSON calibration the configuration advisor
(:mod:`repro.perf.advisor`) uses for real-clock predictions.  Point
``REPRO_ADVISOR_CALIBRATION`` at the file (or write it to the default
``advisor_calibration.json``) and ``--format auto`` picks from
measured throughput instead of the analytic fallback.

Run:  python tools/calibrate.py [--evals 400] [--scale 0.0625] [--limit 10]
      python tools/calibrate.py --advisor-out advisor_calibration.json
"""

from __future__ import annotations

import argparse
import dataclasses
import time

import numpy as np

from repro.formats.conversions import convert
from repro.machine.costmodel import CostModel
from repro.machine.engine import solve_makespan
from repro.machine.topology import clovertown_8core, place_threads
from repro.machine.traffic import VALUE_SIZE, analyze_threads
from repro.matrices.collection import ML_IDS, ML_VI_IDS, MS_IDS, MS_VI_IDS, realize

CONFIGS = ((1, "close"), (2, "close"), (2, "spread"), (4, "close"), (8, "close"))


def subset(ids, limit):
    step = max(1, len(ids) // limit)
    return tuple(ids[::step][:limit])


def precompute(scale, limit):
    """(mid, fmt) -> {config: (works, total_shared)} plus set membership."""
    ms, ml = subset(MS_IDS, limit), subset(ML_IDS, limit)
    msv, mlv = subset(MS_VI_IDS, limit), subset(ML_VI_IDS, limit)
    ids = sorted(set(ms + ml + msv + mlv))
    cache = {}
    for mid in ids:
        mat = realize(mid, scale=scale)
        fmts = ["csr", "csr-du"]
        if mid in set(msv + mlv):
            fmts.append("csr-vi")
        for fmt in fmts:
            conv = convert(mat, fmt)
            total_shared = {"x": conv.ncols * VALUE_SIZE}
            per_cfg = {}
            for threads, placement in CONFIGS:
                _, works = analyze_threads(conv, threads)
                for w in works:
                    if "vals_unique" in w.shared_bytes:
                        total_shared["vals_unique"] = w.shared_bytes["vals_unique"]
                per_cfg[(threads, placement)] = works
            cache[(mid, fmt)] = (per_cfg, total_shared)
    return cache, dict(MS=ms, ML=ml, MS_vi=msv, ML_vi=mlv)


# Paper targets: (weight, value)
T2_SPEEDUP = {  # CSR scaling vs own serial
    ("MS", (2, "close")): 1.17, ("MS", (2, "spread")): 1.93,
    ("MS", (4, "close")): 2.63, ("MS", (8, "close")): 6.19,
    ("ML", (2, "close")): 1.15, ("ML", (2, "spread")): 1.24,
    ("ML", (4, "close")): 1.28, ("ML", (8, "close")): 2.12,
}
T2_SERIAL = {"MS": 619.4, "ML": 477.8}
T3 = {  # csr-du vs csr
    ("MS", 1): 1.02, ("MS", 2): 1.24, ("MS", 4): 1.24, ("MS", 8): 1.05,
    ("ML", 1): 1.01, ("ML", 2): 1.10, ("ML", 4): 1.15, ("ML", 8): 1.20,
}
T4 = {  # csr-vi vs csr
    ("MS_vi", 1): 1.03, ("MS_vi", 2): 1.30, ("MS_vi", 4): 1.25, ("MS_vi", 8): 1.02,
    ("ML_vi", 1): 1.12, ("ML_vi", 2): 1.36, ("ML_vi", 4): 1.55, ("ML_vi", 8): 1.59,
}

PARAM_SPACE = {  # (lo, hi, log?)
    "per_element": (3.0, 10.0, False),
    "per_row": (2.0, 14.0, False),
    "du_decode_per_element": (-1.0, 3.0, False),
    "du_per_unit": (2.0, 25.0, False),
    "vi_extra_per_element": (-0.5, 7.0, False),
    "core_bw": (1.5e9, 6e9, True),
    "die_bw": (1.5e9, 6e9, True),
    "fsb_bw": (1.8e9, 7e9, True),
    "mem_bw": (2.5e9, 9e9, True),
    "overlap": (0.0, 0.9, False),
    "l2_core_bw": (4e9, 2e10, True),
    "l2_die_bw": (5e9, 3e10, True),
    "residency_exponent": (1.0, 5.0, False),
    "cache_effectiveness": (0.5, 1.0, False),
    "x_reload": (1.0, 9.0, False),
}


def build(params, scale):
    machine = dataclasses.replace(
        clovertown_8core(),
        core_bw=params["core_bw"],
        die_bw=params["die_bw"],
        fsb_bw=params["fsb_bw"],
        mem_bw=params["mem_bw"],
        l2_core_bw=params["l2_core_bw"],
        l2_die_bw=params["l2_die_bw"],
        overlap=params["overlap"],
        x_reload=params["x_reload"],
        residency_exponent=params["residency_exponent"],
        cache_effectiveness=params["cache_effectiveness"],
    ).scaled(scale)
    cost = CostModel(
        per_element=params["per_element"],
        per_row=params["per_row"],
        du_decode_per_element=params["du_decode_per_element"],
        du_per_unit=params["du_per_unit"],
        vi_extra_per_element=params["vi_extra_per_element"],
    )
    return machine, cost


def evaluate(params, cache, sets, scale, verbose=False):
    machine, cost = build(params, scale)
    placements = {cfg: place_threads(machine, cfg[0], cfg[1]) for cfg in CONFIGS}
    times = {}
    for (mid, fmt), (per_cfg, total_shared) in cache.items():
        for cfg, works in per_cfg.items():
            res = solve_makespan(
                works, placements[cfg], machine, cost, total_shared=total_shared
            )
            times[(mid, fmt, cfg)] = res.time_s

    def avg(vals):
        return sum(vals) / len(vals)

    err = 0.0
    report = []

    # serial MFLOPS
    for name in ("MS", "ML"):
        mf = avg(
            [
                2 * sum(w.nnz for w in cache[(m, "csr")][0][(1, "close")])
                / times[(m, "csr", (1, "close"))] / 1e6
                for m in sets[name]
            ]
        )
        tgt = T2_SERIAL[name]
        err += 2.0 * ((mf - tgt) / tgt) ** 2
        report.append(f"T2 serial {name}: {mf:7.1f} (paper {tgt})")

    for (name, cfg), tgt in T2_SPEEDUP.items():
        sp = avg(
            [
                times[(m, "csr", (1, "close"))] / times[(m, "csr", cfg)]
                for m in sets[name]
            ]
        )
        err += 1.5 * ((sp - tgt) / tgt) ** 2
        report.append(f"T2 {name} {cfg}: {sp:5.2f} (paper {tgt})")

    for table, fmt in ((T3, "csr-du"), (T4, "csr-vi")):
        for (name, threads), tgt in table.items():
            cfg = (threads, "close")
            sp = avg(
                [
                    times[(m, "csr", cfg)] / times[(m, fmt, cfg)]
                    for m in sets[name]
                ]
            )
            err += ((sp - tgt) / tgt) ** 2
            report.append(f"{fmt} {name} t={threads}: {sp:5.2f} (paper {tgt})")
    if verbose:
        print("\n".join(report))
    return err


def sample(rng):
    out = {}
    for k, (lo, hi, log) in PARAM_SPACE.items():
        if log:
            out[k] = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        else:
            out[k] = float(rng.uniform(lo, hi))
    return out


def perturb(rng, base, sigma=0.15):
    out = {}
    for k, (lo, hi, log) in PARAM_SPACE.items():
        v = base[k]
        if log:
            v = float(np.exp(np.log(v) + rng.normal(0, sigma)))
        else:
            v = float(v + rng.normal(0, sigma * (hi - lo)))
        out[k] = float(np.clip(v, lo, hi))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--evals", type=int, default=400)
    ap.add_argument("--scale", type=float, default=0.0625)
    ap.add_argument("--limit", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument(
        "--advisor-out",
        type=str,
        default=None,
        metavar="PATH",
        help="measure this host and write the advisor calibration JSON "
        "instead of running the machine-model search",
    )
    args = ap.parse_args()

    if args.advisor_out:
        from repro.perf.advisor.model import (
            measure_calibration,
            save_calibration,
        )

        t0 = time.time()
        cal = measure_calibration()
        save_calibration(cal, args.advisor_out)
        print(
            f"advisor calibration {cal.calibration_id} "
            f"({time.time() - t0:.1f}s) -> {args.advisor_out}"
        )
        for key in sorted(cal.ns_per_nnz):
            print(f"  {key:<22} {cal.ns_per_nnz[key]:10.2f} ns/nnz")
        print(f"  per_call               {cal.per_call_s * 1e6:10.2f} us")
        print(
            f"  thread dispatch/worker {cal.thread_call_overhead_s * 1e6:10.2f} us"
        )
        return

    t0 = time.time()
    cache, sets = precompute(args.scale, args.limit)
    print(f"precompute: {time.time() - t0:.1f}s, {len(cache)} (matrix, fmt) pairs")

    rng = np.random.default_rng(args.seed)
    best = {
        "per_element": 3.719, "per_row": 6.309,
        "du_decode_per_element": 1.68, "du_per_unit": 12.77,
        "vi_extra_per_element": 4.0, "core_bw": 3.486e9, "die_bw": 3.538e9,
        "fsb_bw": 4.041e9, "mem_bw": 5.734e9, "overlap": 0.9,
        "l2_core_bw": 1.181e10, "l2_die_bw": 1.348e10,
        "residency_exponent": 3.045, "cache_effectiveness": 0.8522,
        "x_reload": 5.0,
    }
    best_err = evaluate(best, cache, sets, args.scale)
    print(f"init err={best_err:.4f}")
    for i in range(args.evals):
        # 60% global random, 40% local perturbation of the best.
        r = rng.random()
        params = (
            sample(rng)
            if best is None or r < 0.25
            else perturb(rng, best, sigma=0.25 if r < 0.6 else 0.08)
        )
        err = evaluate(params, cache, sets, args.scale)
        if err < best_err:
            best, best_err = params, err
            print(f"[{i:4d}] err={err:8.4f}  <- new best")
    print(f"\nbest err={best_err:.4f}")
    for k, v in best.items():
        print(f"  {k} = {v:.4g}")
    print()
    evaluate(best, cache, sets, args.scale, verbose=True)


if __name__ == "__main__":
    main()
