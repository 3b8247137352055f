"""Reference vs batched CSR-DU encode microbenchmark.

Times the per-unit reference pipeline (:func:`repro.compress.ctl.
encode_ctl_reference`: ``unitize`` feeding a ``CtlWriter``) against the
vectorized one-pass encoder (:func:`repro.compress.encode_batched.
encode_ctl_batched`) on a stencil/banded set, asserts the two ctl
streams are *byte-identical*, and records encode throughput plus the
speedup in ``BENCH_encode.json``.

The JSON carries the cells under ``experiments.encode.cells`` -- the
exact shape :mod:`repro.bench.baseline` flattens -- so the perf gate
can track encode throughput directly::

    python tools/perf_gate.py BENCH_encode.json --history perf_history.json

``--smoke`` skips the timing (CI-friendly: seconds, not minutes) and
only sweeps bit-identity across policies, ``max_unit`` boundary values
and empty-row patterns on tiny matrices.

Run:  PYTHONPATH=src python benchmarks/microbench_encode.py [--out PATH] [--smoke]
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.compress.ctl import encode_ctl_reference
from repro.compress.encode_batched import encode_ctl_batched
from repro.compress.unit_table import scan_units
from repro.formats.csr import CSRMatrix
from repro.matrices.generators import banded_random, stencil_2d
from repro.util.timing import measure

#: (name, COO builder).
CASES = (
    ("stencil2d-512x512-5pt", lambda: stencil_2d(512, 512, points=5)),
    ("stencil2d-160x160-9pt", lambda: stencil_2d(160, 160, points=9)),
    ("banded-100k-bw16", lambda: banded_random(100_000, 16, 8, seed=3)),
)

#: The acceptance floor: batched must beat reference by this much on
#: every full-size case.
SPEEDUP_FLOOR = 20.0


def bench_case(name: str, build, policy: str = "greedy") -> dict:
    coo = build()
    csr = CSRMatrix.from_coo(coo)
    row_ptr = csr.row_ptr.astype(np.int64)
    col_ind = csr.col_ind.astype(np.int64)

    ref_ctl = encode_ctl_reference(row_ptr, col_ind, policy=policy)
    enc = encode_ctl_batched(row_ptr, col_ind, policy=policy)
    bit_identical = ref_ctl == enc.ctl
    scanned = scan_units(ref_ctl)
    table_identical = all(
        np.array_equal(getattr(scanned, f), getattr(enc.table, f))
        for f in ("flags", "sizes", "classes", "rows", "new_row", "seq",
                  "ujmps", "strides", "body_offsets", "ctl_offsets")
    )

    # The reference encoder is interpreter-bound (seconds per call at
    # 1M nnz), so few calls suffice; the batched encoder gets more.
    m_ref = measure(
        lambda: encode_ctl_reference(row_ptr, col_ind, policy=policy),
        calls=2,
        repeats=2,
    )
    m_bat = measure(
        lambda: encode_ctl_batched(row_ptr, col_ind, policy=policy),
        calls=10,
        repeats=3,
    )
    nnz = int(col_ind.size)
    result = {
        "name": name,
        "policy": policy,
        "nrows": int(csr.nrows),
        "ncols": int(csr.ncols),
        "nnz": nnz,
        "nunits": int(enc.table.nunits),
        "ctl_bytes": len(enc.ctl),
        "reference_s": m_ref.per_call,
        "batched_s": m_bat.per_call,
        "reference_mnnz_per_s": nnz / m_ref.per_call / 1e6,
        "batched_mnnz_per_s": nnz / m_bat.per_call / 1e6,
        "speedup": m_ref.per_call / m_bat.per_call,
        "bit_identical": bool(bit_identical),
        "table_identical": bool(table_identical),
    }
    print(
        f"{name:<24} nnz={nnz:>9} "
        f"reference={result['reference_mnnz_per_s']:7.2f} Mnnz/s  "
        f"batched={result['batched_mnnz_per_s']:7.2f} Mnnz/s  "
        f"speedup={result['speedup']:6.1f}x  "
        f"bit-identical={bit_identical}"
    )
    return result


def _smoke_matrices() -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Tiny structures covering the encoder's decision points."""
    rng = np.random.default_rng(11)
    out = []
    coo = stencil_2d(12, 12, points=5)
    csr = CSRMatrix.from_coo(coo)
    out.append(("stencil", csr.row_ptr.astype(np.int64), csr.col_ind.astype(np.int64)))
    # Empty rows (RJMP path), including leading and trailing ones.
    out.append((
        "empty-rows",
        np.asarray([0, 0, 3, 3, 3, 7, 7], dtype=np.int64),
        np.asarray([1, 5, 260, 0, 2, 70000, 70001], dtype=np.int64),
    ))
    # Alternating width classes (greedy absorption blocks).
    deltas = np.asarray([3, 300, 2, 400, 1, 500, 9, 600, 4] * 3, dtype=np.int64)
    out.append((
        "alternating",
        np.asarray([0, deltas.size], dtype=np.int64),
        np.cumsum(deltas),
    ))
    # Constant-stride stretches (seq policy) plus random tails.
    cols = np.unique(
        np.concatenate([np.arange(0, 64, 2), rng.integers(100, 4000, 40)])
    ).astype(np.int64)
    out.append(("seq-runs", np.asarray([0, cols.size], dtype=np.int64), cols))
    return out


def smoke() -> int:
    """Bit-identity sweep only; returns the number of mismatches."""
    failures = 0
    checks = 0
    for name, row_ptr, col_ind in _smoke_matrices():
        for policy in ("greedy", "aligned", "seq"):
            for max_unit in (2, 3, 5, 254, 255):
                checks += 1
                ref = encode_ctl_reference(
                    row_ptr, col_ind, policy=policy, max_unit=max_unit
                )
                enc = encode_ctl_batched(
                    row_ptr, col_ind, policy=policy, max_unit=max_unit
                )
                if ref != enc.ctl:
                    failures += 1
                    print(
                        f"SMOKE FAIL {name} policy={policy} max_unit={max_unit}: "
                        f"{len(ref)} vs {len(enc.ctl)} bytes",
                        file=sys.stderr,
                    )
    print(f"smoke: {checks} encode comparisons, {failures} mismatches")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=str, default="BENCH_encode.json", help="output JSON path"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="bit-identity sweep on tiny matrices only (no timing, no JSON)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return 1 if smoke() else 0

    results = [bench_case(name, build) for name, build in CASES]
    cells = {
        r["name"]: {
            "reference_mnnz_per_s": r["reference_mnnz_per_s"],
            "batched_mnnz_per_s": r["batched_mnnz_per_s"],
            "speedup": r["speedup"],
        }
        for r in results
    }
    payload = {
        "benchmark": "csr-du reference vs batched one-pass encode",
        "encoders": {
            "reference": "repro.compress.ctl.encode_ctl_reference",
            "batched": "repro.compress.encode_batched.encode_ctl_batched",
        },
        "note": (
            "serial wall-clock on the development container; relative "
            "numbers are the claim, absolute throughput is host-specific"
        ),
        "results": results,
        # perf_gate-compatible shape: flatten_run() reads experiments.*
        "experiments": {"encode": {"cells": cells}},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    ok = all(r["bit_identical"] and r["table_identical"] for r in results)
    slow = [r for r in results if r["speedup"] < SPEEDUP_FLOOR]
    if slow:
        for r in slow:
            print(
                f"FAIL: {r['name']} speedup {r['speedup']:.1f}x below "
                f"{SPEEDUP_FLOOR:.0f}x floor",
                file=sys.stderr,
            )
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
