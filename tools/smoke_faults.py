"""Fault-injection smoke check: no silent wrong answer, ever.

Sweeps the seeded fault catalogue (:mod:`repro.robust.inject`) over
every compressed paper format and asserts the integrity contract:

* every **must-catch** corruption of a *sealed* matrix is caught by
  ``verify()`` (:class:`~repro.errors.IntegrityError` or a decode
  error);
* every **structural** corruption is caught even *without* a seal;
* any corruption ``verify()`` does not catch must still be harmless:
  the corrupted matrix's ``y = A x`` either raises during the kernel
  or is bit-identical to the uncorrupted matrix's — a fault that
  changes ``y`` without tripping any check is a **silent wrong
  answer**, and exactly one of those fails this tool.

The sweep is fully deterministic (seeded generators end to end), so a
CI failure here reproduces locally byte for byte.

Run:  PYTHONPATH=src python tools/smoke_faults.py [--seeds 5] [--size 64]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.errors import ReproError
from repro.formats.conversions import convert
from repro.formats.csr import CSRMatrix
from repro.robust.inject import FaultNotApplicable, applicable_faults, inject
from repro.robust.validate import seal

#: Compressed formats the adversarial sweep targets.
FORMATS = ("csr", "csr-vi", "csr-du", "csr-du-vi")


def _build_matrix(size: int) -> CSRMatrix:
    """A deterministic test matrix with repeated values (CSR-VI bait)."""
    rng = np.random.default_rng(42)
    dense = (rng.random((size, size)) < 0.12) * np.round(
        rng.random((size, size)), 2
    )
    # An empty row exercises the RJMP path of the ctl stream.
    dense[size // 2, :] = 0.0
    return CSRMatrix.from_dense(dense)


def run(*, seeds: int = 5, size: int = 64) -> int:
    """Run the sweep; 0 when the contract holds everywhere."""
    csr = _build_matrix(size)
    rng = np.random.default_rng(7)
    x = rng.random(csr.ncols)
    violations = 0
    caught = silent_ok = injected = skipped = 0

    for fmt in FORMATS:
        healthy = convert(csr, fmt)
        y_ref = healthy.spmv(x)
        seal(healthy)
        healthy.verify()
        for fault in applicable_faults(fmt):
            for seed_n in range(seeds):
                try:
                    victim = inject(healthy, fault, seed_n)
                except FaultNotApplicable:
                    skipped += 1
                    continue
                injected += 1
                try:
                    victim.verify()
                    verified = True
                except ReproError:
                    verified = False
                    caught += 1
                if verified and fault.must_catch:
                    print(
                        f"smoke_faults: MUST-CATCH MISSED: {fmt} / "
                        f"{fault.name} seed {seed_n} passed verify() on a "
                        "sealed matrix",
                        file=sys.stderr,
                    )
                    violations += 1
                    continue
                if verified:
                    # Not caught: the fault must then be harmless.
                    try:
                        y = victim.spmv(x)
                    except ReproError:
                        caught += 1
                        continue
                    if np.array_equal(y, y_ref):
                        silent_ok += 1
                    else:
                        print(
                            f"smoke_faults: SILENT WRONG ANSWER: {fmt} / "
                            f"{fault.name} seed {seed_n} changed y without "
                            "tripping any check",
                            file=sys.stderr,
                        )
                        violations += 1
                # Structural faults must be caught without the seal too.
                if fault.structural:
                    try:
                        bare = inject(healthy, fault, seed_n)
                    except FaultNotApplicable:
                        continue
                    bare.__dict__.pop("_integrity_seal", None)
                    try:
                        bare.verify()
                    except ReproError:
                        pass
                    else:
                        print(
                            f"smoke_faults: STRUCTURAL MISS: {fmt} / "
                            f"{fault.name} seed {seed_n} passed unsealed "
                            "verify()",
                            file=sys.stderr,
                        )
                        violations += 1
        # The sweep must not have perturbed the original.
        healthy.verify()
        if not np.array_equal(healthy.spmv(x), y_ref):
            print(
                f"smoke_faults: injection mutated the original {fmt} matrix",
                file=sys.stderr,
            )
            violations += 1

    if injected == 0:
        print("smoke_faults: no faults were injected", file=sys.stderr)
        return 1
    print(
        f"smoke_faults: {injected} injections over {len(FORMATS)} formats: "
        f"{caught} caught, {silent_ok} uncaught-but-harmless, "
        f"{skipped} not applicable, {violations} violations"
    )
    return 1 if violations else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--size", type=int, default=64)
    args = parser.parse_args(argv)
    return run(seeds=args.seeds, size=args.size)


if __name__ == "__main__":
    sys.exit(main())
