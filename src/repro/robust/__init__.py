"""Integrity and fault tolerance (PR 5).

* :mod:`repro.robust.validate` — non-decoding ``ctl`` walker, per-format
  invariant checkers, checksum seals; surfaced as ``matrix.verify()``.
* :mod:`repro.robust.inject` — deterministic seeded fault catalogue for
  the adversarial "no silent wrong answer" suite.
* :mod:`repro.robust.guard` — kernel fallback chain (cached →
  reference) with ``kernel.fallback`` telemetry.
"""

from repro.robust.guard import GuardedKernel, guarded_spmv
from repro.robust.inject import (
    FAULTS,
    Fault,
    FaultNotApplicable,
    applicable_faults,
    get_fault,
    inject,
)
from repro.robust.validate import (
    CtlStats,
    check_seal,
    check_values,
    is_sealed,
    seal,
    verify_matrix,
    walk_ctl,
)

__all__ = [
    "CtlStats",
    "Fault",
    "FaultNotApplicable",
    "FAULTS",
    "GuardedKernel",
    "applicable_faults",
    "check_seal",
    "check_values",
    "get_fault",
    "guarded_spmv",
    "inject",
    "is_sealed",
    "seal",
    "verify_matrix",
    "walk_ctl",
]
