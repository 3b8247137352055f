"""Integrity and fault tolerance (PR 5).

* :mod:`repro.robust.validate` — non-decoding ``ctl`` walker, per-format
  invariant checkers, checksum seals; surfaced as ``matrix.verify()``.
* :mod:`repro.robust.inject` — deterministic seeded fault catalogue for
  the adversarial "no silent wrong answer" suite.
* :mod:`repro.robust.guard` — kernel fallback chain (cached →
  reference) with ``kernel.fallback`` telemetry.
"""
