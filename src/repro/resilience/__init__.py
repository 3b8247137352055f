"""Resilience layer: retry policies, deadlines, breakers, degradation.

One coherent policy surface over the recovery behaviors PRs 5/7/8
scattered across the executors and the shard store:

* :mod:`repro.resilience.policy` — :class:`RetryPolicy` (attempts and
  a per-run budget for decode-class errors) and wall-clock
  :class:`Deadline` propagation.
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker` /
  :class:`BreakerBoard` (closed → open → half-open with cooldown).
* :mod:`repro.resilience.degrade` — the :class:`ResilientExecutor`
  backend ladder ``process → thread → serial`` (+ ``mmap → mem``).
* :mod:`repro.resilience.chaos` — fault-injection hooks for
  ``tools/smoke_chaos.py``.

Nothing is re-exported here; import from the submodules.  The
executors import :mod:`~repro.resilience.chaos` and
:mod:`~repro.resilience.policy`, and the ladder imports the executors,
so an eager ``degrade`` import in this package would be circular.
"""
