"""Retry policies and wall-clock deadlines.

Before this module the runtime's recovery knobs were scattered: the
thread executor hardcoded one cache-invalidating retry, the process
executor had its own single rebuild+resubmit, and every executor took
an independent ``chunk_timeout`` with no overall bound.
:class:`RetryPolicy` and :class:`Deadline` replace those with two
objects that flow from ``make_executor`` down to every per-chunk and
per-shard decision:

* :class:`RetryPolicy` -- how many attempts a unit of work gets
  (``max_attempts``) and how many retries the whole run may spend in
  total (``budget`` -> one shared :class:`RetryBudget` per executor,
  so a systemic failure cannot multiply into an unbounded rebuild
  storm).  Only :data:`~repro.errors.DECODE_ERRORS` are retried, and
  every retry is immediate.
* :class:`Deadline` -- one wall-clock budget for a whole operation.
  ``deadline.cap(timeout)`` turns it into per-chunk wait bounds (the
  tighter of the local ``chunk_timeout`` and the time remaining), and
  ``deadline.check(label)`` raises a typed
  :class:`~repro.errors.DeadlineExceeded` at clean cut points (before
  a call, between streamed shards) instead of letting work run long.

The deadline clock is injectable, so tests step through it without
sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import DECODE_ERRORS, DeadlineExceeded, PartitionError
from repro.telemetry import core as telemetry

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "Deadline",
    "RetryBudget",
    "RetryPolicy",
]


class RetryBudget:
    """Thread-safe count of retries one run may still spend.

    Shared by every chunk of an executor (and across its calls), so a
    failure mode that touches all chunks at once -- a corrupted source,
    a dead disk -- stops rebuilding after ``limit`` attempts total
    instead of ``limit`` per chunk.  ``limit=None`` never exhausts.
    """

    def __init__(self, limit: int | None):
        if limit is not None and limit < 0:
            raise PartitionError(f"retry budget must be >= 0, got {limit}")
        self.limit = limit
        self._spent = 0
        self._lock = threading.Lock()

    @property
    def spent(self) -> int:
        return self._spent

    @property
    def remaining(self) -> int | None:
        if self.limit is None:
            return None
        return max(0, self.limit - self._spent)

    def try_spend(self) -> bool:
        """Reserve one retry; False when the budget is exhausted."""
        with self._lock:
            if self.limit is not None and self._spent >= self.limit:
                return False
            self._spent += 1
            return True


class Deadline:
    """A wall-clock budget propagated down a call tree.

    Create with :meth:`after`; pass the *same* object to every layer of
    one logical operation (executor construction, per-chunk waits,
    streamed shards) so they all drain the one budget instead of each
    starting a fresh ``chunk_timeout``.
    """

    def __init__(self, seconds: float, *, clock=time.monotonic):
        if seconds <= 0:
            raise PartitionError(f"deadline must be positive, got {seconds}")
        self.budget_s = float(seconds)
        self._clock = clock
        self._expires_at = clock() + float(seconds)

    @classmethod
    def after(cls, seconds: float, *, clock=time.monotonic) -> "Deadline":
        return cls(seconds, clock=clock)

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def cap(self, timeout: float | None) -> float | None:
        """The tighter of *timeout* and the time remaining.

        ``None`` means "no local bound", so the deadline's remainder
        becomes the bound; an expired deadline returns a tiny positive
        wait rather than 0/negative (``future.result(timeout=0)``
        means poll-forever-zero semantics differ across versions).
        """
        rem = self.remaining()
        capped = rem if timeout is None else min(timeout, rem)
        return max(capped, 1e-3)

    def check(self, label: str = "") -> None:
        """Raise :class:`~repro.errors.DeadlineExceeded` if expired."""
        if self.expired():
            telemetry.count(
                "resilience.deadline.expired",
                1,
                extra={"budget_s": self.budget_s},
                label=label,
            )
            raise DeadlineExceeded(
                f"deadline of {self.budget_s:g}s exhausted"
                + (f" at {label}" if label else ""),
                label=label,
                budget_s=self.budget_s,
            )


@dataclass(frozen=True)
class RetryPolicy:
    """How many times a failed unit of work is retried.

    The default is one immediate cache-invalidating retry of a
    decode-class error, shared by the thread and process executors.

    Parameters
    ----------
    max_attempts:
        Total tries per unit of work (1 = never retry).
    budget:
        Total retries one run may spend across all its chunks and
        calls (``None`` = unbounded).  Executors materialize this as
        one shared :class:`RetryBudget` via :meth:`new_budget`.
    """

    max_attempts: int = 2
    budget: int | None = 32

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PartitionError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )

    def new_budget(self) -> RetryBudget:
        return RetryBudget(self.budget)

    def should_retry(
        self,
        exc: BaseException,
        attempt: int,
        *,
        budget: RetryBudget | None = None,
        deadline: Deadline | None = None,
    ) -> bool:
        """Decide one more attempt after failure number *attempt*.

        Checks, in order: error class, attempt ceiling, deadline, then
        the shared budget (checked last so a refused retry does not
        also burn budget).
        """
        if not isinstance(exc, DECODE_ERRORS):
            return False
        if attempt >= self.max_attempts:
            return False
        if deadline is not None and deadline.expired():
            return False
        if budget is not None and not budget.try_spend():
            return False
        return True

    def run(
        self,
        attempt_fn,
        *,
        target=None,
        rebuild=None,
        budget: RetryBudget | None = None,
        deadline: Deadline | None = None,
        on_retry=None,
    ):
        """Run ``attempt_fn(target)`` under this policy.

        The one retry loop every executor shares.  ``rebuild()`` --
        when given -- produces a fresh target before each retry (the
        cache-invalidating re-encode); ``on_retry(exc, attempt)`` fires
        after the decision to retry and before the rebuild (telemetry
        hook).  The final failure propagates unchanged.
        """
        attempt = 1
        while True:
            try:
                return attempt_fn(target)
            except Exception as exc:
                if not self.should_retry(
                    exc, attempt, budget=budget, deadline=deadline
                ):
                    raise
                if on_retry is not None:
                    on_retry(exc, attempt)
                if rebuild is not None:
                    target = rebuild()
                attempt += 1


#: The stock policy installed by every executor when none is passed:
#: one immediate retry of decode-class failures, 32 retries per run.
DEFAULT_RETRY_POLICY = RetryPolicy()
