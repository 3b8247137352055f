"""Declarative retry policies and wall-clock deadlines.

Before this module the runtime's recovery knobs were scattered: the
thread executor hardcoded one cache-invalidating retry, the process
executor had its own single rebuild+resubmit, and every executor took
an independent ``chunk_timeout`` with no overall bound.
:class:`RetryPolicy` and :class:`Deadline` replace those with two
declarative objects that flow from ``make_executor`` /
``streamed_spmv`` down to every per-chunk and per-shard decision:

* :class:`RetryPolicy` -- how many attempts a unit of work gets
  (``max_attempts``), which **error classes** are worth retrying
  (``retry_on``, see :data:`ERROR_CLASSES`), how attempts are spaced
  (exponential backoff with *full jitter*: ``delay ~ U(0, min(cap,
  base * 2**(attempt-1)))``), and how many retries the whole run may
  spend in total (``budget`` -> one shared :class:`RetryBudget` per
  executor, so a systemic failure cannot multiply into an unbounded
  rebuild storm).
* :class:`Deadline` -- one wall-clock budget for a whole operation.
  ``deadline.cap(timeout)`` turns it into per-chunk wait bounds (the
  tighter of the local ``chunk_timeout`` and the time remaining), and
  ``deadline.check(label)`` raises a typed
  :class:`~repro.errors.DeadlineExceeded` at clean cut points (before
  a call, between streamed shards) instead of letting work run long.

Everything is deterministic under test: the backoff RNG is seeded per
policy/run, and the deadline clock is injectable.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.errors import (
    DeadlineExceeded,
    EncodingError,
    FormatError,
    IntegrityError,
    PartitionError,
    StorageError,
)
from repro.telemetry import core as telemetry

__all__ = [
    "ERROR_CLASSES",
    "DEFAULT_RETRY_POLICY",
    "Deadline",
    "RetryBudget",
    "RetryPolicy",
    "classify_error",
]

#: Named error classes a policy can declare retryable.  ``decode`` is
#: the class the PR-5 executors already retried (possibly-stale cached
#: encodes: invalidate, rebuild, try again); ``storage`` covers shard
#: store/provider failures (a rebuild rewrites the backing bytes);
#: ``timeout`` is a worker that blew its chunk budget and ``worker`` a
#: process that died outright -- both usually better served by the
#: degradation ladder than by an in-place retry, so neither is in the
#: default ``retry_on``.
ERROR_CLASSES: dict[str, tuple[type[BaseException], ...]] = {
    "decode": (EncodingError, IntegrityError, FormatError),
    "storage": (StorageError,),
    "timeout": (TimeoutError,),
    "worker": (ConnectionError, BrokenPipeError, ProcessLookupError),
}


def classify_error(exc: BaseException) -> str | None:
    """The :data:`ERROR_CLASSES` name of *exc*, or ``None``.

    Classes are checked in a fixed order so an exception matching two
    (none do today) classifies deterministically.
    """
    for name in ("decode", "storage", "timeout", "worker"):
        if isinstance(exc, ERROR_CLASSES[name]):
            return name
    return None


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
    """How (and whether) a failed unit of work is retried.

    The default reproduces the PR-5/PR-7 executor behavior exactly --
    decode-class errors get one immediate cache-invalidating retry --
    while making every knob explicit and shared across the thread and
    process executors.

    Parameters
    ----------
    max_attempts:
        Total tries per unit of work (1 = never retry).
    retry_on:
        Names from :data:`ERROR_CLASSES` worth retrying.
    base_delay_s / max_delay_s:
        Exponential backoff schedule; attempt *n*'s delay is drawn
        uniformly from ``[0, min(max_delay_s, base_delay_s *
        2**(n-1))]`` (full jitter).  The default base of 0 keeps the
        thread executors' historical retry-immediately behavior.
    budget:
        Total retries one run may spend across all its chunks and
        calls (``None`` = unbounded).  Executors materialize this as
        one shared :class:`RetryBudget` via :meth:`new_budget`.
    seed:
        Jitter RNG seed (``new_rng`` derives one RNG per executor), so
        chaos runs replay byte-for-byte.
    """

    max_attempts: int = 2
    retry_on: tuple[str, ...] = ("decode",)
    base_delay_s: float = 0.0
    max_delay_s: float = 1.0
    budget: int | None = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise PartitionError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise PartitionError("backoff delays must be >= 0")
        unknown = set(self.retry_on) - set(ERROR_CLASSES)
        if unknown:
            raise PartitionError(
                f"unknown retry_on error classes {sorted(unknown)}; "
                f"choose from {sorted(ERROR_CLASSES)}"
            )

    # -- derivation --------------------------------------------------------
    def new_budget(self) -> RetryBudget:
        return RetryBudget(self.budget)

    def new_rng(self, salt: int = 0) -> random.Random:
        return random.Random(f"{self.seed}:{salt}")

    # -- decisions ---------------------------------------------------------
    def retryable(self, exc: BaseException) -> bool:
        """Is *exc* of an error class this policy retries?"""
        cls = classify_error(exc)
        return cls is not None and cls in self.retry_on

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
        if not self.retryable(exc):
            return False
        if attempt >= self.max_attempts:
            return False
        if deadline is not None and deadline.expired():
            return False
        if budget is not None and not budget.try_spend():
            return False
        return True

    def backoff_s(self, attempt: int, rng: random.Random | None = None) -> float:
        """Full-jitter delay before attempt ``attempt + 1``."""
        if self.base_delay_s <= 0:
            return 0.0
        cap = min(self.max_delay_s, self.base_delay_s * (2 ** (attempt - 1)))
        if rng is None:
            rng = self.new_rng()
        return rng.uniform(0.0, cap)

    # -- the loop ----------------------------------------------------------
    def run(
        self,
        attempt_fn,
        *,
        target=None,
        rebuild=None,
        budget: RetryBudget | None = None,
        deadline: Deadline | None = None,
        rng: random.Random | None = None,
        on_retry=None,
        sleep=time.sleep,
    ):
        """Run ``attempt_fn(target)`` under this policy.

        The one retry loop every executor shares (the PR-10
        unification).  ``rebuild()`` -- when given -- produces a fresh
        target before each retry (the cache-invalidating re-encode);
        ``on_retry(exc, attempt)`` fires after the decision to retry
        and before the backoff sleep (telemetry hook).  The final
        failure propagates unchanged.
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
                delay = self.backoff_s(attempt, rng)
                if deadline is not None:
                    delay = min(delay, deadline.remaining())
                if delay > 0:
                    sleep(delay)
                if rebuild is not None:
                    target = rebuild()
                attempt += 1


#: The stock policy installed by every executor when none is passed:
#: one immediate retry of decode-class failures, 32 retries per run.
DEFAULT_RETRY_POLICY = RetryPolicy()
