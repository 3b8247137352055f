"""Circuit breakers: stop burning rebuild cycles on a failing resource.

The retry layer (:mod:`repro.resilience.policy`) answers "is this one
failure worth another attempt?".  A :class:`CircuitBreaker` answers the
longer-horizon question: "has this *resource* — one shard at one
generation, one backend rung — failed so consistently that attempts
should stop entirely for a while?".  Without it, a shard whose backing
file is gone gets rebuilt (encode + CRC seal + store) on every single
call, turning one dead resource into a whole-run slowdown.

State machine (the classic three states)::

      closed ──(failure_threshold consecutive failures)──> open
      open ──(cooldown_s elapsed)──> half-open
      half-open ──(probe succeeds)──> closed
      half-open ──(probe fails)──> open        (cooldown restarts)

* **closed** — normal operation; every call is allowed.  Consecutive
  failures are counted; any success resets the count.
* **open** — calls are refused without being attempted:
  :meth:`allow` returns ``False`` and :meth:`guard` raises a typed
  :class:`~repro.errors.BreakerOpenError` carrying ``retry_after_s``.
* **half-open** — after the cooldown one probe call is admitted; its
  outcome decides between closing (recovered) and re-opening.

Every transition is emitted as one ``resilience.breaker.*`` telemetry
counter, which also feeds the live view, so the SLO rule engine can
alert on
``rate(resilience.breaker.open[10s]) > 0``.

:class:`BreakerBoard` is the keyed registry executors use — one
breaker per ``shard:<index>:g<generation>`` in the process executor
(a rebuilt shard gets a *fresh* breaker: the generation bump changed
the bytes, so past failures are no longer evidence), one per ladder
rung in :class:`~repro.resilience.degrade.ResilientExecutor`.

The clock is injectable (``clock=time.monotonic``) so tests and the
chaos harness step through cooldowns without sleeping.
"""

from __future__ import annotations

import threading
import time

from repro.errors import BreakerOpenError, PartitionError
from repro.telemetry import core as telemetry

__all__ = ["BreakerBoard", "CircuitBreaker"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """One resource's failure gate (thread-safe).

    Parameters
    ----------
    key:
        Identity string for telemetry and :class:`~repro.errors.
        BreakerOpenError` (e.g. ``"shard:1:g0"``,
        ``"backend:process:mem"``).
    failure_threshold:
        Consecutive failures that trip closed -> open.  The default of
        3 sits above the retry layer's attempt count, so a fault the
        retry policy can absorb never trips the breaker.
    cooldown_s:
        Seconds an open breaker refuses calls before admitting one
        half-open probe.
    clock:
        Injectable monotonic clock (tests, chaos replay).
    """

    def __init__(
        self,
        key: str,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise PartitionError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_s < 0:
            raise PartitionError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.key = key
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0

    # -- observation -------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._peek()

    def _peek(self) -> str:
        """Current state with cooldown expiry applied (lock held)."""
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.cooldown_s
        ):
            return HALF_OPEN
        return self._state

    def retry_after_s(self) -> float:
        """Seconds until an open breaker admits its half-open probe."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(
                0.0, self.cooldown_s - (self._clock() - self._opened_at)
            )

    # -- transitions -------------------------------------------------------
    def _emit(self, transition: str) -> None:
        telemetry.count(
            f"resilience.breaker.{transition}",
            1,
            extra={"failures": self._consecutive_failures},
            key=self.key,
        )

    def allow(self) -> bool:
        """May a call be attempted right now?

        An expired cooldown transitions open -> half-open as a side
        effect (emitted once), and the half-open probe slot is claimed
        by this call: a second concurrent :meth:`allow` while the probe
        is in flight is refused.
        """
        with self._lock:
            state = self._peek()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and self._state == OPEN:
                # Claim the single probe slot.
                self._state = HALF_OPEN
                self._emit("half_open")
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._emit("close")
            self._state = CLOSED
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self._emit("open")

    # -- convenience -------------------------------------------------------
    def guard(self) -> None:
        """Raise :class:`~repro.errors.BreakerOpenError` unless allowed."""
        if not self.allow():
            after = self.retry_after_s()
            raise BreakerOpenError(
                f"circuit breaker {self.key!r} is open; "
                f"retry in {after:.3g}s",
                key=self.key,
                retry_after_s=after,
            )

    def record(self, ok: bool) -> None:
        if ok:
            self.record_success()
        else:
            self.record_failure()


class BreakerBoard:
    """A keyed get-or-create registry of breakers sharing one config.

    The process executor keys breakers as ``shard:<i>:g<gen>`` so a
    rebuild (generation bump) starts clean; the degradation ladder
    keys them per rung (``backend:<name>:<storage>``).
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ):
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def get(self, key: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    key,
                    failure_threshold=self.failure_threshold,
                    cooldown_s=self.cooldown_s,
                    clock=self._clock,
                )
                self._breakers[key] = breaker
            return breaker

    def states(self) -> dict[str, str]:
        """Snapshot of every breaker's current state (for reports)."""
        with self._lock:
            return {k: b.state for k, b in self._breakers.items()}
