"""Wall-clock measurement helpers.

The paper times 128 consecutive SpMV operations; :func:`measure` mirrors
that protocol (a fixed number of back-to-back calls, reporting the mean
per-call time) while :class:`Timer` is a small context-manager stopwatch
for ad-hoc instrumentation.

The advisor's host calibration and the microbenchmarks time real calls
with them; the paper-shaped results come from the machine model, which
does not depend on the host's hardware.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

from repro.errors import ReproError


class Timer:
    """Context-manager stopwatch accumulating elapsed seconds.

    >>> t = Timer()
    >>> with t:
    ...     pass
    >>> t.elapsed >= 0.0
    True

    Re-entering accumulates, so one ``Timer`` can wrap each iteration of
    a loop and report the total.
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start: int | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        if self._start is None:
            raise ReproError(
                "Timer exited without entering (mismatched __enter__/__exit__)"
            )
        self.elapsed += (time.perf_counter_ns() - self._start) * 1e-9
        self._start = None


@dataclass(frozen=True)
class Measurement:
    """Result of :func:`measure`.

    Attributes
    ----------
    per_call:
        Mean seconds per call over the best repetition.
    total:
        Total seconds of the best repetition.
    calls:
        Calls per repetition.
    repeats:
        Repetitions performed.
    all_repeats:
        Per-repetition total seconds, best first not guaranteed.
    stdev:
        Population standard deviation of the per-call time across
        repetitions (0.0 with a single repetition).  A large value
        relative to ``per_call`` flags a noisy real-clock run.
    """

    per_call: float
    total: float
    calls: int
    repeats: int
    all_repeats: tuple[float, ...] = field(default_factory=tuple)
    stdev: float = 0.0


def measure(func, *, calls: int = 128, repeats: int = 3) -> Measurement:
    """Time ``calls`` back-to-back invocations of *func*, ``repeats`` times.

    Returns the repetition with the smallest total (the standard guard
    against OS noise); per-call time is that total divided by *calls*.
    """
    if calls < 1 or repeats < 1:
        raise ValueError("calls and repeats must be >= 1")
    totals = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(calls):
            func()
        totals.append((time.perf_counter_ns() - start) * 1e-9)
    best = min(totals)
    per_call_times = [t / calls for t in totals]
    return Measurement(
        per_call=best / calls,
        total=best,
        calls=calls,
        repeats=repeats,
        all_repeats=tuple(totals),
        stdev=statistics.pstdev(per_call_times) if repeats > 1 else 0.0,
    )
