"""RetryPolicy / RetryBudget / Deadline semantics."""

import dataclasses

import pytest

from repro.errors import (
    DECODE_ERRORS,
    DeadlineExceeded,
    EncodingError,
    FormatError,
    IntegrityError,
    PartitionError,
    StorageError,
)
from repro.resilience.policy import (
    DEFAULT_RETRY_POLICY,
    Deadline,
    RetryBudget,
    RetryPolicy,
)
from repro.telemetry import core as telemetry


class TestClassify:
    """Only DECODE_ERRORS are retried; the labels name the old classes."""

    @pytest.mark.parametrize(
        "exc, cls",
        [
            (EncodingError("x"), "decode"),
            (IntegrityError("x"), "decode"),
            (FormatError("x"), "decode"),
            (StorageError("x"), "storage"),
            (TimeoutError("x"), "timeout"),
            (BrokenPipeError("x"), "worker"),
            (ConnectionError("x"), "worker"),
            (ValueError("x"), None),
            (RuntimeError("x"), None),
        ],
    )
    def test_classes(self, exc, cls):
        decode = cls == "decode"
        assert isinstance(exc, DECODE_ERRORS) is decode
        assert DEFAULT_RETRY_POLICY.should_retry(exc, 1) is decode


class TestRetryBudget:
    def test_spend_to_exhaustion(self):
        budget = RetryBudget(2)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()
        assert budget.spent == 2
        assert budget.remaining == 0

    def test_unbounded(self):
        budget = RetryBudget(None)
        for _ in range(100):
            assert budget.try_spend()
        assert budget.remaining is None

    def test_negative_rejected(self):
        with pytest.raises(PartitionError):
            RetryBudget(-1)


class TestDeadline:
    def test_remaining_and_expiry(self):
        now = [0.0]
        d = Deadline(2.0, clock=lambda: now[0])
        assert d.remaining() == pytest.approx(2.0)
        assert not d.expired()
        now[0] = 3.0
        assert d.remaining() == 0.0
        assert d.expired()

    def test_cap_takes_the_tighter_bound(self):
        now = [0.0]
        d = Deadline(1.0, clock=lambda: now[0])
        assert d.cap(10.0) == pytest.approx(1.0)
        assert d.cap(0.25) == pytest.approx(0.25)
        # No local bound: the remainder is the bound.
        assert d.cap(None) == pytest.approx(1.0)
        # Expired: a tiny positive wait, never zero/negative.
        now[0] = 5.0
        assert d.cap(10.0) == pytest.approx(1e-3)

    def test_check_raises_typed_and_emits(self):
        now = [0.0]
        d = Deadline(0.5, clock=lambda: now[0])
        d.check("early")  # alive: no-op
        now[0] = 1.0
        prev = telemetry.set_collector(telemetry.Collector())
        try:
            with pytest.raises(DeadlineExceeded) as exc_info:
                d.check("late.site")
            events = [
                dataclasses.asdict(ev)
                for ev in telemetry.get_collector().snapshot()
            ]
        finally:
            telemetry.set_collector(prev)
        assert exc_info.value.label == "late.site"
        assert exc_info.value.budget_s == pytest.approx(0.5)
        expired = [e for e in events if e["name"] == "resilience.deadline.expired"]
        assert len(expired) == 1
        assert expired[0]["attrs"]["label"] == "late.site"

    def test_nonpositive_rejected(self):
        with pytest.raises(PartitionError):
            Deadline(0.0)


class TestRetryPolicy:
    def test_default_reproduces_single_decode_retry(self):
        p = DEFAULT_RETRY_POLICY
        assert p.max_attempts == 2
        assert p.budget == 32
        assert p.should_retry(EncodingError("x"), 1)
        assert not p.should_retry(EncodingError("x"), 2)
        assert not p.should_retry(StorageError("x"), 1)
        assert not p.should_retry(ValueError("x"), 1)

    def test_validation(self):
        with pytest.raises(PartitionError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(PartitionError):
            RetryPolicy(budget=-1).new_budget()

    def test_should_retry_order(self):
        p = RetryPolicy(max_attempts=3, budget=10)
        budget = p.new_budget()
        # Non-retryable class refuses without spending budget.
        assert not p.should_retry(ValueError("x"), 1, budget=budget)
        assert budget.spent == 0
        # Attempt ceiling refuses without spending budget.
        assert not p.should_retry(EncodingError("x"), 3, budget=budget)
        assert budget.spent == 0
        # Expired deadline refuses without spending budget.
        now = [10.0]
        d = Deadline(1.0, clock=lambda: now[0])
        now[0] = 100.0
        assert not p.should_retry(EncodingError("x"), 1, budget=budget, deadline=d)
        assert budget.spent == 0
        # A granted retry spends exactly one.
        assert p.should_retry(EncodingError("x"), 1, budget=budget)
        assert budget.spent == 1

    def test_budget_shared_across_decisions(self):
        p = RetryPolicy(max_attempts=5, budget=2)
        budget = p.new_budget()
        assert p.should_retry(EncodingError("x"), 1, budget=budget)
        assert p.should_retry(EncodingError("x"), 1, budget=budget)
        assert not p.should_retry(EncodingError("x"), 1, budget=budget)


class TestRunLoop:
    def test_success_first_try(self):
        p = RetryPolicy()
        assert p.run(lambda t: t + 1, target=41) == 42

    def test_rebuild_produces_the_new_target(self):
        p = RetryPolicy()
        calls = []

        def attempt(target):
            calls.append(target)
            if target == "stale":
                raise EncodingError("stale bytes")
            return target

        got = p.run(attempt, target="stale", rebuild=lambda: "fresh")
        assert got == "fresh"
        assert calls == ["stale", "fresh"]

    def test_final_failure_propagates_unchanged(self):
        p = RetryPolicy(max_attempts=2)
        boom = EncodingError("persistent")

        def attempt(_):
            raise boom

        with pytest.raises(EncodingError) as exc_info:
            p.run(attempt)
        assert exc_info.value is boom

    def test_non_retryable_never_retries(self):
        p = RetryPolicy(max_attempts=5)
        calls = []

        def attempt(_):
            calls.append(1)
            raise ValueError("caller bug")

        with pytest.raises(ValueError):
            p.run(attempt)
        assert len(calls) == 1

    def test_on_retry_fires_before_rebuild(self):
        p = RetryPolicy(max_attempts=3)
        order = []

        def attempt(target):
            order.append(("attempt", target))
            if target == "stale":
                raise EncodingError("x")
            return "done"

        def rebuild():
            order.append(("rebuild", None))
            return "fresh"

        assert p.run(
            attempt,
            target="stale",
            rebuild=rebuild,
            on_retry=lambda exc, attempt_n: order.append(("retry", attempt_n)),
        ) == "done"
        assert order == [
            ("attempt", "stale"),
            ("retry", 1),
            ("rebuild", None),
            ("attempt", "fresh"),
        ]

    def test_budget_bounds_total_retries(self):
        p = RetryPolicy(max_attempts=10, budget=3)
        budget = p.new_budget()
        attempts = []

        def attempt(_):
            attempts.append(1)
            raise EncodingError("x")

        with pytest.raises(EncodingError):
            p.run(attempt, budget=budget)
        # 1 initial + 3 budgeted retries.
        assert len(attempts) == 4
        # The shared budget is drained: a second unit of work gets none.
        attempts.clear()
        with pytest.raises(EncodingError):
            p.run(attempt, budget=budget)
        assert len(attempts) == 1

    def test_deadline_stops_the_loop(self):
        now = [0.0]
        d = Deadline(1.0, clock=lambda: now[0])
        p = RetryPolicy(max_attempts=10)
        attempts = []

        def attempt(_):
            attempts.append(1)
            now[0] = 5.0  # the first attempt blows the budget
            raise EncodingError("x")

        with pytest.raises(EncodingError):
            p.run(attempt, deadline=d)
        assert len(attempts) == 1
