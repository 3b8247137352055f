"""CircuitBreaker state machine and BreakerBoard registry."""

import dataclasses

import pytest

from repro.errors import BreakerOpenError, PartitionError
from repro.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerBoard,
    CircuitBreaker,
)
from repro.telemetry import core as telemetry


def make(threshold=3, cooldown=5.0):
    now = [0.0]
    breaker = CircuitBreaker(
        "shard:0:g0",
        failure_threshold=threshold,
        cooldown_s=cooldown,
        clock=lambda: now[0],
    )
    return breaker, now


class TestStateMachine:
    def test_closed_allows_and_success_resets(self):
        breaker, _ = make(threshold=2)
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_failure()
        breaker.record_success()  # reset the consecutive count
        breaker.record_failure()
        assert breaker.state == CLOSED  # 1 < threshold after the reset

    def test_opens_at_threshold(self):
        breaker, _ = make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_cooldown_admits_single_probe(self):
        breaker, now = make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(5.0)
        now[0] = 6.0
        assert breaker.state == HALF_OPEN
        assert breaker.allow()  # the probe slot
        assert not breaker.allow()  # a second concurrent caller is refused

    def test_probe_success_closes(self):
        breaker, now = make(threshold=1)
        breaker.record_failure()
        now[0] = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        breaker, now = make(threshold=1, cooldown=5.0)
        breaker.record_failure()
        now[0] = 6.0
        assert breaker.allow()
        breaker.record_failure()  # the probe failed
        assert not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(5.0)
        now[0] = 12.0
        assert breaker.allow()  # next probe after the fresh cooldown

    def test_guard_raises_typed(self):
        breaker, _ = make(threshold=1, cooldown=7.0)
        breaker.guard()  # closed: no-op
        breaker.record_failure()
        with pytest.raises(BreakerOpenError) as exc_info:
            breaker.guard()
        assert exc_info.value.key == "shard:0:g0"
        assert exc_info.value.retry_after_s == pytest.approx(7.0)

    def test_record_convenience(self):
        breaker, _ = make(threshold=1)
        breaker.record(False)
        assert breaker.state == OPEN
        breaker._state = HALF_OPEN
        breaker.record(True)
        assert breaker.state == CLOSED

    def test_validation(self):
        with pytest.raises(PartitionError):
            CircuitBreaker("k", failure_threshold=0)
        with pytest.raises(PartitionError):
            CircuitBreaker("k", cooldown_s=-1.0)


class TestTransitionEvents:
    def test_full_cycle_emits_open_half_open_close(self):
        prev = telemetry.set_collector(telemetry.Collector())
        try:
            breaker, now = make(threshold=2)
            breaker.record_failure()
            breaker.record_failure()  # -> open
            now[0] = 10.0
            assert breaker.allow()  # -> half-open
            breaker.record_success()  # -> closed
            events = [
                dataclasses.asdict(ev)
                for ev in telemetry.get_collector().snapshot()
            ]
        finally:
            telemetry.set_collector(prev)
        names = [e["name"] for e in events]
        assert names == [
            "resilience.breaker.open",
            "resilience.breaker.half_open",
            "resilience.breaker.close",
        ]
        for e in events:
            assert e["attrs"]["key"] == "shard:0:g0"
            assert "failures" in e["attrs"]
        assert events[0]["attrs"]["failures"] == 2

    def test_open_emitted_once_per_trip(self):
        prev = telemetry.set_collector(telemetry.Collector())
        try:
            breaker, _ = make(threshold=2)
            for _ in range(5):
                breaker.record_failure()
            events = telemetry.get_collector().snapshot()
        finally:
            telemetry.set_collector(prev)
        opens = [e for e in events if e.name == "resilience.breaker.open"]
        assert len(opens) == 1


class TestBreakerBoard:
    def test_get_or_create_shares_config(self):
        now = [0.0]
        board = BreakerBoard(
            failure_threshold=2, cooldown_s=9.0, clock=lambda: now[0]
        )
        a = board.get("shard:0:g0")
        assert board.get("shard:0:g0") is a
        b = board.get("shard:0:g1")  # a generation bump starts clean
        assert b is not a
        assert a.failure_threshold == 2
        assert a.cooldown_s == 9.0

    def test_states_snapshot(self):
        board = BreakerBoard(failure_threshold=1)
        board.get("a")
        b = board.get("b")
        b.record_failure()
        assert board.states() == {"a": CLOSED, "b": OPEN}
