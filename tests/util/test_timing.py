"""Tests for the wall-clock measurement helpers."""

import statistics

import pytest

from repro.util.timing import Measurement, measure


class TestMeasure:
    def test_counts(self):
        calls = []
        m = measure(lambda: calls.append(1), calls=5, repeats=2)
        assert len(calls) == 10
        assert m.calls == 5
        assert m.repeats == 2
        assert len(m.all_repeats) == 2

    def test_per_call_consistent(self):
        m = measure(lambda: None, calls=4, repeats=3)
        assert m.per_call == pytest.approx(m.total / 4)
        assert m.total == min(m.all_repeats)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            measure(lambda: None, calls=0)
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)

    def test_measurement_frozen(self):
        m = Measurement(per_call=1.0, total=4.0, calls=4, repeats=1)
        with pytest.raises(AttributeError):
            m.per_call = 2.0

    def test_stdev_defaults_to_zero(self):
        m = Measurement(per_call=1.0, total=4.0, calls=4, repeats=1)
        assert m.stdev == 0.0

    def test_stdev_matches_per_call_spread(self):
        m = measure(lambda: sum(range(200)), calls=3, repeats=4)
        expected = statistics.pstdev(t / m.calls for t in m.all_repeats)
        assert m.stdev == pytest.approx(expected)

    def test_stdev_zero_for_single_repeat(self):
        m = measure(lambda: None, calls=2, repeats=1)
        assert m.stdev == 0.0
