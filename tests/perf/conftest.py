"""Perf test fixtures: a scoped collector that never leaks."""

from __future__ import annotations

import pytest

from repro.telemetry.core import Collector, set_collector


@pytest.fixture
def collector():
    """Install a fresh collector for the test, restore on teardown."""
    c = Collector()
    prev = set_collector(c)
    yield c
    set_collector(prev)
