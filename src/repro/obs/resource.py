"""Process resource monitor: RSS, GC collections, thread count.

A daemon thread sampling cheap process-level signals as
``obs.resource.*`` telemetry gauges at a fixed interval; the one sink
routes them into the live aggregates and, when tracing, the event log.
Memory matters here specifically: SpMV is memory-bound, and the paper's
formats trade index bytes for decode work -- a serving layer needs to
see the resident-set cost of encode caches and partition chunks move in
real time.

RSS is read from ``/proc/self/statm`` (field 2 x page size) on Linux;
when that is unavailable the fallback is ``resource.getrusage``'s
``ru_maxrss`` peak (documented as such via the ``rss_is_peak`` gauge
label -- a scraper must not confuse peak with current).

``sample_once`` is public and synchronous so tests and the smoke
checker can drive it deterministically without the thread.
"""

from __future__ import annotations

import gc
import os
import threading

from repro.telemetry import core as telemetry

__all__ = ["ResourceMonitor", "rss_bytes", "gc_collections", "DEFAULT_INTERVAL_S"]

DEFAULT_INTERVAL_S = 0.5

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> tuple[int, bool]:
    """(resident set bytes, is_peak_fallback)."""
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as fh:
            fields = fh.read().split()
        return int(fields[1]) * _PAGE_SIZE, False
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource as _resource

        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        # ru_maxrss is KiB on Linux, bytes on macOS; both are peaks.
        factor = 1 if usage.ru_maxrss > 1 << 30 else 1024
        return int(usage.ru_maxrss) * factor, True
    except (ImportError, ValueError):
        return 0, True


def gc_collections() -> int:
    """Total garbage collections across all generations so far."""
    return sum(s.get("collections", 0) for s in gc.get_stats())


class ResourceMonitor:
    """Daemon thread recording process gauges every *interval_s*."""

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        self.samples_taken = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample_once(self) -> dict[str, float]:
        """Take one sample; returns the gauge values it recorded."""
        rss, is_peak = rss_bytes()
        values = {
            "obs.resource.rss_bytes": float(rss),
            "obs.resource.gc_collections": float(gc_collections()),
            "obs.resource.threads": float(threading.active_count()),
        }
        for name, value in values.items():
            if name == "obs.resource.rss_bytes":
                telemetry.gauge(
                    name, value, rss_is_peak="true" if is_peak else "false"
                )
            else:
                telemetry.gauge(name, value)
        self.samples_taken += 1
        return values

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample_once()

    def start(self) -> "ResourceMonitor":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="obs-resource-monitor", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "ResourceMonitor":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        return self

    def __enter__(self) -> "ResourceMonitor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
