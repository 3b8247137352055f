"""Per-thread load attribution from the executor's recorded spans.

The parallel executors wrap every thread's slice of every call in a
``parallel.chunk`` span (attrs: ``thread``, ``lo``, ``hi``, ``nnz``,
``kind``) nested under one ``parallel.spmv`` span per call.  This
module replays those spans -- from a live
:class:`~repro.telemetry.core.Collector` or a parsed JSONL trace --
into per-call balance records:

* **busy time** per thread (the chunk span's duration);
* **barrier wait** per thread (call end minus that thread's chunk
  end -- how long the thread idled for the stragglers);
* **time imbalance** (busiest / mean busy) against the partitioner's
  **nnz imbalance** (from the chunk's nnz attrs): when the two agree,
  wall time tracked the static nnz balance, i.e. the paper's
  partitioning assumption held.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, is_dataclass
from typing import Any, Iterable


def _as_dicts(events: Iterable[Any]) -> list[dict]:
    """Normalize Collector Events / JSONL dicts into plain dicts."""
    out = []
    for ev in events:
        out.append(asdict(ev) if is_dataclass(ev) else dict(ev))
    return out


@dataclass(frozen=True)
class CallBalance:
    """Thread balance of one multithreaded SpMV call."""

    ts_us: float
    dur_us: float
    busy_us: dict[int, float]
    barrier_wait_us: dict[int, float]
    nnz: dict[int, float]

    @property
    def time_imbalance(self) -> float:
        """Busiest thread's busy time over the mean busy time."""
        if not self.busy_us:
            return 1.0
        vals = list(self.busy_us.values())
        mean = sum(vals) / len(vals)
        return max(vals) / mean if mean > 0 else 1.0

    @property
    def nnz_imbalance(self) -> float:
        """Static partitioner balance over the same threads."""
        if not self.nnz:
            return 1.0
        vals = list(self.nnz.values())
        mean = sum(vals) / len(vals)
        return max(vals) / mean if mean > 0 else 1.0


@dataclass(frozen=True)
class ParallelReport:
    """Aggregate over every multithreaded call in a trace."""

    calls: tuple[CallBalance, ...]


def _is_abandoned(chunk: dict, abandons: list[dict]) -> bool:
    """Was this chunk span's wait abandoned by the executor?

    An abandoned chunk keeps running past its call (threads cannot be
    cancelled), so its span ends *after* the call span and would
    otherwise be claimed — wrongly — by a later call whose interval
    happens to contain it.  The executor marks the abandonment with an
    ``executor.chunk.abandoned`` counter carrying the same thread and
    bounds; the mark's timestamp falls inside the abandoned span's
    interval, which is the match used here.
    """
    attrs = chunk["attrs"]
    start = chunk["ts_us"]
    end = start + chunk["dur_us"]
    for ab in abandons:
        a = ab["attrs"]
        if (
            a.get("thread") == attrs.get("thread")
            and a.get("lo") == attrs.get("lo")
            and a.get("hi") == attrs.get("hi")
            and start - 1e-9 <= ab["ts_us"] <= end + 1e-9
        ):
            return True
    return False


def call_balances(events: Iterable[Any]) -> list[CallBalance]:
    """Pair each ``parallel.spmv`` span with its ``parallel.chunk`` children.

    Chunks belong to the innermost enclosing call by time containment
    (spans are recorded at exit, so a call's chunks appear before it in
    the stream but always inside its interval).  Chunks whose wait was
    abandoned (``executor.chunk.abandoned``) are excluded entirely:
    their span duration measures the wait bound plus however long the
    orphaned thread kept running, not the work the partitioner
    assigned, so folding them in would corrupt the imbalance recovery.
    """
    evs = _as_dicts(events)
    calls = [e for e in evs if e["kind"] == "span" and e["name"] == "parallel.spmv"]
    abandons = [
        e
        for e in evs
        if e["kind"] == "counter" and e["name"] == "executor.chunk.abandoned"
    ]
    chunks = [
        e
        for e in evs
        if e["kind"] == "span"
        and e["name"] == "parallel.chunk"
        and not (abandons and _is_abandoned(e, abandons))
    ]
    out: list[CallBalance] = []
    claimed: set[int] = set()
    # Narrower calls first, so nested/overlapping traces claim inner-most.
    for call in sorted(calls, key=lambda e: e["dur_us"]):
        c_start, c_end = call["ts_us"], call["ts_us"] + call["dur_us"]
        busy: dict[int, float] = {}
        waits: dict[int, float] = {}
        nnz: dict[int, float] = {}
        for i, ch in enumerate(chunks):
            if i in claimed:
                continue
            start, end = ch["ts_us"], ch["ts_us"] + ch["dur_us"]
            if start < c_start - 1e-9 or end > c_end + 1e-9:
                continue
            claimed.add(i)
            t = int(ch["attrs"].get("thread", ch["tid"]))
            busy[t] = busy.get(t, 0.0) + ch["dur_us"]
            waits[t] = max(0.0, c_end - end)
            if "nnz" in ch["attrs"]:
                nnz[t] = nnz.get(t, 0.0) + float(ch["attrs"]["nnz"])
        out.append(
            CallBalance(
                ts_us=c_start,
                dur_us=call["dur_us"],
                busy_us=busy,
                barrier_wait_us=waits,
                nnz=nnz,
            )
        )
    out.sort(key=lambda c: c.ts_us)
    return out


def summarize_parallel(events: Iterable[Any]) -> ParallelReport:
    """Aggregate every multithreaded call found in *events*."""
    return ParallelReport(calls=tuple(call_balances(events)))
