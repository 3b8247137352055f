"""Outside-in span recording for the end-to-end benchmark.

The benchmark measures each layer by wrapping that layer's public
functions and methods inside the benchmark's own process: every call of
a wrapped function becomes one :class:`Span` (name, start, end, thread,
parent, attributes).  Nothing under ``src/`` changes; the wrappers are
installed after the program is imported and removed again by the undo
callable :func:`install` returns.

Spans are kept in memory and only turned into numbers (or written out)
after the measured phase.  Parents come from a per-thread stack; a span
that starts on a worker thread with an empty stack is parented
afterwards to the innermost client-thread span whose interval contains
it (:func:`attach_orphans`).  That is sound because the benchmark is a
closed loop with one client, so client requests never overlap.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Recorder:
    """In-memory span sink; inactive recorders make wrappers pass through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = True
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            stack[-1].id if stack else None,
            name,
            threading.get_ident(),
            time.perf_counter(),
            attrs=attrs,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, fn: Callable, name: str, attrs_of: Callable | None = None):
        """*fn* recording one span named *name* per call while active."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.open(name, **(attrs_of(*args) if attrs_of else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``"module:function"`` or ``"module:Class.method"``."""

    path: str
    layer: str
    attrs_of: Callable | None = None


def install(recorder: Recorder, targets) -> Callable[[], None]:
    """Wrap every target; return a callable that restores the originals.

    A module-level function is replaced wherever a loaded ``repro.*``
    module binds it (``from x import f`` copies the reference), and in
    its defining module, so modules imported later bind the wrapper.
    A method is replaced on its class.
    """
    undo: list[tuple[object, str, object]] = []
    for target in targets:
        module_name, _, qualname = target.path.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(
                    recorder.wrap(raw.__func__, target.layer, target.attrs_of)
                )
            else:
                new = recorder.wrap(raw, target.layer, target.attrs_of)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))
            continue
        original = getattr(module, qualname)
        new = recorder.wrap(original, target.layer, target.attrs_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            names = [k for k, v in vars(mod).items() if v is original]
            for key in names:
                setattr(mod, key, new)
                undo.append((mod, key, original))

    def restore() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def attach_orphans(spans: list[Span], client_thread: int) -> None:
    """Parent root spans of other threads to the innermost containing
    client-thread span (the call that was waiting on them)."""
    client = sorted(
        (s for s in spans if s.thread == client_thread), key=lambda s: s.start
    )
    starts = [s.start for s in client]
    for span in spans:
        if span.parent is not None or span.thread == client_thread:
            continue
        i = bisect.bisect_right(starts, span.start) - 1
        while i >= 0 and client[i].end < span.end:
            i -= 1
        if i >= 0:
            span.parent = client[i].id


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of *intervals*, each clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def request_roots(spans: list[Span]) -> dict[int, Span]:
    """Span id -> the root span of its request (spans of one request share it)."""
    by_id = {s.id: s for s in spans}
    root: dict[int, Span] = {}
    for s in spans:
        path = []
        cur = s
        while cur.id not in root and cur.parent in by_id:
            path.append(cur)
            cur = by_id[cur.parent]
        top = root.get(cur.id, cur)
        for p in path + [cur]:
            root[p.id] = top
    return root


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

FORMATS = ("csr", "csr-du", "csr-vi")

#: Client-side root spans: set-up of one executor, one timed SpMV call,
#: one paper experiment (run plus rendering).
SETUP_ROOT, CALL_ROOT, EXPERIMENT_ROOT = "client.setup", "client.call", "bench.experiment"

#: Layer self time as a share of the traced pass (set-up + measured phase).
PASS_SHARES = (
    "matrices.realize",
    "compress.decode_units",
    "compress.encode",
    "formats.convert",
    "kernels.get_plan",
    "machine.analyze_threads",
    "machine.solve_makespan",
    "perf.attribution",
)

#: Calls per traced pass.
PASS_COUNTS = ("matrices.realize", "compress.decode_units", "machine.simulate")

#: Layer self time inside timed SpMV calls, as a share of those calls'
#: busy time: the self time of all their spans on every thread.  Worker
#: threads overlap, so busy time can exceed the calls' wall time, while
#: the shares of one format add up to at most 1.
CALL_SHARES = {
    "parallel.call_self_share": "parallel.call",
    "formats.chunk_self_share": "formats.chunk",
    "kernels.plan_self_share": "kernels.plan",
    "nputil.reduce_share": "nputil.reduce",
    "compress.decode_share": "compress.decode",
}

#: Layer self time as a share of executor set-up time.
SETUP_SHARES = {
    "storage.shard_build_share": "storage.shard_build",
    "parallel.setup_other_share": "parallel.setup",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], client_thread: int, wall_s: float) -> dict:
    """Per-layer numbers of one traced pass whose measured phase took *wall_s*."""
    attach_orphans(spans, client_thread)
    own = self_times(spans)
    root = request_roots(spans)
    names = defaultdict(list)
    for s in spans:
        names[s.name].append(s)

    setup_s = sum(s.end - s.start for s in names[SETUP_ROOT])
    traced_s = wall_s + setup_s
    out: dict[str, float] = {}
    for layer in PASS_SHARES:
        out[f"{layer}_share"] = _ratio(sum(own[s.id] for s in names[layer]), traced_s)
    for layer in PASS_COUNTS:
        out[f"{layer}_calls"] = len(names[layer])
    out["bench.self_share"] = _ratio(
        sum(own[s.id] for s in spans if s.name.startswith("bench.")), traced_s
    )
    for metric, layer in SETUP_SHARES.items():
        out[metric] = _ratio(sum(own[s.id] for s in names[layer]), setup_s)
    lookups = names["compress.convert_cache"]
    misses = {s.parent for s in names["formats.convert"]}
    out["compress.convert_cache_hit_ratio"] = _ratio(
        sum(1 for s in lookups if s.id not in misses), len(lookups)
    )

    busy, layer_time = defaultdict(float), defaultdict(float)
    for s in spans:
        top = root[s.id]
        if top.name == CALL_ROOT:
            busy[top.attrs["fmt"]] += own[s.id]
            layer_time[(s.name, top.attrs["fmt"])] += own[s.id]
    chunks = defaultdict(list)
    for s in names["formats.chunk"]:
        chunks[s.parent].append(s.end - s.start)
    balances = defaultdict(list)
    for call in names["parallel.call"]:
        top, durations = root[call.id], chunks.get(call.id, ())
        if top.name == CALL_ROOT and len(durations) > 1:
            balances[top.attrs["fmt"]].append(max(durations) / statistics.fmean(durations))
    for fmt in FORMATS:
        for metric, layer in CALL_SHARES.items():
            out[f"{metric}.{fmt}"] = _ratio(layer_time[(layer, fmt)], busy[fmt])
        per_call = balances[fmt]
        out[f"parallel.imbalance.{fmt}"] = statistics.median(per_call) if per_call else 0.0

    # Client-thread spans only: worker spans overlap each other and the
    # call waiting on them, so counting them could hide an untraced gap.
    # Within one thread children nest, so these self times add up to the
    # part of the measured phase that the request spans cover.
    client = [
        s
        for s in spans
        if s.thread == client_thread and root[s.id].name in (CALL_ROOT, EXPERIMENT_ROOT)
    ]
    out["trace.coverage"] = _ratio(sum(self_times(client).values()), wall_s)
    return out


def wrapper_cost_s() -> float:
    """Seconds one recorded call through :meth:`Recorder.wrap` adds, measured
    on a no-op as the median of five rounds of 5000 calls."""
    recorder = Recorder()

    def noop():
        return None

    wrapped = recorder.wrap(noop, "noop")
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(5000):
            noop()
        t1 = time.perf_counter()
        for _ in range(5000):
            wrapped()
        t2 = time.perf_counter()
        recorder.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / 5000)
    return max(0.0, statistics.median(costs))
