"""Chaos harness: inject faults, demand bit-identical recovery or typed failure.

Every scenario arms one fault through :mod:`repro.resilience.chaos`,
drives a real executor / stream through it, and asserts the resilience
contract: the run either **recovers to a bit-identical result** (same
bytes as a fault-free run of the same configuration) or fails with a
**typed** :class:`~repro.errors.ExecutionError` /
:class:`~repro.errors.StorageError` family exception -- never a hang,
never a silently wrong answer.  Telemetry is scoped per scenario and
every emitted event must validate against the documented schema, so
the recovery machinery stays observable while it works.

Scenarios (the fault sweep):

==================  =======================================================
``worker-kill``     SIGKILL a pool worker mid-chunk -> typed ExecutionError
                    (dead worker), then a bit-identical recovery call
``straggler``       one worker sleeps past ``chunk_timeout`` ->
                    ``executor.chunk.abandoned`` + typed TimeoutError
                    failure, then bit-identical recovery
``shard-corrupt``   decode fault pinned to (shard 0, generation 0) ->
                    rebuild bumps the generation, same call returns the
                    bit-identical answer with exactly one retry
``breaker-open``    persistent shard fault + no-retry policy -> the
                    per-(shard, generation) breaker opens after 3
                    failures; further calls fail fast with a typed
                    BreakerOpenError instead of burning attempts
``mmap-truncate``   a shard file truncated on disk -> CRC failure at
                    attach, parent rebuild rewrites the file, call
                    returns bit-identical
``degrade-ladder``  every process-rung chunk poisoned -> the
                    ResilientExecutor degrades to the thread rung,
                    answers bit-identically, and the ``backend-degraded``
                    SLO rule fires on the obs snapshot
``deadline``        an expired wall-clock Deadline -> typed
                    DeadlineExceeded before any work runs
``torn-checkpoint`` a subprocess streaming over an mmap store is
                    SIGKILLed between shard 1's y-partial flush and its
                    progress.json write; the resumed run recomputes the
                    torn shard and produces a bit-identical y
==================  =======================================================

Fork caveat: the kill/sleep/raise faults reach pool workers by fork
inheritance, so scenarios that need worker-side faults are skipped on
platforms without the fork start method.

Run:  PYTHONPATH=src python tools/smoke_chaos.py [--smoke] [--events PATH]
      [--only NAME]

``--smoke`` runs the sweep once at the small size (the CI entry);
without it the data-fault scenarios run a second pass at a larger
matrix / worker count.  ``--events`` appends every scenario's validated
telemetry events to a JSONL log (the CI artifact).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

import repro
from repro import telemetry
from repro.errors import (
    BreakerOpenError,
    DeadlineExceeded,
    EncodingError,
    ExecutionError,
    TelemetryError,
)
from repro.formats.csr import CSRMatrix
from repro.parallel.process_executor import ProcessParallelSpMV
from repro.resilience import chaos
from repro.resilience.degrade import ResilientExecutor
from repro.resilience.policy import Deadline, RetryPolicy
from repro.telemetry.export import validate_event
from repro.telemetry.metrics import KNOWN_EVENTS

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


class ChaosFailure(AssertionError):
    """A scenario violated the resilience contract."""


def _matrix(n: int, seed: int) -> CSRMatrix:
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.1) * rng.random((n, n))
    return CSRMatrix.from_dense(dense)


def _events() -> list[dict]:
    return [
        dataclasses.asdict(ev) for ev in telemetry.get_collector().snapshot()
    ]


def _named(events: list[dict], name: str) -> list[dict]:
    return [e for e in events if e["name"] == name]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ChaosFailure(message)


def _corrupt() -> EncodingError:
    return EncodingError("chaos: shard bytes corrupted")


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def scenario_worker_kill(n: int = 96, nworkers: int = 2) -> str:
    csr = _matrix(n, seed=11)
    x = np.random.default_rng(2).random(n)
    with ProcessParallelSpMV(csr, nworkers, format_name="csr") as clean:
        expected = clean(x)
    chaos.arm("worker.chunk", "kill", match={"index": 1}, tag="worker-kill")
    with ProcessParallelSpMV(csr, nworkers, format_name="csr") as ex:
        try:
            ex(x)
        except DeadlineExceeded:
            raise ChaosFailure("worker kill misreported as DeadlineExceeded")
        except ExecutionError as exc:
            _require(
                len(exc.failures) >= 1,
                "worker kill produced an ExecutionError with no failures",
            )
        else:
            raise ChaosFailure("SIGKILLed worker did not fail the call")
        # Disarm before the recovery call: the rotated pool forks fresh
        # from this parent, so a still-armed kill would fire again.
        chaos.disarm_all()
        got = ex(x)
    _require(
        np.array_equal(got, expected),
        "recovery call after a worker kill is not bit-identical",
    )
    return "typed failure, bit-identical recovery after pool rotation"


def scenario_straggler(n: int = 96, nworkers: int = 2) -> str:
    csr = _matrix(n, seed=13)
    x = np.random.default_rng(3).random(n)
    with ProcessParallelSpMV(csr, nworkers, format_name="csr") as clean:
        expected = clean(x)
    chaos.arm(
        "worker.chunk",
        "sleep",
        match={"index": 0},
        sleep_s=2.0,
        tag="straggler",
    )
    with ProcessParallelSpMV(
        csr, nworkers, format_name="csr", chunk_timeout=0.25
    ) as ex:
        try:
            ex(x)
        except ExecutionError as exc:
            _require(
                any(isinstance(f.error, TimeoutError) for f in exc.failures),
                f"straggler failure is not a TimeoutError: {exc}",
            )
        else:
            raise ChaosFailure("straggler did not trip chunk_timeout")
        chaos.disarm_all()
        got = ex(x)
    _require(
        np.array_equal(got, expected),
        "recovery call after a straggler is not bit-identical",
    )
    abandoned = _named(_events(), "executor.chunk.abandoned")
    _require(
        len(abandoned) == 1,
        f"expected 1 executor.chunk.abandoned event, got {len(abandoned)}",
    )
    return "abandoned chunk marked, bit-identical recovery"


def scenario_shard_corrupt(n: int = 96, nworkers: int = 2) -> str:
    csr = _matrix(n, seed=17)
    x = np.random.default_rng(5).random(n)
    with ProcessParallelSpMV(csr, nworkers, format_name="csr-du") as clean:
        expected = clean(x)
    # Pinned to generation 0: the rebuild bumps the generation, so the
    # fault stops matching and the resubmit sees clean bytes -- exactly
    # how a one-off corruption between generations should converge.
    chaos.arm(
        "worker.chunk",
        "raise",
        match={"index": 0, "generation": 0},
        exc_factory=_corrupt,
        tag="shard-corrupt",
    )
    with ProcessParallelSpMV(csr, nworkers, format_name="csr-du") as ex:
        got = ex(x)
    _require(
        np.array_equal(got, expected),
        "post-rebuild result is not bit-identical",
    )
    retries = _named(_events(), "executor.retry")
    _require(
        len(retries) == 1,
        f"expected exactly 1 executor.retry, got {len(retries)}",
    )
    return "rebuilt shard generation, bit-identical, 1 retry"


def scenario_breaker_open(n: int = 96, nworkers: int = 2) -> str:
    csr = _matrix(n, seed=19)
    x = np.random.default_rng(7).random(n)
    # Persistent fault + a policy that never retries: the shard's
    # generation never advances, so its breaker accumulates failures.
    chaos.arm(
        "worker.chunk",
        "raise",
        match={"index": 0},
        times=1000,
        exc_factory=_corrupt,
        tag="breaker-open",
    )
    with ProcessParallelSpMV(
        csr,
        nworkers,
        format_name="csr",
        retry_policy=RetryPolicy(max_attempts=1, budget=0),
    ) as ex:
        last: ExecutionError | None = None
        for _ in range(3):
            try:
                ex(x)
            except ExecutionError as exc:
                last = exc
            else:
                raise ChaosFailure("persistent shard fault did not fail")
    _require(
        last is not None
        and any(isinstance(f.error, BreakerOpenError) for f in last.failures),
        f"third call did not surface a BreakerOpenError: {last}",
    )
    opens = _named(_events(), "resilience.breaker.open")
    _require(
        len(opens) == 1,
        f"expected 1 resilience.breaker.open event, got {len(opens)}",
    )
    return "breaker opened after 3 failures, typed BreakerOpenError"


def scenario_mmap_truncate(n: int = 96, nworkers: int = 2) -> str:
    csr = _matrix(n, seed=23)
    x = np.random.default_rng(9).random(n)
    with tempfile.TemporaryDirectory(prefix="chaos-clean-") as tmp:
        with ProcessParallelSpMV(
            csr, nworkers, format_name="csr", storage="mmap", directory=tmp
        ) as clean:
            expected = clean(x)
    with tempfile.TemporaryDirectory(prefix="chaos-mmap-") as tmp:
        with ProcessParallelSpMV(
            csr, nworkers, format_name="csr", storage="mmap", directory=tmp
        ) as ex:
            path = ex.store.shards[0]["handle"]["path"]
            os.truncate(path, os.path.getsize(path) // 2)
            got = ex(x)
        _require(
            np.array_equal(got, expected),
            "post-truncation rebuild is not bit-identical",
        )
    retries = _named(_events(), "executor.retry")
    _require(
        len(retries) == 1,
        f"expected exactly 1 executor.retry, got {len(retries)}",
    )
    return "truncated shard file rebuilt, bit-identical, 1 retry"


def scenario_degrade_ladder(n: int = 96, nworkers: int = 2) -> str:
    from repro.obs import ObsRuntime
    from repro.obs.rules import default_rules
    from repro.parallel.executor import ParallelSpMV

    csr = _matrix(n, seed=29)
    x = np.random.default_rng(13).random(n)
    with ParallelSpMV(csr, nworkers, format_name="csr") as clean:
        expected = clean(x)
    # Every generation of every shard is poisoned: the process rung
    # cannot recover in place, so the ladder must step down to threads.
    chaos.arm(
        "worker.chunk",
        "raise",
        match={},
        times=10**6,
        exc_factory=_corrupt,
        tag="degrade-ladder",
    )
    runtime = ObsRuntime(rules=default_rules())
    prev_runtime = telemetry.set_live(runtime)
    try:
        with ResilientExecutor(
            csr, nworkers, backend="process", storage="mem", format_name="csr"
        ) as rex:
            got = rex(x)
            rung = rex.active_rung
        runtime.flush_snapshot()
        alerts = [a.rule for a in runtime.alerts]
        exposition = runtime.render_openmetrics()
    finally:
        telemetry.set_live(prev_runtime)
        runtime.close()
    _require(
        np.array_equal(got, expected),
        "degraded (thread-rung) result is not bit-identical",
    )
    _require(
        rung == ("thread", "mem"),
        f"expected active rung ('thread', 'mem'), got {rung}",
    )
    degrades = _named(_events(), "resilience.degrade")
    _require(bool(degrades), "no resilience.degrade telemetry emitted")
    _require(
        "backend-degraded" in alerts,
        f"backend-degraded SLO rule did not fire (alerts: {alerts})",
    )
    _require(
        "resilience_degrade_total" in exposition,
        "OpenMetrics exposition lacks resilience_degrade_total",
    )
    return "degraded process->thread, bit-identical, SLO rule fired"


def scenario_deadline(n: int = 96, nworkers: int = 2) -> str:
    from repro.parallel.backends import make_executor

    csr = _matrix(n, seed=31)
    x = np.random.default_rng(17).random(n)
    deadline = Deadline.after(0.05)
    with make_executor(
        csr, nworkers, backend="thread", format_name="csr", deadline=deadline
    ) as ex:
        time.sleep(0.06)
        try:
            ex(x)
        except DeadlineExceeded as exc:
            _require(
                exc.label == "parallel.call",
                f"deadline expired at {exc.label!r}, not 'parallel.call'",
            )
        else:
            raise ChaosFailure("expired deadline did not raise")
    expired = _named(_events(), "resilience.deadline.expired")
    _require(
        len(expired) == 1,
        f"expected 1 resilience.deadline.expired event, got {len(expired)}",
    )
    return "typed DeadlineExceeded before any work ran"


_CHILD_SCRIPT = """
import numpy as np
from repro.resilience import chaos
from repro.storage.shard import ShardStore
from repro.storage.stream import streamed_spmv

store = ShardStore.open({store_dir!r})
x = np.random.default_rng(19).random(store.ncols)
chaos.arm("stream.checkpoint", "kill", match={{"shard": 1}})
streamed_spmv(store, x, checkpoint_dir={ckpt_dir!r})
raise SystemExit("chaos kill did not fire")
"""


def scenario_torn_checkpoint(n: int = 120, nshards: int = 3) -> str:
    from repro.storage.shard import ShardStore
    from repro.storage.stream import PROGRESS_NAME, streamed_spmv

    csr = _matrix(n, seed=37)
    x = np.random.default_rng(19).random(n)
    expected = csr.spmv(x)
    with tempfile.TemporaryDirectory(prefix="chaos-torn-") as tmp:
        store_dir = os.path.join(tmp, "store")
        ckpt_dir = os.path.join(tmp, "ckpt")
        os.makedirs(store_dir)
        build = ShardStore.build(
            csr, "csr", nshards, storage="mmap", directory=store_dir
        )
        build.save_manifest()
        build.close(unlink=False)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _CHILD_SCRIPT.format(store_dir=store_dir, ckpt_dir=ckpt_dir),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        _require(
            proc.returncode == -signal.SIGKILL,
            f"child exited {proc.returncode}, wanted -SIGKILL "
            f"(stderr: {proc.stderr[-500:]})",
        )
        with open(os.path.join(ckpt_dir, PROGRESS_NAME), encoding="ascii") as fh:
            progress = json.load(fh)
        _require(
            progress["shards_done"] == 1,
            f"torn checkpoint records shards_done={progress['shards_done']}, "
            "wanted 1 (y ahead of progress)",
        )
        store = ShardStore.open(store_dir)
        try:
            result = streamed_spmv(store, x, checkpoint_dir=ckpt_dir)
            _require(
                result.resumed_from == 1,
                f"resume started at shard {result.resumed_from}, wanted 1",
            )
            _require(
                np.array_equal(np.asarray(result.y), expected),
                "resumed streamed y is not bit-identical",
            )
        finally:
            store.close(unlink=False)
    return "killed mid-checkpoint, resumed from shard 1, bit-identical"


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

#: (name, callable, needs_fork): the full sweep, in run order.
SCENARIOS: tuple[tuple[str, object, bool], ...] = (
    ("worker-kill", scenario_worker_kill, True),
    ("straggler", scenario_straggler, True),
    ("shard-corrupt", scenario_shard_corrupt, True),
    ("breaker-open", scenario_breaker_open, True),
    ("mmap-truncate", scenario_mmap_truncate, False),
    ("degrade-ladder", scenario_degrade_ladder, True),
    ("deadline", scenario_deadline, False),
    ("torn-checkpoint", scenario_torn_checkpoint, False),
)

#: Data-fault scenarios the full (non --smoke) sweep re-runs larger.
_SECOND_PASS = ("shard-corrupt", "mmap-truncate", "degrade-ladder")


def run_scenario(name: str, fn, event_log: list[dict], **kwargs) -> int:
    prev = telemetry.set_collector(telemetry.Collector())
    try:
        summary = fn(**kwargs)
        events = _events()
    except ChaosFailure as exc:
        print(f"smoke_chaos: {name} FAILED: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        print(
            f"smoke_chaos: {name} ERRORED: {type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
        return 1
    finally:
        chaos.disarm_all()
        telemetry.set_collector(prev)
    for i, event in enumerate(events):
        try:
            validate_event(event)
        except TelemetryError as exc:
            print(
                f"smoke_chaos: {name} event {i} invalid: {exc}: {event!r}",
                file=sys.stderr,
            )
            return 1
    unknown = {e["name"] for e in events} - KNOWN_EVENTS
    if unknown:
        print(
            f"smoke_chaos: {name} emitted undocumented events "
            f"{sorted(unknown)}",
            file=sys.stderr,
        )
        return 1
    event_log.extend(events)
    print(f"smoke_chaos: {name} OK ({summary}; {len(events)} events)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single small pass of every scenario (the CI entry)",
    )
    parser.add_argument(
        "--events",
        type=str,
        default=None,
        metavar="PATH",
        help="write every scenario's telemetry events as JSONL",
    )
    parser.add_argument(
        "--only",
        type=str,
        default=None,
        help="run just this scenario (by name)",
    )
    args = parser.parse_args(argv)

    names = {name for name, _, _ in SCENARIOS}
    if args.only is not None and args.only not in names:
        parser.error(f"unknown scenario {args.only!r}; choose from {sorted(names)}")

    event_log: list[dict] = []
    failures = 0
    ran = 0
    for name, fn, needs_fork in SCENARIOS:
        if args.only is not None and name != args.only:
            continue
        if needs_fork and not _HAS_FORK:
            print(f"smoke_chaos: {name} SKIPPED (no fork start method)")
            continue
        failures += run_scenario(name, fn, event_log)
        ran += 1
        if not args.smoke and args.only is None and name in _SECOND_PASS:
            failures += run_scenario(
                f"{name}@160x4", fn, event_log, n=160, nworkers=4
            )
            ran += 1
    if args.events:
        with open(args.events, "w", encoding="utf-8") as fh:
            for event in event_log:
                fh.write(json.dumps(event) + "\n")
        print(
            f"smoke_chaos: wrote {len(event_log)} events to {args.events}"
        )
    if ran == 0:
        print("smoke_chaos: no scenarios ran", file=sys.stderr)
        return 1
    if failures:
        print(f"smoke_chaos: {failures} scenario(s) failed", file=sys.stderr)
        return 1
    print(f"smoke_chaos: all {ran} scenario runs passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
