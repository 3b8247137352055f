"""Deterministic fault injection hooks for the chaos harness.

``tools/smoke_chaos.py`` needs to make precise bad things happen at
precise moments: kill a pool worker *mid-chunk*, stall one chunk past
its timeout, raise a decode error inside shard *k* at generation *g*
only.  This module is the seam: production code calls
:func:`trip` at a handful of named **sites**, and the harness (or a
test) :func:`arm`\\ s faults against those sites.  With nothing armed,
:func:`trip` is one truthiness check on an empty tuple — the hooks
cost nothing in normal operation.

Sites currently wired:

=====================  ======================================================
site                   where / context keys
=====================  ======================================================
``thread.chunk``       inside a thread executor's chunk, before the kernel;
                       ``thread``, ``lo``, ``hi``, ``kind``
``worker.chunk``       inside a pool worker, before the shard kernel;
                       ``index``, ``generation``, ``pid``
``stream.shard``       ``streamed_spmv`` loop, before shard *k*'s multiply;
                       ``shard``, ``generation``
``stream.checkpoint``  between shard *k*'s y-partial flush and the
                       progress.json write (the torn-checkpoint window);
                       ``shard``
=====================  ======================================================

Faults **match** when every key in their ``match`` dict equals the
site's context value — so a fault armed with ``{"index": 1,
"generation": 0}`` stops firing the moment the executor rebuilds the
shard (generation bump), which is what lets recovery converge.

Fork semantics (the subtle part): the process pool uses ``fork``, so
faults armed in the parent are inherited by every worker.  Each
fault's ``times`` budget decrements in whichever process trips it, and
a child's decrement is *not* visible to the parent or to workers
forked later — so a kill fault that should fire once must be matched
on state that changes after the first firing (index + generation), not
on ``times`` alone.

Actions:

* ``"raise"`` — raise ``exc_factory()`` at the site.
* ``"sleep"`` — block ``sleep_s`` seconds (straggler injection).
* ``"kill"`` — ``SIGKILL`` the *current process* (no cleanup, no
  atexit: the honest simulation of an OOM kill or machine loss).

Nothing here is exported through ``repro.resilience.__init__`` for
production use; the harness and tests import it explicitly.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

__all__ = ["Fault", "arm", "disarm_all", "faults", "trip"]


@dataclass
class Fault:
    """One armed fault. Mutable: ``times`` counts down as it fires."""

    site: str
    action: str  # "raise" | "sleep" | "kill"
    match: dict = field(default_factory=dict)
    times: int = 1
    sleep_s: float = 0.0
    exc_factory: object = None
    #: Diagnostic tag echoed in harness logs.
    tag: str = ""

    def matches(self, context: dict) -> bool:
        if self.times <= 0:
            return False
        return all(context.get(k) == v for k, v in self.match.items())

    def fire(self) -> None:
        self.times -= 1
        if self.action == "kill":
            # SIGKILL ourselves: no Python-level unwinding, no flushes —
            # the process simply ceases, as a real OOM kill would.
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.action == "sleep":
            time.sleep(self.sleep_s)
        elif self.action == "raise":
            exc = self.exc_factory() if self.exc_factory else RuntimeError(
                f"chaos fault at {self.site}"
            )
            raise exc
        else:  # pragma: no cover - arm() validates
            raise ValueError(f"unknown chaos action {self.action!r}")


# Module-level so a fork()ed pool worker inherits whatever the parent
# armed.  Tuple (not list) so trip()'s fast path is one truthiness
# check on an immutable snapshot and arm/disarm are atomic rebinds.
_FAULTS: tuple[Fault, ...] = ()


def arm(
    site: str,
    action: str,
    *,
    match: dict | None = None,
    times: int = 1,
    sleep_s: float = 0.0,
    exc_factory=None,
    tag: str = "",
) -> Fault:
    """Arm one fault; returns it so callers can inspect ``times`` left."""
    global _FAULTS
    if action not in ("raise", "sleep", "kill"):
        raise ValueError(f"unknown chaos action {action!r}")
    fault = Fault(
        site=site,
        action=action,
        match=dict(match or {}),
        times=times,
        sleep_s=sleep_s,
        exc_factory=exc_factory,
        tag=tag,
    )
    _FAULTS = _FAULTS + (fault,)
    return fault


def disarm_all() -> None:
    global _FAULTS
    _FAULTS = ()


def trip(site: str, **context) -> None:
    """Production hook: fire the first armed fault matching *site*.

    The empty fast path is a single global read + truthiness check.
    """
    if not _FAULTS:
        return
    for fault in _FAULTS:
        if fault.site == site and fault.matches(context):
            fault.fire()
            return
