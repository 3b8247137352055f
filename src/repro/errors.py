"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch the whole family with a single
``except`` clause while letting programming errors (``TypeError`` from
misuse of NumPy, etc.) propagate untouched.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class FormatError(ReproError):
    """A sparse-matrix format was constructed from inconsistent arrays."""


class EncodingError(ReproError):
    """A compression stream (ctl / DCSR commands) is malformed.

    Raised both by encoders asked to encode impossible input (e.g. a
    negative column delta inside a row) and by decoders that run off the
    end of a stream or meet an unknown command byte.
    """


class PartitionError(ReproError):
    """A work partition does not cover the matrix or is malformed."""


class MachineModelError(ReproError):
    """A machine specification or simulation request is invalid."""


class CatalogError(ReproError):
    """A matrix-catalog entry is unknown or cannot be realized."""


class TelemetryError(ReproError):
    """A telemetry event, trace file, or collector operation is invalid."""


class IntegrityError(ReproError):
    """Stored matrix data fails an integrity check.

    Raised by the validators in :mod:`repro.robust.validate` (structural
    invariants, ctl-stream walking, checksum seals) and by aliasing
    contract violations in the compute paths.  Where the failure can be
    localized, the context rides along as attributes.

    Attributes
    ----------
    byte_offset:
        Offset into a byte stream (e.g. ``ctl``) where the check failed,
        or ``None``.
    row:
        Matrix row being walked when the check failed, or ``None``.
    field:
        Name of the stored array that failed (seal mismatches), or
        ``None``.
    """

    def __init__(
        self,
        message: str,
        *,
        byte_offset: int | None = None,
        row: int | None = None,
        field: str | None = None,
    ):
        super().__init__(message)
        self.byte_offset = byte_offset
        self.row = row
        self.field = field


#: Decode-class errors: what possibly-stale encoded data raises at
#: decode time.  The one set every recovery path absorbs -- the
#: executors' cache-invalidating retry, the guarded kernel's tier
#: fallback, the streamed shard rebuild; anything else propagates.
DECODE_ERRORS = (EncodingError, IntegrityError, FormatError)


class StorageError(ReproError):
    """A shard store, buffer provider, or manifest operation failed.

    Raised by :mod:`repro.storage` for unsupported formats, malformed
    manifests, missing backing files/segments, and in-memory builds
    that would exceed an enforced ``budget_bytes`` (the out-of-core
    guard: the caller asked for a resident-memory ceiling the build
    cannot honor without spilling to disk).
    """


class ExecutionError(ReproError):
    """One or more worker chunks of a parallel SpMV call failed.

    Aggregates every per-chunk failure of the call (the executor does
    not stop at the first one), so a single except clause sees the full
    damage report.

    Attributes
    ----------
    failures:
        Tuple of :class:`~repro.parallel.executor.ChunkFailure`, one per
        failed chunk, each carrying the thread id, row range and the
        underlying exception.
    """

    def __init__(self, message: str, failures: tuple = ()):
        super().__init__(message)
        self.failures = tuple(failures)


class DeadlineExceeded(ExecutionError):
    """A wall-clock :class:`~repro.resilience.policy.Deadline` ran out.

    Subclasses :class:`ExecutionError` so existing executor callers
    that catch the execution family see the expiry without new except
    clauses.

    Attributes
    ----------
    label:
        Where the budget ran out (``"parallel.call"``, ...), or ``""``.
    budget_s:
        The total wall-clock budget the deadline started with.
    """

    def __init__(self, message: str, *, label: str = "", budget_s: float = 0.0):
        super().__init__(message)
        self.label = label
        self.budget_s = float(budget_s)


class BreakerOpenError(ReproError):
    """A circuit breaker is open: the guarded operation was not attempted.

    Raised (or aggregated as a :class:`~repro.parallel.executor.
    ChunkFailure` error) when a per-shard or per-backend breaker has
    seen too many consecutive failures and is shedding load instead of
    burning rebuild cycles.  Carries when a retry becomes worthwhile.

    Attributes
    ----------
    key:
        The breaker's identity (e.g. ``"shard:1:g0"`` or
        ``"backend:process:mem"``).
    retry_after_s:
        Seconds until the breaker's cooldown admits a half-open probe.
    """

    def __init__(self, message: str, *, key: str = "", retry_after_s: float = 0.0):
        super().__init__(message)
        self.key = key
        self.retry_after_s = float(retry_after_s)


class ConvergenceError(ReproError):
    """An iterative solver failed to reach its tolerance.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Final residual norm achieved.
    """

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = int(iterations)
        self.residual = float(residual)
