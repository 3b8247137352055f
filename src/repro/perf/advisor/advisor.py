"""``advise()``: rank candidate configurations for one matrix.

The ranking pipeline: extract features (or accept them pre-extracted),
score every candidate with :func:`repro.perf.advisor.model.predict`,
fold recorded history over the prior, sort ascending by predicted
seconds.  The **history-folding rule** is deliberately blunt: when a
real measurement exists for a candidate's ``(format, threads)`` at the
same clock (an :class:`~repro.perf.attribution.Attribution` cell from
a bench checkpoint or an in-process run), its mean measured time
*replaces* the model's prediction outright -- measurements override
the analytic prior, never blend with it.  An advisor that argues with
its own measurements is worse than either alone.

Every ``advise()`` emits one ``advisor.pick`` telemetry event for the
winning configuration (predicted seconds, ``realized_s=0``); callers
that go on to run the pick report the wall clock back through
:func:`record_realized`, which emits the paired event the dashboard
uses for prediction-error display.

:data:`REGRET_BOUND` is the documented safety contract, enforced by
``tests/perf/test_advisor.py`` and reported by
``benchmarks/microbench_advisor.py``: across the corpus, the advisor's
pick must not be worse than the geometric-mean bound relative to the
exhaustive-oracle best (and never materially worse than plain CSR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import ReproError
from repro.machine.costmodel import CostModel
from repro.machine.topology import MachineSpec
from repro.perf.advisor.features import MatrixFeatures, extract_features
from repro.perf.advisor.model import (
    ADVISOR_FORMATS,
    Calibration,
    CandidateConfig,
    Prediction,
    candidate_configs,
    load_calibration,
    predict,
)
from repro.telemetry.metrics import record_advisor_pick

__all__ = [
    "REGRET_BOUND",
    "RankedChoice",
    "advise",
    "advise_format",
    "history_from_attributions",
    "record_realized",
]

#: Documented safety bound: geometric-mean measured regret of the
#: advisor's picks vs the exhaustive oracle (and vs plain CSR) across
#: the corpus must stay at or below this factor.
REGRET_BOUND = 1.25

#: Sentinel: "load whatever calibration is in effect on this host".
_DEFAULT = "default"


@dataclass(frozen=True)
class RankedChoice:
    """The advisor's full verdict for one matrix.

    ``ranking`` is every scored candidate, ascending by predicted
    seconds; ``best`` is the pick.  ``calibration_id`` names the
    calibration that informed the scores (None = analytic only), so
    recorded picks are attributable to the exact throughput table that
    produced them.
    """

    matrix_id: int
    features: MatrixFeatures
    ranking: tuple[Prediction, ...]
    clock: str
    calibration_id: str | None = None

    @property
    def best(self) -> Prediction:
        return self.ranking[0]

    @property
    def config(self) -> CandidateConfig:
        return self.best.config

    def top(self, n: int) -> tuple[Prediction, ...]:
        return self.ranking[:n]


def history_from_attributions(
    records: Iterable,
    *,
    matrix_id: int = -1,
    clock: str | None = None,
) -> dict[tuple[str, int], float]:
    """Mean measured seconds per ``(format, threads)`` from history.

    *records* are :class:`~repro.perf.attribution.Attribution`
    instances (or anything with ``format_name``, ``threads``,
    ``time_s``, ``matrix_id``, ``clock`` attributes).  Records for a
    different matrix or a different clock are ignored -- a model-clock
    prediction must not be folded into a wall-clock ranking.
    """
    sums: dict[tuple[str, int], list[float]] = {}
    for rec in records:
        if matrix_id >= 0 and getattr(rec, "matrix_id", -1) != matrix_id:
            continue
        if clock is not None and getattr(rec, "clock", clock) != clock:
            continue
        t = float(getattr(rec, "time_s", 0.0))
        if t <= 0:
            continue
        key = (str(rec.format_name), int(rec.threads))
        sums.setdefault(key, []).append(t)
    return {k: sum(v) / len(v) for k, v in sums.items()}


def _fold_history(
    predictions: list[Prediction],
    history: Mapping[tuple[str, int], float],
) -> list[Prediction]:
    folded = []
    for p in predictions:
        measured = history.get((p.config.format_name, p.config.threads))
        if measured is not None:
            p = Prediction(
                config=p.config,
                seconds=measured,
                source="history",
                bytes_est=p.bytes_est,
            )
        folded.append(p)
    return folded


def advise(
    matrix,
    *,
    matrix_id: int = -1,
    clock: str = "real",
    formats: tuple[str, ...] = ADVISOR_FORMATS,
    threads: tuple[int, ...] = (1,),
    backends: tuple[str, ...] = ("thread",),
    machine: MachineSpec | None = None,
    cost_model: CostModel | None = None,
    calibration=_DEFAULT,
    history=None,
    emit: bool = True,
) -> RankedChoice:
    """Rank every candidate configuration for *matrix*.

    *matrix* may be a :class:`~repro.formats.base.SparseMatrix` or a
    pre-extracted :class:`MatrixFeatures`.  ``calibration`` defaults
    to whatever ``tools/calibrate.py --advisor-out`` left on this host
    (pass ``None`` to force the analytic prior, or a
    :class:`Calibration` to pin one).  ``history`` is either a
    ``{(format, threads): seconds}`` mapping or an iterable of
    Attribution records, folded per the module-docstring rule.
    """
    features = (
        matrix
        if isinstance(matrix, MatrixFeatures)
        else extract_features(matrix)
    )
    if calibration is _DEFAULT:
        calibration = load_calibration() if clock == "real" else None
    if calibration is not None and not isinstance(calibration, Calibration):
        raise ReproError(
            "calibration must be a Calibration instance or None"
        )
    candidates = candidate_configs(
        formats=formats, threads=threads, backends=backends
    )
    predictions = [
        predict(
            features,
            c,
            machine=machine,
            cost_model=cost_model,
            calibration=calibration,
            clock=clock,
        )
        for c in candidates
    ]
    if history is not None:
        if not isinstance(history, Mapping):
            history = history_from_attributions(
                history, matrix_id=matrix_id, clock=clock
            )
        predictions = _fold_history(predictions, history)
    predictions.sort(key=lambda p: (p.seconds, p.config.describe()))
    choice = RankedChoice(
        matrix_id=matrix_id,
        features=features,
        ranking=tuple(predictions),
        clock=clock,
        calibration_id=(
            calibration.calibration_id if calibration is not None else None
        ),
    )
    if emit:
        best = choice.best
        record_advisor_pick(
            matrix_id=matrix_id,
            format_name=best.config.format_name,
            threads=best.config.threads,
            backend=best.config.backend,
            predicted_s=best.seconds,
            realized_s=0.0,
            source=best.source,
            phase="advise",
        )
    return choice


def record_realized(
    choice: RankedChoice | Prediction, realized_s: float, *, matrix_id: int | None = None
) -> None:
    """Report the wall clock a pick actually achieved.

    Emits the ``phase="realized"`` half of the ``advisor.pick`` pair;
    the dashboard divides predicted by realized seconds to chart
    prediction error.
    """
    best = choice.best if isinstance(choice, RankedChoice) else choice
    if matrix_id is None:
        matrix_id = (
            choice.matrix_id if isinstance(choice, RankedChoice) else -1
        )
    record_advisor_pick(
        matrix_id=matrix_id,
        format_name=best.config.format_name,
        threads=best.config.threads,
        backend=best.config.backend,
        predicted_s=best.seconds,
        realized_s=float(realized_s),
        source=best.source,
        phase="realized",
    )


# ---------------------------------------------------------------------------
# "auto" resolvers -- the narrow entry points the wiring layers call.


def advise_format(
    matrix,
    *,
    threads: int = 1,
    backend: str = "thread",
    clock: str = "real",
    formats: tuple[str, ...] = ADVISOR_FORMATS,
    matrix_id: int = -1,
    history=None,
) -> str:
    """The format ``"auto"`` resolves to for *matrix*."""
    choice = advise(
        matrix,
        matrix_id=matrix_id,
        clock=clock,
        formats=formats,
        threads=(max(1, threads),),
        backends=(backend,),
        history=history,
    )
    return choice.config.format_name
