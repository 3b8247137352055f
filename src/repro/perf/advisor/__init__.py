"""Cost-model-driven configuration advisor: ``format="auto"`` et al.

The paper's central finding is that the best compression scheme
(CSR-DU vs CSR-VI vs plain CSR) depends on matrix *structure* -- delta
widths, value redundancy, bandwidth pressure -- yet until this package
every entry point made a human pick the format, thread count and
backend by hand.  The advisor closes that loop:

* :mod:`repro.perf.advisor.features` -- one cheap ``O(nnz)`` pass over
  a matrix producing a frozen, hashable :class:`MatrixFeatures` record
  (row-length stats, delta-width histogram, unique-value ratio,
  diagonal/bandwidth locality, density);
* :mod:`repro.perf.advisor.model` -- an analytic cost model scoring
  every candidate ``(format, threads, backend)`` configuration from
  estimated bytes moved and kernel cycles, optionally sharpened by a
  wall-clock
  :class:`Calibration` measured on the current host
  (``tools/calibrate.py --advisor-out``);
* :mod:`repro.perf.advisor.advisor` -- :func:`advise` ranks the
  candidates into a :class:`RankedChoice`, folds recorded
  :class:`~repro.perf.attribution.Attribution` history over the
  analytic prior (measurements always win), emits ``advisor.pick``
  telemetry, and backs the ``"auto"`` format/threads choices
  wired through :func:`repro.parallel.backends.make_executor`, the
  bench CLI, and :meth:`repro.storage.shard.ShardStore.build`.

``benchmarks/microbench_advisor.py`` validates the whole stack against
an exhaustive oracle sweep (regret + top-1/top-3 hit rates in
``BENCH_advisor.json``).
"""

from repro.perf.advisor.advisor import (
    REGRET_BOUND,
    RankedChoice,
    advise,
    advise_format,
    history_from_attributions,
    record_realized,
)
from repro.perf.advisor.features import MatrixFeatures, extract_features
from repro.perf.advisor.model import (
    Calibration,
    CandidateConfig,
    Prediction,
    candidate_configs,
    estimate_bytes,
    load_calibration,
    measure_calibration,
    predict,
)

__all__ = [
    "REGRET_BOUND",
    "RankedChoice",
    "advise",
    "advise_format",
    "history_from_attributions",
    "record_realized",
    "MatrixFeatures",
    "extract_features",
    "Calibration",
    "CandidateConfig",
    "Prediction",
    "candidate_configs",
    "estimate_bytes",
    "load_calibration",
    "measure_calibration",
    "predict",
]
