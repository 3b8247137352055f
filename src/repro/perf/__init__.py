"""Performance attribution: connect measured cells to the memory wall.

The package sits between the telemetry collector and the bench harness
and answers, for every measured ``(matrix, format, threads, placement)``
cell, *which* bound the number hit:

* :mod:`repro.perf.bytes` -- exact bytes streamed per SpMV iteration,
  derived from each format's real byte layout (CSR arrays, the CSR-DU
  ctl stream, CSR-VI ``vals_unique`` + ``val_ind``), split into
  index/value/vector traffic;
* :mod:`repro.perf.attribution` -- the :class:`Attribution` record:
  FLOP:byte ratio, effective bandwidth, %-of-roofline, per-thread
  imbalance, compression ratio, conversion setup time;
* :mod:`repro.perf.imbalance` -- per-thread busy time, barrier-wait
  time and the nnz-vs-time imbalance ratio, recovered from the
  executor's ``parallel.chunk`` spans in a recorded trace.

The bench harness attaches one :class:`Attribution` per cell
(:class:`repro.bench.harness.MatrixResult.attributions`) and emits it
as a ``perf.attribution`` telemetry event when tracing is on; the HTML
dashboard (:mod:`repro.bench.dashboard`) and the perf gate
(:mod:`repro.bench.baseline`) consume those records downstream.
"""
