"""Experiment harness: the paper's tables and figures, regenerated."""

from repro.bench.harness import (
    ExperimentConfig,
    MatrixResult,
    run_format_matrix,
    run_set,
)
from repro.bench.experiments import (
    ablation_dcsr,
    ablation_du_vi,
    ablation_index_width,
    ablation_placement,
    ablation_frequency,
    ablation_rcm,
    ablation_seq_units,
    ablation_unit_policy,
    fig7,
    fig8,
    future_core_scaling,
    table2,
    table3,
    table4,
)
from repro.bench.report import (
    format_fig_series,
    format_speedup_table,
    format_table2,
)
from repro.bench.baseline import check_run, load_history, snapshot
from repro.bench.compare import compare_runs, format_comparison, structure_diff
from repro.bench.dashboard import render_dashboard, write_dashboard
from repro.bench.record import load_run, record_run, result_to_dict, run_payload
from repro.bench.sweep import (
    SweepPoint,
    bandwidth_sweep,
    cache_sweep,
    format_sweep_table,
)

__all__ = [
    "ExperimentConfig",
    "MatrixResult",
    "run_format_matrix",
    "run_set",
    "table2",
    "table3",
    "table4",
    "fig7",
    "fig8",
    "future_core_scaling",
    "ablation_unit_policy",
    "ablation_dcsr",
    "ablation_index_width",
    "ablation_placement",
    "ablation_seq_units",
    "ablation_frequency",
    "ablation_rcm",
    "ablation_du_vi",
    "format_table2",
    "format_speedup_table",
    "format_fig_series",
    "SweepPoint",
    "bandwidth_sweep",
    "cache_sweep",
    "format_sweep_table",
    "compare_runs",
    "format_comparison",
    "structure_diff",
    "record_run",
    "load_run",
    "result_to_dict",
    "run_payload",
    "check_run",
    "load_history",
    "snapshot",
    "render_dashboard",
    "write_dashboard",
]
