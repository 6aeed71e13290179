"""Experiment harness: one module per table/figure of the paper (Section V).

See DESIGN.md's per-experiment index for the mapping; run any of them via
``python -m repro experiments <fig2|fig11|...|table2|hw|all>``.
"""

from . import (
    fig02_scaling,
    sensitivity,
    fig11_end_to_end,
    fig12_sublayer,
    fig13_merge_table,
    fig14_table_sweep,
    fig15_bandwidth,
    fig16_utilization_trace,
    fig17_scalability,
    fig18_nvls_validation,
    table2_scaling_validation,
)
from .cache import SimCache
from .parallel import ExecContext, RunSummary, SimTask, run_matrix
from .runner import DEFAULT, FULL, QUICK, Scale

__all__ = [
    "DEFAULT",
    "FULL",
    "QUICK",
    "ExecContext",
    "RunSummary",
    "Scale",
    "SimCache",
    "SimTask",
    "run_matrix",
    "fig02_scaling",
    "sensitivity",
    "fig11_end_to_end",
    "fig12_sublayer",
    "fig13_merge_table",
    "fig14_table_sweep",
    "fig15_bandwidth",
    "fig16_utilization_trace",
    "fig17_scalability",
    "fig18_nvls_validation",
    "table2_scaling_validation",
]
