"""Fig. 16 — bandwidth utilization over time (L2 of LLaMA-7B).

A windowed utilization time series of the fabric for CAIS-Base,
CAIS-Partial and full CAIS.  The paper's qualitative claims: full CAIS
sustains near-peak utilization in steady state, CAIS-Partial dips under
contention (no traffic control), and CAIS-Base alternates between
saturated and idle phases (global barriers).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..common.config import dgx_h100_config
from ..llm.models import TABLE_I
from .parallel import ExecContext, SimTask, run_matrix
from .runner import DEFAULT, Scale, markdown_table, run_system, sublayer_for

CONFIGS = ("CAIS-Base", "CAIS-Partial", "CAIS")


def run(scale: Scale = DEFAULT, model_name: str = "LLaMA-7B",
        which: str = "L2", windows: int = 24,
        ctx: Optional[ExecContext] = None,
        ) -> Dict[str, List[Tuple[float, float]]]:
    """Returns {config: [(window_center_us, avg_utilization)]}."""
    cfg = dgx_h100_config()
    model = scale.apply(TABLE_I[model_name])
    tasks = [SimTask(system=system,
                     graphs=(sublayer_for(model, cfg.num_gpus, system,
                                          which),),
                     config=cfg, scale=scale,
                     utilization_windows=windows)
             for system in CONFIGS]
    summaries = run_matrix(tasks, ctx)
    return {system: list(res.utilization_series or ())
            for system, res in zip(CONFIGS, summaries)}


def steady_state_stats(series: List[Tuple[float, float]]) -> Dict[str, float]:
    """Mean and dip depth over the middle half of the run."""
    n = len(series)
    mid = [u for _, u in series[n // 4: 3 * n // 4]]
    return {"mean": sum(mid) / len(mid), "min": min(mid), "max": max(mid)}


def format_table(results: Dict[str, List[Tuple[float, float]]]) -> str:
    rows = []
    for system, series in results.items():
        stats = steady_state_stats(series)
        rows.append([system, stats["mean"], stats["min"], stats["max"]])
    table = markdown_table(
        ["config", "steady-state mean", "min", "max"], rows)
    traces = "\n".join(
        f"- {system}: " + " ".join(f"{u:.2f}" for _, u in series)
        for system, series in results.items())
    return ("### Fig. 16: utilization over time (L2, windowed)\n" + table +
            "\n\nTraces (per-window utilization):\n" + traces)
