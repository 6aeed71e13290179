"""Fig. 15 — average bandwidth utilization per sub-layer.

Three CAIS configurations — CAIS-Base (no dataflow optimizer), CAIS-Partial
(optimizer without traffic control) and full CAIS — compared on the mean
utilization across all links and both directions over each run.  The paper
reports 62.4% -> 84.7% -> 90.2%; the reproduced gap is smaller (our message
granularity is coarser and the calibrated fabric slower; see
EXPERIMENTS.md) but the ordering and its causes (asymmetric overlap, then
traffic control) are the claims under test.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..common.config import dgx_h100_config
from ..llm.models import TABLE_I
from ..llm.tp import SUBLAYERS
from .parallel import ExecContext, SimTask, run_matrix
from .runner import DEFAULT, Scale, markdown_table, run_system, sublayer_for

CONFIGS = ("CAIS-Base", "CAIS-Partial", "CAIS")


def run(scale: Scale = DEFAULT,
        models: Optional[Sequence[str]] = None,
        sublayers: Sequence[str] = SUBLAYERS,
        ctx: Optional[ExecContext] = None) -> Dict[str, Dict[str, float]]:
    """Returns {workload: {config: goodput utilization, config (raw): ...}}.

    *Goodput* utilization discounts redundant traffic (partial-reduction
    flushes from merge-table evictions): each config's raw utilization is
    scaled by full CAIS's byte volume over its own, so wasted re-sends do
    not count as "utilizing" the fabric.
    """
    cfg = dgx_h100_config()
    tasks: List[SimTask] = []
    keys: List[tuple] = []
    for model_name in (models or list(TABLE_I)):
        model = scale.apply(TABLE_I[model_name])
        for which in sublayers:
            for system in CONFIGS:
                graph = sublayer_for(model, cfg.num_gpus, system, which)
                tasks.append(SimTask(system=system, graphs=(graph,),
                                     config=cfg, scale=scale))
                keys.append((f"{model_name} {which}", system))
    summaries = run_matrix(tasks, ctx)
    raw: Dict[str, Dict[str, float]] = {}
    bytes_moved: Dict[str, Dict[str, int]] = {}
    for (key, system), res in zip(keys, summaries):
        raw.setdefault(key, {})[system] = res.avg_bandwidth_utilization
        bytes_moved.setdefault(key, {})[system] = res.link_bytes_total
    out: Dict[str, Dict[str, float]] = {}
    for key, per_system in raw.items():
        useful = bytes_moved[key]["CAIS"]
        out[key] = {s: per_system[s] * useful / bytes_moved[key][s]
                    for s in CONFIGS}
        for s in CONFIGS:
            out[key][f"{s} (raw)"] = per_system[s]
    return out


def averages(results: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    return {system: sum(row[system] for row in results.values()) /
            len(results) for system in CONFIGS}


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    rows = [[key] + [row[s] for s in CONFIGS]
            for key, row in results.items()]
    avg = averages(results)
    rows.append(["average"] + [avg[s] for s in CONFIGS])
    return ("### Fig. 15: average goodput bandwidth utilization per "
            "sub-layer\n" +
            markdown_table(["workload"] + list(CONFIGS), rows))
