"""Fig. 14 — performance sensitivity to Merge Table size.

LLaMA-7B with merge-table capacities swept from a few entries up to the
shipping 320-entry (40 KB) configuration, for CAIS with and without
merging-aware TB coordination.  The paper's claim: the coordinated system
holds its performance down to small tables while the uncoordinated one
degrades rapidly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..common.config import dgx_h100_config
from ..llm.models import TABLE_I
from .parallel import ExecContext, SimTask, run_matrix
from .runner import DEFAULT, Scale, markdown_table, run_system, sublayer_for

CAPACITIES = (16, 32, 64, 128, 320)


def run(scale: Scale = DEFAULT, model_name: str = "LLaMA-7B",
        which: str = "L1",
        capacities: Sequence[int] = CAPACITIES,
        ctx: Optional[ExecContext] = None) -> Dict[str, Dict[int, float]]:
    """Returns {system: {entries: makespan_us}}."""
    cfg = dgx_h100_config()
    model = scale.apply(TABLE_I[model_name])
    tasks: List[SimTask] = []
    keys: List[tuple] = []
    for system in ("CAIS", "CAIS-w/o-Coord"):
        for entries in capacities:
            graph = sublayer_for(model, cfg.num_gpus, system, which)
            tasks.append(SimTask(
                system=system, graphs=(graph,),
                config=cfg.with_merge_entries(entries), scale=scale))
            keys.append((system, entries))
    summaries = run_matrix(tasks, ctx)
    out: Dict[str, Dict[int, float]] = {}
    for (system, entries), res in zip(keys, summaries):
        out.setdefault(system, {})[entries] = res.makespan_ns / 1e3
    return out


def normalized(results: Dict[str, Dict[int, float]]) -> Dict[str, Dict[int, float]]:
    """Performance (1/time) normalized to coordinated CAIS at max size."""
    best = min(results["CAIS"].values())
    return {system: {entries: best / t for entries, t in row.items()}
            for system, row in results.items()}


def format_table(results: Dict[str, Dict[int, float]]) -> str:
    norm = normalized(results)
    capacities = sorted(next(iter(results.values())))
    headers = ["system"] + [f"{e} entries ({e * 128 // 1024} KB)"
                            for e in capacities]
    rows = [[system] + [norm[system][e] for e in capacities]
            for system in results]
    return ("### Fig. 14: normalized performance vs merge-table size\n" +
            markdown_table(headers, rows))
