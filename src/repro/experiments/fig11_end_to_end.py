"""Fig. 11 — end-to-end model speedup across training and inference.

For each Table-I model we run one transformer layer (forward for the
inference prefill; forward + backward for training) under every system and
report CAIS's speedup over each baseline.  End-to-end time is the per-layer
time multiplied by the layer count — TP communication repeats identically
per layer, so the multiplier cancels in the speedups the figure reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..common.config import dgx_h100_config
from ..llm.models import TABLE_I
from ..systems import SYSTEM_CLASSES
from .parallel import ExecContext, SimTask, run_matrix
from .runner import (
    BASELINES,
    DEFAULT,
    Scale,
    geomean,
    layer_graphs,
    markdown_table,
    run_system,
)

#: Systems reported in the figure (baselines + CAIS + CAIS-Base).
REPORTED = BASELINES + ("CAIS-Base", "CAIS")


def run(scale: Scale = DEFAULT, training: bool = True,
        models: Optional[Sequence[str]] = None,
        systems: Sequence[str] = REPORTED,
        ctx: Optional[ExecContext] = None) -> Dict[str, Dict[str, Dict]]:
    """Returns {mode: {model: {system: per-layer us / e2e ms}}}."""
    cfg = dgx_h100_config()
    modes = ["inference"] + (["training"] if training else [])
    tasks: List[SimTask] = []
    keys: List[tuple] = []
    for model_name in (models or list(TABLE_I)):
        model = scale.apply(TABLE_I[model_name])
        for mode in modes:
            for system in systems:
                graphs = layer_graphs(model, cfg.num_gpus, system,
                                      training=(mode == "training"))
                tasks.append(SimTask(system=system, graphs=tuple(graphs),
                                     config=cfg, scale=scale))
                keys.append((mode, model_name, system))
    summaries = run_matrix(tasks, ctx)
    out: Dict[str, Dict[str, Dict]] = {m: {} for m in modes}
    for (mode, model_name, system), res in zip(keys, summaries):
        layers = TABLE_I[model_name].layers
        out[mode].setdefault(model_name, {})[system] = {
            "per_layer_us": res.makespan_ns / 1e3,
            "end_to_end_ms": res.makespan_ns * layers / 1e6,
            "utilization": res.avg_bandwidth_utilization,
        }
    return out


def speedup_rows(results: Dict[str, Dict[str, Dict]],
                 mode: str) -> List[List[object]]:
    rows: List[List[object]] = []
    per_system: Dict[str, List[float]] = {}
    for model_name, systems in results[mode].items():
        cais = systems["CAIS"]["per_layer_us"]
        row: List[object] = [model_name]
        for system in REPORTED:
            if system == "CAIS" or system not in systems:
                continue
            speedup = systems[system]["per_layer_us"] / cais
            per_system.setdefault(system, []).append(speedup)
            row.append(speedup)
        rows.append(row)
    rows.append(["geomean"] + [geomean(per_system[s])
                               for s in REPORTED if s in per_system])
    return rows


def format_table(results: Dict[str, Dict[str, Dict]]) -> str:
    sections = []
    for mode in results:
        headers = ["model"] + [s for s in REPORTED if s != "CAIS"]
        sections.append(f"### Fig. 11 ({mode}): CAIS speedup over each "
                        f"baseline\n" +
                        markdown_table(headers, speedup_rows(results, mode)))
    return "\n\n".join(sections)
