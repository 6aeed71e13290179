"""Fig. 12 — sub-layer performance speedup (L1-L4).

The four communication-intensive GEMM-RS + LN + AG-GEMM chains of a
transformer layer (Section V-A-2), run under every system; CAIS's speedup
over each baseline is reported per sub-layer per model plus geomeans.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..common.config import dgx_h100_config
from ..llm.models import TABLE_I
from ..llm.tp import SUBLAYERS
from .parallel import ExecContext, SimTask, run_matrix
from .runner import (
    BASELINES,
    DEFAULT,
    Scale,
    geomean,
    markdown_table,
    run_system,
    sublayer_for,
)

REPORTED = BASELINES + ("CAIS-Base", "CAIS")


def run(scale: Scale = DEFAULT,
        models: Optional[Sequence[str]] = None,
        sublayers: Sequence[str] = SUBLAYERS,
        systems: Sequence[str] = REPORTED,
        ctx: Optional[ExecContext] = None) -> Dict[str, Dict[str, Dict]]:
    """Returns {model: {sublayer: {system: makespan_us}}}."""
    cfg = dgx_h100_config()
    tasks: List[SimTask] = []
    keys: List[tuple] = []
    for model_name in (models or list(TABLE_I)):
        model = scale.apply(TABLE_I[model_name])
        for which in sublayers:
            for system in systems:
                graph = sublayer_for(model, cfg.num_gpus, system, which)
                tasks.append(SimTask(system=system, graphs=(graph,),
                                     config=cfg, scale=scale))
                keys.append((model_name, which, system))
    summaries = run_matrix(tasks, ctx)
    out: Dict[str, Dict[str, Dict]] = {}
    for (model_name, which, system), res in zip(keys, summaries):
        out.setdefault(model_name, {}).setdefault(which, {})[system] = \
            res.makespan_ns / 1e3
    return out


def format_table(results: Dict[str, Dict[str, Dict]]) -> str:
    headers = ["model/sub-layer"] + [s for s in REPORTED if s != "CAIS"]
    rows: List[List[object]] = []
    per_system: Dict[str, List[float]] = {}
    for model_name, subs in results.items():
        for which, systems in subs.items():
            cais = systems["CAIS"]
            row: List[object] = [f"{model_name} {which}"]
            for system in REPORTED:
                if system == "CAIS" or system not in systems:
                    continue
                speedup = systems[system] / cais
                per_system.setdefault(system, []).append(speedup)
                row.append(speedup)
            rows.append(row)
    rows.append(["geomean"] + [geomean(per_system[s])
                               for s in REPORTED if s in per_system])
    return ("### Fig. 12: CAIS speedup over each baseline, per sub-layer\n" +
            markdown_table(headers, rows))
