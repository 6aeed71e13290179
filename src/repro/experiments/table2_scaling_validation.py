"""Table II — experimental validation of the scaling-down setup.

The paper compares a full-scale system (132 SMs, full model dimensions)
against the half-scale configuration used everywhere else (66 SMs, matrix
dimensions halved) and shows the CAIS-over-TP-NVLS speedup is preserved
(1.43 vs 1.40).  We run the same pair: the speedup measured on the
half-scale setup should track the full-scale one closely.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.config import dgx_h100_config, full_scale_config
from ..llm.models import LLAMA_7B, LLAMA_FULL
from .parallel import ExecContext, SimTask, run_matrix
from .runner import DEFAULT, Scale, markdown_table, run_system, sublayer_for


def run(scale: Scale = DEFAULT, which: str = "L1",
        ctx: Optional[ExecContext] = None) -> Dict[str, Dict]:
    """Returns {"Full": {...}, "Half": {...}} with per-setup speedups."""
    setups = {
        "Full": (full_scale_config(), LLAMA_FULL),
        "Half": (dgx_h100_config(), LLAMA_7B),
    }
    tasks: List[SimTask] = []
    keys: List[tuple] = []
    for label, (cfg, base_model) in setups.items():
        model = scale.apply(base_model)
        for system in ("CAIS", "TP-NVLS"):
            graph = sublayer_for(model, cfg.num_gpus, system, which)
            tasks.append(SimTask(system=system, graphs=(graph,),
                                 config=cfg, scale=scale))
            keys.append((label, system))
    summaries = run_matrix(tasks, ctx)
    times: Dict[str, Dict[str, float]] = {}
    for (label, system), res in zip(keys, summaries):
        times.setdefault(label, {})[system] = res.makespan_ns
    out: Dict[str, Dict] = {}
    for label, (cfg, base_model) in setups.items():
        model = scale.apply(base_model)
        out[label] = {
            "hidden": model.hidden,
            "ffn_hidden": model.ffn_hidden,
            "heads": model.heads,
            "sms": cfg.gpu.num_sms,
            "speedup": times[label]["TP-NVLS"] / times[label]["CAIS"],
        }
    return out


def format_table(results: Dict[str, Dict]) -> str:
    rows = [[label, row["hidden"], row["ffn_hidden"], row["heads"],
             row["sms"], row["speedup"]]
            for label, row in results.items()]
    return ("### Table II: full- vs half-scale validation "
            "(CAIS speedup over TP-NVLS; paper: 1.43 vs 1.40)\n" +
            markdown_table(["setup", "hidden", "ffn", "heads", "#SM",
                            "CAIS speedup over TP-NVLS"], rows))
