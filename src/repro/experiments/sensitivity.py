"""Sensitivity studies beyond the paper's figures.

Two sweeps a careful reviewer would ask for:

* **Fabric bandwidth** — CAIS's edge over the NVLS barrier baseline as the
  calibrated link bandwidth varies 4x in each direction: the speedup should
  grow as the workload becomes more communication-bound and shrink (toward,
  but not below, 1x) as compute dominates — evidence that the headline
  numbers are a property of the regime, not of one calibration point.
* **Seed robustness** — the same comparison across RNG seeds (scheduler
  drift, jitter and skew all re-drawn): the speedup's spread should be a
  few percent, far smaller than the effect.
"""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..common.config import dgx_h100_config
from ..llm.models import LLAMA_7B
from ..llm.tp import sublayer_graph
from .parallel import ExecContext, SimTask, run_matrix
from .runner import DEFAULT, Scale, markdown_table, run_system

BANDWIDTHS = (8.0, 16.0, 32.0, 64.0)
SEEDS = (1, 2, 3, 4, 5)


def bandwidth_sweep(scale: Scale = DEFAULT,
                    bandwidths: Sequence[float] = BANDWIDTHS,
                    ctx: Optional[ExecContext] = None,
                    ) -> Dict[float, Dict[str, float]]:
    """CAIS vs SP-NVLS across per-plane link bandwidths (bytes/ns)."""
    model = scale.apply(LLAMA_7B)
    tasks: List[SimTask] = []
    keys: List[tuple] = []
    for bw in bandwidths:
        cfg = dgx_h100_config()
        cfg = replace(cfg, link=replace(cfg.link, bandwidth_gbps=bw))
        for system in ("CAIS", "SP-NVLS"):
            graph = sublayer_graph(model, cfg.num_gpus, "L1")
            tasks.append(SimTask(system=system, graphs=(graph,),
                                 config=cfg, scale=scale))
            keys.append((bw, system))
    summaries = run_matrix(tasks, ctx)
    times: Dict[float, Dict[str, float]] = {}
    for (bw, system), res in zip(keys, summaries):
        times.setdefault(bw, {})[system] = res.makespan_ns
    return {bw: {
        "cais_us": t["CAIS"] / 1e3,
        "baseline_us": t["SP-NVLS"] / 1e3,
        "speedup": t["SP-NVLS"] / t["CAIS"],
    } for bw, t in times.items()}


def seed_sweep(scale: Scale = DEFAULT,
               seeds: Sequence[int] = SEEDS,
               ctx: Optional[ExecContext] = None) -> Dict[str, float]:
    """Speedup statistics across master seeds."""
    model = scale.apply(LLAMA_7B)
    tasks: List[SimTask] = []
    keys: List[tuple] = []
    for seed in seeds:
        cfg = dgx_h100_config(seed=seed)
        for system in ("CAIS", "SP-NVLS"):
            graph = sublayer_graph(model, cfg.num_gpus, "L1")
            tasks.append(SimTask(system=system, graphs=(graph,),
                                 config=cfg, scale=scale))
            keys.append((seed, system))
    summaries = run_matrix(tasks, ctx)
    times: Dict[int, Dict[str, float]] = {}
    for (seed, system), res in zip(keys, summaries):
        times.setdefault(seed, {})[system] = res.makespan_ns
    speedups: List[float] = [times[seed]["SP-NVLS"] / times[seed]["CAIS"]
                             for seed in seeds]
    return {
        "mean": statistics.mean(speedups),
        "stdev": statistics.stdev(speedups) if len(speedups) > 1 else 0.0,
        "min": min(speedups),
        "max": max(speedups),
        "n": len(speedups),
    }


def format_tables(bw: Dict[float, Dict[str, float]],
                  seeds: Dict[str, float]) -> str:
    rows = [[f"{b:.0f} GB/s/plane", r["cais_us"], r["baseline_us"],
             r["speedup"]] for b, r in sorted(bw.items())]
    part_a = ("### Sensitivity: CAIS speedup over SP-NVLS vs fabric "
              "bandwidth\n" +
              markdown_table(["link bandwidth", "CAIS (us)",
                              "SP-NVLS (us)", "speedup"], rows))
    part_b = ("### Sensitivity: speedup across RNG seeds\n" +
              markdown_table(["mean", "stdev", "min", "max", "seeds"],
                             [[seeds["mean"], seeds["stdev"], seeds["min"],
                               seeds["max"], seeds["n"]]]))
    return part_a + "\n\n" + part_b
