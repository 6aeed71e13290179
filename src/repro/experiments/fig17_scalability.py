"""Fig. 17 — scalability with increasing GPU count.

CAIS and CoCoNet-NVLS at 8/16/32 GPUs on LLaMA-7B with the hidden
dimension scaled proportionally to the GPU count (so per-GPU compute stays
constant, as in the paper).  The metric is per-GPU computation throughput
normalized to 8-GPU CAIS; the paper reports under a 5% drop at 32 GPUs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..common.config import dgx_h100_config
from ..llm.models import LLAMA_7B
from .parallel import ExecContext, SimTask, run_matrix
from .runner import DEFAULT, Scale, markdown_table, run_system, sublayer_for

GPU_COUNTS = (8, 16, 32)
SYSTEMS = ("CAIS", "CoCoNet-NVLS")


def scaled_model(gpus: int, scale: Scale):
    """Hidden dims scaled with the GPU count (constant per-GPU shards)."""
    factor = gpus // 8
    model = replace(LLAMA_7B,
                    name=f"LLaMA-7B-x{factor}",
                    hidden=LLAMA_7B.hidden * factor,
                    ffn_hidden=LLAMA_7B.ffn_hidden * factor,
                    heads=LLAMA_7B.heads * factor)
    model = scale.apply(model)
    # Keep at least two 128-row blocks per shard at every GPU count, and
    # seq a multiple of the GPU count so tokens shard evenly.
    min_seq = -(-2 * 128 * gpus // model.batch)
    seq = max(model.seq_len, min_seq)
    seq = -(-seq // gpus) * gpus
    if seq != model.seq_len:
        model = replace(model, seq_len=seq)
    return model


def run(scale: Scale = DEFAULT, which: str = "L1",
        gpu_counts: Sequence[int] = GPU_COUNTS,
        ctx: Optional[ExecContext] = None) -> Dict[str, Dict[int, float]]:
    """Returns {system: {gpus: per-GPU throughput (flops/ns)}}."""
    tasks: List[SimTask] = []
    keys: List[tuple] = []
    for gpus in gpu_counts:
        cfg = dgx_h100_config(num_gpus=gpus)
        model = scaled_model(gpus, scale)
        for system in SYSTEMS:
            graph = sublayer_for(model, gpus, system, which)
            tasks.append(SimTask(system=system, graphs=(graph,),
                                 config=cfg, scale=scale))
            keys.append((system, gpus, graph.total_flops()))
    summaries = run_matrix(tasks, ctx)
    out: Dict[str, Dict[int, float]] = {s: {} for s in SYSTEMS}
    for (system, gpus, flops), res in zip(keys, summaries):
        # Per-GPU arithmetic throughput over the run.
        out[system][gpus] = flops / res.makespan_ns
    return out


def normalized(results: Dict[str, Dict[int, float]]) -> Dict[str, Dict[int, float]]:
    base = results["CAIS"][min(results["CAIS"])]
    return {s: {g: v / base for g, v in row.items()}
            for s, row in results.items()}


def format_table(results: Dict[str, Dict[int, float]]) -> str:
    norm = normalized(results)
    gpu_counts = sorted(next(iter(results.values())))
    rows = [[s] + [norm[s][g] for g in gpu_counts] for s in results]
    return ("### Fig. 17: per-GPU throughput vs GPU count "
            "(normalized to 8-GPU CAIS)\n" +
            markdown_table(["system"] + [f"{g} GPUs" for g in gpu_counts],
                           rows))
