"""Fig. 2 — computation vs. communication time when scaling up.

The paper runs LLaMA-7B on the simulated fabric and shows communication
time overtaking computation beyond 4-8 GPUs (about 1.6x computation at 8
GPUs).  We measure the same two quantities per transformer layer: the
makespan of the layer's compute kernels alone, and the duration of its
collective operations alone (GPU-driven ring transport, as in the
motivational setup that predates the in-switch optimizations).
"""

from __future__ import annotations

from typing import Dict, List

from ..common.config import dgx_h100_config
from ..common.events import Simulator
from ..collectives.ring import RingCollective
from ..gpu.executor import Executor
from ..interconnect.network import Network
from ..llm.graph import CommKind, OpKind
from ..llm.models import LLAMA_7B
from ..llm.tiling import compute_kernel, reset_tensor_ids
from ..llm.tp import sp_forward_layer
from .runner import DEFAULT, Scale, markdown_table

GPU_COUNTS = (2, 4, 8, 16)


def compute_time_ns(model, tp: int, scale: Scale) -> float:
    """Makespan of the layer's compute kernels, run back to back."""
    cfg = dgx_h100_config().with_gpus(tp)
    sim = Simulator()
    net = Network(sim, cfg)
    ex = Executor(sim, cfg, net, jitter_enabled=False)
    graph = sp_forward_layer(model, tp)
    ops = [op for op in graph.topo_order() if op.kind is not OpKind.COMM]

    def launch(index: int) -> None:
        if index == len(ops):
            return
        kernel = compute_kernel(ops[index], cfg.gpu, scale.tiling)
        # Strictly sequential chain: each launch happens alone in its frame.
        ex.launch_kernel(kernel, on_complete=lambda: launch(index + 1),
                         isolated=True)

    launch(0)
    return ex.run()


def comm_time_ns(model, tp: int, scale: Scale) -> float:
    """Duration of the layer's collectives, run back to back on an idle
    fabric with the ring transport."""
    cfg = dgx_h100_config().with_gpus(tp)
    sim = Simulator()
    net = Network(sim, cfg)
    ex = Executor(sim, cfg, net, jitter_enabled=False)
    ring = RingCollective(net, ex.gpus, chunk_bytes=scale.coll_chunk_bytes)
    graph = sp_forward_layer(model, tp)
    comms = graph.comm_ops()

    def launch(index: int) -> None:
        if index == len(comms):
            return
        op = comms[index]
        runner = {CommKind.ALL_REDUCE: ring.all_reduce,
                  CommKind.REDUCE_SCATTER: ring.reduce_scatter,
                  CommKind.ALL_GATHER: ring.all_gather}[op.comm]
        runner(op.comm_bytes, on_complete=lambda: launch(index + 1))

    launch(0)
    sim.run()
    return sim.now


def run(scale: Scale = DEFAULT) -> Dict[int, Dict[str, float]]:
    """Returns {gpus: {compute_us, comm_us, ratio}} for LLaMA-7B."""
    results: Dict[int, Dict[str, float]] = {}
    for tp in GPU_COUNTS:
        reset_tensor_ids()
        model = scale.apply(LLAMA_7B)
        compute = compute_time_ns(model, tp, scale)
        comm = comm_time_ns(model, tp, scale)
        results[tp] = {
            "compute_us": compute / 1e3,
            "comm_us": comm / 1e3,
            "ratio": comm / compute,
        }
    return results


def format_table(results: Dict[int, Dict[str, float]]) -> str:
    rows: List[List[object]] = []
    for tp, row in sorted(results.items()):
        rows.append([tp, row["compute_us"], row["comm_us"], row["ratio"]])
    return markdown_table(
        ["GPUs", "compute (us/layer)", "comm (us/layer)", "comm/compute"],
        rows)
