"""Fig. 18 — validation of the simulated NVLS.

The paper measures NCCL AllReduce with NVLS on real DGX-H100 hardware and
compares its simulator across 1-16 GB messages, reporting a 3.87% average
error.  Without hardware, the reference series is the analytic alpha-beta
model of one-shot NVLS AllReduce (:mod:`repro.collectives.reference`) —
the experiment preserves the validation *structure*: the event-driven
switch/link simulation must independently land on the same curve.

Message sizes are scaled down (tens of MB to ~1 GB instead of 1-16 GB) to
keep chunk-granular event counts tractable; both series are in their
bandwidth-saturated regime, like the paper's.
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..collectives.nvls_collectives import NvlsCollective
from ..collectives.reference import nvls_allreduce_time_ns
from ..common.config import dgx_h100_config
from ..common.events import Simulator
from ..gpu.executor import Executor
from ..interconnect.network import Network
from ..nvls.engine import NvlsEngine
from .runner import markdown_table

SIZES_MB = (64, 128, 256, 512, 1024)


def simulate_allreduce_ns(nbytes: int, chunk_bytes: int = 1 << 17) -> float:
    cfg = dgx_h100_config()
    sim = Simulator()
    net = Network(sim, cfg)
    ex = Executor(sim, cfg, net, jitter_enabled=False)
    for sw in net.switches:
        sw.attach_engine(NvlsEngine())
    coll = NvlsCollective(net, ex.gpus, chunk_bytes=chunk_bytes)
    rid = coll.all_reduce(nbytes, on_complete=lambda: None)
    sim.run()
    return coll.finish_time(rid)


def run(sizes_mb: Sequence[int] = SIZES_MB) -> Dict[int, Dict[str, float]]:
    """Returns {MB: {simulated_us, reference_us, error_%}}."""
    cfg = dgx_h100_config()
    out: Dict[int, Dict[str, float]] = {}
    for mb in sizes_mb:
        nbytes = mb << 20
        simulated = simulate_allreduce_ns(nbytes)
        reference = nvls_allreduce_time_ns(nbytes, cfg)
        out[mb] = {
            "simulated_us": simulated / 1e3,
            "reference_us": reference / 1e3,
            "error_%": abs(simulated - reference) / reference * 100.0,
        }
    return out


def average_error(results: Dict[int, Dict[str, float]]) -> float:
    return sum(r["error_%"] for r in results.values()) / len(results)


def format_table(results: Dict[int, Dict[str, float]]) -> str:
    rows = [[f"{mb} MB", row["simulated_us"], row["reference_us"],
             row["error_%"]] for mb, row in sorted(results.items())]
    rows.append(["average error", "", "", average_error(results)])
    return ("### Fig. 18: simulated NVLS AllReduce vs analytic reference\n" +
            markdown_table(["size", "simulated (us)", "reference (us)",
                            "error (%)"], rows))
