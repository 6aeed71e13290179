"""Fig. 20 — inference-serving throughput and latency (repro extension).

Not a figure from the paper: the paper's evaluation runs one training /
inference step at a time.  This experiment serves a seeded request stream
(Poisson arrivals, per-request prompt/output lengths) through the
continuous-batching scheduler of :mod:`repro.llm.serving` on CAIS and the
NVLS/ring baselines, and reports the serving-native metrics — system
tokens/s, mean/p95 TTFT, and mean TPOT — under identical request streams.

Every (system, spec) cell is one independent simulation, so the matrix
fans out through :func:`repro.experiments.parallel.run_matrix` (worker
pool + content-addressed cache; the :class:`ServingSpec` is part of the
task fingerprint).  The request stream is a pure function of the spec's
seed, so two runs of this experiment are byte-identical — the CI serving
smoke job diffs exactly this output.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..common.config import dgx_h100_config
from ..llm.serving import ServingSpec
from .parallel import ExecContext, SimTask, run_matrix
from .runner import DEFAULT, Scale, markdown_table

#: CAIS against the strongest barrier (NVLS) and software-pipeline (ring)
#: baselines; the full nine-way comparison lives in fig11.
SYSTEMS = ("TP-NVLS", "SP-NVLS", "CoCoNet", "FuseLib", "CAIS")

#: Serving details surfaced per cell (written by ``simulate_serving``).
DETAILS = ("serving.tokens_per_s", "serving.ttft_mean_ns",
           "serving.ttft_p95_ns", "serving.tpot_mean_ns",
           "serving.requests", "serving.tokens", "serving.iterations",
           "serving.evictions")


def spec_for(scale: Scale, seed: int = 2026) -> ServingSpec:
    """The experiment's workload at one scale.

    ``tokens_fraction`` scales the arrival window: the quick preset
    serves a shorter burst of the same request distribution, mirroring
    how the other figures scale token counts.  The rate is set well above
    the systems' service capacity so every system runs saturated and the
    comparison measures steady-state batched throughput, not idle time.
    """
    return ServingSpec(model="Mega-GPT-4B", seed=seed,
                       arrival_rate_rps=40000.0,
                       max_arrival_rate_rps=80000.0,
                       horizon_ms=4.0 * scale.tokens_fraction,
                       prompt_min=64, prompt_max=256,
                       output_min=2, output_max=8,
                       max_batch_requests=8)


def run(scale: Scale = DEFAULT, seed: int = 2026,
        systems: Sequence[str] = SYSTEMS,
        ctx: Optional[ExecContext] = None) -> Dict[str, Dict[str, float]]:
    """Returns {system: {metric: value}} over one shared request stream."""
    spec = spec_for(scale, seed)
    cfg = dgx_h100_config()
    tasks: List[SimTask] = [
        SimTask(system=system, graphs=(), config=cfg, scale=scale,
                serving=spec)
        for system in systems]
    summaries = run_matrix(tasks, ctx)
    out: Dict[str, Dict[str, float]] = {}
    for system, res in zip(systems, summaries):
        details = dict(res.details)
        cell = {"makespan_ns": res.makespan_ns}
        for name in DETAILS:
            cell[name] = details.get(name, 0.0)
        out[system] = cell
    return out


def format_table(results: Dict[str, Dict[str, float]]) -> str:
    rows = []
    for system, cell in results.items():
        rows.append([
            system,
            cell["serving.tokens_per_s"],
            cell["serving.ttft_mean_ns"] / 1e6,
            cell["serving.ttft_p95_ns"] / 1e6,
            cell["serving.tpot_mean_ns"] / 1e6,
            int(cell["serving.requests"]),
            int(cell["serving.tokens"]),
            int(cell["serving.iterations"]),
            int(cell["serving.evictions"]),
        ])
    head = ("### Fig. 20: continuous-batching serving "
            "(shared request stream, saturated arrivals)\n" +
            markdown_table(
                ["system", "tokens/s", "TTFT mean (ms)", "TTFT p95 (ms)",
                 "TPOT mean (ms)", "reqs", "tokens", "iters", "evict"],
                rows))
    cais = results.get("CAIS", {}).get("serving.tokens_per_s", 0.0)
    others = {s: c["serving.tokens_per_s"] for s, c in results.items()
              if s != "CAIS"}
    if cais > 0 and others:
        best = max(others.values())
        tail = (f"\n\nCAIS serves {cais:,.0f} tokens/s — "
                f"{cais / best:.2f}x the best baseline "
                f"({max(others, key=others.get)}).")
    else:
        tail = ""
    return head + tail
